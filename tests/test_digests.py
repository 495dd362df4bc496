"""The program's arithmetic is pinned: a one-BLAS-thread child computes the
digests of ``digests.py`` (10 training steps of the overfit, weak and
ablation experiments, each trained model's evaluation, and one gradient
suite pass), and they must equal the ones stored for this platform."""

import json
from pathlib import Path

import pytest

import helpers as H

HERE = Path(__file__).resolve().parent


def test_arithmetic_matches_the_pinned_digests():
    run = H.run_python(str(HERE / "digests.py"))
    assert run.returncode == 0, run.stderr
    found = json.loads(run.stdout.splitlines()[-1])
    key = found["key"]
    pinned = json.loads((HERE / "fixtures" / "digests.json").read_text())
    if key not in pinned:
        pytest.skip(f"no pinned digests for {key!r}; write them with "
                    f"`OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python "
                    f"tests/digests.py --write`")
    changed = sorted(k for k in pinned[key]
                     if pinned[key][k] != found["digests"].get(k))
    assert not changed, (f"arithmetic differs from the pinned digests in "
                         f"{changed} on {key}")
    assert found["digests"].keys() == pinned[key].keys()
