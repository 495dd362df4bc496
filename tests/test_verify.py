"""The finite-difference suite's cases take a stack of inputs, one per row."""

import numpy as np
import pytest

from groundact import verify
from groundact.tensor import Tensor, no_grad

_rng = np.random.default_rng(0)
CASES = verify.op_cases(_rng) + verify.block_cases(_rng)


@pytest.mark.parametrize("name,f,x", CASES, ids=[c[0] for c in CASES])
def test_case_rows_are_independent(name, f, x):
    # grad_check evaluates every perturbed input as one row of a stack, so a
    # row's value must not depend on the other rows
    nudge = np.random.default_rng(1).uniform(-0.05, 0.05, size=(2, *x.shape))
    stack = np.stack([x.data, x.data + nudge[0], x.data + nudge[1]])
    with no_grad():
        stacked = f(Tensor(stack)).data
        alone = [f(Tensor(stack[k:k + 1])).data[0] for k in range(3)]
    assert stacked.shape == (3,) and len(set(alone)) == 3
    np.testing.assert_allclose(stacked, alone, rtol=0, atol=1e-12)


@pytest.mark.parametrize("repeats", [0, -1])
def test_run_suite_rejects_fewer_than_one_repeat(repeats):
    # zero repeats would check nothing and report a worst error of 0
    with pytest.raises(ValueError, match="repeats must be at least 1"):
        verify.run_suite(repeats=repeats)
