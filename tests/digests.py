"""Digests of the program's arithmetic: what 10 training steps, an
evaluation and the gradient suite compute, bit for bit.

    PYTHONPATH=src OPENBLAS_NUM_THREADS=1 python tests/digests.py
    PYTHONPATH=src OPENBLAS_NUM_THREADS=1 python tests/digests.py --write

The first form prints one JSON object: this platform's key and its digests.
The second also stores them under that key in ``fixtures/digests.json``,
which ``test_digests.py`` compares against.  Floating-point results depend
on the numpy build, on the BLAS kernels chosen for the CPU and on the BLAS
thread count, so the key names all three; one platform's digests say
nothing about another's.
"""

import argparse
import ctypes
import dataclasses
import glob
import hashlib
import json
import os
import sys

import numpy as np

FIXTURE = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                       "fixtures", "digests.json")
STEPS = 10
ABLATION_CLIPS = 16


def _openblas():
    """numpy's bundled OpenBLAS as a ctypes library, or None."""
    libs = os.path.join(os.path.dirname(os.path.dirname(np.__file__)),
                        "numpy.libs")
    paths = sorted(glob.glob(os.path.join(libs, "*openblas*")))
    return ctypes.CDLL(paths[0]) if paths else None


def _blas_call(lib, names, restype):
    for name in names:
        fn = getattr(lib, name, None) if lib is not None else None
        if fn is not None:
            fn.argtypes, fn.restype = [], restype
            return fn()
    return None


def platform_key() -> str:
    """numpy's version, the OpenBLAS core in use and its thread count."""
    lib = _openblas()
    core = _blas_call(lib, ["scipy_openblas_get_corename64_",
                            "openblas_get_corename64_",
                            "openblas_get_corename"], ctypes.c_char_p)
    threads = _blas_call(lib, ["scipy_openblas_get_num_threads64_",
                               "openblas_get_num_threads64_",
                               "openblas_get_num_threads"], ctypes.c_int)
    core = core.decode() if core else "unknown"
    threads = threads if threads is not None else "unknown"
    return f"numpy {np.__version__}, OpenBLAS core {core}, {threads} thread(s)"


def _sha(*parts: bytes) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part)
    return h.hexdigest()


def _train_digests(name, cfg, corpus) -> dict:
    """Digests of ``STEPS`` steps of ``train`` (every parameter's name and
    bytes, and the log) and of the trained model's ``evaluate``."""
    from groundact import backbones as bb
    from groundact import data as D
    from groundact.training import evaluate, train
    vocab = bb.load_vocab()
    res = train(cfg, corpus, max_steps=STEPS, vocab=vocab)
    params = sorted(res.model.named_parameters().items())
    trained = _sha(*(k.encode() + p.data.tobytes() for k, p in params),
                   json.dumps(res.history, sort_keys=True).encode())
    if cfg.train.mode == "weak":
        corpus = [(c, D.weak_supervision_view(a)) for c, a in corpus]
    ev = evaluate(res.model, corpus, cfg, vocab)
    # json writes floats by repr, which round-trips every bit
    scored = _sha(json.dumps(dataclasses.asdict(ev), sort_keys=True).encode())
    return {f"{name}/train": trained, f"{name}/evaluate": scored}


def digests() -> dict:
    from groundact import experiments as E
    from groundact import verify
    out = {}
    out.update(_train_digests("overfit-full", E.overfit_config("full"),
                              E.overfit_corpus()))
    out.update(_train_digests("overfit-weak", E.overfit_config("weak"),
                              E.overfit_corpus()))
    out.update(_train_digests("ablation", E.ablation_config(),
                              E.ablation_corpus(ABLATION_CLIPS)))
    suite = verify.run_suite(seed=0)
    out["run_suite"] = _sha(json.dumps(suite, sort_keys=True).encode())
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--write", action="store_true",
                    help=f"store the digests under this platform's key in "
                         f"{FIXTURE}")
    args = ap.parse_args(argv)
    key, found = platform_key(), digests()
    if args.write:
        try:
            with open(FIXTURE) as fh:
                table = json.load(fh)
        except FileNotFoundError:
            table = {}
        table[key] = found
        with open(FIXTURE, "w") as fh:
            json.dump(table, fh, indent=2, sort_keys=True)
            fh.write("\n")
    print(json.dumps({"key": key, "digests": found}, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
