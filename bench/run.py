#!/usr/bin/env python3
"""groundact benchmark: one workload, one seed, one run.

    python3 bench/run.py --workload overfit --seed 1 --seconds 30 --trace 0

Run from the root of a source tree; the program is imported from ``src/``.
With ``--trace 0`` the end-to-end metrics are measured; with ``--trace 1``
every other round runs under the span tracer and the per-layer split is
reported (spans are written to ``bench/out/``).  The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics`` (name -> value and unit).  See ``bench/README.md``.
"""

import argparse
import json
import os
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=("overfit", "crowd", "gradcheck"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not os.path.isfile(os.path.join(SRC, "groundact", "__init__.py")):
        print(f"no groundact sources under {SRC}", file=sys.stderr)
        return 2
    # one compute thread: the shapes are small, and a shared 2-CPU box gives
    # steadier timings without BLAS worker threads
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path.insert(0, SRC)

    start = time.perf_counter()
    import numpy  # noqa: F401  (timed as part of set-up)
    import groundact
    import workloads
    import_s = time.perf_counter() - start
    if not groundact.__file__.startswith(SRC):
        print(f"groundact imported from {groundact.__file__}, not {SRC}",
              file=sys.stderr)
        return 2

    from tracer import Tracer
    w = workloads.WORKLOADS[args.workload]
    tracer = Tracer() if args.trace else None
    run = workloads.Run(w, args.seed, tracer)
    inputs = run.setup()
    began = time.perf_counter()
    rounds = 0
    # whole rounds only, at least one per input; every workload has three
    # inputs or more, so a traced run has untraced rounds to compare with
    while rounds < len(inputs) or time.perf_counter() - began < args.seconds:
        run.round(inputs[rounds % len(inputs)], rounds)
        rounds += 1

    if tracer:
        metrics = run.per_layer()
        os.makedirs(workloads.OUT_DIR, exist_ok=True)
        tracer.dump(os.path.join(workloads.OUT_DIR,
                                 f"trace-{w.name}-seed{args.seed}.json"))
    else:
        metrics = run.end_to_end(import_s)
    print(f"{w.name} seed {args.seed}: {rounds} rounds in "
          f"{time.perf_counter() - began:.1f} s")
    for name, (value, unit) in metrics.items():
        print(f"  {name:32s} {value:12.4f} {unit}")
    print(f"  attempted {run.attempted}, failed {run.failed}, "
          f"correct {run.correct}")
    print(json.dumps({
        "correct": run.correct, "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
