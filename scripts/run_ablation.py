#!/usr/bin/env python3
"""Component on/off sweep on a 64-clip synthetic benchmark.

Trains four variants (features-only, encoder, encoder+decoder, no-fusion)
from scratch with the same budget, averaged over seeds, and prints the
seed-averaged Merged-MCA / keyframe-IoU table.
"""

import argparse
import json

from groundact import experiments as E
from groundact.cli import _at_least_one, _seed


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--steps", type=_at_least_one, default=E.ABLATION_STEPS)
    ap.add_argument("--seeds", type=_seed, nargs="+",
                    default=list(E.ABLATION_SEEDS))
    ap.add_argument("--clips", type=_at_least_one, default=E.ABLATION_CLIPS)
    ap.add_argument("--out", help="optional JSON path for the summary")
    args = ap.parse_args()

    corpus = E.ablation_corpus(args.clips)
    res = E.run_ablation(E.ablation_config(), corpus, corpus,
                         seeds=tuple(args.seeds), max_steps=args.steps)
    for line in res.summary_lines():
        print(line)
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(res.per_variant, fh, indent=2)
        print(f"wrote {args.out}")


if __name__ == "__main__":
    main()
