#!/usr/bin/env python3
"""Overfit a small model on an 8-clip synthetic fixture and report metrics.

Expected outcome with the defaults: final loss well under 5% of the initial
loss, matched keyframe IoU above 0.75, and all 8 group activities correct.
"""

import argparse

from groundact import experiments as E
from groundact.cli import _at_least_one, _seed


def main():
    cfg = E.overfit_config()
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--steps", type=_at_least_one, default=E.OVERFIT_STEPS)
    ap.add_argument("--seed", type=_seed, default=cfg.train.seed)
    ap.add_argument("--mode", choices=("full", "weak"), default=cfg.train.mode)
    ap.add_argument("--queries", type=_at_least_one,
                    default=cfg.model.num_queries)
    args = ap.parse_args()

    cfg.train.seed, cfg.train.mode = args.seed, args.mode
    cfg.model.num_queries = args.queries
    res, ev, elapsed = E.train_and_evaluate(cfg, E.overfit_corpus(),
                                            args.steps)

    print(f"trained {args.steps} steps in {elapsed:.0f}s ({args.mode} mode)")
    print(f"loss: {res.initial_loss:.3f} -> {res.final_loss:.3f} "
          f"({res.final_loss / res.initial_loss:.1%} of initial)")
    print(f"keyframe IoU (matched): {ev.mean_keyframe_iou:.3f}")
    print(f"group accuracy: {ev.group_accuracy:.3f}")
    if args.mode == "weak":
        print("max logged action-BCE:",
              max(r["action_bce"] for r in res.history))


if __name__ == "__main__":
    main()
