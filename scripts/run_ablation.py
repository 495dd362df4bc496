#!/usr/bin/env python3
"""Component on/off sweep on a 64-clip synthetic benchmark.

Trains four variants (features-only, encoder, encoder+decoder, no-fusion)
from scratch with the same budget, averaged over seeds, and prints the
seed-averaged Merged-MCA / keyframe-IoU table.
"""

import argparse
import json

from groundact import data as D
from groundact.ablation import run_ablation
from groundact.cli import _at_least_one, _seed
from groundact.config import ExperimentConfig, ModelConfig, TrainConfig


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--steps", type=_at_least_one, default=300)
    ap.add_argument("--seeds", type=_seed, nargs="+", default=[0, 1, 2])
    ap.add_argument("--clips", type=_at_least_one, default=64)
    ap.add_argument("--out", help="optional JSON path for the summary")
    args = ap.parse_args()

    cfg = ExperimentConfig()
    cfg.model = ModelConfig(d_model=32, num_heads=4, d_ff_mult=2, dropout=0.0,
                            encoder_layers=2, decoder_layers=2, frames=4,
                            grid_h=4, grid_w=4, raster_h=32, raster_w=32,
                            num_queries=3)
    cfg.train = TrainConfig(peak_lr=1e-3, warmup_epochs=1, total_epochs=4,
                            steps_per_epoch=225, batch_size=8, eval_every=0)
    corpus = D.generate_corpus(seed=7, num_clips=args.clips, num_actors=3,
                               t_total=8, motion_pool=("stationary", "linear",
                                                       "oscillate"))
    res = run_ablation(cfg, corpus, corpus, seeds=tuple(args.seeds),
                       max_steps=args.steps)
    for line in res.summary_lines():
        print(line)
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(res.per_variant, fh, indent=2)
        print(f"wrote {args.out}")


if __name__ == "__main__":
    main()
