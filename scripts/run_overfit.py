#!/usr/bin/env python3
"""Overfit a small model on an 8-clip synthetic fixture and report metrics.

Expected outcome with the defaults: final loss well under 5% of the initial
loss, matched keyframe IoU above 0.75, and all 8 group activities correct.
"""

import argparse
import time

from groundact import backbones as bb
from groundact import data as D
from groundact.cli import _at_least_one, _seed
from groundact.config import ExperimentConfig, ModelConfig, TrainConfig
from groundact.training import evaluate, train


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--steps", type=_at_least_one, default=500)
    ap.add_argument("--seed", type=_seed, default=0)
    ap.add_argument("--mode", choices=("full", "weak"), default="full")
    ap.add_argument("--queries", type=_at_least_one, default=2)
    args = ap.parse_args()

    cfg = ExperimentConfig()
    cfg.model = ModelConfig(d_model=64, num_heads=4, d_ff_mult=2, dropout=0.0,
                            encoder_layers=2, decoder_layers=2, frames=8,
                            grid_h=4, grid_w=4, raster_h=32, raster_w=32,
                            num_queries=args.queries)
    cfg.train = TrainConfig(peak_lr=1e-3, warmup_epochs=1, total_epochs=20,
                            steps_per_epoch=25, batch_size=8, seed=args.seed,
                            eval_every=0, mode=args.mode)
    corpus = D.generate_corpus(seed=0, num_clips=8, num_actors=2, t_total=8,
                               motion_pool=("stationary", "linear",
                                            "oscillate"))
    vocab = bb.load_vocab()
    start = time.time()
    res = train(cfg, corpus, max_steps=args.steps, vocab=vocab)
    elapsed = time.time() - start
    if args.mode == "weak":
        corpus = [(c, D.weak_supervision_view(a)) for c, a in corpus]
    ev = evaluate(res.model, corpus, cfg, vocab)

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
