"""Command-line surface: gen-data, train, eval, retrieve, gradcheck, ablate."""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import List, Tuple

import numpy as np

from . import backbones as bb
from . import data as D
from .backbones import VideoClip
from .config import ExperimentConfig, load_config, save_config
from .tensor import load_arrays, save_arrays


def save_corpus(out_dir: str, corpus):
    os.makedirs(out_dir, exist_ok=True)
    save_arrays(os.path.join(out_dir, "clips.bin"),
                {c.clip_id: c.frames for c, _ in corpus})
    D.save_annotations(os.path.join(out_dir, "annotations.txt"),
                       [a for _, a in corpus])


def load_corpus(data_dir: str):
    anns = D.load_annotations(os.path.join(data_dir, "annotations.txt"))
    frames = load_arrays(os.path.join(data_dir, "clips.bin"))
    corpus = []
    for ann in anns:
        if ann.clip_id not in frames:
            raise D.DataError(f"no clip array for {ann.clip_id}")
        corpus.append((VideoClip(frames[ann.clip_id], 8.0, ann.clip_id), ann))
    return corpus


def _load_cfg(args) -> ExperimentConfig:
    if getattr(args, "config", None):
        return load_config(args.config)
    return ExperimentConfig()


def cmd_gen_data(args) -> int:
    corpus = D.generate_corpus(seed=args.seed, num_clips=args.clips,
                               num_actors=args.actors, t_total=args.frames,
                               raster=(args.raster, args.raster))
    save_corpus(args.out, corpus)
    print(f"wrote {len(corpus)} clips to {args.out}")
    return 0


def cmd_train(args) -> int:
    from .training import train
    cfg = _load_cfg(args)
    if args.seed is not None:
        cfg.train.seed = args.seed
    corpus = load_corpus(args.data)
    res = train(cfg, corpus, mode=args.mode, log_path=args.log,
                checkpoint_path=args.out, max_steps=args.steps)
    print(f"trained {len(res.history)} steps: initial loss "
          f"{res.initial_loss:.4f}, final loss {res.final_loss:.4f}")
    if args.out:
        print(f"checkpoint: {args.out}")
    return 0


def cmd_eval(args) -> int:
    from .training import evaluate, load_checkpoint, retrieval_recall
    model, cfg, _, _ = load_checkpoint(args.checkpoint)
    corpus = load_corpus(args.data)
    vocab = bb.load_vocab()
    wanted = [m.strip() for m in args.metrics.split(",") if m.strip()]
    ev = evaluate(model, corpus, cfg, vocab)
    out = {}
    for m in wanted:
        if m == "mca":
            out["mca"] = ev.mca
        elif m == "merged-mca":
            out["merged_mca"] = ev.merged_mca
        elif m == "mpca":
            out["mpca"] = ev.mpca
        elif m == "prf":
            out["p_g"], out["r_g"], out["f_g"] = ev.action_prf
        elif m == "iou":
            out["mean_keyframe_iou"] = ev.mean_keyframe_iou
        elif m.startswith("recall@"):
            k = int(m.split("@")[1])
            rk = retrieval_recall(model, corpus, cfg, vocab, ks=(k,))
            out[f"recall@{k}"] = rk.get(k)
        else:
            print(f"unknown metric {m!r}", file=sys.stderr)
            return 2
    for k, v in out.items():
        print(f"{k}: {v:.4f}" if v is not None else f"{k}: n/a")
    if args.predictions:
        from .metrics import save_predictions
        save_predictions(args.predictions, ev.records)
        print(f"predictions: {args.predictions}")
    return 0


def cmd_retrieve(args) -> int:
    from .training import (actor_embedding_pool, load_checkpoint,
                           text_query_embedding)
    model, cfg, _, _ = load_checkpoint(args.checkpoint)
    corpus = load_corpus(args.data)
    vocab = bb.load_vocab()
    query = text_query_embedding(model, args.prompt, vocab)
    embeddings, entries = actor_embedding_pool(model, corpus, cfg, vocab)
    qn = query / max(np.linalg.norm(query), 1e-12)
    cn = embeddings / np.maximum(
        np.linalg.norm(embeddings, axis=-1, keepdims=True), 1e-12)
    sims = cn @ qn
    order = np.lexsort((np.arange(len(entries)), -sims))[:args.top]
    for rank, i in enumerate(order, start=1):
        e = entries[i]
        box = ", ".join(f"{v:.3f}" for v in e["keyframe_box"])
        acts = " ".join(D.ACTIONS[a] for a in e["actions"])
        print(f"{rank:2d}. sim={sims[i]:.4f} clip={e['clip_id']} "
              f"track={e['track_id']} actions=[{acts}] box=({box})")
    return 0


def cmd_gradcheck(args) -> int:
    from .verify import TOLERANCE, run_suite
    results = run_suite(seed=args.seed, repeats=args.repeats)
    worst = 0.0
    failed = []
    for name, err in sorted(results.items()):
        status = "ok" if err <= TOLERANCE else "FAIL"
        print(f"{name:26s} {err:.3e}  {status}")
        worst = max(worst, err)
        if err > TOLERANCE:
            failed.append(name)
    print(f"worst: {worst:.3e} (tolerance {TOLERANCE:.0e})")
    return 1 if failed else 0


def cmd_ablate(args) -> int:
    from .ablation import run_ablation
    cfg = _load_cfg(args)
    corpus = load_corpus(args.data)
    train_set, test_set = D.make_splits(corpus, (0.75, 0.25), seed=args.seed)
    seeds = [int(s) for s in args.seeds.split(",")]
    res = run_ablation(cfg, train_set, test_set, seeds=seeds,
                       max_steps=args.steps)
    for line in res.summary_lines():
        print(line)
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(res.per_variant, fh, indent=2, sort_keys=True)
    return 0


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="groundact",
        description="Grounded group activity recognition at desk scale")
    sub = p.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen-data", help="emit a synthetic clip corpus")
    g.add_argument("--out", required=True)
    g.add_argument("--clips", type=int, default=64)
    g.add_argument("--actors", type=int, default=2)
    g.add_argument("--frames", type=int, default=8)
    g.add_argument("--raster", type=int, default=32)
    g.add_argument("--seed", type=int, default=0)
    g.set_defaults(func=cmd_gen_data)

    t = sub.add_parser("train", help="train on a corpus directory")
    t.add_argument("--config", help="INI config file (defaults otherwise)")
    t.add_argument("--data", required=True)
    t.add_argument("--mode", choices=["full", "weak"],
                   help="supervision mode (default: [train] mode)")
    t.add_argument("--seed", type=int)
    t.add_argument("--steps", type=int, help="cap on training steps")
    t.add_argument("--out", help="checkpoint path")
    t.add_argument("--log", help="metrics log path (JSON lines)")
    t.set_defaults(func=cmd_train)

    e = sub.add_parser("eval", help="evaluate a checkpoint")
    e.add_argument("--checkpoint", required=True)
    e.add_argument("--data", required=True)
    e.add_argument("--metrics",
                   default="mca,merged-mca,prf,iou",
                   help="comma list: mca, merged-mca, mpca, prf, iou, recall@K")
    e.add_argument("--predictions", help="write prediction records here")
    e.set_defaults(func=cmd_eval)

    r = sub.add_parser("retrieve", help="rank actors for a text prompt")
    r.add_argument("--checkpoint", required=True)
    r.add_argument("--data", required=True)
    r.add_argument("--prompt", required=True)
    r.add_argument("--top", type=int, default=10)
    r.set_defaults(func=cmd_retrieve)

    c = sub.add_parser("gradcheck", help="run the operator gradient suite")
    c.add_argument("--seed", type=int, default=0)
    c.add_argument("--repeats", type=int, default=1)
    c.set_defaults(func=cmd_gradcheck)

    a = sub.add_parser("ablate", help="encoder/decoder/fusion on-off sweep")
    a.add_argument("--config")
    a.add_argument("--data", required=True)
    a.add_argument("--seeds", default="0,1,2")
    a.add_argument("--seed", type=int, default=0, help="split seed")
    a.add_argument("--steps", type=int)
    a.add_argument("--out", help="write JSON summary here")
    a.set_defaults(func=cmd_ablate)
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
