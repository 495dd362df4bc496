"""Command-line surface: gen-data, train, eval, retrieve, gradcheck, ablate."""

from __future__ import annotations

import argparse
import json
import os
import re
import sys

from . import backbones as bb
from . import data as D
from .backbones import DataError, VideoClip
from .config import ConfigError, ExperimentConfig, load_config
from .data import ParseError
from .optim import OptimizerError
from .tensor import ContainerError, load_arrays, save_arrays
from .training import (TrainingError, embedding_pool, infer_matched,
                       load_checkpoint, retrieval_recall, score,
                       text_query_embedding, train)

# errors in what the user gave the program: a config, a corpus, a checkpoint,
# a split or a schedule, or a path to one that cannot be read.  main reports
# them in one line; any other exception is a fault of the program and keeps
# its traceback
_USER_ERRORS = (ConfigError, ParseError, DataError, TrainingError,
                OptimizerError, ContainerError)


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
        corpus.append((VideoClip(frames[ann.clip_id], ann.clip_id), ann))
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
    cfg = _load_cfg(args)
    if args.seed is not None:
        cfg.train.seed = args.seed
    if args.mode is not None:
        cfg.train.mode = args.mode
    corpus = load_corpus(args.data)
    res = train(cfg, corpus, log_path=args.log,
                checkpoint_path=args.out, max_steps=args.steps)
    print(f"trained {len(res.history)} steps: initial loss "
          f"{res.initial_loss:.4f}, final loss {res.final_loss:.4f}")
    if args.out:
        print(f"checkpoint: {args.out}")
    return 0


_EVAL_METRICS = {
    "mca": lambda ev: {"mca": ev.group_accuracy},
    "merged-mca": lambda ev: {"merged_mca": ev.merged_mca},
    "mpca": lambda ev: {"mpca": ev.mpca},
    "prf": lambda ev: dict(zip(("p_g", "r_g", "f_g"), ev.action_prf)),
    "iou": lambda ev: {"mean_keyframe_iou": ev.mean_keyframe_iou},
}


def cmd_eval(args) -> int:
    wanted = [m.strip() for m in args.metrics.split(",") if m.strip()]
    for m in wanted:
        if not (m in _EVAL_METRICS
                or re.fullmatch(r"recall@[1-9][0-9]*", m)):
            print(f"unknown metric {m!r}; expected one of "
                  f"{', '.join(_EVAL_METRICS)} or recall@K with K >= 1",
                  file=sys.stderr)
            return 2
    model, cfg, _, _ = load_checkpoint(args.checkpoint)
    corpus = load_corpus(args.data)
    vocab = bb.load_vocab()
    # one forward and one matching serve the metrics and every recall@K
    inference = infer_matched(model, corpus, cfg, vocab)
    ev = score(inference, cfg)
    ks = [int(m.split("@")[1]) for m in wanted if m not in _EVAL_METRICS]
    rk = (retrieval_recall(model, *embedding_pool(inference, cfg), vocab,
                           ks=tuple(ks)) if ks else {})
    out = {}
    for m in wanted:
        if m in _EVAL_METRICS:
            out.update(_EVAL_METRICS[m](ev))
        else:
            k = int(m.split("@")[1])
            out[f"recall@{k}"] = rk.get(k)
    for k, v in out.items():
        print(f"{k}: {v:.4f}" if v is not None else f"{k}: n/a")
    if args.predictions:
        from .metrics import save_predictions
        save_predictions(args.predictions, ev.records)
        print(f"predictions: {args.predictions}")
    return 0


def cmd_retrieve(args) -> int:
    from .metrics import cosine_ranking
    model, cfg, _, _ = load_checkpoint(args.checkpoint)
    corpus = load_corpus(args.data)
    vocab = bb.load_vocab()
    query = text_query_embedding(model, args.prompt, vocab)
    embeddings, entries = embedding_pool(
        infer_matched(model, corpus, cfg, vocab), cfg)
    sims, order = cosine_ranking(query[None], embeddings)
    for rank, i in enumerate(order[0, :args.top], start=1):
        e = entries[i]
        box = ", ".join(f"{v:.3f}" for v in e["keyframe_box"])
        acts = " ".join(D.ACTIONS[a] for a in e["actions"])
        print(f"{rank:2d}. sim={sims[0, i]:.4f} clip={e['clip_id']} "
              f"track={e['track_id']} actions=[{acts}] box=({box})")
    return 0


def cmd_gradcheck(args) -> int:
    from .verify import TOLERANCE, run_suite
    results = run_suite(seed=args.seed, repeats=args.repeats)
    for name, err in sorted(results.items()):
        status = "ok" if err <= TOLERANCE else "FAIL"
        print(f"{name:28s} {err:.3e}  {status}")
    worst = max(results.values())
    print(f"worst: {worst:.3e} (tolerance {TOLERANCE:.0e})")
    return 1 if worst > TOLERANCE else 0


def cmd_ablate(args) -> int:
    from .experiments import run_ablation
    cfg = _load_cfg(args)
    corpus = load_corpus(args.data)
    train_set, test_set = D.make_splits(corpus, (0.75, 0.25), seed=args.seed)
    res = run_ablation(cfg, train_set, test_set, seeds=args.seeds,
                       max_steps=args.steps)
    for line in res.summary_lines():
        print(line)
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(res.per_variant, fh, indent=2, sort_keys=True)
    return 0


def _at_least_one(text: str) -> int:
    """An integer argument that must be 1 or more."""
    try:
        n = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")
    if n < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {n}")
    return n


def _seed(text: str) -> int:
    """A seed argument: an integer >= 0."""
    try:
        seed = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} is not an integer")
    if seed < 0:
        raise argparse.ArgumentTypeError(f"seed {seed} is negative")
    return seed


def _seed_list(text: str) -> list:
    """A non-empty comma-separated list of seeds, each an integer >= 0."""
    try:
        return [_seed(part) for part in text.split(",")]
    except argparse.ArgumentTypeError as err:
        raise argparse.ArgumentTypeError(f"invalid seed list {text!r}: {err}")


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="groundact",
        description="Grounded group activity recognition at desk scale")
    sub = p.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen-data", help="emit a synthetic clip corpus")
    g.add_argument("--out", required=True)
    g.add_argument("--clips", type=_at_least_one, default=64)
    g.add_argument("--actors", type=_at_least_one, default=2)
    g.add_argument("--frames", type=_at_least_one, default=8)
    g.add_argument("--raster", type=_at_least_one, default=32)
    g.add_argument("--seed", type=_seed, default=0)
    g.set_defaults(func=cmd_gen_data)

    t = sub.add_parser("train", help="train on a corpus directory")
    t.add_argument("--config", help="INI config file (defaults otherwise)")
    t.add_argument("--data", required=True)
    t.add_argument("--mode", choices=["full", "weak"],
                   help="supervision mode (default: [train] mode)")
    t.add_argument("--seed", type=_seed)
    t.add_argument("--steps", type=_at_least_one, help="cap on training steps")
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
    r.add_argument("--top", type=_at_least_one, default=10)
    r.set_defaults(func=cmd_retrieve)

    c = sub.add_parser("gradcheck", help="run the operator gradient suite")
    c.add_argument("--seed", type=_seed, default=0)
    c.add_argument("--repeats", type=_at_least_one, default=1)
    c.set_defaults(func=cmd_gradcheck)

    a = sub.add_parser("ablate", help="encoder/decoder/fusion on-off sweep")
    a.add_argument("--config")
    a.add_argument("--data", required=True)
    a.add_argument("--seeds", type=_seed_list, default="0,1,2",
                   help="comma-separated training seeds")
    a.add_argument("--seed", type=_seed, default=0, help="split seed")
    a.add_argument("--steps", type=_at_least_one)
    a.add_argument("--out", help="write JSON summary here")
    a.set_defaults(func=cmd_ablate)
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except _USER_ERRORS as err:
        print(f"groundact: error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
