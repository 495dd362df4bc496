"""The experiments that the acceptance gates and ``scripts/`` run, each
defined once: its config, its corpus and its step budget.

* overfit: a small model overfits 8 clips (criterion 4); in weak mode, the
  same run without action labels (criterion 10).
* ablation: the encoder / decoder / actor-fusion on-off sweep (criterion 5).
  Each variant trains from scratch with the same budget and seeds; metrics
  are averaged over seeds so the comparison reports a direction, not noise.
"""

from __future__ import annotations

import copy
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

import numpy as np

from . import backbones as bb
from . import data as D
from .config import ExperimentConfig, ModelConfig, TrainConfig
from .training import evaluate, train


# -- overfit -----------------------------------------------------------------

OVERFIT_STEPS = 500


def overfit_config(mode: str = "full") -> ExperimentConfig:
    cfg = ExperimentConfig()
    cfg.model = ModelConfig(d_model=64, num_heads=4, d_ff_mult=2, dropout=0.0,
                            encoder_layers=2, decoder_layers=2, frames=8,
                            grid_h=4, grid_w=4, raster_h=32, raster_w=32,
                            num_queries=2)
    cfg.train = TrainConfig(peak_lr=1e-3, warmup_epochs=1, total_epochs=20,
                            steps_per_epoch=25, batch_size=8, seed=0,
                            eval_every=0, mode=mode)
    return cfg


def overfit_corpus():
    """8 clips, 2 actors each, the 3 motion-derived actions, 8 frames."""
    return D.generate_corpus(seed=0, num_clips=8, num_actors=2, t_total=8,
                             motion_pool=D.MOTION_KINDS)


def train_and_evaluate(cfg: ExperimentConfig, corpus, steps: int):
    """(TrainResult, EvalResult, seconds training) of ``steps`` steps on the
    corpus; a weak run is evaluated without the corpus's action labels."""
    vocab = bb.load_vocab()
    start = time.time()
    res = train(cfg, corpus, max_steps=steps, vocab=vocab)
    elapsed = time.time() - start
    if cfg.train.mode == "weak":
        corpus = [(c, D.weak_supervision_view(a)) for c, a in corpus]
    return res, evaluate(res.model, corpus, cfg, vocab), elapsed


# -- ablation ----------------------------------------------------------------

# 300 steps sit below the point where the encoder-only variant memorises the
# 64 clips to 1.0, so a faster-fitting stage can still show a strict gain.
ABLATION_STEPS = 300
ABLATION_SEEDS = (0, 1, 2)
ABLATION_CLIPS = 64


def ablation_config() -> ExperimentConfig:
    cfg = ExperimentConfig()
    cfg.model = ModelConfig(d_model=32, num_heads=4, d_ff_mult=2, dropout=0.0,
                            encoder_layers=2, decoder_layers=2, frames=4,
                            grid_h=4, grid_w=4, raster_h=32, raster_w=32,
                            num_queries=3)
    cfg.train = TrainConfig(peak_lr=1e-3, warmup_epochs=1, total_epochs=4,
                            steps_per_epoch=225, batch_size=8, eval_every=0)
    return cfg


def ablation_corpus(num_clips: int = ABLATION_CLIPS):
    """3-actor scenes: the prompt lists only the deduplicated action words,
    so the majority group label requires visual counting."""
    return D.generate_corpus(seed=7, num_clips=num_clips, num_actors=3,
                             t_total=8, motion_pool=D.MOTION_KINDS)


VARIANTS = ("features-only", "encoder", "encoder-decoder", "no-fusion")


def variant_config(base: ExperimentConfig, variant: str) -> ExperimentConfig:
    cfg = copy.deepcopy(base)
    m = cfg.model
    if variant == "features-only":
        m.encoder_layers = 0
        m.decoder_layers = 0
    elif variant == "encoder":
        m.decoder_layers = 0
    elif variant == "no-fusion":
        m.use_actor_fusion = False
    elif variant != "encoder-decoder":
        raise ValueError(f"unknown ablation variant {variant!r}")
    return cfg


@dataclass
class AblationResult:
    per_variant: Dict[str, Dict[str, float]]       # seed-averaged metrics

    def summary_lines(self) -> List[str]:
        return [f"{v:18s} merged-mca={metrics['merged_mca']:.4f} "
                f"keyframe-iou={metrics['iou']:.4f}"
                for v, metrics in self.per_variant.items()]


def run_ablation(base: ExperimentConfig, train_corpus, test_corpus,
                 seeds: Sequence[int] = ABLATION_SEEDS,
                 max_steps: Optional[int] = None,
                 variants: Sequence[str] = VARIANTS) -> AblationResult:
    if not train_corpus or not test_corpus:
        raise bb.DataError(f"ablation needs clips on both sides of the split, "
                           f"got {len(train_corpus)} train and "
                           f"{len(test_corpus)} test")
    vocab = bb.load_vocab()
    per_seed: Dict[str, List[Dict[str, float]]] = {v: [] for v in variants}
    for variant in variants:
        for seed in seeds:
            cfg = variant_config(base, variant)
            cfg.train.seed = seed
            res = train(cfg, train_corpus, max_steps=max_steps, vocab=vocab)
            # classifier readout for every variant: the sweep compares
            # representations, so all variants share the same group head
            ev = evaluate(res.model, test_corpus, cfg, vocab, use_vote=False)
            per_seed[variant].append({"merged_mca": ev.merged_mca,
                                      "iou": ev.mean_keyframe_iou,
                                      "group_accuracy": ev.group_accuracy})
    per_variant = {
        v: {k: float(np.mean([run[k] for run in runs]))
            for k in runs[0]}
        for v, runs in per_seed.items()}
    return AblationResult(per_variant=per_variant)
