"""Component on/off sweep: encoder, decoder, actor fusion.

Each variant trains from scratch with the same budget and seeds; metrics are
averaged over seeds so the comparison reports a direction, not noise.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

import numpy as np

from . import backbones as bb
from .config import ExperimentConfig
from .training import evaluate, train


VARIANTS = ("features-only", "encoder", "encoder-decoder", "no-fusion")


def variant_config(base: ExperimentConfig, variant: str) -> ExperimentConfig:
    cfg = copy.deepcopy(base)
    m = cfg.model
    if variant == "features-only":
        m.encoder_layers = 0
        m.decoder_layers = 0
    elif variant == "encoder":
        m.decoder_layers = 0
    elif variant == "encoder-decoder":
        pass
    elif variant == "no-fusion":
        m.use_actor_fusion = False
    else:
        raise ValueError(f"unknown ablation variant {variant!r}")
    return cfg


@dataclass
class AblationResult:
    per_variant: Dict[str, Dict[str, float]]       # seed-averaged metrics

    def summary_lines(self) -> List[str]:
        lines = []
        for v, metrics in self.per_variant.items():
            lines.append(f"{v:18s} merged-mca={metrics['merged_mca']:.4f} "
                         f"keyframe-iou={metrics['iou']:.4f}")
        return lines


def run_ablation(base: ExperimentConfig, train_corpus, test_corpus,
                 seeds: Sequence[int] = (0, 1, 2),
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
