"""End-to-end grounded group activity model.

Wires the stub backbones, the vision-language encoder, actor fusion, and the
action decoder into one trainable object with a flat named-parameter view.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, List, Sequence, Tuple

import numpy as np

from . import backbones as bb
from . import nn
from .config import ConfigError, ModelConfig
from .data import ActorAnnotation
from .decoder import ActionDecoderParams, DecoderOutput, decode
from .encoder import SharedRepresentation, VLEncoderParams, encode
from .fusion import ActorFusionParams, ReferenceBoxParams
from .nn import RunContext
from .tensor import Tensor


@dataclass
class Batch:
    frames: np.ndarray            # [B, T, H, W, C]
    tokens: np.ndarray            # [B, L] padded with UNK
    text_mask: np.ndarray         # [B, L]
    annotations: list             # SceneAnnotation per clip
    clip_ids: List[str]


def _check_clip(clip: bb.VideoClip, cfg: ModelConfig):
    """A clip whose frames do not fit the model is a ConfigError naming the
    clip and the [model] key it breaks."""
    if clip.frames.ndim != 4:
        raise bb.DataError(f"clip {clip.clip_id!r}: frames must be "
                           f"[T, H, W, C], got shape {clip.frames.shape}")
    total, h, w, c = clip.frames.shape
    for key, what, want, got in (("raster_h", "pixel rows", cfg.raster_h, h),
                                 ("raster_w", "pixel columns", cfg.raster_w, w),
                                 ("channels", "channels", cfg.channels, c)):
        if got != want:
            raise ConfigError(f"clip {clip.clip_id!r} has {got} {what}, but "
                              f"[model] {key} = {want}")
    if total < cfg.frames:
        raise ConfigError(f"clip {clip.clip_id!r} has {total} frames, fewer "
                          f"than [model] frames = {cfg.frames}")


def make_batch(clips, prompts: Sequence[str], cfg: ModelConfig,
               vocab: List[str], annotations) -> Batch:
    """Check each clip, prompt and annotation against the config, sample
    frames, tokenize and pad prompts, stack into arrays; each annotation's
    tubes are sampled at its clip's frames.

    A clip of exactly ``cfg.frames`` frames samples all of them, so its
    frames are copied once and an annotation whose keyframe is already the
    middle one is kept as it is.  Each distinct prompt is tokenized once."""
    if not clips:
        raise bb.DataError("no clips to batch: the corpus or split is empty")
    for c in clips:
        _check_clip(c, cfg)
    for ann in annotations:
        if len(ann.actors) > cfg.num_queries:
            raise ConfigError(
                f"clip {ann.clip_id!r} has {len(ann.actors)} actors, more "
                f"than [model] num_queries = {cfg.num_queries}")
    # None: a clip of exactly cfg.frames frames keeps them all
    by_length = {n: None if n == cfg.frames else
                 bb.frame_indices(n, cfg.frames)
                 for n in {c.frames.shape[0] for c in clips}}
    idx = [by_length[c.frames.shape[0]] for c in clips]
    frames = np.stack([c.frames if i is None else c.frames[i]
                       for c, i in zip(clips, idx)])
    index = bb.vocab_index(vocab)
    # the distinct prompts, and each clip's row among them
    distinct = {p: k for k, p in enumerate(dict.fromkeys(prompts))}
    token_lists = [bb.tokenize(p, index, cfg.l_max) for p in distinct]
    for p, t in zip(distinct, token_lists):
        if max(t) >= bb.VOCAB_SIZE:
            raise bb.DataError(f"clip {clips[prompts.index(p)].clip_id!r} has "
                               f"prompt token {max(t)}, outside the packaged "
                               f"vocabulary of {bb.VOCAB_SIZE} tokens")
    L = max(len(t) for t in token_lists)
    tokens = np.full((len(token_lists), L), bb.UNK, dtype=np.int64)
    mask = np.zeros((len(token_lists), L), dtype=bool)
    for i, t in enumerate(token_lists):
        tokens[i, :len(t)] = t
        mask[i, :len(t)] = True
    anns = [_sample_annotation(a, c, i, cfg.frames)
            for a, c, i in zip(annotations, clips, idx)]
    rows = [distinct[p] for p in prompts]
    return Batch(frames, tokens[rows], mask[rows], anns,
                 [c.clip_id for c in clips])


def _sample_annotation(ann, clip: bb.VideoClip, idx, frames: int):
    """Sample the annotation's tubes at the clip's sampled frames ``idx``
    (None: all of its ``frames`` frames, where an annotation whose keyframe
    is the middle one is returned as it is); a tube whose length is not the
    clip's frame count is a DataError."""
    total = clip.frames.shape[0]
    for a in ann.actors:
        if a.tube.shape[0] != total:
            raise bb.DataError(f"clip {clip.clip_id!r}: track {a.track_id} "
                               f"has {a.tube.shape[0]} boxes, but the clip "
                               f"has {total} frames")
    if idx is None:
        if ann.keyframe == frames // 2:
            return ann
        idx = np.arange(frames)
    actors = [ActorAnnotation(a.track_id, a.tube[idx], a.actions)
              for a in ann.actors]
    return replace(ann, actors=actors, keyframe=frames // 2)


@dataclass
class ModelParams:
    visual: bb.VisualStubParams
    text: bb.TextStubParams
    vl_encoder: VLEncoderParams
    actor_fusion: ActorFusionParams
    reference: ReferenceBoxParams
    decoder: ActionDecoderParams


class GroundedModel:
    """Prompt + clip -> box tubes, per-actor action logits, group logits."""

    def __init__(self, cfg: ModelConfig, seed: int = 0):
        cfg.validate()
        self.cfg = cfg
        rng = np.random.default_rng(seed)
        self.params = ModelParams(
            visual=bb.VisualStubParams.init(rng, cfg),
            text=bb.TextStubParams.init(rng, cfg),
            vl_encoder=VLEncoderParams.init(rng, cfg),
            actor_fusion=ActorFusionParams.init(rng, cfg),
            reference=ReferenceBoxParams.init(cfg.num_queries),
            decoder=ActionDecoderParams.init(rng, cfg),
        )
        # name -> Tensor, walked once; load_state keeps the same Tensors
        self._named = nn.collect_params(self.params)

    def named_parameters(self) -> Dict[str, Tensor]:
        return dict(self._named)

    def zero_grad(self):
        for p in self._named.values():
            p.zero_grad()

    def load_state(self, arrays: Dict[str, np.ndarray]):
        params = self._named
        missing = set(params) ^ set(arrays)
        if missing:
            raise ValueError(f"parameter name mismatch: {sorted(missing)[:5]}")
        for name, p in params.items():
            if p.data.shape != arrays[name].shape:
                raise ValueError(f"shape mismatch for {name}: "
                                 f"{p.data.shape} vs {arrays[name].shape}")
            p.data = arrays[name].astype(np.float64).copy()

    def state_arrays(self) -> Dict[str, np.ndarray]:
        return {k: v.data.copy() for k, v in self._named.items()}

    def forward(self, batch: Batch, ctx: RunContext = nn.EVAL
                ) -> Tuple[SharedRepresentation, DecoderOutput]:
        cfg, params = self.cfg, self.params
        v_f = bb.visual_encode(batch.frames, params.visual, cfg)
        t_f = bb.text_encode(batch.tokens, params.text, cfg, batch.text_mask,
                             ctx)
        rep = encode(v_f, t_f, params.vl_encoder, cfg,
                     text_mask=batch.text_mask, ctx=ctx)
        out = decode(rep, params.decoder, cfg, params.actor_fusion,
                     params.reference, ctx=ctx)
        return rep, out

    def keyframe(self) -> int:
        return self.cfg.frames // 2

