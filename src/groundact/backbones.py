"""Desk-scale stand-ins for the pretrained visual and textual backbones.

The visual stub partitions each frame into a patch grid and linearly projects
every patch to the model width; the text stub is an embedding table followed
by one self-attention/FFN block.  Both are deterministic given parameters and
trainable end to end.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from importlib import resources
from typing import Dict, List

import numpy as np

from . import nn
from . import tensor as T
from .config import ModelConfig
from .nn import AttentionParams, FeedForwardParams, LayerNormParams, RunContext
from .tensor import Tensor


class DataError(ValueError):
    pass


UNK = 0


def load_vocab() -> List[str]:
    """The packaged vocabulary, one token per line; the line number is the
    index, and line 0 is UNK."""
    text = resources.files(__package__).joinpath("vocab.txt").read_text()
    return [line.strip() for line in text.splitlines() if line.strip()]


# rows of the text embedding: one per packaged vocabulary token
VOCAB_SIZE = len(load_vocab())


def vocab_index(vocab: List[str]) -> Dict[str, int]:
    """word -> token id; a batch builds it once for all its prompts."""
    return {w: i for i, w in enumerate(vocab)}


def tokenize(raw: str, vocab, l_max: int = 16) -> List[int]:
    """Lowercase, split on whitespace/punctuation, closed-vocabulary lookup
    in the word list ``vocab`` or its :func:`vocab_index`."""
    if not raw or not raw.strip():
        raise DataError("empty prompt")
    index = vocab if isinstance(vocab, dict) else vocab_index(vocab)
    words = [w for w in re.split(r"[^a-z0-9]+", raw.lower()) if w]
    if not words:
        raise DataError(f"prompt {raw!r} contains no tokens")
    return [index.get(w, UNK) for w in words][:l_max]


@dataclass
class VideoClip:
    frames: np.ndarray          # [T_total, H_px, W_px, C]
    clip_id: str


def frame_indices(total: int, t: int) -> np.ndarray:
    """``t`` uniformly spaced indices into ``total`` frames, first and last
    included, rounded to the nearest frame."""
    if t > total:
        raise DataError(f"cannot sample {t} frames from {total}")
    return np.round(np.linspace(0, total - 1, t)).astype(int)


@dataclass
class VisualStubParams:
    proj: Tensor                # [patch_pixels * C, d]
    bias: Tensor                # [d]
    spatial_pe: Tensor          # [HW, d], fixed 2-d sinusoidal rows

    @classmethod
    def init(cls, rng, cfg: ModelConfig):
        pp = cfg.patch_h * cfg.patch_w * cfg.channels
        return cls(nn.param(rng, pp, cfg.d_model), nn.zeros_param(cfg.d_model),
                   Tensor(nn.sinusoidal_2d_table(cfg.grid_h, cfg.grid_w,
                                                 cfg.d_model)))


def _patchify(frames: np.ndarray, cfg: ModelConfig) -> np.ndarray:
    """[..., T, H, W, C] -> [..., T, HW, patch_pixels*C]."""
    *lead, t, h, w, c = frames.shape
    if h % cfg.grid_h or w % cfg.grid_w:
        raise DataError(f"frame {h}x{w} not divisible by grid "
                        f"{cfg.grid_h}x{cfg.grid_w}")
    ph, pw = h // cfg.grid_h, w // cfg.grid_w
    x = frames.reshape(*lead, t, cfg.grid_h, ph, cfg.grid_w, pw, c)
    x = np.moveaxis(x, -4, -3)                    # [..., t, gh, gw, ph, pw, c]
    return x.reshape(*lead, t, cfg.grid_h * cfg.grid_w, ph * pw * c)


def visual_encode(frames: np.ndarray, params: VisualStubParams,
                  cfg: ModelConfig) -> Tensor:
    """Per-cell linear patch projection plus 2-d spatial positional encoding.

    frames: [..., T, H_px, W_px, C], already sampled to T frames; returns
    video features [..., T, HW, d].
    """
    patches = Tensor(_patchify(np.asarray(frames, dtype=np.float64), cfg))
    v = T.linear(patches, params.proj, params.bias)
    return nn.positional_encode(v, params.spatial_pe)


@dataclass
class TextStubParams:
    embedding: Tensor           # [VOCAB_SIZE, d]
    temporal_pe: Tensor         # [l_max, d], fixed sinusoidal rows
    attn: AttentionParams
    ffn: FeedForwardParams
    norm1: LayerNormParams
    norm2: LayerNormParams

    @classmethod
    def init(cls, rng, cfg: ModelConfig):
        d = cfg.d_model
        return cls(nn.param(rng, VOCAB_SIZE, d, scale=0.5),
                   Tensor(nn.sinusoidal_table(cfg.l_max, d)),
                   AttentionParams.init(rng, d, cfg.num_heads, cfg.dropout),
                   FeedForwardParams.init(rng, d, cfg.d_ff, dropout_rate=cfg.dropout),
                   LayerNormParams.init(d), LayerNormParams.init(d))


def text_encode(tokens: np.ndarray, params: TextStubParams, cfg: ModelConfig,
                mask: np.ndarray, ctx: RunContext = nn.EVAL) -> Tensor:
    """Embedding lookup + positional encoding + one pre-norm attention block.

    tokens: integer array [..., L]; mask [..., L] marks real (non-padding)
    positions.  Returns text features [..., L, d].
    """
    tokens = np.asarray(tokens)
    rows = params.embedding.shape[0]
    if tokens.max(initial=0) >= rows or tokens.min(initial=0) < 0:
        raise DataError(f"token index outside vocabulary of {rows}")
    x = T.getitem(params.embedding, tokens)
    x = nn.positional_encode(x, params.temporal_pe)
    x = nn.attention_block(x, params.norm1, params.attn,
                           mask=np.expand_dims(mask, -2), ctx=ctx)
    return nn.feed_forward_block(x, params.norm2, params.ffn, ctx)
