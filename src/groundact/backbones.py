"""Desk-scale stand-ins for the pretrained visual and textual backbones.

The visual stub partitions each frame into a patch grid and linearly projects
every patch to the model width; the text stub is an embedding table followed
by one self-attention/FFN block.  Both are deterministic given parameters and
trainable end to end.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from importlib import resources
from typing import List, Optional

import numpy as np

from . import nn
from . import tensor as T
from .config import ModelConfig
from .nn import (AttentionParams, FeedForwardParams, LayerNormParams,
                 PositionalEncoding, RunContext)
from .tensor import Tensor


class DataError(ValueError):
    pass


UNK = 0


def load_vocab(path=None) -> List[str]:
    """One token per line; line number is the index, line 0 is UNK."""
    if path is None:
        text = resources.files("groundact").joinpath("vocab.txt").read_text()
    else:
        with open(path) as fh:
            text = fh.read()
    vocab = [line.strip() for line in text.splitlines() if line.strip()]
    if not vocab:
        raise DataError("empty vocabulary file")
    return vocab


@dataclass
class TextPrompt:
    tokens: List[int]
    raw: str


def tokenize(raw: str, vocab: List[str], l_max: int = 16) -> TextPrompt:
    """Lowercase, split on whitespace/punctuation, closed-vocabulary lookup."""
    if not raw or not raw.strip():
        raise DataError("empty prompt")
    index = {w: i for i, w in enumerate(vocab)}
    words = [w for w in re.split(r"[^a-z0-9]+", raw.lower()) if w]
    if not words:
        raise DataError(f"prompt {raw!r} contains no tokens")
    tokens = [index.get(w, UNK) for w in words][:l_max]
    return TextPrompt(tokens=tokens, raw=raw)


@dataclass
class VideoClip:
    frames: np.ndarray          # [T_total, H_px, W_px, C]
    frame_rate: float
    clip_id: str


def sample_frames(clip: VideoClip, t: int) -> VideoClip:
    """Uniformly spaced frame indices including first and last, rounded."""
    total = clip.frames.shape[0]
    if t > total:
        raise DataError(f"cannot sample {t} frames from {total}")
    if t == 1:
        idx = np.array([0])
    else:
        idx = np.round(np.linspace(0, total - 1, t)).astype(int)
    return VideoClip(frames=clip.frames[idx], frame_rate=clip.frame_rate,
                     clip_id=clip.clip_id)


@dataclass
class VideoFeatures:
    v_f: Tensor                 # [..., T, HW, d]


@dataclass
class TextFeatures:
    t_f: Tensor                 # [..., L, d]
    mask: Optional[np.ndarray] = None   # [..., L] True where real token


@dataclass
class VisualStubParams:
    proj: Tensor                # [patch_pixels * C, d]
    bias: Tensor                # [d]
    spatial_pe: PositionalEncoding

    @classmethod
    def init(cls, rng, cfg: ModelConfig):
        pp = cfg.patch_h * cfg.patch_w * cfg.channels
        return cls(nn.param(rng, pp, cfg.d_model), nn.zeros_param(cfg.d_model),
                   PositionalEncoding.spatial(cfg.grid_h, cfg.grid_w, cfg.d_model))


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
                  cfg: ModelConfig) -> VideoFeatures:
    """Per-cell linear patch projection plus 2-d spatial positional encoding.

    frames: [..., T, H_px, W_px, C], already sampled to T frames.
    """
    patches = Tensor(_patchify(np.asarray(frames, dtype=np.float64), cfg))
    v = T.linear(patches, params.proj, params.bias)
    v = nn.positional_encode(v, params.spatial_pe)
    return VideoFeatures(v_f=v)


@dataclass
class TextStubParams:
    embedding: Tensor           # [V, d]
    temporal_pe: PositionalEncoding
    attn: AttentionParams
    ffn: FeedForwardParams
    norm1: LayerNormParams
    norm2: LayerNormParams

    @classmethod
    def init(cls, rng, cfg: ModelConfig):
        d = cfg.d_model
        return cls(nn.param(rng, cfg.vocab_size, d, scale=0.5),
                   PositionalEncoding.temporal(cfg.l_max, d),
                   AttentionParams.init(rng, d, cfg.num_heads, cfg.dropout),
                   FeedForwardParams.init(rng, d, cfg.d_ff, dropout_rate=cfg.dropout),
                   LayerNormParams.init(d), LayerNormParams.init(d))


def text_encode(tokens: np.ndarray, params: TextStubParams, cfg: ModelConfig,
                mask: Optional[np.ndarray] = None,
                ctx: RunContext = nn.EVAL) -> TextFeatures:
    """Embedding lookup + positional encoding + one pre-norm attention block.

    tokens: integer array [..., L]; mask marks real (non-padding) positions.
    """
    tokens = np.asarray(tokens)
    if tokens.max(initial=0) >= cfg.vocab_size or tokens.min(initial=0) < 0:
        raise DataError(f"token index outside vocabulary of {cfg.vocab_size}")
    x = T.getitem(params.embedding, tokens)
    L = tokens.shape[-1]
    x = nn.positional_encode(x, params.temporal_pe, np.arange(L))
    attn_mask = None
    if mask is not None:
        attn_mask = np.expand_dims(mask, -2) & np.ones((L, 1), dtype=bool)
    h = nn.layer_norm(x, params.norm1)
    x = T.add(x, nn.multi_head_attention(h, h, params.attn, attn_mask, ctx))
    x = T.add(x, nn.feed_forward(nn.layer_norm(x, params.norm2), params.ffn, ctx))
    return TextFeatures(t_f=x, mask=mask)
