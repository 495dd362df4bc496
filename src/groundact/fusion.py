"""Actor fusion: current box positions + pooled text -> per-actor features.

Each box is embedded by a linear map plus a sinusoidal coordinate encoding,
averaged with the pooled (layer-normed) text feature, and refined by a 1-d
convolution three actors wide across the actor axis.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import nn
from . import tensor as T
from .config import ConfigError, ModelConfig
from .nn import LayerNormParams
from .tensor import ContractError, Tensor


@dataclass
class ActorBoxSet:
    """Normalized (cx, cy, w, h) boxes, one per actor query."""
    boxes: np.ndarray               # [..., N, 4] in [0, 1]

    def validate(self):
        b = self.boxes
        if b.shape[-1] != 4:
            raise ContractError(f"boxes must be [..., N, 4], got {b.shape}")
        if b.shape[-2] == 0:
            raise ConfigError("empty actor box set")
        if (b[..., 2:] <= 0).any():
            raise ContractError("degenerate box: non-positive width/height")
        if b.min() < 0 or b.max() > 1:
            raise ContractError("box coordinates outside [0, 1]")


def box_coordinate_encoding(boxes: np.ndarray, d: int) -> np.ndarray:
    """Sinusoidal encoding of the 4 coordinates, d/4 dims each."""
    quarters = d // 4
    freqs = np.power(10000.0, -np.arange(quarters) / max(quarters, 1))
    ang = boxes[..., :, None] * 2 * np.pi * freqs        # [..., 4, q]
    enc = np.where(np.arange(quarters) % 2 == 0, np.sin(ang), np.cos(ang))
    out = enc.reshape(*boxes.shape[:-1], 4 * quarters)
    if 4 * quarters < d:
        pad = np.zeros((*boxes.shape[:-1], d - 4 * quarters))
        out = np.concatenate([out, pad], axis=-1)
    return out


@dataclass
class ActorFusionParams:
    box_proj: Tensor                # [4, d]
    box_bias: Tensor                # [d]
    text_norm: LayerNormParams
    conv_kernel: Tensor             # [3, d, d], three actors wide
    conv_bias: Tensor               # [d]

    @classmethod
    def init(cls, rng, cfg: ModelConfig):
        d = cfg.d_model
        # center tap starts near identity so early features keep box content
        kernel = rng.normal(0, 0.02 / np.sqrt(d), size=(3, d, d))
        kernel[1] += np.eye(d)
        return cls(nn.param(rng, 4, d, scale=1.0), nn.zeros_param(d),
                   LayerNormParams.init(d),
                   Tensor(kernel, requires_grad=True), nn.zeros_param(d))


def fuse(boxes: ActorBoxSet, t_f: Tensor, params: ActorFusionParams,
         text_mask: np.ndarray) -> Tensor:
    """Embed boxes, average with pooled normalized text, refine with conv1d.

    boxes.boxes: [B, N, 4] (consumed as plain values; the caller detaches
    predicted boxes before fusing them back in).  t_f: [B, L, d], pooled
    over the real tokens that text_mask [B, L] marks.  Returns the actor
    features [B, N, d].
    """
    boxes.validate()
    b = np.asarray(boxes.boxes, dtype=np.float64)
    d = params.box_proj.shape[1]

    box_emb = T.linear(b, params.box_proj, params.box_bias)
    box_emb = T.add(box_emb, Tensor(box_coordinate_encoding(b, d)))

    normed = nn.layer_norm(t_f, params.text_norm)
    m = text_mask[..., None].astype(np.float64)
    counts = np.maximum(m.sum(axis=-2, keepdims=True), 1.0)
    pooled = T.mul(T.tsum(T.mul(normed, Tensor(m)), axis=-2, keepdims=True),
                   Tensor(1.0 / counts))                       # [B, 1, d]

    # the two d-wide halves of [box_emb | pooled] averaged back to width d
    fused = T.mul(T.add(box_emb, pooled), 0.5)                 # [B, N, d]
    return nn.conv1d(fused, params.conv_kernel, params.conv_bias)


@dataclass
class ReferenceBoxParams:
    """Shared center init plus per-query learnable offsets (in logit space)."""
    offsets: Tensor                 # [N, 4], zero-initialized

    @classmethod
    def init(cls, n: int):
        if n < 1:
            raise ConfigError(f"need at least one actor query, got {n}")
        return cls(nn.zeros_param(n, 4))


_BASE_BOX = np.array([0.5, 0.5, 0.1, 0.1])


def reference_logits(params: ReferenceBoxParams) -> Tensor:
    """Inverse-sigmoid-space reference boxes, differentiable in the offsets."""
    base = np.log(_BASE_BOX / (1.0 - _BASE_BOX))
    return T.add(Tensor(np.broadcast_to(base, params.offsets.shape).copy()),
                 params.offsets)
