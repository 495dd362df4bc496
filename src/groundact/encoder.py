"""Vision-language encoder: the cross-modal correlation stack.

Each layer runs text self-attention, per-cell temporal self-attention on the
video stream, video-to-text then text-to-video cross-attention, and a shared
FFN.  A learnable group token rides along as an extra video-side row and its
final embedding feeds the group-activity classifier.  A lightweight
temporal-convolution fast branch re-injects per-frame dynamics.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

import numpy as np

from . import nn
from . import tensor as T
from .config import ModelConfig
from .nn import AttentionParams, FeedForwardParams, LayerNormParams, RunContext
from .tensor import ShapeError, Tensor


@dataclass
class SharedRepresentation:
    """The fused streams."""
    video: Tensor                   # [B, T, HW, d]
    text: Tensor                    # [B, L, d]
    group: Tensor                   # [B, 1, d]
    text_mask: np.ndarray           # [B, L], True at real tokens


@dataclass
class EncoderLayerParams:
    text_self_attn: AttentionParams
    video_temporal_self_attn: AttentionParams
    v2t_cross: AttentionParams
    t2v_cross: AttentionParams
    ffn: FeedForwardParams
    norm_text_self: LayerNormParams
    norm_video_self: LayerNormParams
    norm_v2t: LayerNormParams
    norm_t2v: LayerNormParams
    norm_ffn_video: LayerNormParams
    norm_ffn_text: LayerNormParams

    @classmethod
    def init(cls, rng, cfg: ModelConfig):
        d, h, p = cfg.d_model, cfg.num_heads, cfg.dropout
        mk = lambda: AttentionParams.init(rng, d, h, p)
        return cls(mk(), mk(), mk(), mk(),
                   FeedForwardParams.init(rng, d, cfg.d_ff, dropout_rate=p),
                   *[LayerNormParams.init(d) for _ in range(6)])


@dataclass
class FastBranchParams:
    kernel: Tensor                  # [3, d, d], three frames wide
    bias: Tensor

    @classmethod
    def init(cls, rng, cfg: ModelConfig):
        d = cfg.d_model
        return cls(nn.param(rng, 3, d, d, scale=0.02 / np.sqrt(d)),
                   nn.zeros_param(d))


@dataclass
class VLEncoderParams:
    group_token: Tensor             # [1, d]
    temporal_pe: Tensor             # [max(T, 64), d], fixed sinusoidal rows
    layers: List[EncoderLayerParams]
    fast_branch: FastBranchParams

    @classmethod
    def init(cls, rng, cfg: ModelConfig):
        layers = [EncoderLayerParams.init(rng, cfg)
                  for _ in range(cfg.encoder_layers)]
        fast = FastBranchParams.init(rng, cfg)
        return cls(nn.param(rng, 1, cfg.d_model, scale=0.02),
                   Tensor(nn.sinusoidal_table(max(cfg.frames, 64), cfg.d_model)),
                   layers, fast)


def encode(v_f: Tensor, t_f: Tensor, params: VLEncoderParams,
           cfg: ModelConfig, text_mask: np.ndarray,
           ctx: RunContext = nn.EVAL) -> SharedRepresentation:
    """Fuse video [B, T, HW, d] and text [B, L, d] into a shared
    representation; no text row that text_mask [B, L] marks as padding is
    attended to.

    The temporal encoding is added per frame first.  Within each layer: text
    self-attention, per-cell temporal self-attention on video (the group
    token attends only to itself), the fast branch, V2T, T2V, shared FFN.
    """
    if v_f.ndim != 4 or t_f.ndim != 3:
        raise ShapeError(f"expected batched inputs, got {v_f.shape}, {t_f.shape}")
    b, t, hw, d = v_f.shape
    if d != cfg.d_model or t_f.shape[-1] != d:
        raise ShapeError(f"width mismatch: video {v_f.shape}, text {t_f.shape}")

    # temporal encoding added per frame, identical across cells
    rows = T.getitem(params.temporal_pe, np.arange(t))       # [T, d]
    video = T.add(v_f, T.reshape(rows, (1, t, 1, d)))
    text = t_f
    group = T.broadcast_to(T.reshape(params.group_token, (1, 1, d)), (b, 1, d))
    key_mask = np.expand_dims(text_mask, -2)                 # [B, 1, L]

    for layer in params.layers:
        # (a) text self-attention
        text = nn.attention_block(text, layer.norm_text_self,
                                  layer.text_self_attn, mask=key_mask, ctx=ctx)

        # (b) temporal self-attention per spatial cell; group token is its
        # own one-row sequence through the same weights
        cells = T.transpose(video, (0, 2, 1, 3))          # [B, HW, T, d]
        cells = nn.attention_block(cells, layer.norm_video_self,
                                   layer.video_temporal_self_attn, ctx=ctx)
        video = T.transpose(cells, (0, 2, 1, 3))
        group = nn.attention_block(group, layer.norm_video_self,
                                   layer.video_temporal_self_attn, ctx=ctx)

        # fast branch: temporal conv over per-frame pooled features
        frame_means = T.tmean(video, axis=2)               # [B, T, d]
        refined = nn.conv1d(frame_means, params.fast_branch.kernel,
                            params.fast_branch.bias)
        video = T.add(video, T.reshape(refined, (b, t, 1, d)))

        # (c) V2T then (d) T2V cross-attention, then (e) the shared FFN, over
        # one set of video-side rows: the cells frame-major, then the group
        # token; each side's keys are the other side under the same norm
        rows = T.concat([T.reshape(video, (b, t * hw, d)), group], axis=1)
        rows = nn.attention_block(rows, layer.norm_v2t, layer.v2t_cross,
                                  nn.layer_norm(text, layer.norm_v2t),
                                  key_mask, ctx)
        text = nn.attention_block(text, layer.norm_t2v, layer.t2v_cross,
                                  nn.layer_norm(rows, layer.norm_t2v), ctx=ctx)
        rows = nn.feed_forward_block(rows, layer.norm_ffn_video, layer.ffn, ctx)
        text = nn.feed_forward_block(text, layer.norm_ffn_text, layer.ffn, ctx)
        video = T.reshape(rows[:, :t * hw, :], (b, t, hw, d))
        group = rows[:, t * hw:, :]

    return SharedRepresentation(video=video, text=text, group=group,
                                text_mask=text_mask)
