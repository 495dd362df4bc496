"""Action decoder: iterative box refinement over the shared representation.

Actor queries start from the actor-fusion features, then each layer applies
actor self-attention, spatial cross-attention over the per-frame grid,
temporal cross-attention over pooled frames + text, an FFN, and a box head
that refines the per-frame box tube in inverse-sigmoid space.  The encoder's
group token rides through the stack as an extra boxless row and its final
embedding feeds the group-activity classifier.  The action head scores the
A = len(data.ACTIONS) actions and the group head the G = len(data.GROUPS)
activities; no config setting resizes them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

import numpy as np

from . import nn
from . import tensor as T
from .config import ModelConfig
from .data import ACTIONS, GROUPS
from .encoder import SharedRepresentation
from .fusion import (ActorBoxSet, ActorFusionParams, ReferenceBoxParams,
                     fuse, reference_logits)
from .nn import (AttentionParams, FeedForwardParams, LayerNormParams,
                 RunContext)
from .tensor import ShapeError, Tensor


@dataclass
class BoxHeadParams:
    """3-layer perceptron d -> d -> d -> 4; final layer zero-initialized so a
    fresh layer leaves the incoming boxes untouched."""
    w1: Tensor
    b1: Tensor
    w2: Tensor
    b2: Tensor
    w3: Tensor
    b3: Tensor

    @classmethod
    def init(cls, rng, d: int):
        return cls(nn.param(rng, d, d), nn.zeros_param(d),
                   nn.param(rng, d, d), nn.zeros_param(d),
                   nn.zeros_param(d, 4), nn.zeros_param(4))


def box_head(actors: Tensor, frame_rows: Tensor,
             params: BoxHeadParams) -> Tensor:
    """relu(relu((actors + frame_rows) w1 + b1) w2 + b2) w3 + b3, the
    per-frame box offsets of each query, as one graph node with a
    hand-written backward.

    actors [..., N, 1, d] and frame_rows [..., 1, T, d] broadcast to the
    [..., N, T, d] rows of the perceptron; the result is [..., N, T, 4].
    Any parameter may be stacked on the leading axis, as in
    :func:`nn.attention_block`.  For the backward the node keeps no array:
    it rebuilds the summed input rows from the current values of actors and
    frame_rows, and the two hidden layers after their ReLUs, whose positive
    entries are the ReLU masks, from those rows and the parameters' current
    values, with the forward's ops in its order.
    """
    w1, b1, w2, b2, w3, b3 = (params.w1, params.b1, params.w2, params.b2,
                              params.w3, params.b3)
    if actors.shape[-1] != w1.shape[-2]:
        raise ShapeError(f"box head width mismatch: actors {actors.shape} "
                         f"vs w1 {w1.shape}")
    try:
        rows = actors.data + frame_rows.data
    except ValueError:
        raise ShapeError(f"box head: actors {actors.shape} and frame rows "
                         f"{frame_rows.shape} do not broadcast") from None
    T.check_members("box_head", rows.shape,
                    [("w1", w1.shape, 2), ("b1", b1.shape, 1),
                     ("w2", w2.shape, 2), ("b2", b2.shape, 1),
                     ("w3", w3.shape, 2), ("b3", b3.shape, 1)])

    def layer(a, w, b):
        out = T.apply_weight(a, w.data)
        out += T.per_member(b.data, out.ndim)
        return out

    def hidden(rows):
        """The two hidden layers after their ReLUs."""
        h1 = np.maximum(layer(rows, w1, b1), 0.0)
        return h1, np.maximum(layer(h1, w2, b2), 0.0)

    data = layer(hidden(rows)[1], w3, b3)

    parents = (actors, frame_rows, w1, b1, w2, b2, w3, b3)
    req = any(p.requires_grad for p in parents)

    def backward(g):
        rows = actors.data + frame_rows.data
        h1, h2 = hidden(rows)
        d_h = g
        for h, w, b in ((h2, w3, b3), (h1, w2, b2)):
            if w.requires_grad:
                w.accumulate(T.weight_grad(h, d_h, w.data))
            if b.requires_grad:
                b.accumulate(T.row_sum(d_h, b.data))
            d_h = T.apply_weight(d_h, np.swapaxes(w.data, -1, -2)) * (h > 0)
        if w1.requires_grad:
            w1.accumulate(T.weight_grad(rows, d_h, w1.data))
        if b1.requires_grad:
            b1.accumulate(T.row_sum(d_h, b1.data))
        d_rows = T.apply_weight(d_h, np.swapaxes(w1.data, -1, -2))
        for x in (actors, frame_rows):
            if x.requires_grad:
                x.accumulate(T.unbroadcast(d_rows, x.shape))

    return Tensor(data, req, parents, backward if req else None)


@dataclass
class DecoderLayerParams:
    self_attn_actors: AttentionParams
    temporal_spatial_attn: AttentionParams
    temporal_cross_attn: AttentionParams
    ffn: FeedForwardParams
    norm_self: LayerNormParams
    norm_spatial: LayerNormParams
    norm_cross: LayerNormParams
    norm_ffn: LayerNormParams
    box_head: BoxHeadParams

    @classmethod
    def init(cls, rng, cfg: ModelConfig):
        d, h, p = cfg.d_model, cfg.num_heads, cfg.dropout
        mk = lambda: AttentionParams.init(rng, d, h, p)
        return cls(mk(), mk(), mk(),
                   FeedForwardParams.init(rng, d, cfg.d_ff, dropout_rate=p),
                   *[LayerNormParams.init(d) for _ in range(4)],
                   BoxHeadParams.init(rng, d))


@dataclass
class ActionDecoderParams:
    layers: List[DecoderLayerParams]
    action_w: Tensor                # [d, A]
    action_b: Tensor                # [A]
    group_w: Tensor                 # [d, G]
    group_b: Tensor                 # [G]
    learned_queries: Tensor         # [1, d], shared base query embedding

    @classmethod
    def init(cls, rng, cfg: ModelConfig):
        d, a, g = cfg.d_model, len(ACTIONS), len(GROUPS)
        return cls([DecoderLayerParams.init(rng, cfg)
                    for _ in range(cfg.decoder_layers)],
                   nn.param(rng, d, a), nn.zeros_param(a),
                   nn.param(rng, d, g), nn.zeros_param(g),
                   nn.param(rng, 1, d, scale=0.02))


@dataclass
class DecoderOutput:
    per_layer_boxes: List[Tensor]   # each [B, N, T, 4], never empty
    actor_embeddings: Tensor        # [B, N, d], the action head's input
    action_logits: Tensor           # [B, N, A]
    group_logits: Tensor            # [B, G]

    @property
    def final_boxes(self) -> Tensor:
        return self.per_layer_boxes[-1]


def decode(rep: SharedRepresentation,
           params: ActionDecoderParams,
           cfg: ModelConfig,
           fusion_params: ActorFusionParams,
           ref_params: ReferenceBoxParams,
           ctx: RunContext = nn.EVAL) -> DecoderOutput:
    """Run the decoder stack and emit per-layer box tubes plus logits.

    With cfg.use_actor_fusion the queries add the fused features of the
    reference boxes at the keyframe t // 2.  Each layer adds one box tube;
    with no layers the one tube is the reference tube itself.
    """
    b, t, hw, d = rep.video.shape
    n = cfg.num_queries

    frame_feats = T.tmean(rep.video, axis=2)         # [B, T, d]

    # inverse-sigmoid-space tube, one shared reference box per query
    ref = reference_logits(ref_params)               # [N, 4]
    box_logits = T.broadcast_to(T.reshape(ref, (1, n, 1, 4)), (b, n, t, 4))

    # one shared base embedding for every query slot; actor-specific identity
    # (which query is which actor) comes only from the fusion features, whose
    # coordinate encodings of the per-query reference boxes differ per slot
    x = T.broadcast_to(T.reshape(params.learned_queries, (1, 1, d)),
                       (b, n, d))
    if cfg.use_actor_fusion:
        key_boxes = 1.0 / (1.0 + np.exp(-box_logits.data[:, :, t // 2, :]))
        key_boxes = np.clip(key_boxes, 1e-4, 1.0 - 1e-4)
        x = T.add(x, fuse(ActorBoxSet(key_boxes), rep.text, fusion_params,
                          rep.text_mask))

    # with no layers the action head reads the queries themselves
    actors = x

    # the group token rides through the decoder as row N: it joins actor
    # self-attention and both cross-attentions, but has no box head, and its
    # final-layer embedding feeds the group classifier
    x = T.concat([x, rep.group], axis=1)                 # [B, N+1, d]

    # built once, as no layer changes them: the temporal cross-attention keys
    # (every pooled frame, then the real tokens) and the per-frame rows that
    # the box heads add to each query
    kv = T.concat([frame_feats, rep.text], axis=1)
    attn_mask = np.concatenate([np.ones((b, 1, t), dtype=bool),
                                np.expand_dims(rep.text_mask, -2)], axis=-1)
    frame_rows = T.reshape(frame_feats, (b, 1, t, d))

    per_layer_boxes = [] if params.layers else [T.sigmoid(box_logits)]

    for li, layer in enumerate(params.layers):
        # actor self-attention
        x = nn.attention_block(x, layer.norm_self, layer.self_attn_actors,
                               ctx=ctx)

        # spatial cross-attention: queries over each frame's grid; the
        # queries' frame axis broadcasts, so the block averages over frames
        x = T.reshape(nn.attention_block(
            T.reshape(x, (b, 1, n + 1, d)), layer.norm_spatial,
            layer.temporal_spatial_attn, rep.video, ctx=ctx), (b, n + 1, d))

        # temporal cross-attention over pooled frames + text
        x = nn.attention_block(x, layer.norm_cross, layer.temporal_cross_attn,
                               kv, attn_mask, ctx)

        # FFN
        x = nn.feed_forward_block(x, layer.norm_ffn, layer.ffn, ctx)

        # box refinement: per-frame offsets from query + frame feature;
        # only the actor rows get boxes
        actors = x[:, :n, :]
        offsets = box_head(T.reshape(actors, (b, n, 1, d)), frame_rows,
                           layer.box_head)                  # [B, N, T, 4]
        prev = box_logits if li == 0 else box_logits.detach()
        box_logits = T.add(prev, offsets)
        per_layer_boxes.append(T.sigmoid(box_logits))

    action_logits = T.linear(actors, params.action_w, params.action_b)
    group_logits = T.linear(x[:, n, :], params.group_w, params.group_b)
    return DecoderOutput(per_layer_boxes, actors, action_logits, group_logits)
