"""Action decoder: iterative box refinement over the shared representation.

Actor queries start from the actor-fusion features, then each layer applies
actor self-attention, spatial cross-attention over the per-frame grid,
temporal cross-attention over pooled frames + text (+ embedded ground-truth
boxes when teacher forcing is on), an FFN, and a box head that refines the
per-frame box tube in inverse-sigmoid space.  The encoder's group token rides
through the stack as an extra boxless row and its final embedding feeds the
group-activity classifier.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from . import nn
from . import tensor as T
from .config import ModelConfig
from .encoder import SharedRepresentation
from .fusion import (ActorBoxSet, ActorFusionParams, ReferenceBoxParams,
                     box_coordinate_encoding, fuse, reference_logits)
from .nn import (AttentionParams, FeedForwardParams, LayerNormParams,
                 RunContext)
from .tensor import ContractError, Tensor


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

    def __call__(self, x: Tensor) -> Tensor:
        h = T.relu(T.linear(x, self.w1, self.b1))
        h = T.relu(T.linear(h, self.w2, self.b2))
        return T.linear(h, self.w3, self.b3)


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
    gt_box_proj: Tensor             # [4, d], teacher-forcing key embedder
    gt_box_bias: Tensor

    @classmethod
    def init(cls, rng, cfg: ModelConfig):
        d = cfg.d_model
        return cls([DecoderLayerParams.init(rng, cfg)
                    for _ in range(cfg.decoder_layers)],
                   nn.param(rng, d, cfg.num_actions), nn.zeros_param(cfg.num_actions),
                   nn.param(rng, d, cfg.num_groups), nn.zeros_param(cfg.num_groups),
                   nn.param(rng, 1, d, scale=0.02),
                   nn.param(rng, 4, d, scale=1.0), nn.zeros_param(d))


@dataclass
class DecoderOutput:
    per_layer_boxes: List[Tensor]            # each [B, N, T, 4]
    per_layer_actor_embeddings: List[Tensor]  # each [B, N, d]
    action_logits: Tensor                    # [B, N, A]
    group_logits: Tensor                     # [B, G]

    @property
    def final_boxes(self) -> Tensor:
        if not self.per_layer_boxes:
            raise ContractError("no decoder layers produced boxes")
        return self.per_layer_boxes[-1]


def classify_group(group_row: Tensor, params: ActionDecoderParams) -> Tensor:
    """Linear map d -> G on the group-token embedding [B, d]."""
    return T.linear(group_row, params.group_w, params.group_b)


def classify_actions(actor_embeddings: Tensor,
                     params: ActionDecoderParams) -> Tensor:
    """Row-wise linear map d -> A on actor embeddings [..., N, d]."""
    return T.linear(actor_embeddings, params.action_w, params.action_b)


def decode(rep: SharedRepresentation,
           params: ActionDecoderParams,
           cfg: ModelConfig,
           fusion_params: Optional[ActorFusionParams] = None,
           ref_params: Optional[ReferenceBoxParams] = None,
           keyframe: Optional[int] = None,
           gt_boxes: Optional[np.ndarray] = None,
           gt_mask: Optional[np.ndarray] = None,
           ctx: RunContext = nn.EVAL) -> DecoderOutput:
    """Run the decoder stack and emit per-layer box tubes plus logits.

    gt_boxes [B, M, 4] (with gt_mask [B, M]) is only consumed when
    cfg.teacher_forcing is on and the pass is a training pass; inference is
    bit-identical with and without the flag.
    """
    if rep.video.ndim != 4:
        raise ContractError(f"shared representation missing video rows: "
                            f"{rep.video.shape}")
    b, t, hw, d = rep.video.shape
    n = cfg.num_queries
    if keyframe is None:
        keyframe = t // 2
    if ref_params is None:
        ref_params = ReferenceBoxParams.init(n)

    frame_feats = T.tmean(rep.video, axis=2)         # [B, T, d]

    # inverse-sigmoid-space tube, one shared reference box per query
    ref = reference_logits(ref_params)               # [N, 4]
    box_logits = T.broadcast_to(T.reshape(ref, (1, n, 1, 4)), (b, n, t, 4))

    def fused_queries(logits_data: np.ndarray) -> Tensor:
        key_boxes = 1.0 / (1.0 + np.exp(-logits_data[:, :, keyframe, :]))
        key_boxes = np.clip(key_boxes, 1e-4, 1.0 - 1e-4)
        out = fuse(ActorBoxSet(key_boxes, source="layer-prediction"),
                   rep.text, fusion_params, rep.text_mask)
        return out.bt_f

    # one shared base embedding for every query slot; actor-specific identity
    # (which query is which actor) comes only from the fusion features, whose
    # coordinate encodings of the per-query reference boxes differ per slot
    x = T.broadcast_to(T.reshape(params.learned_queries, (1, 1, d)),
                       (b, n, d))
    if fusion_params is not None and cfg.use_actor_fusion:
        x = T.add(x, fused_queries(box_logits.data))

    # the group token rides through the decoder as row N: it joins actor
    # self-attention and both cross-attentions, but has no box head, and its
    # final-layer embedding feeds the group classifier
    x = T.concat([x, rep.group], axis=1)                 # [B, N+1, d]

    use_tf = cfg.teacher_forcing and ctx.training and gt_boxes is not None

    per_layer_boxes: List[Tensor] = []
    per_layer_embeddings: List[Tensor] = []

    for li, layer in enumerate(params.layers):
        if (li > 0 and cfg.fusion_refeed
                and fusion_params is not None and cfg.use_actor_fusion):
            # feed the previous layer's (detached) boxes back through fusion;
            # only the actor rows receive the refeed
            x = T.concat([T.add(x[:, :n, :], fused_queries(box_logits.data)),
                          x[:, n:, :]], axis=1)

        # actor self-attention
        h = nn.layer_norm(x, layer.norm_self)
        x = T.add(x, nn.multi_head_attention(h, h, layer.self_attn_actors,
                                             None, ctx))

        # spatial cross-attention: queries over each frame's grid, frame-averaged;
        # the frame axis of the queries broadcasts inside the attention
        q = T.reshape(nn.layer_norm(x, layer.norm_spatial), (b, 1, n + 1, d))
        spat = nn.multi_head_attention(q, rep.video, layer.temporal_spatial_attn,
                                       None, ctx)     # [B, T, N, d]
        x = T.add(x, T.tmean(spat, axis=1))

        # temporal cross-attention over pooled frames + text (+ gt boxes)
        keys = [frame_feats, rep.text]
        mask_parts = [np.ones((b, t), dtype=bool),
                      rep.text_mask if rep.text_mask is not None
                      else np.ones((b, rep.text.shape[1]), dtype=bool)]
        if use_tf:
            emb = T.linear(np.asarray(gt_boxes, dtype=np.float64),
                           params.gt_box_proj, params.gt_box_bias)
            keys.append(emb)
            mask_parts.append(gt_mask if gt_mask is not None
                              else np.ones(gt_boxes.shape[:2], dtype=bool))
        kv = T.concat(keys, axis=1)
        key_mask = np.concatenate(mask_parts, axis=1)        # [B, K]
        attn_mask = np.expand_dims(key_mask, 1) & np.ones((n + 1, 1), dtype=bool)
        h = nn.layer_norm(x, layer.norm_cross)
        x = T.add(x, nn.multi_head_attention(h, kv, layer.temporal_cross_attn,
                                             attn_mask, ctx))

        # FFN
        x = T.add(x, nn.feed_forward(nn.layer_norm(x, layer.norm_ffn),
                                     layer.ffn, ctx))

        # box refinement: per-frame offsets from query + frame feature;
        # only the actor rows get boxes
        actors = x[:, :n, :]
        hbox = T.add(T.reshape(actors, (b, n, 1, d)),
                     T.reshape(frame_feats, (b, 1, t, d)))
        offsets = layer.box_head(hbox)                      # [B, N, T, 4]
        prev = box_logits if li == 0 else box_logits.detach()
        box_logits = T.add(prev, offsets)
        per_layer_boxes.append(T.sigmoid(box_logits))
        per_layer_embeddings.append(actors)

    action_logits = classify_actions(x[:, :n, :], params)
    group_logits = classify_group(x[:, n, :], params)
    return DecoderOutput(per_layer_boxes, per_layer_embeddings,
                         action_logits, group_logits)
