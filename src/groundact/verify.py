"""Finite-difference verification suite for every differentiable operation
and for each assembled block at toy sizes."""

from __future__ import annotations

from typing import Callable, Dict, List, Tuple

import numpy as np

from . import nn
from . import tensor as T
from .config import LossWeights, ModelConfig
from .decoder import ActionDecoderParams, decode
from .encoder import VLEncoderParams, encode
from .fusion import ActorBoxSet, ActorFusionParams, ReferenceBoxParams, fuse
from .losses import giou_loss, l1_loss
from .tensor import Tensor, grad_check

TOLERANCE = 1e-4

# toy sizes for the block-level checks
TOY = dict(d=8, t=2, hw=4, l=3, n=2)


def op_cases(rng: np.random.Generator) -> List[Tuple[str, Callable, Tensor]]:
    """(name, scalar function, input) triples covering every registered op."""
    # constants are drawn once, outside the closures: grad_check re-invokes
    # each function many times and expects it to be deterministic
    u = lambda *s: Tensor(rng.uniform(-1, 1, size=s))
    pos = lambda *s: Tensor(rng.uniform(0.1, 1, size=s))
    b = u(4, 3)
    denom = pos(4, 3)
    big = u(5, 4, 3)
    rhs = u(3, 5)
    rhs_b = u(2, 3, 4)
    m34, m43, m22, m83, m543 = u(3, 4), u(3, 4), u(2, 2), u(8, 3), u(5, 4, 3)
    v4 = u(4)
    # the fused-op cases draw from a child generator, so the other cases and
    # the block cases keep the inputs they get from rng alone
    frng = rng.spawn(1)[0]
    uf = lambda *s: Tensor(frng.uniform(-1, 1, size=s))
    m_lin = uf(2, 3, 3)
    m_ln = uf(2, 3, 4)
    m_self, m_cross = uf(2, 3, 4), uf(2, 3, 2, 4)
    key_mask = np.array([[[True, False, True], [True, True, False]],
                         [[False, True, True], [True, True, True]]])[:, None]
    attn = nn.AttentionParams.init(frng, 4, 2)

    def unpack(x, *shapes):
        """Consecutive slices of a flat input, reshaped."""
        out, at = [], 0
        for s in shapes:
            n = int(np.prod(s))
            out.append(T.reshape(x[at:at + n], s))
            at += n
        return out

    def linear(x):
        xs, w, b = unpack(x, (2, 3, 4), (4, 3), (3,))
        return T.tsum(T.mul(T.linear(xs, w, b), m_lin))

    def layer_norm(x):
        xs, g, b = unpack(x, (2, 3, 4), (4,), (4,))
        return T.tsum(T.mul(nn.layer_norm(xs, nn.LayerNormParams(g, b)), m_ln))

    def self_attention(x):
        # dropout on, with a fresh generator per call so f is deterministic
        xs, wq, wk, wv, wo = unpack(x, (2, 3, 4), *[(4, 4)] * 4)
        p = nn.AttentionParams(2, 4, wq, wk, wv, wo, dropout_rate=0.25)
        ctx = nn.RunContext(training=True, rng=np.random.default_rng(0))
        return T.tsum(T.mul(nn.multi_head_attention(xs, xs, p, None, ctx),
                            m_self))

    def cross_attention(x):
        # 4-d queries broadcast over the frame axis of the keys, masked keys
        q, kv = unpack(x, (2, 1, 2, 4), (2, 3, 3, 4))
        out = nn.multi_head_attention(q, kv, attn, key_mask)
        return T.tsum(T.mul(out, m_cross))

    cases = [
        ("add", lambda x: T.tsum(T.add(x, b)), u(4, 3)),
        ("sub", lambda x: T.tsum(T.sub(x, b)), u(4, 3)),
        ("mul", lambda x: T.tsum(T.mul(x, b)), u(4, 3)),
        ("div", lambda x: T.tsum(T.div(x, denom)), u(4, 3)),
        ("broadcast_add", lambda x: T.tsum(T.mul(T.add(x, big), big)), u(3)),
        ("matmul", lambda x: T.tsum(T.matmul(x, rhs)), u(4, 3)),
        ("batched_matmul", lambda x: T.tsum(T.matmul(x, rhs_b)), u(2, 5, 3)),
        ("maximum", lambda x: T.tsum(T.maximum(x, b)), u(4, 3)),
        ("minimum", lambda x: T.tsum(T.minimum(x, b)), u(4, 3)),
        ("relu", lambda x: T.tsum(T.relu(x)), u(4, 3)),
        ("gelu", lambda x: T.tsum(T.gelu(x)), u(4, 3)),
        ("sigmoid", lambda x: T.tsum(T.sigmoid(x)), u(4, 3)),
        ("tanh", lambda x: T.tsum(T.tanh(x)), u(4, 3)),
        ("exp", lambda x: T.tsum(T.exp(x)), u(4, 3)),
        ("log", lambda x: T.tsum(T.log(x)), pos(4, 3)),
        ("sqrt", lambda x: T.tsum(T.sqrt(x)), pos(4, 3)),
        ("abs", lambda x: T.tsum(T.absolute(x)), u(4, 3)),
        ("softplus", lambda x: T.tsum(T.softplus(x)), u(4, 3)),
        ("sum_axis", lambda x: T.tsum(T.mul(T.tsum(x, axis=1), v4)), u(4, 3)),
        ("mean", lambda x: T.tmean(T.mul(x, b)), u(4, 3)),
        ("softmax", lambda x: T.tsum(T.mul(T.softmax(x, axis=-1), b)), u(4, 3)),
        ("log_softmax", lambda x: T.tsum(T.mul(T.log_softmax(x, axis=-1), b)),
         u(4, 3)),
        ("reshape", lambda x: T.tsum(T.mul(T.reshape(x, (3, 4)), m34)),
         u(4, 3)),
        ("transpose", lambda x: T.tsum(T.mul(T.transpose(x, (1, 0)), m43)),
         u(4, 3)),
        ("getitem", lambda x: T.tsum(T.mul(x[1:3, :2], m22)), u(4, 3)),
        ("getitem_fancy", lambda x: T.tsum(x[np.array([0, 2, 2])]), u(4, 3)),
        ("concat", lambda x: T.tsum(T.mul(T.concat([x, x], axis=0), m83)),
         u(4, 3)),
        ("broadcast_to", lambda x: T.tsum(T.mul(T.broadcast_to(x, (5, 4, 3)),
                                                m543)), u(4, 3)),
        ("clip", lambda x: T.tsum(T.clip(x, -0.5, 0.5)), u(4, 3)),
        ("where", lambda x: T.tsum(T.where(np.eye(4, 3, dtype=bool), x, b)),
         u(4, 3)),
        ("softmax_cross_entropy",
         lambda x: T.mul(T.tsum(T.mul(T.log_softmax(x, axis=-1),
                                      Tensor(np.eye(4)[:, :3]))), -1.0),
         u(4, 3)),
        ("linear", linear, uf(24 + 12 + 3)),
        ("layer_norm", layer_norm, uf(24 + 4 + 4)),
        ("self_attention", self_attention, uf(24 + 4 * 16)),
        ("cross_attention", cross_attention, uf(16 + 72)),
    ]
    return cases


def block_cases(rng: np.random.Generator):
    """Scalar losses through each assembled block at toy sizes."""
    d, t, hw, l, n = (TOY[k] for k in ("d", "t", "hw", "l", "n"))
    cfg = ModelConfig(d_model=d, num_heads=2, encoder_layers=1,
                      decoder_layers=1, frames=t, grid_h=2, grid_w=2,
                      raster_h=4, raster_w=4, num_queries=n, l_max=l,
                      dropout=0.0, num_actions=3, num_groups=3,
                      vocab_size=8, fusion_kernel=3)
    enc = VLEncoderParams.init(rng, cfg)
    fus = ActorFusionParams.init(rng, cfg)
    ref = ReferenceBoxParams.init(n)
    dec = ActionDecoderParams.init(rng, cfg)
    # exercise the box head path with a non-degenerate final layer
    dec.layers[0].box_head.w3.data = rng.normal(0, 0.1, size=(d, 4))
    t_f0 = Tensor(rng.uniform(-1, 1, size=(1, l, d)))

    def through_encoder(v_flat: Tensor) -> Tensor:
        v = T.reshape(v_flat, (1, t, hw, d))
        rep = encode(v, t_f0, enc, cfg)
        return T.tsum(T.mul(rep.vt_f, 0.01))

    def through_fusion(t_flat: Tensor) -> Tensor:
        boxes = ActorBoxSet(np.array([[[0.3, 0.4, 0.2, 0.2],
                                       [0.6, 0.5, 0.25, 0.3]]]))
        out = fuse(boxes, T.reshape(t_flat, (1, l, d)), fus)
        return T.tsum(T.mul(out.bt_f, 0.1))

    def through_decoder(v_flat: Tensor) -> Tensor:
        v = T.reshape(v_flat, (1, t, hw, d))
        rep = encode(v, t_f0, enc, cfg)
        out = decode(rep, dec, cfg, fusion_params=fus, ref_params=ref)
        gt = Tensor(np.array([[[0.3, 0.4, 0.2, 0.2]] * t]))
        box_terms = T.add(l1_loss(out.per_layer_boxes[-1][0, :1],
                                  np.array([[[0.3, 0.4, 0.2, 0.2]] * t])),
                          giou_loss(T.reshape(out.per_layer_boxes[-1][0, :1],
                                              (-1, 4)),
                                    np.array([[0.3, 0.4, 0.2, 0.2]] * t)))
        return T.add(box_terms, T.tsum(T.mul(out.action_logits, 0.01)))

    def through_losses(boxes_flat: Tensor) -> Tensor:
        pred = T.add(T.mul(T.sigmoid(boxes_flat), 0.4), 0.2)  # well inside (0,1)
        gt = np.array([[0.35, 0.45, 0.2, 0.25], [0.6, 0.55, 0.3, 0.2]])
        return T.add(T.mul(l1_loss(pred, gt), 5.0),
                     T.mul(giou_loss(pred, gt), 2.0))

    return [
        ("vl_encoder", through_encoder,
         Tensor(rng.uniform(-1, 1, size=(t * hw * d,)))),
        ("actor_fusion", through_fusion,
         Tensor(rng.uniform(-1, 1, size=(l * d,)))),
        ("action_decoder", through_decoder,
         Tensor(rng.uniform(-1, 1, size=(t * hw * d,)))),
        ("box_losses", through_losses,
         Tensor(rng.uniform(-1, 1, size=(2, 4)))),
    ]


def run_suite(seed: int = 0, repeats: int = 1) -> Dict[str, float]:
    """Max finite-difference error per case; all should be <= TOLERANCE."""
    results: Dict[str, float] = {}
    for r in range(repeats):
        rng = np.random.default_rng(seed + r)
        for name, f, x in op_cases(rng):
            err = grad_check(f, x)
            results[name] = max(results.get(name, 0.0), err)
        for name, f, x in block_cases(rng):
            err = grad_check(f, x)
            results[name] = max(results.get(name, 0.0), err)
    return results
