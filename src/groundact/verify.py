"""Finite-difference verification suite for every differentiable operation
that the program runs and for each assembled block at toy sizes."""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from . import nn
from . import tensor as T
from .config import ModelConfig
from .decoder import ActionDecoderParams, BoxHeadParams, box_head, decode
from .encoder import VLEncoderParams, encode
from .fusion import ActorBoxSet, ActorFusionParams, ReferenceBoxParams, fuse
from .losses import box_loss
from .tensor import Tensor, grad_check

TOLERANCE = 1e-4

# toy sizes for the block-level checks
TOY = dict(d=8, t=2, hw=4, l=3, n=2)


def _row_sums(y: Tensor) -> Tensor:
    """[K, ...] -> [K]: the sum of each row of a stack."""
    return T.tsum(T.reshape(y, (y.shape[0], -1)), axis=1)


class _RowDropout(nn.RunContext):
    """A training context for a stack of rows: the keep mask is drawn for one
    row and shared by every row, so row k gets the mask that a call on row k
    alone draws from the same generator state."""

    def keep_mask(self, shape, rate: float) -> Optional[np.ndarray]:
        keep = super().keep_mask(shape[1:], rate)
        return None if keep is None else np.broadcast_to(keep, shape)


def _dropout() -> _RowDropout:
    # a fresh generator per call keeps each case's f deterministic
    return _RowDropout(training=True, rng=np.random.default_rng(0))


def op_cases(rng: np.random.Generator) -> List[Tuple[str, Callable, Tensor]]:
    """(name, function, input) triples covering every op that the program
    runs, each function in the stacked form that :func:`grad_check` takes.

    Every case takes the stack as one more leading axis, so one call
    evaluates every row, and sums each row of its output.  Weights unpacked
    from the input are stacked on that axis (the member axis of
    :func:`T.linear` and the :mod:`nn` blocks), and the dropout cases share
    one keep mask across the stack through :class:`_RowDropout`.  Inputs
    are drawn in list order: removing a case moves the inputs of every
    later draw from the same generator, :func:`block_cases`' too.
    """
    rs = _row_sums
    # constants are drawn once, outside the closures: grad_check re-invokes
    # each function many times and expects it to be deterministic
    u = lambda *s: Tensor(rng.uniform(-1, 1, size=s))
    b = u(4, 3)
    big = u(5, 4, 3)
    m34, m43, m22, m83, m543 = u(3, 4), u(3, 4), u(2, 2), u(8, 3), u(5, 4, 3)
    v4 = u(4)
    # the fused-op cases draw from a child generator, so the other cases and
    # the block cases keep the inputs they get from rng alone
    frng = rng.spawn(1)[0]
    uf = lambda *s: Tensor(frng.uniform(-1, 1, size=s))
    m_lin = uf(2, 3, 3)
    m_ln = uf(2, 3, 4)
    m_self, m_cross = uf(2, 3, 4), uf(2, 1, 2, 4)
    key_mask = np.array([[[True, False, True], [True, True, False]],
                         [[False, True, True], [True, True, True]]])[:, None]
    attn = nn.AttentionParams.init(frng, 4, 2)
    # the fused sublayers draw from a second child generator, so every case
    # above keeps its inputs
    brng = rng.spawn(1)[0]
    ub = lambda *s: Tensor(brng.uniform(-1, 1, size=s))
    norm = nn.LayerNormParams(ub(4), ub(4))
    wo = ub(4, 4)
    m_block = ub(1, 2, 4)
    # the box head's input comes from a third child generator; only its
    # output weights come from rng, 12 values where the case it replaced
    # drew its input, so every later draw from rng is unchanged
    hrng = rng.spawn(1)[0]

    def unpack(x, *shapes):
        """Consecutive slices of the last axis of x, each reshaped; any
        leading (stack) axes are kept."""
        out, at = [], 0
        for s in shapes:
            n = int(np.prod(s))
            out.append(T.reshape(x[..., at:at + n], x.shape[:-1] + s))
            at += n
        return out

    def linear(x):
        xs, w, b = unpack(x, (2, 3, 4), (4, 3), (3,))
        return rs(T.mul(T.linear(xs, w, b), m_lin))

    def layer_norm(x):
        xs, g, b = unpack(x, (2, 3, 4), (4,), (4,))
        return rs(T.mul(nn.layer_norm(xs, nn.LayerNormParams(g, b)), m_ln))

    def kv_is_x(x):
        # kv is x; dropout on
        xs, wq, wk, wv, wo = unpack(x, (2, 3, 4), *[(4, 4)] * 4)
        p = nn.AttentionParams(2, 4, wq, wk, wv, wo, dropout_rate=0.25)
        return rs(T.mul(nn.attention_block(xs, norm, p, xs, ctx=_dropout()),
                        m_self))

    def frames(x):
        # 4-d queries broadcast over (and averaged over) the keys' frames,
        # masked keys; no weight is an input, so a stack is one more axis
        q, kv = unpack(x, (2, 1, 2, 4), (2, 3, 3, 4))
        out = nn.attention_block(q, norm, attn, kv, key_mask)
        return rs(T.mul(out, m_cross))

    def attention_self(x):
        # kv omitted: Q/K/V packed into one GEMM, stacked beside a shared wo;
        # dropout on, as in kv_is_x
        xs, wq, wk, wv = unpack(x, (1, 2, 4), *[(4, 4)] * 3)
        p = nn.AttentionParams(2, 4, wq, wk, wv, wo, dropout_rate=0.25)
        return rs(T.mul(nn.attention_block(xs, norm, p, ctx=_dropout()),
                        m_block))

    def box_head_rows(m):
        # 3 queries' rows broadcast over 2 frames' rows, every weight
        # stacked; m [3, 1, 4] weighs each query's offsets on every frame
        def f(x):
            actors, frame_rows, *weights = unpack(
                x, (1, 3, 1, 3), (1, 1, 2, 3), (3, 3), (3,), (3, 3), (3,),
                (3, 4), (4,))
            return rs(T.mul(box_head(actors, frame_rows,
                                     BoxHeadParams(*weights)), m))
        return f

    def feed_forward_block(x):
        xs, w1, b1, w2, b2 = unpack(x, (1, 2, 4), (4, 4), (4,), (4, 4), (4,))
        p = nn.FeedForwardParams(w1, b1, w2, b2, dropout_rate=0.25)
        return rs(T.mul(nn.feed_forward_block(xs, norm, p, _dropout()),
                        m_block))

    return [
        ("add", lambda x: rs(T.add(x, b)), u(4, 3)),
        ("sub", lambda x: rs(T.sub(x, b)), u(4, 3)),
        ("mul", lambda x: rs(T.mul(x, b)), u(4, 3)),
        ("broadcast_add",
         lambda x: rs(T.mul(T.add(T.reshape(x, (-1, 1, 1, 3)), big), big)),
         u(3)),
        ("box_head", box_head_rows(u(3, 1, 4)),
         Tensor(hrng.uniform(-1, 1, size=9 + 6 + 2 * (9 + 3) + 12 + 4))),
        ("sigmoid", lambda x: rs(T.sigmoid(x)), u(4, 3)),
        ("softplus", lambda x: rs(T.softplus(x)), u(4, 3)),
        ("sum_axis", lambda x: rs(T.mul(T.tsum(x, axis=-1), v4)), u(4, 3)),
        ("mean", lambda x: T.tmean(T.mul(x, b), axis=(1, 2)), u(4, 3)),
        ("log_softmax", lambda x: rs(T.mul(T.log_softmax(x, axis=-1), b)),
         u(4, 3)),
        ("reshape", lambda x: rs(T.mul(T.reshape(x, (-1, 3, 4)), m34)),
         u(4, 3)),
        ("transpose", lambda x: rs(T.mul(T.transpose(x, (0, 2, 1)), m43)),
         u(4, 3)),
        ("getitem", lambda x: rs(T.mul(x[..., 1:3, :2], m22)), u(4, 3)),
        ("getitem_fancy", lambda x: rs(x[..., np.array([0, 2, 2]), :]),
         u(4, 3)),
        ("concat", lambda x: rs(T.mul(T.concat([x, x], axis=-2), m83)),
         u(4, 3)),
        ("broadcast_to",
         lambda x: rs(T.mul(T.broadcast_to(T.reshape(x, (-1, 1, 4, 3)),
                                           (x.shape[0], 5, 4, 3)), m543)),
         u(4, 3)),
        ("softmax_cross_entropy",
         lambda x: T.mul(rs(T.mul(T.log_softmax(x, axis=-1),
                                  Tensor(np.eye(4)[:, :3]))), -1.0),
         u(4, 3)),
        ("linear", linear, uf(24 + 12 + 3)),
        ("layer_norm", layer_norm, uf(24 + 4 + 4)),
        ("attention_block_kv_is_x", kv_is_x, uf(24 + 4 * 16)),
        ("attention_block_frames", frames, uf(16 + 72)),
        ("attention_block_self", attention_self, ub(8 + 3 * 16)),
        ("feed_forward_block", feed_forward_block, ub(8 + 2 * 16 + 2 * 4)),
    ]


def block_cases(rng: np.random.Generator):
    """Scalar losses through each assembled block at toy sizes, one per row
    of a stack of inputs: the stack is the batch axis of the block, and
    ``box_loss`` returns one value per row of its matched pairs."""
    d, t, hw, l, n = (TOY[k] for k in ("d", "t", "hw", "l", "n"))
    cfg = ModelConfig(d_model=d, num_heads=2, encoder_layers=1,
                      decoder_layers=1, frames=t, grid_h=2, grid_w=2,
                      raster_h=4, raster_w=4, num_queries=n, l_max=l,
                      dropout=0.0)
    enc = VLEncoderParams.init(rng, cfg)
    fus = ActorFusionParams.init(rng, cfg)
    ref = ReferenceBoxParams.init(n)
    dec = ActionDecoderParams.init(rng, cfg)
    # exercise the box head path with a non-degenerate final layer
    dec.layers[0].box_head.w3.data = rng.normal(0, 0.1, size=(d, 4))
    t_f0 = rng.uniform(-1, 1, size=(1, l, d))
    actor_boxes = np.array([[[0.3, 0.4, 0.2, 0.2], [0.6, 0.5, 0.25, 0.3]]])

    def broadcast_rows(a: np.ndarray, k: int) -> np.ndarray:
        """The toy constant a [1, ...] broadcast to k batch rows."""
        return np.broadcast_to(a, (k, *a.shape[1:]))

    def encoded(v_flat: Tensor):
        k = v_flat.shape[0]
        v = T.reshape(v_flat, (k, t, hw, d))
        return encode(v, Tensor(broadcast_rows(t_f0, k)), enc, cfg,
                      np.ones((k, l), dtype=bool))

    def through_encoder(v_flat: Tensor) -> Tensor:
        rep = encoded(v_flat)
        k = v_flat.shape[0]
        rows = T.concat([T.reshape(rep.video, (k, t * hw, d)), rep.text,
                         rep.group], axis=1)
        return _row_sums(T.mul(rows, 0.01))

    def through_fusion(t_flat: Tensor) -> Tensor:
        k = t_flat.shape[0]
        out = fuse(ActorBoxSet(broadcast_rows(actor_boxes, k)),
                   T.reshape(t_flat, (k, l, d)), fus,
                   np.ones((k, l), dtype=bool))
        return _row_sums(T.mul(out, 0.1))

    def through_decoder(v_flat: Tensor) -> Tensor:
        out = decode(encoded(v_flat), dec, cfg, fus, ref)
        # mean L1 + mean (1 - gIoU) of query 0's tube against one gt tube
        gt = np.array([[[0.3, 0.4, 0.2, 0.2]] * t])
        box_terms = box_loss(out.per_layer_boxes[-1],
                             (slice(None), slice(0, 1)), gt,
                             np.full((1, t), 1.0 / t), 1.0, 1.0)[0]
        return T.add(box_terms, _row_sums(T.mul(out.action_logits, 0.01)))

    def through_losses(boxes_flat: Tensor) -> Tensor:
        pred = T.add(T.mul(T.sigmoid(boxes_flat), 0.4), 0.2)  # well inside (0,1)
        gt = np.array([[0.35, 0.45, 0.2, 0.25], [0.6, 0.55, 0.3, 0.2]])
        return box_loss(pred, slice(None), gt, np.full(2, 0.5), 5.0, 2.0)[0]

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
    """Max finite-difference error per case over ``repeats`` >= 1 seeds;
    all should be <= TOLERANCE."""
    if repeats < 1:
        raise ValueError(f"repeats must be at least 1, got {repeats}")
    results: Dict[str, float] = {}
    for r in range(repeats):
        rng = np.random.default_rng(seed + r)
        for name, f, x in op_cases(rng) + block_cases(rng):
            results[name] = max(results.get(name, 0.0), grad_check(f, x))
    return results
