"""Neural building blocks: attention, FFN, layer norm, conv1d, encodings.

All forward functions accept an arbitrary number of leading batch axes; the
documented shapes are the trailing ones.  Parameters live in small
dataclasses of Tensors and are collected by name via :func:`collect_params`.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import tensor as T
from .tensor import ContractError, ShapeError, Tensor


@dataclass
class RunContext:
    """Per-forward-pass state: training mode and the dropout RNG."""
    training: bool = False
    rng: Optional[np.random.Generator] = None

    def keep_mask(self, shape, rate: float) -> Optional[np.ndarray]:
        """Inverted-dropout multiplier on a training pass, else None."""
        if self.training and self.rng is not None and rate > 0:
            return (self.rng.random(shape) >= rate) / (1.0 - rate)
        return None


EVAL = RunContext(training=False)


def param(rng: np.random.Generator, *shape, scale: Optional[float] = None) -> Tensor:
    """Gaussian-initialized trainable tensor; default scale 1/sqrt(fan_in)."""
    if scale is None:
        fan_in = shape[-2] if len(shape) >= 2 else shape[-1]
        scale = 1.0 / np.sqrt(fan_in)
    return Tensor(rng.normal(0.0, scale, size=shape), requires_grad=True)


def zeros_param(*shape) -> Tensor:
    return Tensor(np.zeros(shape), requires_grad=True)


def ones_param(*shape) -> Tensor:
    return Tensor(np.ones(shape), requires_grad=True)


def collect_params(obj, prefix: str = "") -> dict:
    """Walk dataclasses/lists/dicts and gather trainable Tensors by path."""
    out = {}
    if isinstance(obj, Tensor):
        if obj.requires_grad:
            out[prefix] = obj
        return out
    if dataclasses.is_dataclass(obj):
        for f in dataclasses.fields(obj):
            sub = getattr(obj, f.name)
            key = f"{prefix}.{f.name}" if prefix else f.name
            out.update(collect_params(sub, key))
        return out
    if isinstance(obj, (list, tuple)):
        for i, sub in enumerate(obj):
            out.update(collect_params(sub, f"{prefix}.{i}" if prefix else str(i)))
        return out
    if isinstance(obj, dict):
        for k, sub in obj.items():
            out.update(collect_params(sub, f"{prefix}.{k}" if prefix else str(k)))
        return out
    return out


# -- attention ---------------------------------------------------------------

@dataclass
class AttentionParams:
    num_heads: int
    d_model: int
    wq: Tensor
    wk: Tensor
    wv: Tensor
    wo: Tensor
    dropout_rate: float = 0.0

    @classmethod
    def init(cls, rng, d_model: int, num_heads: int, dropout_rate: float = 0.0):
        if d_model % num_heads:
            raise ShapeError(f"d_model {d_model} % num_heads {num_heads} != 0")
        # wo is drawn before wq, wk, wv; seeded inits depend on that order
        wo = param(rng, d_model, d_model)
        return cls(num_heads, d_model, param(rng, d_model, d_model),
                   param(rng, d_model, d_model), param(rng, d_model, d_model),
                   wo, dropout_rate)


def _split(x: np.ndarray, h: int) -> np.ndarray:
    """[..., L, h*dh] -> [..., h, L, dh]."""
    return np.swapaxes(x.reshape(*x.shape[:-1], h, x.shape[-1] // h), -2, -3)


def _merge(x: np.ndarray) -> np.ndarray:
    """[..., h, L, dh] -> [..., L, h*dh]."""
    x = np.swapaxes(x, -2, -3)
    return x.reshape(*x.shape[:-2], -1)


# a key axis of up to this many keys is reduced one key column at a time:
# numpy reduces a short last axis at ~50 ns a row, an elementwise op over
# a column of every row costs a few ns an element
_COLUMN_KEYS = 32


def _key_max(a: np.ndarray) -> np.ndarray:
    """a.max(axis=-1, keepdims=True), the max over the key axis; by one
    np.maximum per key column for 2 to ``_COLUMN_KEYS`` keys."""
    k = a.shape[-1]
    if k > _COLUMN_KEYS or k == 1:
        return a.max(axis=-1, keepdims=True)
    out = np.maximum(a[..., 0:1], a[..., 1:2])
    for j in range(2, k):
        np.maximum(out, a[..., j:j + 1], out=out)
    return out


def _key_sum(a: np.ndarray) -> np.ndarray:
    """a.sum(axis=-1, keepdims=True), the sum over the key axis, bit for
    bit; by key columns for 2 to ``_COLUMN_KEYS`` keys, in numpy's order
    for a contiguous row of up to 128 elements: below 8, left to right;
    otherwise 8 running partials p0..p7 over blocks of 8, combined as
    ((p0+p1)+(p2+p3))+((p4+p5)+(p6+p7)), then the tail left to right."""
    k = a.shape[-1]
    if k > _COLUMN_KEYS or k == 1:
        return a.sum(axis=-1, keepdims=True)
    if k < 8:
        out = a[..., 0:1] + a[..., 1:2]
        tail = 2
    else:
        tail = k - k % 8
        part = a[..., 0:8].copy()                 # the partials p0..p7
        for i in range(8, tail, 8):
            part += a[..., i:i + 8]
        pairs = part[..., 0::2] + part[..., 1::2]
        out = pairs[..., 0:1] + pairs[..., 1:2]
        out += pairs[..., 2:3] + pairs[..., 3:4]
    for j in range(tail, k):
        out += a[..., j:j + 1]
    return out


def _attend(q, k, v, mask, ctx: RunContext, rate: float):
    """Scaled, masked softmax attention of split heads q [..., h, Lq, dh]
    over k, v [..., h, Lk, dh], with dropout on the weights.  Returns the
    weighted sum [..., h, Lq, dh], the softmax weights and the dropout's
    keep mask (None without dropout): what :func:`_attend_backward` takes
    besides q, k and v, which a backward rebuilds.

    The softmax runs in place in the score buffer, which becomes the
    weights: scale, masked fill with -1e9, minus the row max, exp, divided
    by the row sum.  These are the ops of the composed
    ``e = np.exp(s - s.max(-1)); e / e.sum(-1)``, in its order, and the row
    max and sum (:func:`_key_max`, :func:`_key_sum`) are numpy's bit for
    bit, so the weights equal the composed expression's."""
    if mask is not None and not mask.any(axis=-1).all():
        raise ContractError("attention mask has a fully masked query row")
    scale = 1.0 / np.sqrt(q.shape[-1])
    attn = q @ np.swapaxes(k, -1, -2)
    attn *= scale
    if mask is not None:
        m = np.expand_dims(mask, -3) if mask.ndim >= 3 else mask
        np.copyto(attn, -1e9, where=~m)
    attn -= _key_max(attn)
    np.exp(attn, out=attn)
    attn /= _key_sum(attn)
    keep = ctx.keep_mask(attn.shape, rate)
    dropped = attn if keep is None else attn * keep
    return dropped @ v, attn, keep


def _attend_backward(d_out, qkv: list, attn, keep):
    """The backward of :func:`_attend`, given the gradient of its weighted
    sum and the list [q, k, v], which it empties: each of them is dropped
    as soon as its last use is done (v after the weighted sum and the
    weights' gradient, k after q's), so that the next allocation takes its
    place.  The softmax backward runs in place in the weights' gradient,
    never in the kept weights, with its row sum by key columns.  Returns
    ((d_q, d_k, d_v) before any broadcast is summed away, the weighted
    sum), which it rebuilds for the output projection's weight gradient."""
    q, k, v = qkv
    qkv.clear()
    scale = 1.0 / np.sqrt(q.shape[-1])
    dropped = attn if keep is None else attn * keep
    out = dropped @ v
    d_scores = d_out @ np.swapaxes(v, -1, -2)              # [..., h, Lq, Lk]
    del v
    d_v = np.swapaxes(dropped, -1, -2) @ d_out             # [..., h, Lk, dh]
    del dropped
    if keep is not None:
        d_scores *= keep
    # softmax backward; masked weights are exactly 0, so are their scores'
    d_scores -= _key_sum(d_scores * attn)
    d_scores *= attn
    d_scores *= scale
    d_q = d_scores @ k
    del k
    return (d_q, np.swapaxes(d_scores, -1, -2) @ q, d_v), out


def attention_block(x: Tensor, norm: LayerNormParams, params: AttentionParams,
                    kv: Optional[Tensor] = None,
                    mask: Optional[np.ndarray] = None,
                    ctx: RunContext = EVAL) -> Tensor:
    """x + attention(layer_norm(x), kv), a pre-norm residual sublayer, as
    one graph node with a hand-written backward.

    Covers the queries' layer norm, the Q/K/V projections, the head split,
    the scaled and masked scores, softmax, dropout on the attention weights,
    the weighted sum, the head merge, the output projection and the residual.
    With kv omitted it is self-attention over the normed rows: the same
    arithmetic and dropout draw as kv = layer_norm(x), except that Q, K and V
    come from one GEMM against the packed [d, 3d] weight [wq | wk | wv],
    forward and backward.  Otherwise the leading axes of x and kv broadcast
    against each other.  Wherever x broadcasts across kv slices on any
    leading axis (frames, or a batch: x [1, L, d] against kv [B, Lk, d]), the
    attention outputs are averaged over those slices (a sum, then times
    1/count, as :func:`T.tmean` does), so the result keeps x's shape.  mask
    is a boolean array broadcastable to [..., Lq, Lk]; True marks keys that
    may be attended to; a padding mask over the keys is passed as
    [..., 1, Lk].  Every query row must keep a key.

    Any of the norm's and the attention's parameters may be stacked on x's
    leading axis (a weight [K, d, d], gamma [K, d]); member k then applies
    to x[k] and kv[k], and kv must have x's rank and leading axis.

    For the backward the node keeps each row's mean and standard deviation,
    the softmax weights and the dropout mask.  It rebuilds the normalized
    rows from x's current value and the normed-and-scaled rows from those,
    and from them, from kv's current value and from the parameters' current
    values it rebuilds Q, K and V (the same projections as the forward's),
    the dropped weights, the weighted sum and the merged heads.  The softmax
    weights are kept, not rebuilt: they cost a score GEMM, an exp and a
    normalization per head.
    """
    d, h = params.d_model, params.num_heads
    if x.shape[-1] != d or (kv is not None and kv.shape[-1] != d):
        raise ShapeError(f"width mismatch: x {x.shape}, kv "
                         f"{None if kv is None else kv.shape}, d_model {d}")
    wq, wk, wv, wo = params.wq, params.wk, params.wv, params.wo
    weights = (wq, wk, wv, wo)
    T.check_members("attention_block", x.shape,
                    [(n, w.shape, 2) for n, w in zip(("wq", "wk", "wv", "wo"),
                                                     weights)])
    if (kv is not None and any(w.ndim == 3 for w in weights)
            and (kv.ndim != x.ndim or kv.shape[0] != x.shape[0])):
        raise ShapeError(f"attention_block: stacked weights need kv "
                         f"{kv.shape} with the rank and leading axis of "
                         f"x {x.shape}")

    def query_weight():
        """The weight applied to the normed rows: the packed [wq | wk | wv]
        for self-attention, wq for cross-attention."""
        if kv is None:
            return np.concatenate(
                np.broadcast_arrays(wq.data, wk.data, wv.data), axis=-1)
        return wq.data

    def project(hn, w):
        """The split heads [q, k, v] of the normed rows hn, given
        :func:`query_weight`: one GEMM for self-attention; for
        cross-attention hn @ wq and kv's rows times wk and wv."""
        if kv is None:
            qkv = _split(T.apply_weight(hn, w), 3 * h)
            return [qkv[..., i * h:(i + 1) * h, :, :] for i in range(3)]
        return [_split(T.apply_weight(hn, w), h),
                _split(T.apply_weight(kv.data, wk.data), h),
                _split(T.apply_weight(kv.data, wv.data), h)]

    normed, mean, std = _layer_norm_forward(x.data, norm)
    out, attn, keep = _attend(
        *project(_layer_norm_affine(normed, norm), query_weight()), mask,
        ctx, params.dropout_rate)
    attended = T.apply_weight(_merge(out), wo.data)
    full = attended.shape
    if full != x.shape:
        scale = 1.0 / (attended.size // x.size)
        attended = T.unbroadcast(attended, x.shape) * scale
    data = x.data + attended

    parents = ((x,) if kv is None else (x, kv)) + (norm.gamma, norm.beta,
                                                    wq, wk, wv, wo)
    req = any(p.requires_grad for p in parents)

    def backward(g):
        g_attn = (g if full == x.shape
                  else np.broadcast_to(g * scale, full).copy())
        d_merged = T.apply_weight(g_attn, np.swapaxes(wo.data, -1, -2))
        normed = _normalize(x.data, mean, std)
        hn = _layer_norm_affine(normed, norm)
        w_in = query_weight()
        grads, out = _attend_backward(_split(d_merged, h), project(hn, w_in),
                                      attn, keep)
        if wo.requires_grad:
            wo.accumulate(T.weight_grad(_merge(out), g_attn, wo.data))
        # a rebuilt value is freed as soon as it is used, so that the next
        # allocation takes its place
        del out, d_merged
        if kv is None:
            d_qkv = _merge(np.concatenate(grads, axis=-3))  # [..., L, 3d]
            del grads
            d_w = T.weight_grad(hn, d_qkv, w_in)
            for i, w in enumerate((wq, wk, wv)):
                if w.requires_grad:
                    # a shared weight beside stacked ones sums the members
                    w.accumulate(T.unbroadcast(d_w[..., i * d:(i + 1) * d],
                                               w.shape))
            d_hn = T.apply_weight(d_qkv, np.swapaxes(w_in, -1, -2))
        else:
            d_q, d_k, d_v = (T.unbroadcast(_merge(dz), shape) for dz, shape
                             in zip(grads, (x.shape, kv.shape, kv.shape)))
            del grads
            if wq.requires_grad:
                wq.accumulate(T.weight_grad(hn, d_q, w_in))
            for w, dw in ((wk, d_k), (wv, d_v)):
                if w.requires_grad:
                    w.accumulate(T.weight_grad(kv.data, dw, w.data))
            if kv.requires_grad:
                kv.accumulate(
                    T.apply_weight(d_k, np.swapaxes(wk.data, -1, -2))
                    + T.apply_weight(d_v, np.swapaxes(wv.data, -1, -2)))
            d_hn = T.apply_weight(d_q, np.swapaxes(w_in, -1, -2))
        del hn
        d_x = _layer_norm_backward(d_hn, normed, std, norm)
        # when kv is x, both writes land in the same tensor
        if x.requires_grad:
            x.accumulate(g + d_x)

    return Tensor(data, req, parents, backward if req else None)


# -- feed forward ------------------------------------------------------------

@dataclass
class FeedForwardParams:
    w1: Tensor
    b1: Tensor
    w2: Tensor
    b2: Tensor
    dropout_rate: float = 0.0

    @classmethod
    def init(cls, rng, d: int, d_ff: int, dropout_rate: float = 0.0):
        if d_ff < d:
            raise ShapeError(f"d_ff {d_ff} < d {d}")
        return cls(param(rng, d, d_ff), zeros_param(d_ff),
                   param(rng, d_ff, d), zeros_param(d), dropout_rate)


def feed_forward_block(x: Tensor, norm: LayerNormParams,
                       params: FeedForwardParams,
                       ctx: RunContext = EVAL) -> Tensor:
    """x + GELU perceptron(layer_norm(x)), d -> d_ff -> d with dropout on the
    hidden layer, as one graph node with a hand-written backward.  Any
    parameter may be stacked on x's leading axis, as in
    :func:`attention_block`.

    For the backward the node keeps each row's mean and standard deviation,
    the pre-activation and the dropout mask.  It rebuilds the normalized
    rows from x's current value and the normed-and-scaled rows from those,
    and the GELU's tanh and the hidden layer from the pre-activation.  The
    pre-activation is kept, not rebuilt: it costs a GEMM."""
    w1, b1, w2, b2 = params.w1, params.b1, params.w2, params.b2
    if x.shape[-1] != w1.shape[-2]:
        raise ShapeError(f"ffn width mismatch: {x.shape} vs {w1.shape}")
    T.check_members("feed_forward_block", x.shape,
                    [("w1", w1.shape, 2), ("b1", b1.shape, 1),
                     ("w2", w2.shape, 2), ("b2", b2.shape, 1)])
    normed, mean, std = _layer_norm_forward(x.data, norm)
    pre = T.apply_weight(_layer_norm_affine(normed, norm), w1.data)
    pre += T.per_member(b1.data, pre.ndim)
    hidden, _ = T.gelu_forward(pre)
    keep = ctx.keep_mask(hidden.shape, params.dropout_rate)
    if keep is not None:
        hidden *= keep
    out = T.apply_weight(hidden, w2.data)
    out += T.per_member(b2.data, out.ndim)
    data = x.data + out

    parents = (x, norm.gamma, norm.beta, w1, b1, w2, b2)
    req = any(p.requires_grad for p in parents)

    def backward(g):
        tanh = T.gelu_tanh(pre)
        if w2.requires_grad:
            hidden = T.gelu_from_tanh(pre, tanh)
            if keep is not None:
                hidden *= keep
            w2.accumulate(T.weight_grad(hidden, g, w2.data))
            del hidden
        if b2.requires_grad:
            b2.accumulate(T.row_sum(g, b2.data))
        d_hidden = T.apply_weight(g, np.swapaxes(w2.data, -1, -2))
        if keep is not None:
            d_hidden *= keep
        d_pre = d_hidden * T.gelu_slope(pre, tanh)
        del d_hidden, tanh
        normed = _normalize(x.data, mean, std)
        if w1.requires_grad:
            w1.accumulate(T.weight_grad(_layer_norm_affine(normed, norm),
                                        d_pre, w1.data))
        if b1.requires_grad:
            b1.accumulate(T.row_sum(d_pre, b1.data))
        d_hn = T.apply_weight(d_pre, np.swapaxes(w1.data, -1, -2))
        d_x = _layer_norm_backward(d_hn, normed, std, norm)
        if x.requires_grad:
            x.accumulate(g + d_x)

    return Tensor(data, req, parents, backward if req else None)


# -- layer norm --------------------------------------------------------------

@dataclass
class LayerNormParams:
    gamma: Tensor
    beta: Tensor

    @classmethod
    def init(cls, d: int):
        return cls(ones_param(d), zeros_param(d))


_LN_EPS = 1e-5


def _layer_norm_forward(x: np.ndarray, params: LayerNormParams):
    """The normalized rows of x, their means and their standard deviations;
    :func:`_layer_norm_affine` scales and shifts the rows, and a backward
    keeps the means and deviations and rebuilds the rows from them
    (:func:`_normalize`).  gamma and beta may be stacked [K, n] on x's
    leading axis.  The mean, variance and std are scaled and shifted in
    place, and the centered rows divided in place: the ops and their order
    of ``(x - mean) / sqrt(var + eps)``, without its temporaries."""
    gamma, beta = params.gamma, params.beta
    n = x.shape[-1]
    if gamma.shape[-1:] != (n,) or beta.shape[-1:] != (n,):
        raise ShapeError(f"layer norm of width {n} with gamma {gamma.shape}, "
                         f"beta {beta.shape}")
    T.check_members("layer_norm", x.shape,
                    [("gamma", gamma.shape, 1), ("beta", beta.shape, 1)])
    mean = x.sum(axis=-1, keepdims=True)
    mean *= 1.0 / n
    centered = x - mean
    std = (centered * centered).sum(axis=-1, keepdims=True)
    std *= 1.0 / n
    std += _LN_EPS
    np.sqrt(std, out=std)
    centered /= std
    return centered, mean, std


def _normalize(x: np.ndarray, mean: np.ndarray,
               std: np.ndarray) -> np.ndarray:
    """(x - mean) / std, the normalized rows that
    :func:`_layer_norm_forward` returned for x, bit for bit: its ops in
    its order, so a backward rebuilds them instead of keeping them."""
    out = x - mean
    out /= std
    return out


def _layer_norm_affine(normed: np.ndarray,
                       params: LayerNormParams) -> np.ndarray:
    """normed * gamma + beta: the layer norm's output, from its normalized
    rows; one elementwise pass, so a backward rebuilds it, not keeps it."""
    out = normed * T.per_member(params.gamma.data, normed.ndim)
    out += T.per_member(params.beta.data, normed.ndim)
    return out


def _layer_norm_backward(g: np.ndarray, normed: np.ndarray, std: np.ndarray,
                         params: LayerNormParams) -> np.ndarray:
    """Accumulate gamma's and beta's gradients; return the input's."""
    gamma, beta = params.gamma, params.beta
    if gamma.requires_grad:
        gamma.accumulate(T.row_sum(g * normed, gamma.data))
    if beta.requires_grad:
        beta.accumulate(T.row_sum(g, beta.data))
    n = g.shape[-1]
    gn = g * T.per_member(gamma.data, g.ndim)
    dot = (gn * normed).sum(axis=-1, keepdims=True) * (1.0 / n)
    gn -= gn.sum(axis=-1, keepdims=True) * (1.0 / n)
    gn -= normed * dot
    return gn / std


def layer_norm(x: Tensor, params: LayerNormParams) -> Tensor:
    """Normalize the last axis, then scale and shift; one graph node.  For
    the backward it keeps each row's mean and standard deviation and
    rebuilds the normalized rows from x's current value."""
    normed, mean, std = _layer_norm_forward(x.data, params)
    data = _layer_norm_affine(normed, params)
    parents = (x, params.gamma, params.beta)
    req = any(p.requires_grad for p in parents)

    def backward(g):
        d_x = _layer_norm_backward(g, _normalize(x.data, mean, std), std,
                                   params)
        if x.requires_grad:
            x.accumulate(d_x)

    return Tensor(data, req, parents, backward if req else None)


# -- conv1d ------------------------------------------------------------------

def conv1d(x: Tensor, kernel: Tensor, bias: Optional[Tensor] = None) -> Tensor:
    """Same-padded cross-correlation along the second-to-last axis.

    x: [..., L, c_in], kernel: [k, c_in, c_out] with odd k.
    """
    k, c_in, c_out = kernel.shape
    if k % 2 == 0:
        raise ShapeError(f"conv1d kernel size must be odd, got {k}")
    if x.shape[-1] != c_in:
        raise ShapeError(f"conv1d channel mismatch: {x.shape} vs {kernel.shape}")
    L = x.shape[-2]
    pad = k // 2
    if pad:
        zshape = (*x.shape[:-2], pad, c_in)
        z = Tensor(np.zeros(zshape))
        x = T.concat([z, x, z], axis=-2)
    # unfold the k taps into channels, then one matmul
    windows = [T.getitem(x, (..., slice(off, off + L), slice(None)))
               for off in range(k)]
    unfolded = T.concat(windows, axis=-1)            # [..., L, k*c_in]
    return T.linear(unfolded, T.reshape(kernel, (k * c_in, c_out)), bias)


# -- positional encodings ----------------------------------------------------

def sinusoidal_table(length: int, d: int) -> np.ndarray:
    """Standard sin/cos table; row 0 is [0, 1, 0, 1, ...]."""
    pos = np.arange(length)[:, None].astype(np.float64)
    i = np.arange(d // 2)[None, :].astype(np.float64)
    angles = pos / np.power(10000.0, 2 * i / d)
    table = np.zeros((length, d))
    table[:, 0::2] = np.sin(angles)
    table[:, 1::2] = np.cos(angles)
    return table


def sinusoidal_2d_table(h: int, w: int, d: int) -> np.ndarray:
    """Grid encoding: first half of d encodes the row, second half the column."""
    if d % 2:
        raise ShapeError(f"2-d sinusoidal table needs even d, got {d}")
    # cell r * w + c pairs row r's code with column c's
    rows = np.repeat(sinusoidal_table(h, d // 2), w, axis=0)
    cols = np.tile(sinusoidal_table(w, d // 2), (h, 1))
    return np.concatenate([rows, cols], axis=1)


def positional_encode(x: Tensor, table: Tensor) -> Tensor:
    """Add the first rows of an encoding table [max_len, d] to the
    last-but-one axis of x."""
    L = x.shape[-2]
    if L > table.shape[0]:
        raise ContractError(
            f"position {L - 1} outside table of {table.shape[0]} rows")
    return T.add(x, T.getitem(table, np.arange(L)))
