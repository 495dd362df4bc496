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

    def drop(self, x, rate: float):
        keep = self.keep_mask(x.shape, rate)
        return x if keep is None else T.mul(x, Tensor(keep))

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
    def init(cls, rng, d_model: int, num_heads: int, dropout_rate: float = 0.0,
             zero_out: bool = False):
        if d_model % num_heads:
            raise ShapeError(f"d_model {d_model} % num_heads {num_heads} != 0")
        wo = zeros_param(d_model, d_model) if zero_out else param(rng, d_model, d_model)
        return cls(num_heads, d_model, param(rng, d_model, d_model),
                   param(rng, d_model, d_model), param(rng, d_model, d_model),
                   wo, dropout_rate)


def multi_head_attention(q_seq: Tensor, kv_seq: Tensor, params: AttentionParams,
                         mask: Optional[np.ndarray] = None,
                         ctx: RunContext = EVAL) -> Tensor:
    """Scaled dot-product attention as one graph node; self-attention when
    q_seq is kv_seq.

    Covers the Q/K/V projections, the head split, the scaled and masked
    scores, softmax, dropout on the attention weights, the weighted sum, the
    head merge and the output projection; the backward is written out by
    hand.  The leading axes of q_seq and kv_seq broadcast against each other.
    mask is a boolean array broadcastable to [..., Lq, Lk]; True marks keys
    that may be attended to.  Every query row must keep at least one key.
    """
    d = params.d_model
    if q_seq.shape[-1] != d or kv_seq.shape[-1] != d:
        raise ShapeError(
            f"width mismatch: q {q_seq.shape}, kv {kv_seq.shape}, d_model {d}")
    if mask is not None and not mask.any(axis=-1).all():
        raise ContractError("attention mask has a fully masked query row")

    h = params.num_heads
    dh = d // h
    wq, wk, wv, wo = params.wq, params.wk, params.wv, params.wo
    xq, xkv = q_seq.data, kv_seq.data

    def split(x):       # [..., L, d] -> [..., h, L, dh]
        return np.swapaxes(x.reshape(*x.shape[:-1], h, dh), -2, -3)

    def merge(x):       # [..., h, L, dh] -> [..., L, d]
        x = np.swapaxes(x, -2, -3)
        return x.reshape(*x.shape[:-2], d)

    q = split(xq @ wq.data)
    k = split(xkv @ wk.data)
    v = split(xkv @ wv.data)
    scale = 1.0 / np.sqrt(dh)
    scores = (q @ np.swapaxes(k, -1, -2)) * scale
    if mask is not None:
        m = np.expand_dims(mask, -3) if mask.ndim >= 3 else mask
        scores = np.where(np.broadcast_to(m, scores.shape), scores, -1e9)
    e = np.exp(scores - scores.max(axis=-1, keepdims=True))
    attn = e / e.sum(axis=-1, keepdims=True)
    keep = ctx.keep_mask(attn.shape, params.dropout_rate)
    dropped = attn if keep is None else attn * keep
    merged = merge(dropped @ v)
    data = merged @ wo.data

    seqs = (q_seq,) if q_seq is kv_seq else (q_seq, kv_seq)
    parents = seqs + (wq, wk, wv, wo)
    req = any(p.requires_grad for p in parents)

    def backward(g):
        if wo.requires_grad:
            wo.accumulate(T.rows(merged).T @ T.rows(g))
        d_out = split(g @ wo.data.T)                        # [..., h, Lq, dh]
        d_attn = d_out @ np.swapaxes(v, -1, -2)            # [..., h, Lq, Lk]
        d_v = np.swapaxes(dropped, -1, -2) @ d_out         # [..., h, Lk, dh]
        if keep is not None:
            d_attn *= keep
        # softmax backward; masked weights are exactly 0, so are their scores'
        d_scores = attn * (d_attn - (d_attn * attn).sum(axis=-1, keepdims=True))
        d_scores *= scale
        d_q = T.unbroadcast(merge(d_scores @ k), xq.shape)
        d_k = T.unbroadcast(merge(np.swapaxes(d_scores, -1, -2) @ q), xkv.shape)
        d_v = T.unbroadcast(merge(d_v), xkv.shape)
        for w, x, dw in ((wq, xq, d_q), (wk, xkv, d_k), (wv, xkv, d_v)):
            if w.requires_grad:
                w.accumulate(T.rows(x).T @ T.rows(dw))
        # for self-attention both writes land in the same tensor
        if q_seq.requires_grad:
            q_seq.accumulate(d_q @ wq.data.T)
        if kv_seq.requires_grad:
            kv_seq.accumulate(d_k @ wk.data.T + d_v @ wv.data.T)

    return Tensor(data, req, parents, backward if req else None)


# -- feed forward ------------------------------------------------------------

@dataclass
class FeedForwardParams:
    w1: Tensor
    b1: Tensor
    w2: Tensor
    b2: Tensor
    activation: str = "gelu"
    dropout_rate: float = 0.0

    @classmethod
    def init(cls, rng, d: int, d_ff: int, activation: str = "gelu",
             dropout_rate: float = 0.0):
        if d_ff < d:
            raise ShapeError(f"d_ff {d_ff} < d {d}")
        return cls(param(rng, d, d_ff), zeros_param(d_ff),
                   param(rng, d_ff, d), zeros_param(d),
                   activation, dropout_rate)


_ACTIVATIONS = {"relu": T.relu, "gelu": T.gelu, "tanh": T.tanh}


def feed_forward(x: Tensor, params: FeedForwardParams,
                 ctx: RunContext = EVAL) -> Tensor:
    if x.shape[-1] != params.w1.shape[0]:
        raise ShapeError(f"ffn width mismatch: {x.shape} vs {params.w1.shape}")
    act = _ACTIVATIONS[params.activation]
    hidden = act(T.linear(x, params.w1, params.b1))
    hidden = ctx.drop(hidden, params.dropout_rate)
    return T.linear(hidden, params.w2, params.b2)


# -- layer norm --------------------------------------------------------------

@dataclass
class LayerNormParams:
    gamma: Tensor
    beta: Tensor

    @classmethod
    def init(cls, d: int):
        return cls(ones_param(d), zeros_param(d))


def layer_norm(x: Tensor, params: LayerNormParams, eps: float = 1e-5) -> Tensor:
    """Normalize the last axis, then scale and shift; one graph node."""
    gamma, beta = params.gamma, params.beta
    n = x.shape[-1]
    if gamma.shape != (n,) or beta.shape != (n,):
        raise ShapeError(f"layer norm of width {n} with gamma {gamma.shape}, "
                         f"beta {beta.shape}")
    mean = x.data.sum(axis=-1, keepdims=True) * (1.0 / n)
    centered = x.data - mean
    var = (centered * centered).sum(axis=-1, keepdims=True) * (1.0 / n)
    std = np.sqrt(var + eps)
    normed = centered / std
    data = normed * gamma.data + beta.data
    req = x.requires_grad or gamma.requires_grad or beta.requires_grad

    def backward(g):
        if gamma.requires_grad:
            gamma.accumulate(T.rows(g * normed).sum(axis=0))
        if beta.requires_grad:
            beta.accumulate(T.rows(g).sum(axis=0))
        if x.requires_grad:
            gn = g * gamma.data
            dot = (gn * normed).sum(axis=-1, keepdims=True) * (1.0 / n)
            gn -= gn.sum(axis=-1, keepdims=True) * (1.0 / n)
            gn -= normed * dot
            x.accumulate(gn / std)

    return Tensor(data, req, (x, gamma, beta), backward if req else None)


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
    rows = sinusoidal_table(h, d // 2)
    cols = sinusoidal_table(w, d // 2)
    table = np.zeros((h * w, d))
    for r in range(h):
        for c in range(w):
            table[r * w + c, :d // 2] = rows[r]
            table[r * w + c, d // 2:] = cols[c]
    return table


@dataclass
class PositionalEncoding:
    kind: str            # sinusoidal-temporal | sinusoidal-spatial-2d | learned
    table: Tensor        # [max_len, d]; trainable iff kind == "learned"

    @classmethod
    def temporal(cls, max_len: int, d: int):
        return cls("sinusoidal-temporal", Tensor(sinusoidal_table(max_len, d)))

    @classmethod
    def spatial(cls, h: int, w: int, d: int):
        return cls("sinusoidal-spatial-2d", Tensor(sinusoidal_2d_table(h, w, d)))

    @classmethod
    def learned(cls, rng, max_len: int, d: int):
        return cls("learned", param(rng, max_len, d, scale=0.02))


def positional_encode(x: Tensor, pe: PositionalEncoding,
                      positions=None) -> Tensor:
    """Add encoding rows to the last-but-one axis of x."""
    L = x.shape[-2]
    if positions is None:
        positions = np.arange(L)
    positions = np.asarray(positions)
    if positions.max(initial=0) >= pe.table.shape[0]:
        raise ContractError(
            f"position {positions.max()} outside table of {pe.table.shape[0]} rows")
    rows = T.getitem(pe.table, positions)
    return T.add(x, rows)
