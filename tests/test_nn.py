"""Attention, feed-forward, layer norm, conv1d, positional encodings."""

import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from groundact import nn
from groundact import tensor as T
from groundact.nn import (AttentionParams, FeedForwardParams, LayerNormParams,
                          RunContext, attention_block, conv1d,
                          feed_forward_block, layer_norm, positional_encode)
from groundact.tensor import ContractError, ShapeError, Tensor

import helpers as H
from helpers import rowwise


def identity_attention(d, heads=1):
    eye = Tensor(np.eye(d), requires_grad=True)
    return AttentionParams(heads, d, eye,
                           Tensor(np.eye(d), requires_grad=True),
                           Tensor(np.eye(d), requires_grad=True),
                           Tensor(np.eye(d), requires_grad=True))


def rand_attention(rng, d, heads):
    return AttentionParams.init(rng, d, heads)


def attended(x, kv, p, mask=None, norm=None):
    """What attention_block adds to x: attention(layer_norm(x), kv)."""
    norm = norm or LayerNormParams.init(x.shape[-1])
    return attention_block(x, norm, p, kv, mask).data - x.data


def np_layer_norm(x, eps=1e-5):
    """Unit-gamma, zero-beta layer norm of the last axis in plain numpy."""
    c = x - x.mean(axis=-1, keepdims=True)
    return c / np.sqrt((c * c).mean(axis=-1, keepdims=True) + eps)


# -- attention: exact small cases --------------------------------------------

def test_single_key_attention_returns_value():
    # one key/value row: softmax over one logit is 1, so the block adds
    # V @ Wo whatever the query
    d = 4
    p = identity_attention(d)
    q = Tensor(np.random.default_rng(0).normal(size=(1, d)))
    kv = Tensor(np.array([[1.0, -2.0, 3.0, 0.5]]))
    np.testing.assert_allclose(attended(q, kv, p), kv.data, atol=1e-12)


def test_attention_hand_computed_mixture():
    # d=2, identity projections; gamma 0 and beta [1, 0] make the normed
    # query [1, 0] exactly: scores = q.k / sqrt(2), out = weights @ v
    p = identity_attention(2)
    norm = LayerNormParams(Tensor(np.zeros(2)), Tensor(np.array([1.0, 0.0])))
    q = Tensor(np.array([[0.3, -0.7]]))
    kv = Tensor(np.array([[2.0, 0.0], [0.0, 2.0]]))
    s = np.array([2.0, 0.0]) / np.sqrt(2.0)
    w = np.exp(s) / np.exp(s).sum()
    expected = w[0] * kv.data[0] + w[1] * kv.data[1]
    np.testing.assert_allclose(attended(q, kv, p, norm=norm)[0], expected,
                               atol=1e-12)


def _scalar_attention(q, k, v, wq, wk, wv, wo, heads):
    """Brute-force per-head attention oracle in plain numpy."""
    d = q.shape[-1]
    dh = d // heads
    qh = (q @ wq).reshape(q.shape[0], heads, dh).transpose(1, 0, 2)
    kh = (k @ wk).reshape(k.shape[0], heads, dh).transpose(1, 0, 2)
    vh = (v @ wv).reshape(v.shape[0], heads, dh).transpose(1, 0, 2)
    outs = []
    for h in range(heads):
        s = qh[h] @ kh[h].T / np.sqrt(dh)
        e = np.exp(s - s.max(axis=-1, keepdims=True))
        w = e / e.sum(axis=-1, keepdims=True)
        outs.append(w @ vh[h])
    merged = np.stack(outs, axis=1).reshape(q.shape[0], d)
    return merged @ wo


@pytest.mark.parametrize("heads", [1, 2, 4])
def test_attention_matches_numpy_oracle(heads):
    rng = np.random.default_rng(heads)
    d, lq, lk = 8, 3, 5
    p = rand_attention(rng, d, heads)
    x = Tensor(rng.normal(size=(lq, d)))
    kv = Tensor(rng.normal(size=(lk, d)))
    out = attention_block(x, LayerNormParams.init(d), p, kv)
    expected = x.data + _scalar_attention(
        np_layer_norm(x.data), kv.data, kv.data, p.wq.data, p.wk.data,
        p.wv.data, p.wo.data, heads)
    np.testing.assert_allclose(out.data, expected, atol=1e-10)


def test_attention_batched_matches_per_sample():
    rng = np.random.default_rng(3)
    d, b, l = 8, 3, 4
    p = rand_attention(rng, d, 2)
    norm = LayerNormParams.init(d)
    x = Tensor(rng.normal(size=(b, l, d)))
    out = attention_block(x, norm, p, x)
    for i in range(b):
        xi = Tensor(x.data[i])
        single = attention_block(xi, norm, p, xi)
        np.testing.assert_allclose(out.data[i], single.data, atol=1e-10)


def test_attention_permutation_of_keys_is_invariant():
    rng = np.random.default_rng(4)
    d = 8
    p = rand_attention(rng, d, 2)
    q = Tensor(rng.normal(size=(2, d)))
    kv = rng.normal(size=(5, d))
    perm = rng.permutation(5)
    np.testing.assert_allclose(attended(q, Tensor(kv), p),
                               attended(q, Tensor(kv[perm]), p), atol=1e-10)


def test_attention_mask_restricts_keys():
    rng = np.random.default_rng(5)
    d = 4
    p = rand_attention(rng, d, 1)
    norm = LayerNormParams.init(d)
    q = Tensor(rng.normal(size=(2, d)))
    kv = rng.normal(size=(4, d))
    mask = np.array([True, True, False, False])
    masked = attention_block(q, norm, p, Tensor(kv), mask)
    trimmed = attention_block(q, norm, p, Tensor(kv[:2]))
    np.testing.assert_allclose(masked.data, trimmed.data, atol=1e-9)
    # a batch's key mask [B, 1, Lk] broadcasts over the query rows: the same
    # bits, forward and backward, as its [B, Lq, Lk] copy
    key_mask = np.array([[[True, False, True, True]],
                         [[True, True, True, False]]])
    qb_data, kvb_data = rng.normal(size=(2, 3, d)), rng.normal(size=(2, 4, d))
    results = []
    for m in (key_mask, np.broadcast_to(key_mask, (2, 3, 4)).copy()):
        qb = Tensor(qb_data.copy(), requires_grad=True)
        kvb = Tensor(kvb_data.copy(), requires_grad=True)
        out = attention_block(qb, norm, p, kvb, m)
        T.tsum(T.mul(out, out)).backward()
        results.append((out.data, qb.grad, kvb.grad))
    for a, b in zip(*results):
        np.testing.assert_array_equal(a, b)


def test_attention_fully_masked_row_rejected():
    rng = np.random.default_rng(6)
    p = rand_attention(rng, 4, 1)
    q = Tensor(rng.normal(size=(2, 4)))
    with pytest.raises(ContractError):
        attention_block(q, LayerNormParams.init(4), p, q,
                        mask=np.zeros(2, dtype=bool))


def test_attention_width_mismatch_rejected():
    rng = np.random.default_rng(7)
    p = rand_attention(rng, 4, 1)
    # queries wider than d_model, with kv omitted and given; then keys alone
    for kv in (None, Tensor(np.zeros((2, 6)))):
        with pytest.raises(ShapeError):
            attention_block(Tensor(np.zeros((2, 6))), LayerNormParams.init(6),
                            p, kv)
    with pytest.raises(ShapeError):
        attention_block(Tensor(np.zeros((2, 4))), LayerNormParams.init(4), p,
                        Tensor(np.zeros((2, 6))))


def test_attention_head_split_requires_divisibility():
    with pytest.raises(ShapeError):
        AttentionParams.init(np.random.default_rng(0), 6, 4)


# -- feed forward / layer norm -----------------------------------------------

def test_feed_forward_zero_weights_gives_bias():
    d, dff = 3, 6
    p = FeedForwardParams(Tensor(np.zeros((d, dff))), Tensor(np.zeros(dff)),
                          Tensor(np.zeros((dff, d))), Tensor(np.full(d, 0.25)))
    x = Tensor(np.random.default_rng(0).normal(size=(5, d)))
    out = feed_forward_block(x, LayerNormParams.init(d), p)
    np.testing.assert_array_equal(out.data, x.data + 0.25)


def test_feed_forward_gelu_hand_case():
    # rows [+-1000, -+1000] normalize to [+-1, -+1] (to ~5e-12), so with
    # gamma 1.5 and beta 0.5 the first normed coordinate v is 2, then -1.
    # w1 = [[1, -1], [0, 0]], w2 = [[2, 0], [3, 0]]: the block adds
    # [2 gelu(v) + 3 gelu(-v), 0] to its input
    p = FeedForwardParams(Tensor(np.array([[1.0, -1.0], [0.0, 0.0]])),
                          Tensor(np.zeros(2)),
                          Tensor(np.array([[2.0, 0.0], [3.0, 0.0]])),
                          Tensor(np.zeros(2)))
    norm = LayerNormParams(Tensor(np.full(2, 1.5)), Tensor(np.full(2, 0.5)))
    x = Tensor(np.array([[1000.0, -1000.0], [-1000.0, 1000.0]]))
    out = feed_forward_block(x, norm, p)
    # tanh-approximated GELU by hand: gelu(2) = 1.95459769, gelu(-2) =
    # -0.04540231, gelu(1) = 0.84119199, gelu(-1) = -0.15880801
    # v=2: 2 * 1.95459769 + 3 * -0.04540231 = 3.77298847
    # v=-1: 2 * -0.15880801 + 3 * 0.84119199 = 2.20595995
    np.testing.assert_allclose(out.data - x.data,
                               [[3.77298847, 0.0], [2.20595995, 0.0]],
                               atol=1e-8)


def test_layer_norm_zero_mean_unit_variance():
    p = LayerNormParams.init(8)
    x = Tensor(np.random.default_rng(1).normal(size=(4, 8)) * 3 + 2)
    out = layer_norm(x, p).data
    np.testing.assert_allclose(out.mean(axis=-1), 0.0, atol=1e-10)
    np.testing.assert_allclose(out.std(axis=-1), 1.0, atol=1e-3)


def test_layer_norm_affine_params_apply():
    p = LayerNormParams(Tensor(np.full(4, 2.0)), Tensor(np.full(4, 1.0)))
    x = Tensor(np.array([[1.0, 2.0, 3.0, 4.0]]))
    base = layer_norm(x, LayerNormParams.init(4)).data
    out = layer_norm(x, p).data
    np.testing.assert_allclose(out, 2.0 * base + 1.0, atol=1e-12)


# -- conv1d ------------------------------------------------------------------

def test_conv1d_k1_identity_kernel():
    d = 3
    kern = Tensor(np.eye(d)[None])          # [1, d, d]
    x = Tensor(np.random.default_rng(2).normal(size=(4, 5, d)))
    np.testing.assert_allclose(conv1d(x, kern).data, x.data, atol=1e-12)


def test_conv1d_k3_averaging_hand_case():
    # single channel, kernel [1/3, 1/3, 1/3]: interior = moving average,
    # edges zero-padded
    kern = Tensor(np.full((3, 1, 1), 1.0 / 3.0))
    x = Tensor(np.array([[[3.0], [6.0], [9.0], [12.0]]]))
    out = conv1d(x, kern).data[0, :, 0]
    np.testing.assert_allclose(out, [3.0, 6.0, 9.0, 7.0], atol=1e-12)


def test_conv1d_translation_equivariance_interior():
    rng = np.random.default_rng(8)
    kern = Tensor(rng.normal(size=(3, 2, 2)))
    x = rng.normal(size=(1, 9, 2))
    shifted = np.roll(x, 2, axis=1)
    a = conv1d(Tensor(x), kern).data
    b = conv1d(Tensor(shifted), kern).data
    # interior outputs shift with the input (away from the padded edges)
    np.testing.assert_allclose(b[0, 3:8], a[0, 1:6], atol=1e-12)


def test_conv1d_even_kernel_rejected():
    with pytest.raises(ShapeError):
        conv1d(Tensor(np.zeros((2, 4, 1))), Tensor(np.zeros((2, 1, 1))))


def test_conv1d_gradient_correct():
    rng = np.random.default_rng(9)
    kern = Tensor(rng.normal(size=(3, 2, 2)), requires_grad=True)
    x0 = Tensor(rng.normal(size=(4, 2)))
    err = T.grad_check(rowwise(lambda v: T.tsum(T.mul(conv1d(v, kern),
                                                      conv1d(v, kern)))), x0)
    assert err <= 1e-6


# -- positional encodings ----------------------------------------------------

def test_sinusoidal_row_zero_pattern():
    table = nn.sinusoidal_table(4, 6)
    np.testing.assert_array_equal(table[0], [0.0, 1.0, 0.0, 1.0, 0.0, 1.0])
    assert np.all(np.abs(table) <= 1.0)


def test_sinusoidal_rows_distinct():
    table = nn.sinusoidal_table(16, 8)
    dists = np.linalg.norm(table[:, None] - table[None, :], axis=-1)
    assert (dists + np.eye(16)).min() > 1e-3


def test_sinusoidal_2d_row_col_halves():
    d = 8
    table = nn.sinusoidal_2d_table(2, 3, d)
    rows = nn.sinusoidal_table(2, d // 2)
    cols = nn.sinusoidal_table(3, d // 2)
    np.testing.assert_array_equal(table[1 * 3 + 2, :d // 2], rows[1])
    np.testing.assert_array_equal(table[1 * 3 + 2, d // 2:], cols[2])


def test_sinusoidal_2d_table_matches_cell_by_cell_fill():
    h, w, d = 3, 4, 8
    rows, cols = nn.sinusoidal_table(h, d // 2), nn.sinusoidal_table(w, d // 2)
    want = np.zeros((h * w, d))
    for r in range(h):
        for c in range(w):
            want[r * w + c] = np.concatenate([rows[r], cols[c]])
    np.testing.assert_array_equal(nn.sinusoidal_2d_table(h, w, d), want)


def test_positional_encode_adds_rows():
    table = Tensor(nn.sinusoidal_table(8, 4))
    x = np.zeros((2, 3, 4))
    out = positional_encode(Tensor(x), table)
    np.testing.assert_array_equal(out.data,
                                  np.broadcast_to(table.data[:3], (2, 3, 4)))


def test_positional_encode_overflow_rejected():
    table = Tensor(nn.sinusoidal_table(4, 4))
    with pytest.raises(ContractError):
        positional_encode(Tensor(np.zeros((5, 4))), table)


def test_dropout_eval_is_identity_train_scales():
    rng = np.random.default_rng(10)
    assert nn.EVAL.keep_mask((100, 10), 0.5) is None
    ctx = RunContext(training=True, rng=np.random.default_rng(0))
    assert ctx.keep_mask((100, 10), 0.0) is None
    out_train = ctx.keep_mask((100, 10), 0.5)
    kept = out_train != 0
    assert 0.3 < kept.mean() < 0.7
    np.testing.assert_allclose(out_train[kept], 2.0)  # inverted scaling


# -- property tests ----------------------------------------------------------

@settings(deadline=None, max_examples=25)
@given(st.integers(min_value=1, max_value=5), st.integers(min_value=1, max_value=6),
       st.integers(min_value=0, max_value=2 ** 31 - 1))
def test_attention_rows_are_convex_mixtures(lq, lk, seed):
    # with identity V/O projections, each output row lies in the convex hull
    # of the value rows; here values are bounded so outputs must be too
    rng = np.random.default_rng(seed)
    d = 4
    p = identity_attention(d)
    q = Tensor(rng.normal(size=(lq, d)))
    kv = Tensor(rng.uniform(-1, 1, size=(lk, d)))
    out = attended(q, kv, p)
    assert np.all(out >= kv.data.min(axis=0) - 1e-9)
    assert np.all(out <= kv.data.max(axis=0) + 1e-9)


@settings(deadline=None, max_examples=25)
@given(st.integers(min_value=0, max_value=2 ** 31 - 1))
def test_layer_norm_shift_scale_invariant(seed):
    rng = np.random.default_rng(seed)
    p = LayerNormParams.init(6)
    x = rng.normal(size=(3, 6))
    a = layer_norm(Tensor(x), p).data
    b = layer_norm(Tensor(4.0 * x + 7.0), p).data
    # invariance is exact only at eps=0; the stabiliser leaves ~eps-sized slack
    np.testing.assert_allclose(a, b, atol=1e-3)


# -- fused ops against their composed references ------------------------------
#
# The references below rebuild attention and layer norm from tensor
# primitives, one graph node per step, the way the blocks were first written.
# The fused ops must agree with them in value and in every gradient.

def _composed_attention(q_seq, kv_seq, params, mask=None, rng=None):
    def split(x):       # [..., L, d] -> [..., h, L, d/h]
        *batch, L, d = x.shape
        x = T.reshape(x, (*batch, L, params.num_heads, d // params.num_heads))
        nb = len(batch)
        return T.transpose(x, tuple(range(nb)) + (nb + 1, nb, nb + 2))

    def merge(x):       # [..., h, L, dh] -> [..., L, h*dh]
        *batch, h, L, dh = x.shape
        nb = len(batch)
        x = T.transpose(x, tuple(range(nb)) + (nb + 1, nb, nb + 2))
        return T.reshape(x, (*batch, L, h * dh))

    q = split(H.matmul(q_seq, params.wq))
    k = split(H.matmul(kv_seq, params.wk))
    v = split(H.matmul(kv_seq, params.wv))
    kt = T.transpose(k, tuple(range(k.ndim - 2)) + (k.ndim - 1, k.ndim - 2))
    scale = 1.0 / np.sqrt(params.d_model // params.num_heads)
    scores = T.mul(H.matmul(q, kt), scale)
    if mask is not None:
        m = np.expand_dims(mask, -3) if mask.ndim >= 3 else mask
        m = np.broadcast_to(m, scores.shape)
        scores = H.where(m, scores, Tensor(np.full(scores.shape, -1e9)))
    attn = H.softmax(scores, axis=-1)
    if rng is not None:
        rate = params.dropout_rate
        attn = T.mul(attn, Tensor((rng.random(attn.shape) >= rate)
                                  / (1.0 - rate)))
    return H.matmul(merge(H.matmul(attn, v)), params.wo)


def _composed_layer_norm(x, params, eps=1e-5):
    mean = T.tmean(x, axis=-1, keepdims=True)
    centered = T.sub(x, mean)
    var = T.tmean(T.mul(centered, centered), axis=-1, keepdims=True)
    normed = H.div(centered, H.sqrt(T.add(var, eps)))
    return T.add(T.mul(normed, params.gamma), params.beta)


def _value_and_grads(f, inputs, weight):
    """f(*inputs), and the gradient of sum(f * weight) for each input."""
    for x in inputs:
        x.zero_grad()
    out = f(*inputs)
    T.tsum(T.mul(out, weight)).backward()
    return out.data, [x.grad for x in inputs]


def _assert_agree(fused, composed, inputs, weight):
    out_f, grads_f = _value_and_grads(fused, inputs, weight)
    out_c, grads_c = _value_and_grads(composed, inputs, weight)
    np.testing.assert_allclose(out_f, out_c, rtol=0, atol=1e-12)
    for gf, gc in zip(grads_f, grads_c):
        assert gf.shape == gc.shape
        np.testing.assert_allclose(gf, gc, rtol=0, atol=1e-12)


def _composed_attention_block(x, kv, norm, params, mask=None, rng=None):
    """x + attention(layer_norm(x), kv), averaged over the leading kv slices
    that x broadcasts across, as the decoder once did with T.tmean."""
    out = _composed_attention(_composed_layer_norm(x, norm), kv, params, mask,
                              rng)
    lead = out.ndim - x.ndim
    axes = tuple(range(lead)) + tuple(
        lead + i for i, n in enumerate(x.shape)
        if n == 1 and out.shape[lead + i] != 1)
    if axes:
        out = T.reshape(T.tmean(out, axis=axes, keepdims=True), x.shape)
    return T.add(x, out)


def test_cross_attention_broadcast_query_averages_over_the_batch():
    # one query set against a batch of key sets gives the batch mean of the
    # per-slice results, not a shape error
    rng = np.random.default_rng(14)
    d = 8
    p = rand_attention(rng, d, 2)
    norm = _rand_norm(rng, d)
    x = Tensor(rng.normal(size=(1, 3, d)))
    kv = rng.normal(size=(4, 5, d))
    out = attention_block(x, norm, p, Tensor(kv))
    assert out.shape == x.shape
    per_slice = [attention_block(x, norm, p, Tensor(kv[b:b + 1])).data
                 for b in range(4)]
    np.testing.assert_allclose(out.data, np.mean(per_slice, axis=0),
                               rtol=0, atol=1e-12)


def test_fused_attention_dropout_matches_composed_with_equal_seeds():
    rng = np.random.default_rng(12)
    d = 8
    p = AttentionParams.init(rng, d, 2, dropout_rate=0.3)
    norm = _rand_norm(rng, d)
    x = Tensor(rng.normal(size=(2, 6, d)), requires_grad=True)
    kv = Tensor(rng.normal(size=(2, 5, d)), requires_grad=True)
    weight = Tensor(rng.normal(size=(2, 6, d)))
    inputs = [x, kv, norm.gamma, norm.beta, p.wq, p.wk, p.wv, p.wo]

    def fused(x, kv, *_):
        ctx = RunContext(training=True, rng=np.random.default_rng(7))
        return attention_block(x, norm, p, kv, ctx=ctx)

    def composed(x, kv, *_):
        return _composed_attention_block(x, kv, norm, p,
                                         rng=np.random.default_rng(7))

    out_f, _ = _value_and_grads(fused, inputs, weight)
    out_c, _ = _value_and_grads(composed, inputs, weight)
    np.testing.assert_array_equal(out_f, out_c)
    _assert_agree(fused, composed, inputs, weight)
    # the mask is drawn once per call, at the same point of the stream
    ctx = RunContext(training=True, rng=np.random.default_rng(7))
    attention_block(x, norm, p, kv, ctx=ctx)
    gen = np.random.default_rng(7)
    gen.random((2, 2, 6, 5))
    assert ctx.rng.random() == gen.random()


def test_fused_attention_gradient_flows_only_where_required():
    rng = np.random.default_rng(13)
    p = rand_attention(rng, 4, 2)
    norm = LayerNormParams.init(4)
    x = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
    kv = Tensor(rng.normal(size=(5, 4)))
    T.tsum(attention_block(x, norm, p, kv)).backward()
    assert x.grad is not None and x.grad.shape == (3, 4)
    assert kv.grad is None
    assert all(w.grad is not None and w.grad.shape == w.shape
               for w in (norm.gamma, norm.beta, p.wq, p.wk, p.wv, p.wo))
    # frozen queries and norm: gradient reaches only the keys and weights
    x, kv = Tensor(x.data), Tensor(kv.data, requires_grad=True)
    frozen = LayerNormParams(Tensor(np.ones(4)), Tensor(np.zeros(4)))
    T.tsum(attention_block(x, frozen, p, kv)).backward()
    assert x.grad is None and frozen.gamma.grad is None
    assert kv.grad is not None and kv.grad.shape == (5, 4)


@pytest.mark.parametrize("shape", [(2, 3, 6), (2, 3, 4, 6)])
def test_fused_layer_norm_matches_composed(shape):
    rng = np.random.default_rng(14)
    p = LayerNormParams(Tensor(rng.normal(size=shape[-1]), requires_grad=True),
                        Tensor(rng.normal(size=shape[-1]), requires_grad=True))
    x = Tensor(rng.normal(size=shape) * 2 + 1, requires_grad=True)
    weight = Tensor(rng.normal(size=shape))
    _assert_agree(lambda x, g, b: layer_norm(x, p),
                  lambda x, g, b: _composed_layer_norm(x, p),
                  [x, p.gamma, p.beta], weight)


def _composed_feed_forward_block(x, norm, params, rng=None):
    hidden = H.gelu(T.linear(_composed_layer_norm(x, norm), params.w1,
                             params.b1))
    if rng is not None:
        rate = params.dropout_rate
        hidden = T.mul(hidden, Tensor((rng.random(hidden.shape) >= rate)
                                      / (1.0 - rate)))
    return T.add(x, T.linear(hidden, params.w2, params.b2))


def _rand_norm(rng, d):
    return LayerNormParams(Tensor(rng.normal(size=d), requires_grad=True),
                           Tensor(rng.normal(size=d), requires_grad=True))


# (shape of x, masked, dropout): the text block, the encoder's per-cell
# temporal attention over [B, HW, T, d], its one-row group token
BLOCK_CASES = {"plain": ((2, 5, 8), False, False),
               "masked": ((2, 4, 8), True, False),
               "dropout": ((2, 5, 8), False, True),
               "cells_4d": ((2, 3, 4, 8), False, True),
               "one_row": ((3, 1, 8), False, False)}


# (shape of x, kv, masked, dropout): kv None is self-attention over the
# normed rows, "x" keys that are x itself, not its normed rows; a shape is a
# separate key set.  spatial_4d is the decoder's spatial cross-attention:
# one query set per clip, broadcast over the frames of a [B, T, HW, d] grid
# and averaged
ATTENTION_CASES = {
    **{name: (shape, None, masked, dropout)
       for name, (shape, masked, dropout) in BLOCK_CASES.items()},
    "self": ((2, 5, 8), "x", False, False),
    "cross_masked": ((2, 3, 8), (2, 4, 8), True, False),
    "spatial_4d": ((2, 1, 3, 8), (2, 4, 5, 8), False, False)}


@pytest.mark.parametrize("case", sorted(ATTENTION_CASES))
def test_fused_attention_matches_composed(case):
    shape, kv_shape, masked, dropout = ATTENTION_CASES[case]
    rng = np.random.default_rng(21)
    p = AttentionParams.init(rng, 8, 2, dropout_rate=0.3 if dropout else 0.0)
    norm = _rand_norm(rng, 8)
    x = Tensor(rng.normal(size=shape) * 2 + 0.5, requires_grad=True)
    inputs = [x, norm.gamma, norm.beta, p.wq, p.wk, p.wv, p.wo]
    separate = isinstance(kv_shape, tuple)
    if separate:
        inputs.append(Tensor(rng.normal(size=kv_shape), requires_grad=True))
    mask = None
    if masked:
        keys = kv_shape[-2] if separate else shape[-2]
        mask = np.ones(shape[:-1] + (keys,), dtype=bool)
        mask[0, :, -1] = mask[1, :, -2:] = False
    weight = Tensor(rng.normal(size=shape))
    gens = []

    def kv_of(x, rest):
        if separate:
            return rest[-1]
        return x if kv_shape == "x" else None

    def fused(x, *rest):
        ctx = RunContext(training=dropout, rng=np.random.default_rng(5))
        gens.append(ctx.rng)
        return attention_block(x, norm, p, kv_of(x, rest), mask, ctx)

    def composed(x, *rest):
        # kv omitted is kv = layer_norm(x)
        kv = kv_of(x, rest)
        kv = _composed_layer_norm(x, norm) if kv is None else kv
        gens.append(np.random.default_rng(5))
        return _composed_attention_block(x, kv, norm, p, mask,
                                         gens[-1] if dropout else None)

    _assert_agree(fused, composed, inputs, weight)
    # the same draws, in the same order: both streams stand at one point
    assert gens[0].random() == gens[1].random()


@pytest.mark.parametrize("masked, dropout",
                         [(False, False), (True, False), (True, True)])
def test_attention_block_without_kv_equals_kv_layer_norm_x(masked, dropout):
    # omitting kv packs Q/K/V into one GEMM, but means kv = layer_norm(x):
    # the same value, the same dropout draw and the same gradients
    rng = np.random.default_rng(25)
    p = AttentionParams.init(rng, 8, 2, dropout_rate=0.3 if dropout else 0.0)
    norm = _rand_norm(rng, 8)
    x = Tensor(rng.normal(size=(2, 4, 8)), requires_grad=True)
    mask = None
    if masked:
        mask = np.ones((2, 4, 4), dtype=bool)
        mask[0, :, -1] = mask[1, :, -2:] = False
    weight = Tensor(rng.normal(size=x.shape))

    def call(kv_of):
        def f(x, *_):
            ctx = RunContext(training=dropout, rng=np.random.default_rng(5))
            return attention_block(x, norm, p, kv_of(x), mask, ctx)
        return f

    _assert_agree(call(lambda x: None), call(lambda x: layer_norm(x, norm)),
                  [x, norm.gamma, norm.beta, p.wq, p.wk, p.wv, p.wo], weight)


@pytest.mark.parametrize("case", ["plain", "dropout", "cells_4d"])
def test_feed_forward_block_matches_composed(case):
    shape, _, dropout = BLOCK_CASES[case]
    rng = np.random.default_rng(22)
    p = FeedForwardParams.init(rng, 8, 16, dropout_rate=0.3 if dropout else 0)
    p.b1.data = rng.normal(size=16)
    p.b2.data = rng.normal(size=8)
    norm = _rand_norm(rng, 8)
    x = Tensor(rng.normal(size=shape) * 2 + 0.5, requires_grad=True)
    weight = Tensor(rng.normal(size=shape))
    inputs = [x, norm.gamma, norm.beta, p.w1, p.b1, p.w2, p.b2]
    gens = []

    def fused(x, *_):
        ctx = RunContext(training=dropout, rng=np.random.default_rng(6))
        gens.append(ctx.rng)
        return feed_forward_block(x, norm, p, ctx)

    def composed(x, *_):
        gens.append(np.random.default_rng(6))
        return _composed_feed_forward_block(x, norm, p,
                                            gens[-1] if dropout else None)

    _assert_agree(fused, composed, inputs, weight)
    assert gens[0].random() == gens[1].random()


def test_fused_blocks_leave_frozen_inputs_without_gradient():
    rng = np.random.default_rng(23)
    p = AttentionParams.init(rng, 4, 2)
    ffn = FeedForwardParams.init(rng, 4, 8)
    norm = LayerNormParams(Tensor(np.ones(4)), Tensor(np.zeros(4)))
    x = Tensor(rng.normal(size=(2, 3, 4)))
    out = feed_forward_block(attention_block(x, norm, p), norm, ffn)
    T.tsum(out).backward()
    assert x.grad is None and norm.gamma.grad is None
    assert all(w.grad is not None and w.grad.shape == w.shape
               for w in (p.wq, p.wk, p.wv, p.wo, ffn.w1, ffn.b1, ffn.w2,
                         ffn.b2))


def test_fused_blocks_reject_width_mismatch():
    # the attention block's x and kv width checks are in
    # test_attention_width_mismatch_rejected
    rng = np.random.default_rng(24)
    with pytest.raises(ShapeError):
        feed_forward_block(Tensor(np.zeros((2, 6))), LayerNormParams.init(6),
                           FeedForwardParams.init(rng, 4, 8))
    with pytest.raises(ShapeError):
        attention_block(Tensor(np.zeros((2, 4))), LayerNormParams.init(5),
                        AttentionParams.init(rng, 4, 2))


def test_fused_layer_norm_rejects_mismatched_params():
    p = LayerNormParams.init(5)
    with pytest.raises(ShapeError):
        layer_norm(Tensor(np.zeros((2, 4))), p)


# -- the kernels against the composed numpy they replace ---------------------

def _short_rows(k: int) -> np.ndarray:
    """[3, 40, k]: random rows of mixed magnitude, rows with -1e9 masked
    entries (as the softmax fills them) and zero rows."""
    rng = np.random.default_rng(k)
    rows = rng.normal(size=(3, 40, k)) * 10.0 ** rng.uniform(-3, 3, (3, 40, k))
    rows[1][rng.random((40, k)) < 0.4] = -1e9
    rows[2, ::2] = 0.0
    return rows


@pytest.mark.parametrize("k", list(range(1, 33)) + [33, 40, 129])
def test_key_max_and_sum_are_numpys(k):
    # by key columns up to 32 keys, numpy's own reduce above; the sum must
    # follow numpy's pairwise order, which differs from left to right from
    # 8 elements on
    rows = _short_rows(k)
    np.testing.assert_array_equal(nn._key_max(rows),
                                  rows.max(axis=-1, keepdims=True))
    np.testing.assert_array_equal(nn._key_sum(rows),
                                  rows.sum(axis=-1, keepdims=True))


def _composed_attend(q, k, v, mask, keep):
    """The weighted sum and the softmax weights, as the composed formulas."""
    scale = 1.0 / np.sqrt(q.shape[-1])
    scores = (q @ np.swapaxes(k, -1, -2)) * scale
    if mask is not None:
        m = np.expand_dims(mask, -3) if mask.ndim >= 3 else mask
        scores = np.where(np.broadcast_to(m, scores.shape), scores, -1e9)
    e = np.exp(scores - scores.max(axis=-1, keepdims=True))
    attn = e / e.sum(axis=-1, keepdims=True)
    dropped = attn if keep is None else attn * keep
    return dropped @ v, attn


def _composed_attend_backward(d_out, q, k, v, attn, keep):
    """(d_q, d_k, d_v), as the composed formulas."""
    scale = 1.0 / np.sqrt(q.shape[-1])
    dropped = attn if keep is None else attn * keep
    d_attn = d_out @ np.swapaxes(v, -1, -2)
    d_v = np.swapaxes(dropped, -1, -2) @ d_out
    if keep is not None:
        d_attn = d_attn * keep
    d_scores = attn * (d_attn - (d_attn * attn).sum(axis=-1, keepdims=True))
    d_scores = d_scores * scale
    return d_scores @ k, np.swapaxes(d_scores, -1, -2) @ q, d_v


@pytest.mark.parametrize("case", [
    # (q leading axes, Lq, Lk, mask shape or None, dropout rate)
    ((2, 2), 9, 9, (2, 1, 9), 0.0),             # self-attention, padded keys
    ((2, 2), 5, 20, None, 0.3),                 # cross-attention, dropout
    ((2, 3, 2), 4, 13, (2, 3, 1, 13), 0.2),     # 5-d: per-frame grid cells
    ((3, 2), 3, 17, (3, 3, 17), 0.0),           # per-query masks
    ((1, 2), 6, 40, None, 0.0),                 # numpy's reduce above 32 keys
])
def test_attend_is_the_composed_softmax_attention(case):
    lead, lq, lk, mask_shape, rate = case
    rng = np.random.default_rng(lk)
    q, k, v = (rng.normal(size=(*lead, n, 5)) * 3 for n in (lq, lk, lk))
    mask = None
    if mask_shape is not None:
        mask = rng.random(mask_shape) < 0.6
        mask[..., 0] = True
    ctx = RunContext(training=True, rng=np.random.default_rng(1))
    out, attn, keep = nn._attend(q, k, v, mask, ctx, rate)
    assert (keep is None) == (rate == 0.0)
    want_out, want_attn = _composed_attend(q, k, v, mask, keep)
    np.testing.assert_array_equal(attn, want_attn)
    np.testing.assert_array_equal(out, want_out)

    d_out = rng.normal(size=out.shape)
    kept = attn.copy()
    grads, rebuilt = nn._attend_backward(d_out, [q, k, v], attn, keep)
    np.testing.assert_array_equal(attn, kept)        # the kept weights
    np.testing.assert_array_equal(rebuilt, want_out)
    for got, want in zip(grads, _composed_attend_backward(d_out, q, k, v,
                                                          kept, keep)):
        np.testing.assert_array_equal(got, want)


@pytest.mark.parametrize("shape", [(5, 8), (2, 3, 7, 64), (4, 129)])
def test_layer_norm_forward_is_the_composed_expression(shape):
    rng = np.random.default_rng(shape[-1])
    x = rng.normal(size=shape) * 4 + 2
    norm = LayerNormParams.init(shape[-1])
    n = shape[-1]
    mean = x.sum(axis=-1, keepdims=True) * (1.0 / n)
    centered = x - mean
    var = (centered * centered).sum(axis=-1, keepdims=True) * (1.0 / n)
    std = np.sqrt(var + 1e-5)
    normed, got_mean, got_std = nn._layer_norm_forward(x, norm)
    np.testing.assert_array_equal(got_mean, mean)
    np.testing.assert_array_equal(got_std, std)
    np.testing.assert_array_equal(normed, centered / std)
    # what a backward rebuilds from the kept mean and std
    np.testing.assert_array_equal(nn._normalize(x, got_mean, got_std), normed)


def test_gelu_forward_is_the_composed_expression():
    v = np.random.default_rng(0).normal(size=(6, 50)) * 3
    t = np.tanh(np.sqrt(2.0 / np.pi) * (v + 0.044715 * (v * v * v)))
    out, got_t = T.gelu_forward(v)
    np.testing.assert_array_equal(got_t, t)
    np.testing.assert_array_equal(T.gelu_tanh(v), t)
    np.testing.assert_array_equal(out, 0.5 * v * (1.0 + t))


# -- what each fused node keeps for its backward ----------------------------

def _held_cases():
    """name -> (build, the float64 elements the node's rule keeps): one
    grad-mode call each, heads 2, dropout on."""
    rng = np.random.default_rng(30)
    leaf = lambda *s: Tensor(rng.normal(size=s), requires_grad=True)
    ctx = RunContext(training=True, rng=np.random.default_rng(31))
    norm = LayerNormParams(leaf(16), leaf(16))
    attn = AttentionParams(2, 16, *[leaf(16, 16) for _ in range(4)],
                           dropout_rate=0.25)
    ffn = FeedForwardParams(leaf(16, 32), leaf(32), leaf(32, 16), leaf(16),
                            dropout_rate=0.25)
    x = leaf(2, 8, 16)
    q, kv = leaf(2, 1, 8, 16), leaf(2, 4, 5, 16)
    text, pad = leaf(2, 6, 16), np.arange(6) < np.array([[[6]], [[3]]])
    b, lq, t, lk, lt, d = 2, 8, 4, 5, 6, 16
    # the mean and the std of each row of x
    ln = 2 * b * lq
    return {
        # + the weights [B, h, Lq, Lq] and their dropout mask
        "self_attention": (lambda: attention_block(x, norm, attn, ctx=ctx),
                           ln + 2 * b * 2 * lq * lq),
        # + per-frame weights [B, T, h, Lq, Lk] and their mask
        "frames_cross_attention": (
            lambda: attention_block(q, norm, attn, kv, ctx=ctx),
            ln + 2 * b * t * 2 * lq * lk),
        # + the weights over padded text [B, h, Lq, Lt] and their mask
        "cross_attention": (
            lambda: attention_block(x, norm, attn, text, pad, ctx=ctx),
            ln + 2 * b * 2 * lq * lt),
        # + the pre-activation and the dropout mask
        "feed_forward_block": (lambda: feed_forward_block(x, norm, ffn, ctx),
                               ln + 2 * b * lq * 32),
        "layer_norm": (lambda: layer_norm(x, norm), ln),
    }


@pytest.mark.parametrize("case", ["self_attention", "frames_cross_attention",
                                  "cross_attention", "feed_forward_block",
                                  "layer_norm"])
def test_fused_block_keeps_only_its_documented_arrays(case):
    # the normalized rows and their scaled output, the packed weight, Q, K
    # and V, the merged heads, the dropped weights, the GELU's tanh and its
    # output are rebuilt in backward, not kept; byte for byte, so that even
    # one kept row mean too many fails
    build, elements = _held_cases()[case]
    assert H.held_array_bytes(build) == 8 * elements


# -- the member axis ---------------------------------------------------------

def _stacked_matches_separate(call, x, params, shared=(), kv=None, mask=None):
    """call(x, kv, params, mask) once with the parameters stacked on x's
    leading axis, and once per member k on x[k], kv[k], mask[k] and the 2-d
    parameters of member k.  The forward and the gradients of x, kv and every
    stacked parameter are array_equal; a shared parameter's gradient, summed
    over the members in another order, agrees to 1e-12."""
    leaf = lambda a: Tensor(np.array(a), requires_grad=True)
    weight = np.random.default_rng(3).normal(size=x.shape)
    names = ["x"] + ([] if kv is None else ["kv"]) + list(params)

    def run(x, kv, params, mask, weight):
        x, kv = leaf(x), None if kv is None else leaf(kv)
        params = {n: leaf(p) for n, p in params.items()}
        out = call(x, kv, params, mask)
        T.tsum(T.mul(out, Tensor(weight))).backward()
        inputs = [x] + ([] if kv is None else [kv]) + list(params.values())
        return out.data, dict(zip(names, (t.grad for t in inputs)))

    out, grads = run(x, kv, params, mask, weight)
    sums = {n: 0.0 for n in shared}
    for k in range(x.shape[0]):
        out_k, grads_k = run(
            x[k], None if kv is None else kv[k],
            {n: p if n in shared else p[k] for n, p in params.items()},
            None if mask is None else mask[k], weight[k])
        np.testing.assert_array_equal(out[k], out_k)
        for n, g in grads_k.items():
            if n in shared:
                sums[n] = sums[n] + g
            else:
                np.testing.assert_array_equal(grads[n][k], g, err_msg=n)
    for n in shared:
        np.testing.assert_allclose(grads[n], sums[n], rtol=0, atol=1e-12)


def _norm_of(p):
    return LayerNormParams(p["gamma"], p["beta"])


def _members(rng, k, shapes):
    return {n: rng.normal(size=(k, *s)) for n, s in shapes.items()}


@pytest.mark.parametrize("shape, shared", [((3, 5, 8), ()),
                                           ((3, 2, 4, 8), ()),
                                           ((3, 5, 8), ("beta",))])
def test_stacked_layer_norm_matches_separate_calls(shape, shared):
    rng = np.random.default_rng(30)
    params = _members(rng, 3, {"gamma": (8,), "beta": (8,)})
    for n in shared:
        params[n] = params[n][0]
    _stacked_matches_separate(lambda x, kv, p, m: layer_norm(x, _norm_of(p)),
                              rng.normal(size=shape) * 2 + 1, params, shared)


# (shape of x, of kv or None for self-attention, masked, shared parameters):
# "mixed" is stacked wq/wk/wv beside a shared wo and norm;
# "packed_mixed" shares two of the three packed weights; "frames" is the
# broadcast-and-average path, one query set per member over its frames
STACKED_ATTENTION = {
    "self": ((3, 5, 8), None, False, ()),
    "self_4d": ((3, 2, 4, 8), None, False, ()),
    "mixed": ((3, 5, 8), None, False, ("wo", "gamma", "beta")),
    "packed_mixed": ((3, 5, 8), None, False, ("wk", "wv")),
    "cross_masked": ((3, 4, 8), (3, 6, 8), True, ()),
    "frames": ((3, 1, 4, 8), (3, 2, 5, 8), False, ()),
}


@pytest.mark.parametrize("case", sorted(STACKED_ATTENTION))
def test_stacked_attention_block_matches_separate_calls(case):
    shape, kv_shape, masked, shared = STACKED_ATTENTION[case]
    rng = np.random.default_rng(31)
    params = _members(rng, 3, {**{w: (8, 8) for w in ("wq", "wk", "wv", "wo")},
                               "gamma": (8,), "beta": (8,)})
    for n in shared:
        params[n] = params[n][0]
    kv = None if kv_shape is None else rng.normal(size=kv_shape)
    mask = None
    if masked:
        mask = rng.random(shape[:-1] + kv_shape[-2:-1]) < 0.7
        mask[..., 0] = True

    def call(x, kv, p, m):
        attn = AttentionParams(2, 8, p["wq"], p["wk"], p["wv"], p["wo"])
        return attention_block(x, _norm_of(p), attn, kv, m)

    _stacked_matches_separate(call, rng.normal(size=shape), params, shared,
                              kv, mask)


@pytest.mark.parametrize("shape, shared", [((3, 5, 8), ()),
                                           ((3, 2, 4, 8), ()),
                                           ((3, 5, 8), ("w1", "b2", "gamma"))])
def test_stacked_feed_forward_block_matches_separate_calls(shape, shared):
    rng = np.random.default_rng(32)
    params = _members(rng, 3, {"w1": (8, 16), "b1": (16,), "w2": (16, 8),
                               "b2": (8,), "gamma": (8,), "beta": (8,)})
    for n in shared:
        params[n] = params[n][0]

    def call(x, kv, p, m):
        ffn = FeedForwardParams(p["w1"], p["b1"], p["w2"], p["b2"])
        return feed_forward_block(x, _norm_of(p), ffn)

    _stacked_matches_separate(call, rng.normal(size=shape), params, shared)


# (block, x shape, parameter, its bad shape, kv shape, the shape the message
# names beside x's): the bad parameter's, or kv's where kv is what disagrees
MEMBER_MISMATCHES = {
    "layer_norm_k": ("layer_norm", (2, 5, 8), "gamma", (3, 8), None, (3, 8)),
    "layer_norm_rank": ("layer_norm", (2, 5, 8), "beta", (2, 1, 8), None,
                        (2, 1, 8)),
    "layer_norm_1d_x": ("layer_norm", (8,), "gamma", (8, 8), None, (8, 8)),
    "self_attention_k": ("attention", (2, 5, 8), "wq", (3, 8, 8), None,
                         (3, 8, 8)),
    "self_attention_rank": ("attention", (2, 5, 8), "wo", (2, 1, 8, 8), None,
                            (2, 1, 8, 8)),
    "cross_attention_k": ("attention", (2, 5, 8), "wk", (3, 8, 8), (3, 6, 8),
                          (3, 8, 8)),
    "cross_attention_kv": ("attention", (2, 5, 8), "wv", (2, 8, 8), (1, 6, 8),
                           (1, 6, 8)),
    "feed_forward_k": ("ffn", (2, 5, 8), "b1", (3, 16), None, (3, 16)),
    "feed_forward_rank": ("ffn", (2, 5, 8), "w2", (2, 2, 16, 8), None,
                          (2, 2, 16, 8)),
}


@pytest.mark.parametrize("case", sorted(MEMBER_MISMATCHES))
def test_member_axis_mismatch_names_both_shapes(case):
    # a stacked parameter must sit on x's leading axis with one extra axis;
    # anything else fails here, not as a broadcast error inside matmul
    block, x_shape, name, bad, kv_shape, named = MEMBER_MISMATCHES[case]
    shapes = {"gamma": (8,), "beta": (8,), "wq": (8, 8), "wk": (8, 8),
              "wv": (8, 8), "wo": (8, 8), "w1": (8, 16), "b1": (16,),
              "w2": (16, 8), "b2": (8,), name: bad}
    p = {n: Tensor(np.zeros(s)) for n, s in shapes.items()}
    x, norm = Tensor(np.zeros(x_shape)), _norm_of(p)
    kv = None if kv_shape is None else Tensor(np.zeros(kv_shape))
    calls = {
        "layer_norm": lambda: layer_norm(x, norm),
        "attention": lambda: attention_block(
            x, norm, AttentionParams(2, 8, p["wq"], p["wk"], p["wv"], p["wo"]),
            kv),
        "ffn": lambda: feed_forward_block(
            x, norm, FeedForwardParams(p["w1"], p["b1"], p["w2"], p["b2"])),
    }
    with pytest.raises(ShapeError, match=re.escape(str(named)) + ".*"
                       + re.escape(str(x_shape))):
        calls[block]()
