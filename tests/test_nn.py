"""Attention, feed-forward, layer norm, conv1d, positional encodings."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from groundact import nn
from groundact import tensor as T
from groundact.nn import (AttentionParams, FeedForwardParams, LayerNormParams,
                          PositionalEncoding, RunContext, conv1d, feed_forward,
                          layer_norm, multi_head_attention, positional_encode)
from groundact.tensor import ContractError, ShapeError, Tensor


def identity_attention(d, heads=1):
    eye = Tensor(np.eye(d), requires_grad=True)
    return AttentionParams(heads, d, eye,
                           Tensor(np.eye(d), requires_grad=True),
                           Tensor(np.eye(d), requires_grad=True),
                           Tensor(np.eye(d), requires_grad=True))


def rand_attention(rng, d, heads):
    return AttentionParams.init(rng, d, heads)


# -- attention: exact small cases --------------------------------------------

def test_single_key_attention_returns_value():
    # one key/value row: softmax over one logit is 1, output = V @ Wo
    d = 4
    p = identity_attention(d)
    q = Tensor(np.random.default_rng(0).normal(size=(1, d)))
    kv = Tensor(np.array([[1.0, -2.0, 3.0, 0.5]]))
    out = multi_head_attention(q, kv, p)
    np.testing.assert_allclose(out.data, kv.data, atol=1e-12)


def test_attention_hand_computed_mixture():
    # d=2, identity projections: scores = q.k / sqrt(2); out = weights @ v
    p = identity_attention(2)
    q = Tensor(np.array([[1.0, 0.0]]))
    kv = Tensor(np.array([[2.0, 0.0], [0.0, 2.0]]))
    out = multi_head_attention(q, kv, p)
    s = np.array([2.0, 0.0]) / np.sqrt(2.0)
    w = np.exp(s) / np.exp(s).sum()
    expected = w[0] * kv.data[0] + w[1] * kv.data[1]
    np.testing.assert_allclose(out.data[0], expected, atol=1e-12)


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
    q = Tensor(rng.normal(size=(lq, d)))
    kv = Tensor(rng.normal(size=(lk, d)))
    out = multi_head_attention(q, kv, p)
    expected = _scalar_attention(q.data, kv.data, kv.data, p.wq.data,
                                 p.wk.data, p.wv.data, p.wo.data, heads)
    np.testing.assert_allclose(out.data, expected, atol=1e-10)


def test_attention_batched_matches_per_sample():
    rng = np.random.default_rng(3)
    d, b, l = 8, 3, 4
    p = rand_attention(rng, d, 2)
    q = Tensor(rng.normal(size=(b, l, d)))
    out = multi_head_attention(q, q, p)
    for i in range(b):
        single = multi_head_attention(Tensor(q.data[i]), Tensor(q.data[i]), p)
        np.testing.assert_allclose(out.data[i], single.data, atol=1e-10)


def test_attention_permutation_of_keys_is_invariant():
    rng = np.random.default_rng(4)
    d = 8
    p = rand_attention(rng, d, 2)
    q = Tensor(rng.normal(size=(2, d)))
    kv = rng.normal(size=(5, d))
    out = multi_head_attention(q, Tensor(kv), p)
    perm = rng.permutation(5)
    out_p = multi_head_attention(q, Tensor(kv[perm]), p)
    np.testing.assert_allclose(out.data, out_p.data, atol=1e-10)


def test_attention_mask_restricts_keys():
    rng = np.random.default_rng(5)
    d = 4
    p = rand_attention(rng, d, 1)
    q = Tensor(rng.normal(size=(2, d)))
    kv = rng.normal(size=(4, d))
    mask = np.array([True, True, False, False])
    masked = multi_head_attention(q, Tensor(kv), p, mask=mask)
    trimmed = multi_head_attention(q, Tensor(kv[:2]), p)
    np.testing.assert_allclose(masked.data, trimmed.data, atol=1e-9)


def test_attention_fully_masked_row_rejected():
    rng = np.random.default_rng(6)
    p = rand_attention(rng, 4, 1)
    q = Tensor(rng.normal(size=(2, 4)))
    with pytest.raises(ContractError):
        multi_head_attention(q, q, p, mask=np.zeros(2, dtype=bool))


def test_attention_width_mismatch_rejected():
    rng = np.random.default_rng(7)
    p = rand_attention(rng, 4, 1)
    with pytest.raises(ShapeError):
        multi_head_attention(Tensor(np.zeros((2, 6))), Tensor(np.zeros((2, 6))), p)


def test_attention_head_split_requires_divisibility():
    with pytest.raises(ShapeError):
        AttentionParams.init(np.random.default_rng(0), 6, 4)


# -- feed forward / layer norm -----------------------------------------------

def test_feed_forward_zero_weights_gives_bias():
    d, dff = 3, 6
    p = FeedForwardParams(Tensor(np.zeros((d, dff))), Tensor(np.zeros(dff)),
                          Tensor(np.zeros((dff, d))), Tensor(np.full(d, 0.25)),
                          activation="relu")
    out = feed_forward(Tensor(np.random.default_rng(0).normal(size=(5, d))), p)
    np.testing.assert_array_equal(out.data, np.full((5, d), 0.25))


def test_feed_forward_relu_hand_case():
    # w1 = [[1],[−1]] style tiny net computed by hand
    p = FeedForwardParams(Tensor(np.array([[1.0, -1.0]])), Tensor(np.zeros(2)),
                          Tensor(np.array([[2.0], [3.0]])), Tensor(np.zeros(1)),
                          activation="relu")
    out = feed_forward(Tensor(np.array([[2.0], [-1.0]])), p)
    # x=2: relu([2,-2]) = [2,0] -> 4; x=-1: relu([-1,1]) = [0,1] -> 3
    np.testing.assert_array_equal(out.data, [[4.0], [3.0]])


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
    err = T.grad_check(lambda v: T.tsum(T.mul(conv1d(v, kern),
                                              conv1d(v, kern))), x0)
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


def test_positional_encode_adds_rows():
    pe = PositionalEncoding.temporal(8, 4)
    x = np.zeros((2, 3, 4))
    out = positional_encode(Tensor(x), pe)
    np.testing.assert_array_equal(out.data,
                                  np.broadcast_to(pe.table.data[:3], (2, 3, 4)))


def test_positional_encode_overflow_rejected():
    pe = PositionalEncoding.temporal(4, 4)
    with pytest.raises(ContractError):
        positional_encode(Tensor(np.zeros((5, 4))), pe)


def test_dropout_eval_is_identity_train_scales():
    rng = np.random.default_rng(10)
    x = Tensor(np.ones((100, 10)))
    out_eval = nn.EVAL.drop(x, 0.5)
    np.testing.assert_array_equal(out_eval.data, x.data)
    ctx = RunContext(training=True, rng=np.random.default_rng(0))
    out_train = ctx.drop(x, 0.5).data
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
    out = multi_head_attention(q, kv, p).data
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

    q = split(T.matmul(q_seq, params.wq))
    k = split(T.matmul(kv_seq, params.wk))
    v = split(T.matmul(kv_seq, params.wv))
    kt = T.transpose(k, tuple(range(k.ndim - 2)) + (k.ndim - 1, k.ndim - 2))
    scale = 1.0 / np.sqrt(params.d_model // params.num_heads)
    scores = T.mul(T.matmul(q, kt), scale)
    if mask is not None:
        m = np.expand_dims(mask, -3) if mask.ndim >= 3 else mask
        m = np.broadcast_to(m, scores.shape)
        scores = T.where(m, scores, Tensor(np.full(scores.shape, -1e9)))
    attn = T.softmax(scores, axis=-1)
    if rng is not None:
        rate = params.dropout_rate
        attn = T.mul(attn, Tensor((rng.random(attn.shape) >= rate)
                                  / (1.0 - rate)))
    return T.matmul(merge(T.matmul(attn, v)), params.wo)


def _composed_layer_norm(x, params, eps=1e-5):
    mean = T.tmean(x, axis=-1, keepdims=True)
    centered = T.sub(x, mean)
    var = T.tmean(T.mul(centered, centered), axis=-1, keepdims=True)
    normed = T.div(centered, T.sqrt(T.add(var, eps)))
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


@pytest.mark.parametrize("case", ["self", "cross_masked", "spatial_4d"])
def test_fused_attention_matches_composed(case):
    rng = np.random.default_rng(11)
    d, heads = 8, 2
    p = rand_attention(rng, d, heads)
    mask = None
    if case == "self":
        x = Tensor(rng.normal(size=(2, 5, d)), requires_grad=True)
        seqs, out_shape = [x], (2, 5, d)
    elif case == "cross_masked":
        q = Tensor(rng.normal(size=(2, 3, d)), requires_grad=True)
        kv = Tensor(rng.normal(size=(2, 4, d)), requires_grad=True)
        mask = rng.random((2, 3, 4)) < 0.6
        mask[..., 0] = True
        seqs, out_shape = [q, kv], (2, 3, d)
    else:
        # the decoder's spatial cross-attention: one query set per clip,
        # broadcast over the frames of a [B, T, HW, d] grid
        q = Tensor(rng.normal(size=(2, 1, 3, d)), requires_grad=True)
        kv = Tensor(rng.normal(size=(2, 4, 5, d)), requires_grad=True)
        seqs, out_shape = [q, kv], (2, 4, 3, d)
    weight = Tensor(rng.normal(size=out_shape))
    inputs = seqs + [p.wq, p.wk, p.wv, p.wo]

    def call(attention):
        def f(*xs):
            q, kv = (xs[0], xs[0]) if case == "self" else xs[:2]
            return attention(q, kv, p, mask)
        return f

    _assert_agree(call(multi_head_attention), call(_composed_attention),
                  inputs, weight)


def test_fused_attention_dropout_matches_composed_with_equal_seeds():
    rng = np.random.default_rng(12)
    d = 8
    p = AttentionParams.init(rng, d, 2, dropout_rate=0.3)
    x = Tensor(rng.normal(size=(2, 6, d)), requires_grad=True)
    weight = Tensor(rng.normal(size=(2, 6, d)))
    inputs = [x, p.wq, p.wk, p.wv, p.wo]

    def fused(x, *_):
        ctx = RunContext(training=True, rng=np.random.default_rng(7))
        return multi_head_attention(x, x, p, None, ctx)

    def composed(x, *_):
        return _composed_attention(x, x, p, rng=np.random.default_rng(7))

    out_f, _ = _value_and_grads(fused, inputs, weight)
    out_c, _ = _value_and_grads(composed, inputs, weight)
    np.testing.assert_array_equal(out_f, out_c)
    _assert_agree(fused, composed, inputs, weight)
    # the mask is drawn once per call, at the same point of the stream
    ctx = RunContext(training=True, rng=np.random.default_rng(7))
    multi_head_attention(x, x, p, None, ctx)
    gen = np.random.default_rng(7)
    gen.random((2, 2, 6, 6))
    assert ctx.rng.random() == gen.random()


def test_fused_attention_gradient_flows_only_where_required():
    rng = np.random.default_rng(13)
    p = rand_attention(rng, 4, 2)
    q = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
    kv = Tensor(rng.normal(size=(5, 4)))
    T.tsum(multi_head_attention(q, kv, p)).backward()
    assert q.grad is not None and q.grad.shape == (3, 4)
    assert kv.grad is None
    assert all(w.grad is not None for w in (p.wq, p.wk, p.wv, p.wo))


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


def test_fused_layer_norm_rejects_mismatched_params():
    p = LayerNormParams.init(5)
    with pytest.raises(ShapeError):
        layer_norm(Tensor(np.zeros((2, 4))), p)
