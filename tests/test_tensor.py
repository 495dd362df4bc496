"""Autodiff engine: forward values, gradients, graph contracts, container."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from groundact import tensor as T
from groundact.tensor import ContractError, ShapeError, Tensor, grad_check


def t(data, rg=True):
    return Tensor(np.asarray(data, dtype=np.float64), requires_grad=rg)


# -- forward values ----------------------------------------------------------

def test_elementwise_forward():
    a, b = t([1.0, -2.0, 3.0]), t([4.0, 5.0, -6.0])
    np.testing.assert_array_equal((a + b).data, [5.0, 3.0, -3.0])
    np.testing.assert_array_equal((a - b).data, [-3.0, -7.0, 9.0])
    np.testing.assert_array_equal((a * b).data, [4.0, -10.0, -18.0])
    np.testing.assert_allclose((a / b).data, [0.25, -0.4, -0.5])
    np.testing.assert_array_equal(T.maximum(a, b).data, [4.0, 5.0, 3.0])
    np.testing.assert_array_equal(T.relu(a).data, [1.0, 0.0, 3.0])
    np.testing.assert_array_equal(T.absolute(a).data, [1.0, 2.0, 3.0])


def test_matmul_forward_small():
    a = t([[1.0, 2.0], [3.0, 4.0]])
    b = t([[5.0, 6.0], [7.0, 8.0]])
    np.testing.assert_array_equal((a @ b).data, [[19.0, 22.0], [43.0, 50.0]])


def test_matmul_batched_forward():
    a = t(np.arange(2 * 3 * 4, dtype=float).reshape(2, 3, 4))
    b = t(np.arange(2 * 4 * 5, dtype=float).reshape(2, 4, 5))
    out = (a @ b).data
    assert out.shape == (2, 3, 5)
    np.testing.assert_array_equal(out, a.data @ b.data)


def test_matmul_shape_error():
    with pytest.raises(ShapeError):
        t(np.zeros((2, 3))) @ t(np.zeros((4, 5)))


def test_softmax_rows_sum_to_one():
    x = t(np.random.default_rng(0).normal(size=(3, 7)))
    s = T.softmax(x).data
    np.testing.assert_allclose(s.sum(axis=-1), np.ones(3), atol=1e-12)
    assert np.all(s > 0)


def test_softmax_known_value():
    # softmax([0, log 3]) = [1/4, 3/4]
    s = T.softmax(t([0.0, np.log(3.0)])).data
    np.testing.assert_allclose(s, [0.25, 0.75], atol=1e-12)


def test_log_softmax_matches_log_of_softmax():
    x = t(np.random.default_rng(1).normal(size=(4, 5)))
    np.testing.assert_allclose(T.log_softmax(x).data,
                               np.log(T.softmax(x).data), atol=1e-12)


def test_sigmoid_extremes_stable():
    s = T.sigmoid(t([-1000.0, 0.0, 1000.0])).data
    np.testing.assert_allclose(s, [0.0, 0.5, 1.0], atol=1e-12)
    assert np.all(np.isfinite(s))


def test_softplus_extremes_stable():
    s = T.softplus(t([-1000.0, 0.0, 1000.0])).data
    assert np.all(np.isfinite(s))
    np.testing.assert_allclose(s[1], np.log(2.0), atol=1e-12)
    np.testing.assert_allclose(s[2], 1000.0, atol=1e-12)


def test_sum_mean_values():
    x = t([[1.0, 2.0], [3.0, 4.0]])
    assert x.sum().item() == 10.0
    assert x.mean().item() == 2.5
    np.testing.assert_array_equal(x.sum(axis=0).data, [4.0, 6.0])
    np.testing.assert_array_equal(x.mean(axis=1).data, [1.5, 3.5])


# -- gradients ---------------------------------------------------------------

def test_gradient_accumulates_over_reuse():
    x = t([2.0])
    y = (x * x + x).sum()          # dy/dx = 2x + 1 = 5
    y.backward()
    np.testing.assert_allclose(x.grad, [5.0])


def test_broadcast_gradient_unbroadcasts():
    a = t(np.ones((3, 4)))
    b = t(np.ones(4))
    (a * b).sum().backward()
    assert b.grad.shape == (4,)
    np.testing.assert_array_equal(b.grad, 3 * np.ones(4))


def test_getitem_repeated_index_gradient():
    x = t([1.0, 2.0, 3.0])
    y = T.getitem(x, np.array([0, 0, 2])).sum()
    y.backward()
    np.testing.assert_array_equal(x.grad, [2.0, 0.0, 1.0])


def test_detach_blocks_gradient():
    x = t([3.0])
    y = (x.detach() * x).sum()
    y.backward()
    np.testing.assert_allclose(x.grad, [3.0])  # only the live factor


def test_backward_requires_scalar():
    x = t([1.0, 2.0])
    with pytest.raises(ContractError):
        (x * 2).backward()


def test_double_backward_rejected_until_zero_grad():
    x = t([1.0])
    y = (x * 3).sum()
    y.backward()
    with pytest.raises(ContractError):
        y.backward()
    # a fresh graph after zero_grad works and gives the same gradient
    x.zero_grad()
    y2 = (x * 3).sum()
    y2.backward()
    np.testing.assert_allclose(x.grad, [3.0])


def _kahn_order(root):
    """An alternative valid topological order (children-last), via Kahn."""
    nodes = root.topo_order()
    indeg = {id(n): 0 for n in nodes}
    children = {id(n): [] for n in nodes}
    for n in nodes:
        for p in n._parents:
            indeg[id(n)] += 1
            children[id(p)].append(n)
    by_id = {id(n): n for n in nodes}
    frontier = sorted((i for i, d in indeg.items() if d == 0), reverse=True)
    order = []
    while frontier:
        nid = frontier.pop()
        order.append(by_id[nid])
        for c in children[nid]:
            indeg[id(c)] -= 1
            if indeg[id(c)] == 0:
                frontier.append(id(c))
    return order


def test_backward_order_independent():
    rng = np.random.default_rng(7)
    x = t(rng.normal(size=(4, 3)))
    w = t(rng.normal(size=(3, 3)))

    def build():
        h = T.relu(x @ w)
        return (T.softmax(h) * h).sum()

    y1 = build()
    y1.backward()
    g_default = (x.grad.copy(), w.grad.copy())
    x.zero_grad(); w.zero_grad()
    y2 = build()
    y2.backward(order=_kahn_order(y2))
    np.testing.assert_array_equal(x.grad, g_default[0])
    np.testing.assert_array_equal(w.grad, g_default[1])


def test_concat_stack_gradients():
    a, b = t([1.0, 2.0]), t([3.0])
    (T.concat([a, b]) * t([1.0, 10.0, 100.0], rg=False)).sum().backward()
    np.testing.assert_array_equal(a.grad, [1.0, 10.0])
    np.testing.assert_array_equal(b.grad, [100.0])


def test_transpose_reshape_round_trip():
    x = t(np.arange(24, dtype=float).reshape(2, 3, 4))
    y = T.transpose(T.transpose(x, (1, 0, 2)), (1, 0, 2))
    np.testing.assert_array_equal(y.data, x.data)
    (y * y).sum().backward()
    np.testing.assert_array_equal(x.grad, 2 * x.data)


# -- numeric gradient checker ------------------------------------------------

def test_grad_check_eps_bounds():
    x = t(np.ones(2))
    with pytest.raises(ValueError):
        grad_check(lambda v: v.sum(), x, eps=1e-8)
    with pytest.raises(ValueError):
        grad_check(lambda v: v.sum(), x, eps=1e-2)


def test_grad_check_flags_wrong_gradient():
    def broken(v):
        out = Tensor(v.data * v.data, requires_grad=True, _parents=(v,))

        def backward(g):
            v.accumulate(g * 3.0 * v.data)   # wrong: should be 2x
        out._backward = backward
        return T.tsum(out)

    err = grad_check(broken, t([1.5, -0.5]))
    assert err > 1e-2


def test_grad_check_excludes_relu_kink():
    x = t([0.0, 1.0, -1.0])
    err = grad_check(lambda v: T.relu(v).sum(), x)
    assert err <= 1e-4  # coordinate 0 sits on the kink and is skipped


def test_grad_check_smooth_ops_tight():
    rng = np.random.default_rng(11)
    x = t(rng.normal(size=(3, 4)))
    for f in (lambda v: T.tsum(T.tanh(v)),
              lambda v: T.tsum(T.sigmoid(v) * v),
              lambda v: T.tsum(T.log(T.exp(v) + 1.0)),
              lambda v: T.tsum(T.softmax(v) * v)):
        assert grad_check(f, x) <= 1e-6


# -- property tests ----------------------------------------------------------

finite = st.floats(min_value=-10, max_value=10, allow_nan=False,
                   allow_infinity=False)


@settings(deadline=None, max_examples=50)
@given(st.lists(finite, min_size=1, max_size=8),
       st.floats(min_value=-5, max_value=5))
def test_softmax_shift_invariant(vals, shift):
    x = np.asarray(vals)
    a = T.softmax(t(x)).data
    b = T.softmax(t(x + shift)).data
    np.testing.assert_allclose(a, b, atol=1e-10)


@settings(deadline=None, max_examples=50)
@given(st.lists(finite, min_size=1, max_size=8))
def test_sum_grad_is_ones(vals):
    x = t(vals)
    x.sum().backward()
    np.testing.assert_array_equal(x.grad, np.ones(len(vals)))


@settings(deadline=None, max_examples=30)
@given(st.lists(finite, min_size=2, max_size=6),
       st.lists(finite, min_size=2, max_size=6))
def test_addition_grads_symmetric(u, v):
    n = min(len(u), len(v))
    a, b = t(u[:n]), t(v[:n])
    (a + b).sum().backward()
    np.testing.assert_array_equal(a.grad, b.grad)


# -- named-array container ---------------------------------------------------

def test_container_round_trip_all_dtypes(tmp_path):
    path = tmp_path / "arrays.bin"
    rng = np.random.default_rng(5)
    arrays = {
        "weights/f8": rng.normal(size=(3, 4)),
        "weights/f4": rng.normal(size=(2, 2)).astype(np.float32),
        "counts": np.arange(6, dtype=np.int64).reshape(2, 3),
        "blob": np.frombuffer(b"hello", dtype=np.uint8).copy(),
        "scalarish": np.array(3.5),
    }
    T.save_arrays(path, arrays)
    loaded = T.load_arrays(path)
    assert set(loaded) == set(arrays)
    for name in arrays:
        assert loaded[name].dtype == arrays[name].dtype
        assert loaded[name].tobytes() == arrays[name].tobytes()


def test_container_rejects_bad_magic(tmp_path):
    path = tmp_path / "junk.bin"
    path.write_bytes(b"NOPE" + b"\x00" * 16)
    with pytest.raises(ValueError):
        T.load_arrays(path)


def test_container_rejects_unknown_dtype(tmp_path):
    with pytest.raises(ValueError):
        T.save_arrays(tmp_path / "x.bin", {"c": np.zeros(2, dtype=complex)})


def test_container_truncated_names_path_and_array(tmp_path):
    path = tmp_path / "arrays.bin"
    T.save_arrays(path, {"first": np.zeros(4), "second": np.ones((8, 8))})
    data = path.read_bytes()
    path.write_bytes(data[:len(data) - 100])
    with pytest.raises(ValueError, match=r"arrays\.bin.*'second'"):
        T.load_arrays(path)
    path.write_bytes(data[:6])
    with pytest.raises(ValueError, match="truncated"):
        T.load_arrays(path)


# -- fused ops against their composed references ------------------------------

def _grads(f, inputs, weight):
    for x in inputs:
        x.zero_grad()
    out = f(*inputs)
    T.tsum(T.mul(out, weight)).backward()
    return out.data, [x.grad for x in inputs]


@pytest.mark.parametrize("x_shape", [(5, 4), (2, 3, 4), (2, 3, 5, 4)])
@pytest.mark.parametrize("bias", [True, False])
def test_linear_matches_matmul_plus_bias(x_shape, bias):
    rng = np.random.default_rng(21)
    x = t(rng.normal(size=x_shape))
    w = t(rng.normal(size=(4, 3)))
    b = t(rng.normal(size=3))
    weight = Tensor(rng.normal(size=x_shape[:-1] + (3,)))
    inputs = [x, w, b]
    fused = lambda x, w, b: T.linear(x, w, b if bias else None)
    composed = lambda x, w, b: (T.add(T.matmul(x, w), b) if bias
                                else T.matmul(x, w))
    out_f, g_f = _grads(fused, inputs, weight)
    out_c, g_c = _grads(composed, inputs, weight)
    np.testing.assert_array_equal(out_f, out_c)
    for gf, gc in zip(g_f[:2 + bias], g_c[:2 + bias]):
        np.testing.assert_allclose(gf, gc, rtol=0, atol=1e-12)
    if not bias:
        assert b.grad is None


def test_linear_shape_errors():
    with pytest.raises(ShapeError):
        T.linear(t(np.zeros((2, 4))), t(np.zeros((3, 3))))
    with pytest.raises(ShapeError):
        T.linear(t(np.zeros((2, 4))), t(np.zeros((4, 3))), t(np.zeros(4)))


def test_linear_weight_gradient_sums_over_all_leading_axes():
    rng = np.random.default_rng(22)
    x = t(rng.normal(size=(2, 3, 4, 5)))
    w = t(rng.normal(size=(5, 2)))
    weight = rng.normal(size=(2, 3, 4, 2))
    T.tsum(T.mul(T.linear(x, w), Tensor(weight))).backward()
    np.testing.assert_allclose(w.grad, np.einsum("abik,abij->kj", x.data,
                                                 weight), rtol=0, atol=1e-12)


def test_gelu_matches_composed_reference():
    rng = np.random.default_rng(23)
    x = t(rng.normal(size=(3, 4, 5)) * 3)
    weight = Tensor(rng.normal(size=(3, 4, 5)))
    c = np.sqrt(2.0 / np.pi)

    def composed(x):
        cube = T.mul(T.mul(x, x), x)
        inner = T.mul(T.add(x, T.mul(cube, 0.044715)), c)
        return T.mul(T.mul(x, 0.5), T.add(T.tanh(inner), 1.0))

    out_f, (g_f,) = _grads(T.gelu, [x], weight)
    out_c, (g_c,) = _grads(composed, [x], weight)
    np.testing.assert_allclose(out_f, out_c, rtol=0, atol=1e-12)
    np.testing.assert_allclose(g_f, g_c, rtol=0, atol=1e-12)


def test_first_gradient_write_may_alias_without_corrupting():
    # add hands one gradient array to both parents; a later write to one of
    # them must not show up in the other
    a, b = t([1.0, 2.0]), t([3.0, 4.0])
    s = T.add(a, b)
    loss = T.tsum(T.add(T.mul(s, 2.0), T.mul(a, 5.0)))
    loss.backward()
    np.testing.assert_array_equal(a.grad, [7.0, 7.0])
    np.testing.assert_array_equal(b.grad, [2.0, 2.0])
