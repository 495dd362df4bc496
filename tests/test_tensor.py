"""Autodiff engine: forward values, gradients, graph contracts, container."""

import re
import struct
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from groundact import tensor as T
from groundact.tensor import ContractError, ShapeError, Tensor, grad_check

import helpers as H
from helpers import rowwise


def t(data, rg=True):
    return Tensor(np.asarray(data, dtype=np.float64), requires_grad=rg)


# -- forward values ----------------------------------------------------------

def test_elementwise_forward():
    a, b = t([1.0, -2.0, 3.0]), t([4.0, 5.0, -6.0])
    np.testing.assert_array_equal(T.add(a, b).data, [5.0, 3.0, -3.0])
    np.testing.assert_array_equal(T.sub(a, b).data, [-3.0, -7.0, 9.0])
    np.testing.assert_array_equal(T.mul(a, b).data, [4.0, -10.0, -18.0])
    np.testing.assert_allclose(H.div(a, b).data, [0.25, -0.4, -0.5])
    np.testing.assert_array_equal(H.maximum(a, b).data, [4.0, 5.0, 3.0])
    np.testing.assert_array_equal(H.relu(a).data, [1.0, 0.0, 3.0])
    np.testing.assert_array_equal(H.absolute(a).data, [1.0, 2.0, 3.0])


def test_matmul_forward_small():
    a = t([[1.0, 2.0], [3.0, 4.0]])
    b = t([[5.0, 6.0], [7.0, 8.0]])
    np.testing.assert_array_equal(H.matmul(a, b).data,
                                  [[19.0, 22.0], [43.0, 50.0]])


def test_matmul_batched_forward():
    a = t(np.arange(2 * 3 * 4, dtype=float).reshape(2, 3, 4))
    b = t(np.arange(2 * 4 * 5, dtype=float).reshape(2, 4, 5))
    out = H.matmul(a, b).data
    assert out.shape == (2, 3, 5)
    np.testing.assert_array_equal(out, a.data @ b.data)


def test_matmul_shape_error():
    with pytest.raises(ShapeError):
        H.matmul(t(np.zeros((2, 3))), t(np.zeros((4, 5))))


def test_arithmetic_operators_are_not_defined():
    # ops are module functions; an operator on a Tensor fails loudly instead
    # of building an object array of Tensors
    x = t([1.0, 2.0, 3.0])
    with pytest.raises(TypeError):
        np.ones(3) * x
    with pytest.raises(TypeError):
        x + 1.0


def test_softmax_rows_sum_to_one():
    x = t(np.random.default_rng(0).normal(size=(3, 7)))
    s = H.softmax(x).data
    np.testing.assert_allclose(s.sum(axis=-1), np.ones(3), atol=1e-12)
    assert np.all(s > 0)


def test_softmax_known_value():
    # softmax([0, log 3]) = [1/4, 3/4]
    s = H.softmax(t([0.0, np.log(3.0)])).data
    np.testing.assert_allclose(s, [0.25, 0.75], atol=1e-12)


def test_log_softmax_matches_log_of_softmax():
    x = t(np.random.default_rng(1).normal(size=(4, 5)))
    np.testing.assert_allclose(T.log_softmax(x).data,
                               np.log(H.softmax(x).data), atol=1e-12)


def test_sigmoid_extremes_stable():
    s = T.sigmoid(t([-1000.0, 0.0, 1000.0])).data
    np.testing.assert_allclose(s, [0.0, 0.5, 1.0], atol=1e-12)
    assert np.all(np.isfinite(s))


@pytest.mark.parametrize("shape", [(7,), (64, 12, 4, 4), (3, 5, 129)])
def test_sigmoid_is_the_masked_split(shape):
    rng = np.random.default_rng(len(shape))
    v = rng.normal(size=shape) * 10
    special = [0.0, -0.0, 1e-320, -1e-320, 800.0, -800.0, np.nan]
    v.reshape(-1)[:len(special)] = special
    # NaN stays NaN; its sign bit is not part of the contract
    np.testing.assert_array_equal(T.sigmoid(t(v)).data, H.sigmoid_values(v))


def test_softplus_extremes_stable():
    s = T.softplus(t([-1000.0, 0.0, 1000.0])).data
    assert np.all(np.isfinite(s))
    np.testing.assert_allclose(s[1], np.log(2.0), atol=1e-12)
    np.testing.assert_allclose(s[2], 1000.0, atol=1e-12)


def test_sum_mean_values():
    x = t([[1.0, 2.0], [3.0, 4.0]])
    assert T.tsum(x).item() == 10.0
    assert T.tmean(x).item() == 2.5
    np.testing.assert_array_equal(T.tsum(x, axis=0).data, [4.0, 6.0])
    np.testing.assert_array_equal(T.tmean(x, axis=1).data, [1.5, 3.5])


# -- gradients ---------------------------------------------------------------

def test_gradient_accumulates_over_reuse():
    x = t([2.0])
    y = T.tsum(T.add(T.mul(x, x), x))          # dy/dx = 2x + 1 = 5
    y.backward()
    np.testing.assert_allclose(x.grad, [5.0])


def test_broadcast_gradient_unbroadcasts():
    a = t(np.ones((3, 4)))
    b = t(np.ones(4))
    T.tsum(T.mul(a, b)).backward()
    assert b.grad.shape == (4,)
    np.testing.assert_array_equal(b.grad, 3 * np.ones(4))


def test_getitem_repeated_index_gradient():
    x = t([1.0, 2.0, 3.0])
    y = T.tsum(T.getitem(x, np.array([0, 0, 2])))
    y.backward()
    np.testing.assert_array_equal(x.grad, [2.0, 0.0, 1.0])


def test_detach_blocks_gradient():
    x = t([3.0])
    y = T.tsum(T.mul(x.detach(), x))
    y.backward()
    np.testing.assert_allclose(x.grad, [3.0])  # only the live factor


def test_backward_requires_scalar():
    x = t([1.0, 2.0])
    with pytest.raises(ContractError):
        T.mul(x, 2).backward()


def test_double_backward_rejected_until_zero_grad():
    x = t([1.0])
    y = T.tsum(T.mul(x, 3))
    y.backward()
    with pytest.raises(ContractError):
        y.backward()
    # a fresh graph after zero_grad works and gives the same gradient
    x.zero_grad()
    y2 = T.tsum(T.mul(x, 3))
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
        h = H.relu(H.matmul(x, w))
        return T.tsum(T.mul(H.softmax(h), h))

    y1 = build()
    y1.backward()
    g_default = (x.grad.copy(), w.grad.copy())
    for order in (_kahn_order, lambda root: root.topo_order()):
        x.zero_grad(); w.zero_grad()
        y2 = build()
        backward_in_order(y2, order(y2))
        np.testing.assert_array_equal(x.grad, g_default[0])
        np.testing.assert_array_equal(w.grad, g_default[1])


def backward_in_order(root, order):
    """Reference backward: run the rules of ``order`` (parents before
    children) from the last node back, keeping every interior gradient."""
    root.accumulate(np.ones_like(root.data))
    for node in reversed(order):
        if node._backward is not None and node.grad is not None:
            node._backward(node.grad)


def test_second_backward_through_a_walked_subgraph_is_rejected():
    x = t([1.0, 2.0])
    y = T.mul(x, 2)
    T.tsum(y).backward()
    np.testing.assert_array_equal(x.grad, [2.0, 2.0])
    # y's rule and the values it saved were freed as the walk passed it
    assert y._parents == ()
    z = T.mul(y, 3)
    root = T.tsum(z)
    with pytest.raises(ContractError, match="previous backward has freed"):
        root.backward()
    assert root.grad is None and z.grad is None and y.grad is None
    np.testing.assert_array_equal(x.grad, [2.0, 2.0])


def test_backward_ignores_other_live_graphs():
    x = t([1.0, 2.0])
    other = T.tsum(T.mul(x, 5))          # built, never differentiated
    later = T.tsum(T.mul(x, 7))          # built after the root
    T.tsum(T.mul(x, x)).backward()
    np.testing.assert_array_equal(x.grad, [2.0, 4.0])
    x.zero_grad()
    later.backward()
    np.testing.assert_array_equal(x.grad, [7.0, 7.0])
    x.zero_grad()
    other.backward()
    np.testing.assert_array_equal(x.grad, [5.0, 5.0])


def test_tape_keeps_no_dropped_graph_alive():
    import gc
    import weakref
    x = t(np.ones(3))
    root = T.tsum(T.sigmoid(T.mul(x, 2)))
    refs = [weakref.ref(n) for n in root.topo_order() if n is not x]
    del root
    assert all(r() is None for r in refs)
    # also when the tape is compacted, and after a backward
    for i in range(3000):
        T.tsum(T.mul(x, float(i)))
    assert len(T._tape) < 3000
    root = T.tsum(T.sigmoid(x))
    refs = [weakref.ref(n) for n in root.topo_order() if n is not x]
    root.backward()
    del root
    gc.collect()
    assert all(r() is None for r in refs)


def test_failed_backward_leaves_no_gradient_behind():
    x = t([1.0, 2.0])
    y = T.mul(x, 2)

    def broken(g):
        raise RuntimeError("boom")

    bad = T.tsum(T.mul(y, 3))
    bad._backward = broken
    with pytest.raises(RuntimeError):
        bad.backward()
    assert bad.grad is None and y.grad is None
    T.tsum(y).backward()
    np.testing.assert_array_equal(x.grad, [2.0, 2.0])


def test_getitem_basic_index_gradient_equals_scatter_add():
    rng = np.random.default_rng(4)
    x = t(rng.normal(size=(3, 5, 4)))
    for idx in [(slice(None), slice(0, 3), slice(None)), 1, (Ellipsis, 2),
                (None, 2, slice(1, None, 2)), (np.int64(1), Ellipsis)]:
        x.zero_grad()
        g = rng.normal(size=x.data[idx].shape)
        T.tsum(T.mul(T.getitem(x, idx), g)).backward()
        want = np.zeros_like(x.data)
        np.add.at(want, idx, g)
        np.testing.assert_array_equal(x.grad, want)
    assert not T._is_basic_index((np.array([0, 0]),))
    assert not T._is_basic_index(True)


def test_concat_stack_gradients():
    a, b = t([1.0, 2.0]), t([3.0])
    T.tsum(T.mul(T.concat([a, b]), t([1.0, 10.0, 100.0], rg=False))).backward()
    np.testing.assert_array_equal(a.grad, [1.0, 10.0])
    np.testing.assert_array_equal(b.grad, [100.0])


def test_transpose_reshape_round_trip():
    x = t(np.arange(24, dtype=float).reshape(2, 3, 4))
    y = T.transpose(T.transpose(x, (1, 0, 2)), (1, 0, 2))
    np.testing.assert_array_equal(y.data, x.data)
    T.tsum(T.mul(y, y)).backward()
    np.testing.assert_array_equal(x.grad, 2 * x.data)


# -- numeric gradient checker ------------------------------------------------

def test_grad_check_flags_wrong_gradient():
    def square(slope):
        """Rows of sum(v * v), with the backward rule g * slope * v."""
        def f(v):
            def backward(g):
                v.accumulate(g * slope * v.data)
            out = Tensor(v.data * v.data, requires_grad=True, _parents=(v,),
                         _backward=backward)
            return T.tsum(out, axis=-1)
        return f

    x = t([1.5, -0.5])
    assert grad_check(square(2.0), x) <= 1e-6    # the correct rule
    assert grad_check(square(3.0), x) > 1e-2     # wrong: should be 2x


def test_grad_check_excludes_relu_kink():
    x = t([0.0, 1.0, -1.0])
    err = grad_check(rowwise(lambda v: T.tsum(H.relu(v))), x)
    assert err <= 1e-4  # coordinate 0 sits on the kink and is skipped


def test_grad_check_smooth_ops_tight():
    rng = np.random.default_rng(11)
    x = t(rng.normal(size=(3, 4)))
    for f in (lambda v: T.tsum(T.mul(T.sigmoid(v), v)),
              lambda v: T.tsum(T.softplus(v)),
              lambda v: T.tsum(T.mul(T.log_softmax(v), v))):
        assert grad_check(rowwise(f), x) <= 1e-6


def test_grad_check_rejects_one_value_for_the_stack():
    with pytest.raises(ContractError, match=r"got shape \(\)"):
        grad_check(T.tsum, t([1.0, 2.0]))


def test_rowwise_evaluates_each_row_and_passes_gradients():
    rng = np.random.default_rng(12)
    stack = Tensor(rng.normal(size=(3, 2, 2)), requires_grad=True)
    f1 = lambda v: T.tsum(T.mul(T.sigmoid(v), v))
    out = rowwise(f1)(stack)
    assert out.shape == (3,)
    for k in range(3):
        assert out.data[k] == f1(Tensor(stack.data[k])).item()
    T.tsum(out).backward()
    s = 1.0 / (1.0 + np.exp(-stack.data))
    np.testing.assert_allclose(stack.grad, s + stack.data * s * (1 - s),
                               atol=1e-12)


# -- property tests ----------------------------------------------------------

finite = st.floats(min_value=-10, max_value=10, allow_nan=False,
                   allow_infinity=False)


@settings(deadline=None, max_examples=50)
@given(st.lists(finite, min_size=1, max_size=8),
       st.floats(min_value=-5, max_value=5))
def test_softmax_shift_invariant(vals, shift):
    x = np.asarray(vals)
    a = H.softmax(t(x)).data
    b = H.softmax(t(x + shift)).data
    np.testing.assert_allclose(a, b, atol=1e-10)


@settings(deadline=None, max_examples=50)
@given(st.lists(finite, min_size=1, max_size=8))
def test_sum_grad_is_ones(vals):
    x = t(vals)
    T.tsum(x).backward()
    np.testing.assert_array_equal(x.grad, np.ones(len(vals)))


@settings(deadline=None, max_examples=30)
@given(st.lists(finite, min_size=2, max_size=6),
       st.lists(finite, min_size=2, max_size=6))
def test_addition_grads_symmetric(u, v):
    n = min(len(u), len(v))
    a, b = t(u[:n]), t(v[:n])
    T.tsum(T.add(a, b)).backward()
    np.testing.assert_array_equal(a.grad, b.grad)


def test_keep_heap_does_nothing_without_mallopt(monkeypatch):
    import ctypes
    monkeypatch.setattr(ctypes, "CDLL", lambda name: object())
    monkeypatch.setattr(T, "_heap_kept", False)
    T._keep_heap()
    assert T._heap_kept


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


def _one_array_container(name: bytes, shape) -> bytes:
    """A container of one float64 array with the given raw name and shape
    fields and no data."""
    return (b"GACT" + struct.pack("<II", T._VERSION, 1)
            + struct.pack("<H", len(name))
            + name + struct.pack("<BB", 0, len(shape))
            + struct.pack(f"<{len(shape)}I", *shape))


def test_container_of_version_1_rejected_by_version(tmp_path):
    # version 1 stored no checksums
    path = tmp_path / "old.bin"
    path.write_bytes(b"GACT" + struct.pack("<II", 1, 0))
    with pytest.raises(ValueError, match=r"old\.bin: unsupported container "
                                         r"version 1"):
        T.load_arrays(path)


def test_container_corrupted_byte_names_path_and_array(tmp_path):
    path = tmp_path / "arrays.bin"
    T.save_arrays(path, {"first": np.zeros(4), "second": np.ones((8, 8))})
    good = path.read_bytes()
    bad = bytearray(good)
    bad[-40] ^= 1                       # inside the data of 'second'
    path.write_bytes(bad)
    with pytest.raises(ValueError, match=r"arrays\.bin: array 'second' does "
                                         r"not match its CRC-32"):
        T.load_arrays(path)
    path.write_bytes(good + b"\0")
    with pytest.raises(ValueError, match=r"arrays\.bin: 1 bytes after the "
                                         r"last of 2 arrays"):
        T.load_arrays(path)


def test_container_declared_size_checked_before_read(tmp_path):
    # 2^32 - 1 float64 elements: ~34 GB declared, none present
    path = tmp_path / "huge.bin"
    path.write_bytes(_one_array_container(b"w", (2 ** 32 - 1,)))
    with pytest.raises(ValueError, match=r"huge\.bin: truncated container: "
                                         r"array 'w' data needs 34359738360"):
        T.load_arrays(path)


def test_container_name_not_utf8_names_path(tmp_path):
    path = tmp_path / "name.bin"
    path.write_bytes(_one_array_container(b"\xff\xfe", (0,)))
    with pytest.raises(ValueError, match=r"name\.bin: array #0 name is not "
                                         r"UTF-8"):
        T.load_arrays(path)


def _container_file() -> bytes:
    with tempfile.TemporaryDirectory() as d:
        path = f"{d}/arrays.bin"
        T.save_arrays(path, {"w": np.arange(6.0).reshape(2, 3),
                             "h": np.ones(2, dtype=np.float32),
                             "n": np.arange(3, dtype=np.int64)})
        with open(path, "rb") as fh:
            return fh.read()


CONTAINER_FILE = _container_file()


@settings(deadline=None, max_examples=60)
@given(cut=st.integers(0, len(CONTAINER_FILE)),
       edits=st.lists(st.tuples(st.integers(0, len(CONTAINER_FILE)),
                                st.integers(0, 255)), max_size=3))
def test_container_fails_only_at_the_boundary(cut, edits):
    data = bytearray(CONTAINER_FILE[:cut])
    for at, byte in edits:
        if data:
            data[at % len(data)] = byte
    with tempfile.TemporaryDirectory() as d:
        path = f"{d}/arrays.bin"
        with open(path, "wb") as fh:
            fh.write(data)
        try:
            T.load_arrays(path)
        except ValueError as exc:
            assert (type(exc) is T.ContainerError
                    and str(exc).startswith(path)), exc


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
    composed = lambda x, w, b: (T.add(H.matmul(x, w), b) if bias
                                else H.matmul(x, w))
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


# each member is a matrix of rows: a shared w multiplies a lone 1-d row as a
# vector-matrix product, whose rounding differs from a row of one GEMM
@pytest.mark.parametrize("x_shape", [(3, 1, 4), (3, 5, 4), (3, 2, 5, 4)])
@pytest.mark.parametrize("stacked", ["w_and_b", "w", "b", "w_no_bias"])
def test_stacked_linear_matches_separate_calls(x_shape, stacked):
    # member k of a weight or bias stacked on x's leading axis applies to
    # x[k]: the same bits as K separate calls, forward and backward; a
    # shared parameter's gradient sums the members in another order
    rng = np.random.default_rng(23)
    k = x_shape[0]
    x = rng.normal(size=x_shape)
    w = rng.normal(size=(k, 4, 3) if "w" in stacked else (4, 3))
    b = None if stacked == "w_no_bias" else rng.normal(
        size=(k, 3) if "b" in stacked else (3,))
    weight = rng.normal(size=x_shape[:-1] + (3,))
    inputs = [t(x), t(w)] + ([] if b is None else [t(b)])
    out, grads = _grads(T.linear, inputs, Tensor(weight))
    sums = [0.0] * len(inputs)
    for m in range(k):
        member = [t(a[m] if a.ndim > base else a)
                  for a, base in zip((x, w, b), (1, 2, 1)) if a is not None]
        out_m, grads_m = _grads(T.linear, member, Tensor(weight[m]))
        np.testing.assert_array_equal(out[m], out_m)
        for i, (g, g_m) in enumerate(zip(grads, grads_m)):
            if g.ndim == g_m.ndim:          # shared: summed over the members
                sums[i] = sums[i] + g_m
            else:
                np.testing.assert_array_equal(g[m], g_m)
    for g, total in zip(grads, sums):
        if not np.isscalar(total):
            np.testing.assert_allclose(g, total, rtol=0, atol=1e-12)


def test_member_axis_helpers_keep_the_2d_arithmetic():
    # an unstacked parameter takes exactly the one-GEMM expressions the ops
    # used before the member axis existed
    rng = np.random.default_rng(24)
    a, g = rng.normal(size=(2, 3, 5, 4)), rng.normal(size=(2, 3, 5, 6))
    w, b = rng.normal(size=(4, 6)), rng.normal(size=6)
    np.testing.assert_array_equal(T.apply_weight(a, w), a @ w)
    np.testing.assert_array_equal(T.apply_weight(g, np.swapaxes(w, -1, -2)),
                                  g @ w.T)
    np.testing.assert_array_equal(T.weight_grad(a, g, w),
                                  T.rows(a).T @ T.rows(g))
    np.testing.assert_array_equal(T.row_sum(g, b), T.rows(g).sum(axis=0))
    assert T.per_member(b, 4) is b


@pytest.mark.parametrize("x_shape, w_shape, b_shape, bad", [
    ((2, 5, 4), (3, 4, 3), None, (3, 4, 3)),
    ((2, 5, 4), (4, 3), (3, 3), (3, 3)),
    ((2, 5, 4), (2, 4, 3), (2, 1, 3), (2, 1, 3)),
    ((4,), (4, 4, 3), None, (4, 4, 3)),
    ((2, 5, 4), (1, 2, 4, 3), None, (1, 2, 4, 3)),
])
def test_linear_member_axis_mismatch_names_both_shapes(x_shape, w_shape,
                                                       b_shape, bad):
    b = None if b_shape is None else t(np.zeros(b_shape))
    with pytest.raises(ShapeError, match=re.escape(str(bad)) + ".*"
                       + re.escape(str(x_shape))):
        T.linear(t(np.zeros(x_shape)), t(np.zeros(w_shape)), b)


def test_gelu_matches_composed_reference():
    rng = np.random.default_rng(23)
    x = t(rng.normal(size=(3, 4, 5)) * 3)
    weight = Tensor(rng.normal(size=(3, 4, 5)))
    c = np.sqrt(2.0 / np.pi)

    def composed(x):
        cube = T.mul(T.mul(x, x), x)
        inner = T.mul(T.add(x, T.mul(cube, 0.044715)), c)
        return T.mul(T.mul(x, 0.5), T.add(H.tanh(inner), 1.0))

    out_f, (g_f,) = _grads(H.gelu, [x], weight)
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


# -- no_grad -----------------------------------------------------------------

def test_no_grad_builds_no_graph_and_restores_mode():
    w = Tensor(np.array([[1.0, -2.0], [0.5, 3.0]]), requires_grad=True)
    x = Tensor(np.array([[0.3, 0.7]]))
    with T.no_grad():
        with T.no_grad():
            inner = T.sigmoid(T.linear(x, w))
        outer = T.tsum(T.mul(inner, 2.0))
    # leaves are unaffected; results keep no parents and no backward
    assert w.requires_grad
    for out in (inner, outer):
        assert not out.requires_grad and out._backward is None
        assert len(out.topo_order()) == 1
    graph = T.tsum(T.mul(T.sigmoid(T.linear(x, w)), 2.0))
    assert graph.item() == outer.item()
    assert len(graph.topo_order()) > 1
    with pytest.raises(ShapeError):
        with T.no_grad():
            T.add(w, np.ones(3))
    # the mode is restored after an exception inside the block
    restored = T.add(w, 1.0)
    assert restored.requires_grad and restored._parents[0] is w

