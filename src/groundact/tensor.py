"""Dense tensor engine with reverse-mode automatic differentiation.

Everything downstream (attention blocks, the grounding losses, the training
loop) is built from the operations defined here.  Tensors wrap numpy arrays,
record their parents, and carry a closure implementing the local backward
rule.  Every node built under grad mode is recorded, by weak reference, on a
tape in creation order; calling :func:`backward` on a scalar root runs the
backward rules in reverse creation order (a valid topological order, since a
node is always created after its parents) and accumulates gradients
additively into every ``requires_grad`` leaf.  Each node releases its rule,
the values that rule saved, and its parents as soon as the rule has run, so
a graph is differentiated once: a second backward through a walked node
raises :class:`ContractError`.

A backward rule reads the current ``.data`` of its parameters and of its
inputs: the fused nodes keep no copy of a weight or of an input, and
rebuild their cheap intermediates from what they keep, the parameters and
inputs included.  What each keeps is what costs more than an elementwise
pass or one small matmul to rebuild:

* the attention, feed-forward and layer-norm nodes keep each row's mean
  and standard deviation; the normalized rows are ``(x - mean) / std`` of
  the input's ``.data`` again, and the scaled output one more pass;
* the attention block keeps its softmax weights, which would cost a score
  GEMM, an exp and a normalization per head, and rebuilds Q, K, V, the
  weighted sum and the merged heads;
* the feed-forward block keeps its pre-activation, which would cost a GEMM,
  and rebuilds the GELU's tanh and value from it;
* both keep their dropout masks, which are random draws;
* the box head keeps nothing: its summed rows and two hidden layers are
  rebuilt with two small GEMMs.

So reassigning a parameter's or an input's ``.data`` between a forward and
its backward is outside the contract; an optimizer step comes after the
backward, as it must anyway.

Freeing the graph during backward, and the rebuilt values that come and go
in it, would make glibc's malloc give the top of its heap back to the
system after every step, and the next forward would fault those pages in
again.  So the first backward of a process tells malloc to keep its heap
(:func:`_keep_heap`): it pins the mmap threshold at 32 MiB and sets a top
pad of 64 MiB, which every heap growth adds and every trim leaves in place.
The setting is process-wide and changes no number; there is no option for
it, and where the C library has no ``mallopt`` nothing is set.

Double precision is the default everywhere; the finite-difference checker
:func:`grad_check` relies on it.
"""

from __future__ import annotations

import math
import os
import struct
import weakref
import zlib
from contextlib import contextmanager
from typing import Callable, Optional, Sequence

import numpy as np


class ShapeError(ValueError):
    """Raised when operand shapes are incompatible."""


class ContainerError(ValueError):
    """A tensor container file that cannot be read: missing, not a file,
    malformed, truncated or corrupted.  The message names the path."""


class ContractError(RuntimeError):
    """Raised when an operation is called outside its contract."""


def _as_array(x, dtype=np.float64) -> np.ndarray:
    if isinstance(x, np.ndarray):
        return x.astype(dtype, copy=False)
    return np.asarray(x, dtype=dtype)


def unbroadcast(grad: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum a broadcast gradient back down to the original operand shape."""
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    for axis, dim in enumerate(shape):
        if dim == 1 and grad.shape[axis] != 1:
            grad = grad.sum(axis=axis, keepdims=True)
    return grad


_grad_enabled = True

# weak references to the nodes that have a backward rule, in creation order;
# dead entries are dropped whenever the list outgrows twice its live size
_tape: list = []
_tape_room = 1024


@contextmanager
def no_grad():
    """Build no graph inside the block: every tensor an op returns keeps no
    parents and no backward, so intermediate values are freed as soon as
    nothing else refers to them.  Re-entrant; the previous mode is restored
    on exit, also when the block raises."""
    global _grad_enabled
    previous, _grad_enabled = _grad_enabled, False
    try:
        yield
    finally:
        _grad_enabled = previous


class Tensor:
    """A value node in the computation graph.

    Tensors that participate in the graph are treated as immutable: ops
    always allocate fresh output arrays and never write into their inputs.
    """

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward",
                 "_backward_run", "__weakref__")

    def __init__(self, data, requires_grad: bool = False,
                 _parents: tuple = (), _backward: Optional[Callable] = None):
        self.data = _as_array(data) if not isinstance(data, np.ndarray) else data
        if _parents and not _grad_enabled:
            requires_grad, _parents, _backward = False, (), None
        if _backward is not None:
            _record(self)
        self.grad: Optional[np.ndarray] = None
        self.requires_grad = requires_grad
        self._parents = _parents
        self._backward = _backward
        self._backward_run = False

    # -- basic introspection -------------------------------------------------

    @property
    def shape(self) -> tuple:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    def __repr__(self):
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"

    def item(self) -> float:
        return float(self.data.reshape(-1)[0])

    def zero_grad(self):
        self.grad = None
        self._backward_run = False

    def accumulate(self, g: np.ndarray):
        """Add ``g`` to this node's gradient; ops call it only for parents
        that require grad."""
        # the first write may alias another node's gradient (``add`` hands
        # the same array to both parents), so later writes add out of place
        if self.grad is None:
            self.grad = np.asarray(g)
        else:
            self.grad = self.grad + g

    def detach(self) -> "Tensor":
        return Tensor(self.data, requires_grad=False)

    # -- graph walk ----------------------------------------------------------

    def topo_order(self) -> list:
        """Nodes of the graph below self, parents before children."""
        order, seen = [], set()
        stack = [(self, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                order.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for p in node._parents:
                stack.append((p, False))
        return order

    def backward(self):
        """Accumulate d(self)/d(leaf) into every requires_grad leaf.

        ``self`` must be a scalar produced through the graph.  A second call
        without an intervening :meth:`zero_grad` is rejected: gradients are
        accumulated additively, so a silent re-run would double them.

        The tape is walked from its newest node back: a node's gradient is
        complete once every later node has run.  As soon as an interior
        node's backward rule has run, the node drops its gradient, its rule
        (and with it the values the rule saved) and its parents, so the
        graph is freed as the walk goes.  A later backward through a node
        that this one walked raises :class:`ContractError`.  Nodes that this
        backward does not reach are left as they are.
        """
        if self.size != 1:
            raise ContractError(
                f"backward requires a scalar root, got shape {self.shape}")
        if self._backward_run:
            raise ContractError(
                "backward already run on this root; call zero_grad first")
        if not _heap_kept:
            _keep_heap()
        self._backward_run = True
        self.accumulate(np.ones_like(self.data))
        # strong references: a node whose only holder is its child's rule
        # must outlive that rule until the walk reaches it
        nodes = [ref() for ref in _tape]
        try:
            for i in range(len(nodes) - 1, -1, -1):
                node, nodes[i] = nodes[i], None
                if node is not None and node.grad is not None:
                    node._backward(node.grad)
                    node.grad = None
                    node._backward, node._parents = _released, ()
        except BaseException:
            # no half-propagated gradient may reach a later backward
            for ref in _tape:
                node = ref()
                if node is not None:
                    node.grad = None
            raise

    def __getitem__(self, idx):
        return getitem(self, idx)


_heap_kept = False

# glibc's mallopt parameters (malloc.h)
_M_TOP_PAD, _M_MMAP_THRESHOLD = -2, -3


def _keep_heap():
    """Make glibc's malloc keep the pages a step frees, once per process.

    The top pad of 64 MiB is what keeps the pages: a trim leaves that much
    free space at the top of the heap.  But setting any of malloc's pads or
    thresholds switches off its dynamic mmap threshold, which would stay at
    128 KiB, and every larger array would be mapped and unmapped, faulting
    its pages in each time.  So the mmap threshold is pinned first, at
    32 MiB (glibc's largest), and arrays below it come from the heap.  Where
    the C library has no ``mallopt`` this does nothing."""
    global _heap_kept
    _heap_kept = True
    import ctypes
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError):
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    for name, param, value in (
            ("M_MMAP_THRESHOLD", _M_MMAP_THRESHOLD, 32 << 20),
            ("M_TOP_PAD", _M_TOP_PAD, 64 << 20)):
        if mallopt(param, value) != 1:
            raise RuntimeError(f"mallopt({name}, {value}) failed")


def _released(g):
    raise ContractError("backward through a graph whose saved values a "
                        "previous backward has freed")


def _record(node: Tensor):
    global _tape_room
    if len(_tape) >= _tape_room:
        _tape[:] = [ref for ref in _tape if ref() is not None]
        _tape_room = max(1024, 2 * len(_tape))
    _tape.append(weakref.ref(node))


def as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def _binary(a, b, fwd, bwd_a, bwd_b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    try:
        data = fwd(a.data, b.data)
    except ValueError as exc:
        raise ShapeError(f"incompatible shapes {a.shape} and {b.shape}: {exc}")
    req = a.requires_grad or b.requires_grad

    def backward(g):
        if a.requires_grad:
            a.accumulate(unbroadcast(bwd_a(g, a.data, b.data), a.shape))
        if b.requires_grad:
            b.accumulate(unbroadcast(bwd_b(g, a.data, b.data), b.shape))

    return Tensor(data, req, (a, b), backward if req else None)


def _unary(x, fwd, bwd) -> Tensor:
    x = as_tensor(x)
    data = fwd(x.data)
    req = x.requires_grad

    def backward(g):
        x.accumulate(bwd(g, x.data, data))

    return Tensor(data, req, (x,), backward if req else None)


# -- arithmetic --------------------------------------------------------------

def add(a, b):
    return _binary(a, b, lambda x, y: x + y,
                   lambda g, x, y: g, lambda g, x, y: g)


def sub(a, b):
    return _binary(a, b, lambda x, y: x - y,
                   lambda g, x, y: g, lambda g, x, y: -g)


def mul(a, b):
    return _binary(a, b, lambda x, y: x * y,
                   lambda g, x, y: g * y, lambda g, x, y: g * x)


def rows(x: np.ndarray) -> np.ndarray:
    """[..., n] -> [rows, n]."""
    return x.reshape(-1, x.shape[-1])


# -- the member axis ---------------------------------------------------------
#
# A parameter of base rank r (a weight [n, m] has r = 2, a bias or a layer
# norm's gamma [m] has r = 1) may carry one more, leading axis [K]: member k
# then applies to row k of axis 0 of the input.  A 2-d weight keeps the one
# GEMM over every row; a stacked one runs one GEMM per member, which numpy's
# matmul gives bit-identical to K separate calls (np.einsum does not).

def check_members(op: str, x_shape: tuple, params) -> None:
    """Reject a parameter that is neither its base rank nor stacked [K, ...]
    on the leading axis of an input of shape x_shape.  params holds
    (name, shape, base rank) triples."""
    for name, shape, base in params:
        if len(shape) == base:
            continue
        if len(shape) != base + 1 or len(x_shape) < 2 or shape[0] != x_shape[0]:
            raise ShapeError(
                f"{op}: {name} {tuple(shape)} must have {base} axes, or "
                f"{base + 1} with a leading member axis equal to that of "
                f"x {tuple(x_shape)}")


def per_member(p: np.ndarray, ndim: int) -> np.ndarray:
    """A bias-like p as an operand of an ndim-d array: [m] as it is; a
    stacked [K, m] as [K, 1, ..., 1, m], so that member k meets row k."""
    if p.ndim == 1:
        return p
    return p.reshape(p.shape[:1] + (1,) * (ndim - 2) + p.shape[1:])


def apply_weight(a: np.ndarray, w: np.ndarray) -> np.ndarray:
    """a [..., n] @ w [n, m]; for a stacked w [K, n, m], a[k] @ w[k]."""
    if w.ndim == 2:
        return a @ w
    k = w.shape[0]
    return (a.reshape(k, -1, a.shape[-1]) @ w).reshape(*a.shape[:-1],
                                                       w.shape[-1])


def weight_grad(a: np.ndarray, g: np.ndarray, w: np.ndarray) -> np.ndarray:
    """The gradient of w in a @ w, given the output's gradient g: one GEMM
    over every row for a 2-d w, one per member for a stacked w."""
    if w.ndim == 2:
        return rows(a).T @ rows(g)
    k = w.shape[0]
    return (np.swapaxes(a.reshape(k, -1, a.shape[-1]), -1, -2)
            @ g.reshape(k, -1, g.shape[-1]))


def row_sum(g: np.ndarray, p: np.ndarray) -> np.ndarray:
    """The rows of g summed into the shape of a bias-like p: every row for
    p [m], member k's rows into p[k] for a stacked p [K, m]."""
    if p.ndim == 1:
        return rows(g).sum(axis=0)
    return g.reshape(p.shape[0], -1, g.shape[-1]).sum(axis=1)


def linear(x, w, b=None):
    """x @ w + b over the last axis: x [..., n], w [n, m], b [m] or None;
    w and b may each be stacked on x's leading axis."""
    x, w = as_tensor(x), as_tensor(w)
    if w.ndim < 2 or x.ndim < 1 or x.shape[-1] != w.shape[-2]:
        raise ShapeError(f"linear needs x [..., n] and w [n, m], got "
                         f"{x.shape} and {w.shape}")
    params = [("w", w.shape, 2)]
    if b is not None:
        b = as_tensor(b)
        if b.ndim == 0 or b.shape[-1] != w.shape[-1]:
            raise ShapeError(f"linear bias {b.shape} does not match w {w.shape}")
        params.append(("b", b.shape, 1))
    check_members("linear", x.shape, params)
    data = apply_weight(x.data, w.data)
    if b is not None:
        data += per_member(b.data, data.ndim)
    parents = (x, w) if b is None else (x, w, b)
    req = any(p.requires_grad for p in parents)

    def backward(g):
        if x.requires_grad:
            x.accumulate(apply_weight(g, np.swapaxes(w.data, -1, -2)))
        if w.requires_grad:
            w.accumulate(weight_grad(x.data, g, w.data))
        if b is not None and b.requires_grad:
            b.accumulate(row_sum(g, b.data))

    return Tensor(data, req, parents, backward if req else None)


# -- nonlinearities ----------------------------------------------------------

_GELU_C = np.sqrt(2.0 / np.pi)


def gelu_forward(v: np.ndarray):
    """tanh-approximated GELU of an array, and the tanh its slope reuses
    (:func:`gelu_tanh`)."""
    t = gelu_tanh(v)
    return gelu_from_tanh(v, t), t


def gelu_tanh(v: np.ndarray) -> np.ndarray:
    """The GELU's tanh of ``C * (v + 0.044715 * v^3)``, its argument built
    in one buffer with the composed expression's ops in its order; a
    backward calls it to rebuild the tanh of the forward, bit for bit."""
    t = v * v
    t *= v
    t *= 0.044715
    t += v
    t *= _GELU_C
    np.tanh(t, out=t)
    return t


def gelu_from_tanh(v: np.ndarray, t: np.ndarray) -> np.ndarray:
    """GELU of v, given the tanh from :func:`gelu_forward`: one elementwise
    pass, which a backward runs to rebuild the value instead of keeping it."""
    out = 0.5 * v
    out *= 1.0 + t
    return out


def gelu_slope(v: np.ndarray, t: np.ndarray) -> np.ndarray:
    """d gelu(v) / dv, given the tanh from :func:`gelu_forward`."""
    dinner = _GELU_C * (1.0 + 3 * 0.044715 * (v * v))
    return 0.5 * (1.0 + t) + 0.5 * v * (1.0 - t * t) * dinner


def sigmoid(x):
    # e = exp(-|v|) never overflows: 1 / (1 + e) for v >= 0 and e / (1 + e)
    # below, the same two expressions as a masked split, without the masks
    def fwd(v):
        e = np.exp(-np.abs(v))
        return np.where(v >= 0, 1.0, e) / (1.0 + e)

    return _unary(x, fwd, lambda g, v, out: g * out * (1.0 - out))


def softplus(x):
    # log(1 + e^x), computed without overflow
    def fwd(v):
        return np.maximum(v, 0.0) + np.log1p(np.exp(-np.abs(v)))

    def bwd(g, v, out):
        return g * (1.0 / (1.0 + np.exp(-np.clip(v, -500, 500))))

    return _unary(x, fwd, bwd)


# -- reductions & normalizers ------------------------------------------------

def tsum(x, axis=None, keepdims=False):
    x = as_tensor(x)
    data = x.data.sum(axis=axis, keepdims=keepdims)
    req = x.requires_grad

    def backward(g):
        if axis is not None and not keepdims:
            g = np.expand_dims(g, axis)
        x.accumulate(np.broadcast_to(g, x.shape).copy())

    return Tensor(data, req, (x,), backward if req else None)


def tmean(x, axis=None, keepdims=False):
    x = as_tensor(x)
    if axis is None:
        n = x.size
    elif isinstance(axis, tuple):
        n = int(np.prod([x.shape[a] for a in axis]))
    else:
        n = x.shape[axis]
    return mul(tsum(x, axis=axis, keepdims=keepdims), 1.0 / n)


def log_softmax(x, axis: int = -1):
    x = as_tensor(x)
    shifted = x.data - x.data.max(axis=axis, keepdims=True)
    lse = np.log(np.exp(shifted).sum(axis=axis, keepdims=True))
    out = shifted - lse
    req = x.requires_grad

    def backward(g):
        sm = np.exp(out)
        x.accumulate(g - sm * g.sum(axis=axis, keepdims=True))

    return Tensor(out, req, (x,), backward if req else None)


# -- shape manipulation ------------------------------------------------------

def reshape(x, shape):
    x = as_tensor(x)
    data = x.data.reshape(shape)
    req = x.requires_grad
    orig = x.shape

    def backward(g):
        x.accumulate(g.reshape(orig))

    return Tensor(data, req, (x,), backward if req else None)


def transpose(x, axes):
    x = as_tensor(x)
    inv = np.argsort(axes)
    data = x.data.transpose(axes)
    req = x.requires_grad

    def backward(g):
        x.accumulate(g.transpose(inv))

    return Tensor(data, req, (x,), backward if req else None)


def _is_basic_index(idx) -> bool:
    """Whether idx selects by ints, slices, None and Ellipsis only: such an
    index never picks an element twice."""
    parts = idx if isinstance(idx, tuple) else (idx,)
    return all(p is None or p is Ellipsis or isinstance(p, slice)
               or (isinstance(p, (int, np.integer)) and not isinstance(p, bool))
               for p in parts)


def getitem(x, idx):
    x = as_tensor(x)
    data = x.data[idx]
    req = x.requires_grad
    basic = _is_basic_index(idx)

    def backward(g):
        full = np.zeros_like(x.data)
        if basic:
            full[idx] = g
        else:       # an advanced index may repeat elements
            np.add.at(full, idx, g)
        x.accumulate(full)

    return Tensor(data, req, (x,), backward if req else None)


def concat(tensors: Sequence, axis: int = 0):
    tensors = [as_tensor(t) for t in tensors]
    data = np.concatenate([t.data for t in tensors], axis=axis)
    req = any(t.requires_grad for t in tensors)
    sizes = [t.shape[axis] for t in tensors]
    splits = np.cumsum(sizes)[:-1]

    def backward(g):
        for t, piece in zip(tensors, np.split(g, splits, axis=axis)):
            if t.requires_grad:
                t.accumulate(piece)

    return Tensor(data, req, tuple(tensors), backward if req else None)


def broadcast_to(x, shape):
    x = as_tensor(x)
    data = np.broadcast_to(x.data, shape).copy()
    req = x.requires_grad

    def backward(g):
        x.accumulate(unbroadcast(g, x.shape))

    return Tensor(data, req, (x,), backward if req else None)


# -- gradient checking -------------------------------------------------------

# grad_check's central-difference step, and the relative gap between its two
# one-sided differences above which a coordinate sits on a kink
GRAD_CHECK_EPS = 1e-5
KINK_TOL = 1e-3


def grad_check(f: Callable[[Tensor], Tensor], x: Tensor) -> float:
    """Max relative error between analytic and central-difference gradients.

    ``f`` maps a stack ``[K, *x.shape]`` of inputs to their ``K`` values,
    each row on its own, as the ops do with a stack as one more leading
    axis.  The analytic gradient is one backward of
    ``f(x[None])``.  The unperturbed value and the 2N central-difference
    points (each coordinate moved ``GRAD_CHECK_EPS`` up and down) are one
    stack of 2N + 1 rows, evaluated by a single call under
    :func:`no_grad`.  Coordinates where the two one-sided differences
    disagree by more than ``KINK_TOL`` (relative) sit on a kink of a
    piecewise-smooth function (e.g. relu at 0) and are excluded from the
    max, since a finite difference is meaningless there.
    """
    x = Tensor(x.data.astype(np.float64), requires_grad=True)
    out = _stack_values(f, x[None])
    out.backward()
    analytic = (x.grad if x.grad is not None else np.zeros_like(x.data)).reshape(-1)

    flat = x.data.reshape(-1)
    n = flat.size
    stack = np.tile(flat, (2 * n + 1, 1))
    at = np.arange(n)
    stack[1 + at, at] = flat + GRAD_CHECK_EPS
    stack[1 + n + at, at] = flat - GRAD_CHECK_EPS
    stack = Tensor(stack.reshape(2 * n + 1, *x.shape))
    with no_grad():
        values = _stack_values(f, stack).data
    f0, fp, fm = values[0], values[1:n + 1], values[n + 1:]
    d_plus = (fp - f0) / GRAD_CHECK_EPS
    d_minus = (f0 - fm) / GRAD_CHECK_EPS
    scale = np.maximum(1.0, np.maximum(np.abs(d_plus), np.abs(d_minus)))
    smooth = ~(np.abs(d_plus - d_minus) > KINK_TOL * scale)
    numeric = (fp - fm) / (2 * GRAD_CHECK_EPS)
    denom = np.maximum(1.0, np.maximum(np.abs(analytic), np.abs(numeric)))
    err = np.abs(analytic - numeric) / denom
    return float(err[smooth].max(initial=0.0))


def _stack_values(f, stack: Tensor) -> Tensor:
    """f(stack), which must hold one value per row of the stack."""
    out = f(stack)
    if out.shape != stack.shape[:1]:
        raise ContractError(
            f"grad_check needs f to map a stack of {stack.shape[0]} inputs "
            f"to {stack.shape[0]} values, got shape {out.shape}")
    return out


# -- named-array container ---------------------------------------------------
#
# Binary layout (little-endian throughout):
#   magic "GACT", u32 version, u32 count
#   per array: u16 name length, name (utf-8), u8 dtype tag, u8 ndim,
#              u32 dims..., raw data bytes, u32 CRC-32 (zlib) of the
#              array's record up to it, from the name length on;
#   nothing after the last array.
# Version 1 had no checksums; a version-1 file is rejected by its version.

_MAGIC = b"GACT"
_VERSION = 2
_DTYPE_TAGS = {0: np.dtype("<f8"), 1: np.dtype("<f4"),
               2: np.dtype("<i8"), 3: np.dtype("<u1")}
_TAG_FOR = {np.dtype("float64"): 0, np.dtype("float32"): 1,
            np.dtype("int64"): 2, np.dtype("uint8"): 3}


def save_arrays(path, arrays: dict):
    """Write a name -> ndarray mapping in the checkpoint container format."""
    with open(path, "wb") as fh:
        fh.write(_MAGIC)
        fh.write(struct.pack("<II", _VERSION, len(arrays)))
        for name, arr in arrays.items():
            arr = np.ascontiguousarray(arr)
            if arr.dtype not in _TAG_FOR:
                raise ValueError(f"unsupported dtype {arr.dtype} for {name!r}")
            nb = name.encode("utf-8")
            head = (struct.pack("<H", len(nb)) + nb
                    + struct.pack("<BB", _TAG_FOR[arr.dtype], arr.ndim)
                    + struct.pack(f"<{arr.ndim}I", *arr.shape))
            data = arr.astype(arr.dtype.newbyteorder("<")).tobytes()
            fh.write(head)
            fh.write(data)
            fh.write(struct.pack("<I", zlib.crc32(data, zlib.crc32(head))))


def load_arrays(path) -> dict:
    """Read a container written by :func:`save_arrays`.

    A file that cannot be opened, or is malformed, truncated or corrupted,
    raises a ContainerError naming the path (and the array being read);
    every declared size is checked against the bytes left before it is
    read, and every array against its CRC-32 before it is interpreted.
    """
    try:
        fh = open(path, "rb")
    except OSError as exc:             # missing, a directory, unreadable
        raise ContainerError(f"{path}: cannot read: "
                             f"{exc.strerror or exc}") from None
    with fh:
        size = os.fstat(fh.fileno()).st_size

        def read(n: int, what: str) -> bytes:
            left = size - fh.tell()
            if n > left:
                raise ContainerError(f"{path}: truncated container: {what} "
                                     f"needs {n} bytes, {left} left")
            return fh.read(n)

        if fh.read(4) != _MAGIC:
            raise ContainerError(f"{path}: not a tensor container")
        version, count = struct.unpack("<II", read(8, "header"))
        if version != _VERSION:
            raise ContainerError(f"{path}: unsupported container version "
                                 f"{version}")
        out = {}
        for i in range(count):
            head = read(2, f"array #{i} name length")
            (nlen,) = struct.unpack("<H", head)
            raw = read(nlen, f"array #{i} name")
            head += raw
            try:
                name = raw.decode("utf-8")
            except UnicodeDecodeError:
                raise ContainerError(f"{path}: array #{i} name is not "
                                     f"UTF-8") from None
            raw = read(2, f"array {name!r} header")
            head += raw
            tag, ndim = struct.unpack("<BB", raw)
            raw = read(4 * ndim, f"array {name!r} shape")
            head += raw
            shape = struct.unpack(f"<{ndim}I", raw)
            if tag not in _DTYPE_TAGS:
                raise ContainerError(f"{path}: array {name!r} has unknown "
                                     f"dtype tag {tag}")
            dtype = _DTYPE_TAGS[tag]
            data = read(math.prod(shape) * dtype.itemsize,
                        f"array {name!r} data")
            (crc,) = struct.unpack("<I", read(4, f"array {name!r} checksum"))
            if zlib.crc32(data, zlib.crc32(head)) != crc:
                raise ContainerError(f"{path}: array {name!r} does not match "
                                     f"its CRC-32: the file is corrupted")
            try:
                arr = np.frombuffer(data, dtype=dtype).reshape(shape)
            except ValueError as exc:      # more axes than numpy supports
                raise ContainerError(f"{path}: array {name!r}: "
                                     f"{exc}") from None
            out[name] = arr.astype(dtype.newbyteorder("="))
        if fh.tell() != size:
            raise ContainerError(f"{path}: {size - fh.tell()} bytes after "
                                 f"the last of {count} arrays")
        return out
