"""Dense tensor engine with reverse-mode automatic differentiation.

Everything downstream (attention blocks, the grounding losses, the training
loop) is built from the operations defined here.  Tensors wrap numpy arrays,
record their parents, and carry a closure implementing the local backward
rule; calling :func:`backward` on a scalar root topologically sorts the graph
and accumulates gradients additively into every ``requires_grad`` leaf.

Double precision is the default everywhere; the finite-difference checker
:func:`grad_check` relies on it.
"""

from __future__ import annotations

import struct
from typing import Callable, Optional, Sequence

import numpy as np


class ShapeError(ValueError):
    """Raised when operand shapes are incompatible."""


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


class Tensor:
    """A value node in the computation graph.

    Tensors that participate in the graph are treated as immutable: ops
    always allocate fresh output arrays and never write into their inputs.
    """

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward",
                 "_backward_run", "name")

    def __init__(self, data, requires_grad: bool = False,
                 _parents: tuple = (), _backward: Optional[Callable] = None,
                 name: str = ""):
        self.data = _as_array(data) if not isinstance(data, np.ndarray) else data
        self.grad: Optional[np.ndarray] = None
        self.requires_grad = requires_grad
        self._parents = _parents
        self._backward = _backward
        self._backward_run = False
        self.name = name

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
        tag = f" name={self.name!r}" if self.name else ""
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad}{tag})"

    def item(self) -> float:
        return float(self.data.reshape(-1)[0])

    def numpy(self) -> np.ndarray:
        return self.data

    def zero_grad(self):
        self.grad = None
        self._backward_run = False

    def accumulate(self, g: np.ndarray):
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

    def backward(self, order: Optional[list] = None):
        """Accumulate d(self)/d(leaf) into every requires_grad leaf.

        ``self`` must be a scalar produced through the graph.  A second call
        without an intervening :meth:`zero_grad` is rejected: gradients are
        accumulated additively, so a silent re-run would double them.

        ``order`` optionally supplies an alternative (valid) topological
        ordering of the graph; gradients do not depend on the choice.
        """
        if self.size != 1:
            raise ContractError(
                f"backward requires a scalar root, got shape {self.shape}")
        if self._backward_run:
            raise ContractError(
                "backward already run on this root; call zero_grad first")
        self._backward_run = True
        if order is None:
            order = self.topo_order()
        self.accumulate(np.ones_like(self.data))
        for node in reversed(order):
            if node._backward is not None and node.grad is not None:
                node._backward(node.grad)

    # -- operator sugar ------------------------------------------------------

    def __add__(self, other):
        return add(self, other)

    def __radd__(self, other):
        return add(other, self)

    def __sub__(self, other):
        return sub(self, other)

    def __rsub__(self, other):
        return sub(other, self)

    def __mul__(self, other):
        return mul(self, other)

    def __rmul__(self, other):
        return mul(other, self)

    def __truediv__(self, other):
        return div(self, other)

    def __neg__(self):
        return mul(self, -1.0)

    def __matmul__(self, other):
        return matmul(self, other)

    def __getitem__(self, idx):
        return getitem(self, idx)

    def reshape(self, *shape):
        return reshape(self, shape)

    def transpose(self, *axes):
        return transpose(self, axes)

    def sum(self, axis=None, keepdims=False):
        return tsum(self, axis=axis, keepdims=keepdims)

    def mean(self, axis=None, keepdims=False):
        return tmean(self, axis=axis, keepdims=keepdims)


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
        if a.requires_grad or a._parents:
            a.accumulate(unbroadcast(bwd_a(g, a.data, b.data), a.shape))
        if b.requires_grad or b._parents:
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


def div(a, b):
    return _binary(a, b, lambda x, y: x / y,
                   lambda g, x, y: g / y, lambda g, x, y: -g * x / (y * y))


def maximum(a, b):
    def bwd_a(g, x, y):
        return g * (x >= y)

    def bwd_b(g, x, y):
        return g * (x < y)

    return _binary(a, b, np.maximum, bwd_a, bwd_b)


def minimum(a, b):
    def bwd_a(g, x, y):
        return g * (x <= y)

    def bwd_b(g, x, y):
        return g * (x > y)

    return _binary(a, b, np.minimum, bwd_a, bwd_b)


def rows(x: np.ndarray) -> np.ndarray:
    """[..., n] -> [rows, n]."""
    return x.reshape(-1, x.shape[-1])


def matmul(a, b):
    a, b = as_tensor(a), as_tensor(b)
    if a.ndim < 2 or b.ndim < 2:
        raise ShapeError(f"matmul needs >=2-d operands, got {a.shape} and {b.shape}")
    if a.shape[-1] != b.shape[-2]:
        raise ShapeError(f"matmul inner dimensions disagree: {a.shape} x {b.shape}")
    data = a.data @ b.data
    req = a.requires_grad or b.requires_grad

    def backward(g):
        if a.requires_grad or a._parents:
            a.accumulate(unbroadcast(g @ np.swapaxes(b.data, -1, -2), a.shape))
        if b.requires_grad or b._parents:
            b.accumulate(unbroadcast(np.swapaxes(a.data, -1, -2) @ g, b.shape))

    return Tensor(data, req, (a, b), backward if req else None)


def linear(x, w, b=None):
    """x @ w + b over the last axis: x [..., n], w [n, m], b [m] or None."""
    x, w = as_tensor(x), as_tensor(w)
    if w.ndim != 2 or x.ndim < 1 or x.shape[-1] != w.shape[0]:
        raise ShapeError(f"linear needs x [..., n] and w [n, m], got "
                         f"{x.shape} and {w.shape}")
    if b is not None:
        b = as_tensor(b)
        if b.shape != w.shape[1:]:
            raise ShapeError(f"linear bias {b.shape} does not match w {w.shape}")
    data = x.data @ w.data
    if b is not None:
        data += b.data
    parents = (x, w) if b is None else (x, w, b)
    req = any(p.requires_grad for p in parents)

    def backward(g):
        g2 = rows(g)
        if x.requires_grad:
            x.accumulate(g @ w.data.T)
        if w.requires_grad:
            w.accumulate(rows(x.data).T @ g2)
        if b is not None and b.requires_grad:
            b.accumulate(g2.sum(axis=0))

    return Tensor(data, req, parents, backward if req else None)


# -- nonlinearities ----------------------------------------------------------

def relu(x):
    return _unary(x, lambda v: np.maximum(v, 0.0),
                  lambda g, v, out: g * (v > 0))


_GELU_C = np.sqrt(2.0 / np.pi)


def gelu(x):
    """tanh-approximated GELU; backward reuses the forward tanh."""
    x = as_tensor(x)
    v = x.data
    t = np.tanh(_GELU_C * (v + 0.044715 * (v * v * v)))
    data = 0.5 * v * (1.0 + t)
    req = x.requires_grad

    def backward(g):
        dinner = _GELU_C * (1.0 + 3 * 0.044715 * (v * v))
        x.accumulate(g * (0.5 * (1.0 + t) + 0.5 * v * (1.0 - t * t) * dinner))

    return Tensor(data, req, (x,), backward if req else None)


def sigmoid(x):
    def fwd(v):
        out = np.empty_like(v)
        pos = v >= 0
        out[pos] = 1.0 / (1.0 + np.exp(-v[pos]))
        ev = np.exp(v[~pos])
        out[~pos] = ev / (1.0 + ev)
        return out

    return _unary(x, fwd, lambda g, v, out: g * out * (1.0 - out))


def tanh(x):
    return _unary(x, np.tanh, lambda g, v, out: g * (1.0 - out * out))


def exp(x):
    return _unary(x, np.exp, lambda g, v, out: g * out)


def log(x):
    return _unary(x, np.log, lambda g, v, out: g / v)


def sqrt(x):
    return _unary(x, np.sqrt, lambda g, v, out: g * 0.5 / out)


def absolute(x):
    return _unary(x, np.abs, lambda g, v, out: g * np.sign(v))


def softplus(x):
    # log(1 + e^x), computed without overflow
    def fwd(v):
        return np.maximum(v, 0.0) + np.log1p(np.exp(-np.abs(v)))

    def bwd(g, v, out):
        return g * (1.0 / (1.0 + np.exp(-np.clip(v, -500, 500))))

    return _unary(x, fwd, bwd)


def clip(x, lo, hi):
    """Clamp values; gradient is zero outside [lo, hi]."""
    return _unary(x, lambda v: np.clip(v, lo, hi),
                  lambda g, v, out: g * ((v >= lo) & (v <= hi)))


def where(cond: np.ndarray, a, b):
    """Select from two tensors with a constant boolean mask."""
    def bwd_a(g, x, y):
        return g * cond

    def bwd_b(g, x, y):
        return g * ~cond

    return _binary(a, b, lambda x, y: np.where(cond, x, y), bwd_a, bwd_b)


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


def softmax(x, axis: int = -1):
    x = as_tensor(x)
    if not (-x.ndim <= axis < x.ndim):
        raise ShapeError(f"softmax axis {axis} invalid for shape {x.shape}")
    shifted = x.data - x.data.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    out = e / e.sum(axis=axis, keepdims=True)
    req = x.requires_grad

    def backward(g):
        dot = (g * out).sum(axis=axis, keepdims=True)
        x.accumulate(out * (g - dot))

    return Tensor(out, req, (x,), backward if req else None)


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
    if isinstance(shape, int):
        shape = (shape,)
    if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
        shape = tuple(shape[0])
    data = x.data.reshape(shape)
    req = x.requires_grad
    orig = x.shape

    def backward(g):
        x.accumulate(g.reshape(orig))

    return Tensor(data, req, (x,), backward if req else None)


def transpose(x, axes):
    x = as_tensor(x)
    if len(axes) == 1 and isinstance(axes[0], (tuple, list)):
        axes = tuple(axes[0])
    inv = np.argsort(axes)
    data = x.data.transpose(axes)
    req = x.requires_grad

    def backward(g):
        x.accumulate(g.transpose(inv))

    return Tensor(data, req, (x,), backward if req else None)


def getitem(x, idx):
    x = as_tensor(x)
    data = x.data[idx]
    req = x.requires_grad

    def backward(g):
        full = np.zeros_like(x.data)
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
            if t.requires_grad or t._parents:
                t.accumulate(piece)

    return Tensor(data, req, tuple(tensors), backward if req else None)


def stack(tensors: Sequence, axis: int = 0):
    expanded = [reshape(as_tensor(t),
                        t.shape[:axis] + (1,) + t.shape[axis:])
                for t in tensors]
    return concat(expanded, axis=axis)


def broadcast_to(x, shape):
    x = as_tensor(x)
    data = np.broadcast_to(x.data, shape).copy()
    req = x.requires_grad

    def backward(g):
        x.accumulate(unbroadcast(g, x.shape))

    return Tensor(data, req, (x,), backward if req else None)


# -- gradient checking -------------------------------------------------------

def grad_check(f: Callable[[Tensor], Tensor], x: Tensor,
               eps: float = 1e-5, kink_tol: float = 1e-3) -> float:
    """Max relative error between analytic and central-difference gradients.

    ``f`` must be scalar-valued.  Coordinates where the two one-sided
    differences disagree by more than ``kink_tol`` (relative) sit on a kink
    of a piecewise-smooth function (e.g. relu at 0) and are excluded from
    the max, since a finite difference is meaningless there.
    """
    if not (1e-7 <= eps <= 1e-3):
        raise ValueError(f"eps {eps} outside [1e-7, 1e-3]")
    x = Tensor(x.data.astype(np.float64), requires_grad=True)
    out = f(x)
    if out.size != 1:
        raise ContractError(f"grad_check needs scalar f, got shape {out.shape}")
    out.backward()
    analytic = (x.grad if x.grad is not None else np.zeros_like(x.data)).reshape(-1)

    flat = x.data.reshape(-1)
    f0 = out.item()
    max_err = 0.0
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + eps
        fp = f(Tensor(x.data.copy())).item()
        flat[i] = orig - eps
        fm = f(Tensor(x.data.copy())).item()
        flat[i] = orig
        d_plus = (fp - f0) / eps
        d_minus = (f0 - fm) / eps
        scale = max(1.0, abs(d_plus), abs(d_minus))
        if abs(d_plus - d_minus) > kink_tol * scale:
            continue  # non-comparable kink coordinate
        numeric = (fp - fm) / (2 * eps)
        denom = max(1.0, abs(analytic[i]), abs(numeric))
        max_err = max(max_err, abs(analytic[i] - numeric) / denom)
    return max_err


# -- named-array container ---------------------------------------------------
#
# Binary layout (little-endian throughout):
#   magic "GACT", u32 version, u32 count
#   per array: u16 name length, name (utf-8), u8 dtype tag, u8 ndim,
#              u32 dims..., raw data bytes.

_MAGIC = b"GACT"
_VERSION = 1
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
            fh.write(struct.pack("<H", len(nb)))
            fh.write(nb)
            fh.write(struct.pack("<BB", _TAG_FOR[arr.dtype], arr.ndim))
            fh.write(struct.pack(f"<{arr.ndim}I", *arr.shape))
            fh.write(arr.astype(arr.dtype.newbyteorder("<")).tobytes())


def load_arrays(path) -> dict:
    """Read a container written by :func:`save_arrays`.

    A malformed or truncated file raises ValueError naming the path and the
    array being read.
    """
    with open(path, "rb") as fh:
        def read(n: int, what: str) -> bytes:
            buf = fh.read(n)
            if len(buf) != n:
                raise ValueError(f"{path}: truncated container: {what} needs "
                                 f"{n} bytes, {len(buf)} left")
            return buf

        if fh.read(4) != _MAGIC:
            raise ValueError(f"{path}: not a tensor container")
        version, count = struct.unpack("<II", read(8, "header"))
        if version != _VERSION:
            raise ValueError(f"{path}: unsupported container version {version}")
        out = {}
        for i in range(count):
            (nlen,) = struct.unpack("<H", read(2, f"array #{i} name length"))
            name = read(nlen, f"array #{i} name").decode("utf-8")
            tag, ndim = struct.unpack("<BB", read(2, f"array {name!r} header"))
            shape = struct.unpack(f"<{ndim}I",
                                  read(4 * ndim, f"array {name!r} shape"))
            if tag not in _DTYPE_TAGS:
                raise ValueError(f"{path}: array {name!r} has unknown dtype "
                                 f"tag {tag}")
            dtype = _DTYPE_TAGS[tag]
            nbytes = int(np.prod(shape, dtype=np.int64)) * dtype.itemsize
            arr = np.frombuffer(read(nbytes, f"array {name!r} data"),
                                dtype=dtype).reshape(shape)
            out[name] = arr.astype(dtype.newbyteorder("="))
        return out
