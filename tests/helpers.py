"""Shared test helpers.

The reference ops below are graph nodes that the program no longer runs:
the fused kernels replaced them.  They live here, not in groundact.tensor,
because the tests' composed references, against which every fused kernel
is compared, are built from them, one node per step.
:func:`reference_cases` checks each against finite differences.
"""

import gc
import tracemalloc
from typing import Callable

import numpy as np

from groundact import tensor as T
from groundact.tensor import Tensor
from groundact.verify import _row_sums


def rowwise(f1: Callable[[Tensor], Tensor]) -> Callable[[Tensor], Tensor]:
    """Lift a scalar function of one input to the stacked form that
    :func:`T.grad_check` takes: row k of the result is ``f1(stack[k])``."""
    def f(stack: Tensor) -> Tensor:
        return T.concat([T.reshape(f1(stack[k]), (1,))
                         for k in range(stack.shape[0])])
    return f


def held_array_bytes(build: Callable[[], Tensor]) -> int:
    """The bytes of numpy array data that ``build()`` leaves alive besides
    its output's, by tracemalloc in numpy's own domain: for a graph node
    built from inputs that exist already, the arrays its backward keeps.
    Python objects (the node, its closure, the tape's list) do not count."""
    def arrays() -> int:
        snap = tracemalloc.take_snapshot().filter_traces(
            [tracemalloc.DomainFilter(True, np.lib.tracemalloc_domain)])
        return sum(stat.size for stat in snap.statistics("filename"))

    gc.collect()
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    try:
        base = arrays()
        out = build()
        return arrays() - base - out.data.nbytes
    finally:
        if started:
            tracemalloc.stop()


# -- reference ops -----------------------------------------------------------

def div(a, b):
    return T._binary(a, b, lambda x, y: x / y,
                     lambda g, x, y: g / y, lambda g, x, y: -g * x / (y * y))


def maximum(a, b):
    return T._binary(a, b, np.maximum, lambda g, x, y: g * (x >= y),
                     lambda g, x, y: g * (x < y))


def minimum(a, b):
    return T._binary(a, b, np.minimum, lambda g, x, y: g * (x <= y),
                     lambda g, x, y: g * (x > y))


def where(cond: np.ndarray, a, b):
    """Select from two tensors with a constant boolean mask."""
    return T._binary(a, b, lambda x, y: np.where(cond, x, y),
                     lambda g, x, y: g * cond, lambda g, x, y: g * ~cond)


def relu(x):
    return T._unary(x, lambda v: np.maximum(v, 0.0),
                    lambda g, v, out: g * (v > 0))


def tanh(x):
    return T._unary(x, np.tanh, lambda g, v, out: g * (1.0 - out * out))


def sqrt(x):
    return T._unary(x, np.sqrt, lambda g, v, out: g * 0.5 / out)


def absolute(x):
    return T._unary(x, np.abs, lambda g, v, out: g * np.sign(v))


def matmul(a, b):
    return T._binary(a, b, np.matmul,
                     lambda g, x, y: g @ np.swapaxes(y, -1, -2),
                     lambda g, x, y: np.swapaxes(x, -1, -2) @ g)


def softmax(x, axis: int = -1):
    x = T.as_tensor(x)
    shifted = x.data - x.data.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    out = e / e.sum(axis=axis, keepdims=True)
    req = x.requires_grad

    def backward(g):
        dot = (g * out).sum(axis=axis, keepdims=True)
        x.accumulate(out * (g - dot))

    return Tensor(out, req, (x,), backward if req else None)


def gelu(x):
    """tanh-approximated GELU as one node, from the two kernels that
    ``nn.feed_forward_block`` runs; the backward reuses the forward tanh."""
    x = T.as_tensor(x)
    v = x.data
    data, t = T.gelu_forward(v)
    req = x.requires_grad

    def backward(g):
        x.accumulate(g * T.gelu_slope(v, t))

    return Tensor(data, req, (x,), backward if req else None)


def reference_cases(rng: np.random.Generator):
    """(name, function, input) triples for the ops above, in the stacked
    form that :func:`T.grad_check` takes: the stack is one more leading
    axis, and each row of the output is summed to one value."""
    rs = _row_sums
    u = lambda *s: Tensor(rng.uniform(-1, 1, size=s))
    pos = lambda *s: Tensor(rng.uniform(0.1, 1, size=s))
    b, denom, rhs, rhs_b = u(4, 3), pos(4, 3), u(3, 5), u(2, 3, 4)
    return [
        ("div", lambda x: rs(div(x, denom)), u(4, 3)),
        ("matmul", lambda x: rs(matmul(x, rhs)), u(4, 3)),
        ("batched_matmul", lambda x: rs(matmul(x, rhs_b)), u(2, 5, 3)),
        ("maximum", lambda x: rs(maximum(x, b)), u(4, 3)),
        ("minimum", lambda x: rs(minimum(x, b)), u(4, 3)),
        ("gelu", lambda x: rs(gelu(x)), u(4, 3)),
        ("tanh", lambda x: rs(tanh(x)), u(4, 3)),
        ("sqrt", lambda x: rs(sqrt(x)), pos(4, 3)),
        ("abs", lambda x: rs(absolute(x)), u(4, 3)),
        ("softmax", lambda x: rs(T.mul(softmax(x, axis=-1), b)), u(4, 3)),
        ("where", lambda x: rs(where(np.eye(4, 3, dtype=bool), x, b)),
         u(4, 3)),
        ("relu", lambda x: rs(relu(x)), u(4, 3)),
    ]
