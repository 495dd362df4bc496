"""Shared test helpers."""

from typing import Callable

from groundact import tensor as T
from groundact.tensor import Tensor


def rowwise(f1: Callable[[Tensor], Tensor]) -> Callable[[Tensor], Tensor]:
    """Lift a scalar function of one input to the stacked form that
    :func:`T.grad_check` takes: row k of the result is ``f1(stack[k])``."""
    def f(stack: Tensor) -> Tensor:
        return T.concat([T.reshape(f1(stack[k]), (1,))
                         for k in range(stack.shape[0])])
    return f
