"""Optimizers and training schedules.

Adam with decoupled weight decay and bias correction, SGD with momentum for
the linear probe, cosine learning-rate schedule with linear warmup, and the
cosine weight-decay ramp.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

import numpy as np

from .config import TrainConfig
from .tensor import Tensor


class OptimizerError(RuntimeError):
    pass


class _Arena:
    """Adam's flat float64 storage: the parameters and both moments, each
    one contiguous array laid out in ``params`` order.  Each parameter's
    ``data`` and moment entries in ``OptimizerState.m`` / ``.v`` are views
    into these arrays."""

    def __init__(self, params: Dict[str, Tensor]):
        self.names = tuple(params)
        self.shapes = tuple(p.data.shape for p in params.values())
        ends = np.cumsum([0] + [p.data.size for p in params.values()])
        self.spans = list(zip(ends[:-1].tolist(), ends[1:].tolist()))
        self.m, self.v = np.zeros(ends[-1]), np.zeros(ends[-1])
        self.theta = None
        self.views = (None,) * len(params)   # parameter arrays handed out

    def fits(self, params: Dict[str, Tensor]) -> bool:
        """Whether ``params`` still have this layout's names and shapes."""
        return (self.names == tuple(params)
                and all(p.data.shape == s
                        for p, s in zip(params.values(), self.shapes)))

    def adopt(self, state: "OptimizerState"):
        """Take over the state's moments, which may cover only some
        parameters; the rest start at zero."""
        for name, shape, (lo, hi) in zip(self.names, self.shapes, self.spans):
            for flat, moments in ((self.m, state.m), (self.v, state.v)):
                if name in moments:
                    flat[lo:hi] = np.reshape(moments[name], -1)
                moments[name] = flat[lo:hi].reshape(shape)

    def gather(self, params: Dict[str, Tensor]) -> np.ndarray:
        """A fresh flat copy of the gradients, zeros where there is none."""
        return np.concatenate([
            np.broadcast_to(0.0, (hi - lo,)) if p.grad is None
            else p.grad.ravel()
            for p, (lo, hi) in zip(params.values(), self.spans)])

    def parameters(self, params: Dict[str, Tensor]) -> np.ndarray:
        """The flat parameters, re-read if any ``data`` was replaced."""
        if any(p.data is not view
               for p, view in zip(params.values(), self.views)):
            self.theta = np.concatenate(
                [p.data.ravel() for p in params.values()], dtype=np.float64)
        return self.theta

    def publish(self, params: Dict[str, Tensor], theta: np.ndarray):
        self.theta = theta
        self.views = tuple(theta[lo:hi].reshape(shape)
                           for shape, (lo, hi) in zip(self.shapes, self.spans))
        for p, view in zip(params.values(), self.views):
            p.data = view


@dataclass
class OptimizerState:
    kind: str                                    # adam | sgd-momentum
    step: int = 0
    m: Dict[str, np.ndarray] = field(default_factory=dict)   # first moments / velocity
    v: Dict[str, np.ndarray] = field(default_factory=dict)   # second moments
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    momentum: float = 0.9
    _arena: Optional[_Arena] = field(default=None, repr=False, compare=False)


def adam_step(params: Dict[str, Tensor], state: OptimizerState,
              lr: float, weight_decay: float = 0.0) -> OptimizerState:
    """Bias-corrected Adam with decoupled weight decay, one vectorized pass
    over the flat arena.  Each parameter's ``data`` is replaced (out of
    place) by a view into a fresh flat array.

    Aborts (raises) without touching any parameter if a gradient is NaN/Inf.
    """
    if lr < 0:
        raise OptimizerError(f"negative learning rate {lr}")
    arena = state._arena
    if arena is None or not arena.fits(params):
        arena = _Arena(params)
    g = arena.gather(params)
    if not np.isfinite(g).all():
        for name, p in params.items():
            if p.grad is not None and not np.isfinite(p.grad).all():
                raise OptimizerError(
                    f"non-finite gradient in {name!r}; step aborted")
    if arena is not state._arena:
        arena.adopt(state)
        state._arena = arena
    theta = arena.parameters(params)
    state.step += 1
    t = state.step
    bc1 = 1.0 - state.beta1 ** t
    bc2 = 1.0 - state.beta2 ** t
    new = np.empty_like(theta)
    for lo in range(0, theta.size, _CHUNK):
        c = slice(lo, lo + _CHUNK)
        _adam_update(g[c], arena.m[c], arena.v[c], theta[c], new[c], state,
                     bc1, bc2, lr, weight_decay)
    arena.publish(params, new)
    return state


# elements per pass of the update: one chunk of each operand stays in cache
_CHUNK = 1 << 15


def _adam_update(g, m, v, theta, new, state: OptimizerState, bc1: float,
                 bc2: float, lr: float, weight_decay: float):
    """Per element, the same operations in the same order as
        m += (1 - beta1) * (g - m);  v += (1 - beta2) * (g * g - v)
        update = (m / bc1) / (sqrt(v / bc2) + eps) [+ weight_decay * theta]
        new = theta - lr * update
    using g and new as the only scratch."""
    np.subtract(g, m, out=new)
    new *= 1 - state.beta1
    m += new
    np.multiply(g, g, out=new)
    new -= v
    new *= 1 - state.beta2
    v += new
    np.divide(v, bc2, out=new)
    np.sqrt(new, out=new)
    new += state.eps
    np.divide(m, bc1, out=g)
    g /= new
    if weight_decay:
        np.multiply(theta, weight_decay, out=new)
        g += new
    g *= lr
    np.subtract(theta, g, out=new)


def sgd_momentum_step(params: Dict[str, Tensor], state: OptimizerState,
                      lr: float, weight_decay: float = 0.0) -> OptimizerState:
    state.step += 1
    for name, p in params.items():
        g = p.grad if p.grad is not None else np.zeros_like(p.data)
        if weight_decay:
            g = g + weight_decay * p.data
        vel = state.m.setdefault(name, np.zeros_like(p.data))
        vel *= state.momentum
        vel += g
        p.data = p.data - lr * vel
    return state


def clip_grad_norm(params: Dict[str, Tensor], max_norm: float) -> float:
    """Global-norm gradient clipping; returns the pre-clip norm."""
    total = 0.0
    for p in params.values():
        if p.grad is not None:
            total += float((p.grad ** 2).sum())
    norm = float(np.sqrt(total))
    if max_norm > 0 and norm > max_norm:
        scale = max_norm / (norm + 1e-12)
        # out of place: a gradient array may be shared by several tensors
        for p in params.values():
            if p.grad is not None:
                p.grad = p.grad * scale
    return norm


def lr_at(step: int, cfg: TrainConfig) -> float:
    """Linear 0 -> peak over warmup, then cosine peak -> 0."""
    if step > cfg.total_steps:
        raise OptimizerError(f"step {step} beyond schedule of {cfg.total_steps}")
    warm = cfg.warmup_steps
    if step < warm:
        return cfg.peak_lr * step / warm
    span = max(cfg.total_steps - warm, 1)
    progress = (step - warm) / span
    return cfg.peak_lr * 0.5 * (1.0 + np.cos(np.pi * progress))


def wd_at(step: int, cfg: TrainConfig) -> float:
    """Cosine interpolation from the start decay to the end decay."""
    progress = min(max(step / max(cfg.total_steps, 1), 0.0), 1.0)
    frac = 0.5 * (1.0 - np.cos(np.pi * progress))
    return (cfg.weight_decay_start
            + (cfg.weight_decay_end - cfg.weight_decay_start) * frac)


def cosine_decay(step: int, total: int, initial: float) -> float:
    """Plain cosine decay initial -> 0 (linear-probe schedule)."""
    progress = min(step / max(total, 1), 1.0)
    return initial * 0.5 * (1.0 + np.cos(np.pi * progress))
