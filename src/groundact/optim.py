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


def adam_step(params: Dict[str, Tensor], state: OptimizerState,
              lr: float, weight_decay: float = 0.0) -> OptimizerState:
    """Bias-corrected Adam with decoupled weight decay; mutates params in place.

    Aborts (raises) without touching any parameter if a gradient is NaN/Inf.
    """
    if lr < 0:
        raise OptimizerError(f"negative learning rate {lr}")
    for name, p in params.items():
        g = p.grad
        if g is not None and not np.isfinite(g).all():
            raise OptimizerError(f"non-finite gradient in {name!r}; step aborted")
    state.step += 1
    t = state.step
    bc1 = 1.0 - state.beta1 ** t
    bc2 = 1.0 - state.beta2 ** t
    for name, p in params.items():
        g = p.grad
        if g is None:
            g = np.zeros_like(p.data)
        m = state.m.setdefault(name, np.zeros_like(p.data))
        v = state.v.setdefault(name, np.zeros_like(p.data))
        m += (1 - state.beta1) * (g - m)
        v += (1 - state.beta2) * (g * g - v)
        update = (m / bc1) / (np.sqrt(v / bc2) + state.eps)
        if weight_decay:
            update = update + weight_decay * p.data
        p.data = p.data - lr * update
    return state


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
