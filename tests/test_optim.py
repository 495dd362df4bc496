"""Optimizers, gradient clipping, and training schedules."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from groundact import optim
from groundact import tensor as T
from groundact.config import TrainConfig
from groundact.optim import (OptimizerError, OptimizerState, adam_step,
                             clip_grad_norm, cosine_decay, lr_at,
                             sgd_momentum_step, wd_at)
from groundact.tensor import Tensor


def pset(**arrays):
    out = {}
    for name, (data, grad) in arrays.items():
        t = Tensor(np.asarray(data, dtype=np.float64), requires_grad=True)
        t.grad = None if grad is None else np.asarray(grad, dtype=np.float64)
        out[name] = t
    return out


# -- adam --------------------------------------------------------------------

def test_adam_first_step_is_lr_sized():
    # with any constant nonzero gradient, the bias-corrected first update
    # has magnitude lr / (1 + eps-ish) ~= lr in each coordinate
    params = pset(w=([1.0, -2.0], [0.3, -0.7]))
    adam_step(params, OptimizerState("adam"), lr=0.1)
    np.testing.assert_allclose(params["w"].data, [1.0 - 0.1, -2.0 + 0.1],
                               atol=1e-6)


def test_adam_zero_grad_leaves_params():
    params = pset(w=([1.0, 2.0], None), u=([3.0], [0.0]))
    adam_step(params, OptimizerState("adam"), lr=0.1)
    np.testing.assert_array_equal(params["w"].data, [1.0, 2.0])
    np.testing.assert_array_equal(params["u"].data, [3.0])


def test_adam_identical_params_stay_identical():
    params = pset(a=([0.5, 0.5], [0.2, 0.2]))
    for _ in range(5):
        adam_step(params, OptimizerState("adam"), lr=0.01)
    assert params["a"].data[0] == params["a"].data[1]


def test_adam_decoupled_weight_decay_shrinks_without_grad_scaling():
    params = pset(w=([10.0], [0.0]))
    adam_step(params, OptimizerState("adam"), lr=0.1, weight_decay=0.5)
    # zero gradient: update is purely -lr * wd * w
    np.testing.assert_allclose(params["w"].data, [10.0 - 0.1 * 0.5 * 10.0])


def test_adam_nan_gradient_aborts_untouched():
    params = pset(w=([1.0], [np.nan]), u=([2.0], [0.1]))
    state = OptimizerState("adam")
    with pytest.raises(OptimizerError):
        adam_step(params, state, lr=0.1)
    np.testing.assert_array_equal(params["w"].data, [1.0])
    np.testing.assert_array_equal(params["u"].data, [2.0])
    assert state.step == 0 and not state.m


def test_adam_negative_lr_rejected():
    with pytest.raises(OptimizerError):
        adam_step(pset(w=([1.0], [1.0])), OptimizerState("adam"), lr=-1e-3)


def test_adam_converges_on_quadratic():
    # minimize (w - 3)^2
    w = Tensor(np.array([0.0]), requires_grad=True)
    params = {"w": w}
    state = OptimizerState("adam")
    for _ in range(400):
        w.grad = 2 * (w.data - 3.0)
        adam_step(params, state, lr=0.05)
    assert abs(w.data[0] - 3.0) < 1e-2


def reference_adam(params, state, lr, weight_decay=0.0):
    """Adam one parameter at a time: the reference for the flat update."""
    state.step += 1
    bc1 = 1.0 - state.beta1 ** state.step
    bc2 = 1.0 - state.beta2 ** state.step
    for name, p in params.items():
        g = p.grad if p.grad is not None else np.zeros_like(p.data)
        m = state.m.setdefault(name, np.zeros_like(p.data))
        v = state.v.setdefault(name, np.zeros_like(p.data))
        m += (1 - state.beta1) * (g - m)
        v += (1 - state.beta2) * (g * g - v)
        update = (m / bc1) / (np.sqrt(v / bc2) + state.eps)
        if weight_decay:
            update = update + weight_decay * p.data
        p.data = p.data - lr * update


SHAPES = {"w": (3, 4), "b": (4,), "s": (), "k": (2, 1, 3)}


def twin_params(seed=0):
    rng = np.random.default_rng(seed)
    data = {k: rng.normal(size=s) for k, s in SHAPES.items()}
    return [{k: Tensor(v.copy(), requires_grad=True) for k, v in data.items()}
            for _ in range(2)]


def set_grads(twins, rng, step):
    for k, s in SHAPES.items():
        # "b" has no gradient on odd steps, "s" never has one
        g = None if k == "s" or (k == "b" and step % 2) else rng.normal(size=s)
        for params in twins:
            params[k].grad = None if g is None else g.copy()


def assert_same(flat, ref, flat_state, ref_state):
    for k in SHAPES:
        np.testing.assert_array_equal(flat[k].data, ref[k].data)
        np.testing.assert_array_equal(flat_state.m[k], ref_state.m[k])
        np.testing.assert_array_equal(flat_state.v[k], ref_state.v[k])
    assert flat_state.step == ref_state.step


def test_adam_flat_update_bit_identical_to_per_parameter_loop():
    flat, ref = twin_params()
    flat_state, ref_state = OptimizerState("adam"), OptimizerState("adam")
    rng = np.random.default_rng(1)
    for step in range(20):
        set_grads((flat, ref), rng, step)
        lr, wd = 1e-2 * (1 + step % 3), 0.05 * (step % 4)
        before = {k: (p.data, p.data.copy()) for k, p in flat.items()}
        adam_step(flat, flat_state, lr, wd)
        reference_adam(ref, ref_state, lr, wd)
        assert_same(flat, ref, flat_state, ref_state)
        # out of place: arrays handed out before the step keep their values
        for held, copy in before.values():
            np.testing.assert_array_equal(held, copy)


def test_adam_partial_checkpoint_state_resumes_bit_identically(tmp_path):
    flat, ref = twin_params(2)
    flat_state, ref_state = OptimizerState("adam"), OptimizerState("adam")
    rng = np.random.default_rng(3)
    for step in range(3):
        set_grads((flat, ref), rng, step)
        adam_step(flat, flat_state, 1e-2, 0.1)
        reference_adam(ref, ref_state, 1e-2, 0.1)
    # a checkpoint holding moments for only some parameters
    path = str(tmp_path / "opt.ckpt")
    T.save_arrays(path, {**{f"m/{k}": flat_state.m[k] for k in ("w", "k")},
                         **{f"v/{k}": flat_state.v[k] for k in ("w", "b")}})
    arrays = T.load_arrays(path)
    resumed = [OptimizerState("adam", step=3) for _ in range(2)]
    for state in resumed:
        state.m = {k[2:]: v.copy() for k, v in arrays.items()
                   if k.startswith("m/")}
        state.v = {k[2:]: v.copy() for k, v in arrays.items()
                   if k.startswith("v/")}
    for step in range(3, 8):
        set_grads((flat, ref), rng, step)
        adam_step(flat, resumed[0], 1e-2, 0.1)
        reference_adam(ref, resumed[1], 1e-2, 0.1)
        assert_same(flat, ref, *resumed)


def test_adam_rereads_parameters_replaced_between_steps():
    flat, ref = twin_params(4)
    flat_state, ref_state = OptimizerState("adam"), OptimizerState("adam")
    rng = np.random.default_rng(5)
    for step in range(6):
        if step in (2, 4):
            replaced = rng.normal(size=SHAPES["w"])
            flat["w"].data, ref["w"].data = replaced.copy(), replaced.copy()
        set_grads((flat, ref), rng, step)
        adam_step(flat, flat_state, 1e-2, 0.02)
        reference_adam(ref, ref_state, 1e-2, 0.02)
        assert_same(flat, ref, flat_state, ref_state)


def test_adam_nan_gradient_after_first_step_aborts_untouched():
    params, _ = twin_params(6)
    state = OptimizerState("adam")
    rng = np.random.default_rng(7)
    set_grads((params,), rng, 0)
    adam_step(params, state, 1e-2)
    before = {k: p.data.copy() for k, p in params.items()}
    moments = {k: (state.m[k].copy(), state.v[k].copy()) for k in SHAPES}
    set_grads((params,), rng, 2)
    params["b"].grad[1] = np.inf
    with pytest.raises(OptimizerError, match="'b'"):
        adam_step(params, state, 1e-2)
    assert state.step == 1
    for k, p in params.items():
        np.testing.assert_array_equal(p.data, before[k])
        np.testing.assert_array_equal(state.m[k], moments[k][0])
        np.testing.assert_array_equal(state.v[k], moments[k][1])


# -- sgd momentum ------------------------------------------------------------

def test_sgd_momentum_accumulates_velocity():
    params = pset(w=([0.0], [1.0]))
    state = OptimizerState("sgd-momentum", momentum=0.9)
    sgd_momentum_step(params, state, lr=0.1)
    np.testing.assert_allclose(params["w"].data, [-0.1])
    params["w"].grad = np.array([1.0])
    sgd_momentum_step(params, state, lr=0.1)
    # velocity = 0.9 * 1 + 1 = 1.9
    np.testing.assert_allclose(params["w"].data, [-0.1 - 0.19])


# -- clipping ----------------------------------------------------------------

def test_clip_reports_norm_and_rescales():
    params = pset(a=([0.0, 0.0], [3.0, 0.0]), b=([0.0], [4.0]))
    norm = clip_grad_norm(params, max_norm=1.0)
    assert norm == pytest.approx(5.0)
    total = np.sqrt(sum(float((p.grad ** 2).sum()) for p in params.values()))
    assert total == pytest.approx(1.0)


def test_clip_no_op_below_threshold():
    params = pset(a=([0.0], [0.3]))
    norm = clip_grad_norm(params, max_norm=1.0)
    assert norm == pytest.approx(0.3)
    np.testing.assert_array_equal(params["a"].grad, [0.3])


def test_clip_disabled_when_zero():
    params = pset(a=([0.0], [100.0]))
    clip_grad_norm(params, max_norm=0.0)
    np.testing.assert_array_equal(params["a"].grad, [100.0])


# -- schedules ---------------------------------------------------------------

def test_lr_schedule_endpoints_and_midpoint():
    cfg = TrainConfig()            # peak 5e-4, 5 of 30 epochs warmup
    warm = cfg.warmup_steps
    assert lr_at(0, cfg) == 0.0
    assert lr_at(warm, cfg) == 5e-4
    mid = warm + (cfg.total_steps - warm) // 2
    assert abs(lr_at(mid, cfg) - 2.5e-4) <= 1e-9
    assert lr_at(cfg.total_steps, cfg) == pytest.approx(0.0, abs=1e-12)


def test_lr_warmup_is_linear():
    cfg = TrainConfig()
    warm = cfg.warmup_steps
    for step in range(warm):
        assert lr_at(step, cfg) == pytest.approx(5e-4 * step / warm)


def test_lr_continuous_at_warmup_junction():
    cfg = TrainConfig()
    warm = cfg.warmup_steps
    assert abs(lr_at(warm - 1, cfg) - lr_at(warm, cfg)) < 2 * 5e-4 / warm


def test_lr_beyond_schedule_rejected():
    cfg = TrainConfig()
    with pytest.raises(OptimizerError):
        lr_at(cfg.total_steps + 1, cfg)


def test_wd_schedule_endpoints():
    cfg = TrainConfig()
    assert wd_at(0, cfg) == 0.04
    assert wd_at(cfg.total_steps, cfg) == 0.1
    mid = wd_at(cfg.total_steps // 2, cfg)
    assert 0.04 < mid < 0.1


@settings(deadline=None, max_examples=30)
@given(st.integers(min_value=0, max_value=479))
def test_wd_monotone_nondecreasing(step):
    cfg = TrainConfig()
    assert wd_at(step, cfg) <= wd_at(step + 1, cfg) + 1e-15


@settings(deadline=None, max_examples=30)
@given(st.integers(min_value=0, max_value=99))
def test_probe_decay_monotone(step):
    assert cosine_decay(step, 100, 1e-3) >= cosine_decay(step + 1, 100, 1e-3)
    assert cosine_decay(0, 100, 1e-3) == 1e-3
    assert cosine_decay(100, 100, 1e-3) == pytest.approx(0.0, abs=1e-15)


def test_clip_scales_shared_gradient_arrays_once_each():
    # add passes one gradient array to both parents, so the two parameters'
    # .grad may be the same object; clipping must still scale each once
    a = Tensor(np.array([1.0, -2.0]), requires_grad=True)
    b = Tensor(np.array([0.5, 3.0]), requires_grad=True)
    params = {"a": a, "b": b}

    def loss():
        return T.tsum(T.mul(T.add(a, b), Tensor(np.array([3.0, 4.0]))))

    loss().backward()
    np.testing.assert_array_equal(a.grad, [3.0, 4.0])
    np.testing.assert_array_equal(b.grad, [3.0, 4.0])
    norm = clip_grad_norm(params, max_norm=1.0)
    assert norm == pytest.approx(np.sqrt(50.0))
    scale = 1.0 / (np.sqrt(50.0) + 1e-12)
    np.testing.assert_allclose(a.grad, np.array([3.0, 4.0]) * scale,
                               rtol=1e-15)
    np.testing.assert_allclose(b.grad, np.array([3.0, 4.0]) * scale,
                               rtol=1e-15)

    for p in params.values():
        p.zero_grad()
    loss().backward()
    np.testing.assert_array_equal(a.grad, [3.0, 4.0])
    np.testing.assert_array_equal(b.grad, [3.0, 4.0])
