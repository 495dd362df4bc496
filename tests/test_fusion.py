"""Actor fusion: box embedding, text pooling, conv refinement, references."""

import numpy as np
import pytest

from groundact import fusion as F
from groundact import tensor as T
from groundact.config import ConfigError, ModelConfig
from groundact.fusion import (ActorBoxSet, ActorFusionParams,
                              ReferenceBoxParams, box_coordinate_encoding,
                              fuse, reference_logits)
from groundact.nn import LayerNormParams
from groundact.tensor import ContractError, Tensor


D = 8


def toy_cfg(**kw):
    base = dict(d_model=D, num_heads=2, dropout=0.0, num_queries=3)
    base.update(kw)
    return ModelConfig(**base)


def k1_params():
    """Identity conv (k=1), so fusion output is exactly the averaged halves."""
    rng = np.random.default_rng(0)
    return ActorFusionParams(
        box_proj=Tensor(rng.normal(size=(4, D)), requires_grad=True),
        box_bias=Tensor(np.zeros(D), requires_grad=True),
        text_norm=LayerNormParams.init(D),
        conv_kernel=Tensor(np.eye(D)[None], requires_grad=True),
        conv_bias=Tensor(np.zeros(D), requires_grad=True))


def boxes(arr):
    return ActorBoxSet(np.asarray(arr, dtype=np.float64))


def real(t_f):
    """A mask marking every text row of t_f [B, L, d] as a real token."""
    return np.ones(t_f.shape[:2], dtype=bool)


# -- coordinate encoding -----------------------------------------------------

def test_coordinate_encoding_shape_and_padding():
    b = np.random.default_rng(1).uniform(0.2, 0.8, size=(2, 3, 4))
    enc8 = box_coordinate_encoding(b, 8)
    assert enc8.shape == (2, 3, 8)
    enc10 = box_coordinate_encoding(b, 10)
    assert enc10.shape == (2, 3, 10)
    np.testing.assert_array_equal(enc10[..., 8:], 0.0)  # zero padding


def test_coordinate_encoding_distinguishes_boxes():
    a = box_coordinate_encoding(np.array([0.2, 0.5, 0.1, 0.1]), 16)
    b = box_coordinate_encoding(np.array([0.7, 0.5, 0.1, 0.1]), 16)
    assert np.abs(a - b).max() > 1e-3


# -- fuse --------------------------------------------------------------------

def test_fuse_identity_kernel_is_averaged_halves():
    p = k1_params()
    rng = np.random.default_rng(2)
    bx = np.array([[[0.3, 0.4, 0.1, 0.2], [0.6, 0.5, 0.2, 0.1]]])
    t_f = Tensor(rng.normal(size=(1, 4, D)))
    out = fuse(boxes(bx), t_f, p, real(t_f)).data

    from groundact.nn import layer_norm
    box_emb = bx[0] @ p.box_proj.data + box_coordinate_encoding(bx[0], D)
    pooled = layer_norm(t_f, p.text_norm).data[0].mean(axis=0)
    np.testing.assert_allclose(out[0], 0.5 * (box_emb + pooled), atol=1e-10)


def test_fuse_identical_boxes_give_identical_rows():
    p = k1_params()
    rng = np.random.default_rng(3)
    bx = np.repeat(np.array([[[0.5, 0.5, 0.2, 0.2]]]), 3, axis=1)
    t_f = Tensor(rng.normal(size=(1, 4, D)))
    out = fuse(boxes(bx), t_f, p, real(t_f)).data
    np.testing.assert_array_equal(out[0, 0], out[0, 1])
    np.testing.assert_array_equal(out[0, 0], out[0, 2])


def test_fuse_actor_permutation_equivariant_with_k1():
    p = k1_params()
    rng = np.random.default_rng(4)
    bx = rng.uniform(0.3, 0.7, size=(1, 4, 4))
    bx[..., 2:] = rng.uniform(0.05, 0.2, size=(1, 4, 2))
    t_f = Tensor(rng.normal(size=(1, 5, D)))
    perm = np.array([2, 0, 3, 1])
    out = fuse(boxes(bx), t_f, p, real(t_f)).data
    out_p = fuse(boxes(bx[:, perm]), t_f, p, real(t_f)).data
    np.testing.assert_allclose(out_p, out[:, perm], atol=1e-12)


def test_fuse_k3_mixes_neighboring_actors():
    cfg = toy_cfg()
    rng = np.random.default_rng(5)
    p = ActorFusionParams.init(rng, cfg)
    # overwrite near-identity kernel with a strongly mixing one
    p.conv_kernel = Tensor(rng.normal(size=(3, D, D)), requires_grad=True)
    bx = rng.uniform(0.3, 0.7, size=(1, 3, 4))
    bx[..., 2:] = 0.1
    t_f = Tensor(rng.normal(size=(1, 4, D)))
    base = fuse(boxes(bx), t_f, p, real(t_f)).data
    moved = bx.copy()
    moved[0, 0, 0] = 0.35                          # nudge actor 0 only
    out = fuse(boxes(moved), t_f, p, real(t_f)).data
    assert np.abs(out[0, 1] - base[0, 1]).max() > 1e-9   # neighbour affected
    assert np.abs(out[0, 2] - base[0, 2]).max() < 1e-9   # two hops away is not


def test_fuse_text_mask_excludes_padding_from_pool():
    p = k1_params()
    rng = np.random.default_rng(6)
    bx = np.array([[[0.5, 0.5, 0.2, 0.2]]])
    t_f = rng.normal(size=(1, 4, D))
    mask = np.array([[True, True, False, False]])
    garbled = t_f.copy()
    garbled[0, 2:] += 50.0
    a = fuse(boxes(bx), Tensor(t_f), p, text_mask=mask).data
    b = fuse(boxes(bx), Tensor(garbled), p, text_mask=mask).data
    np.testing.assert_allclose(a, b, atol=1e-10)


def test_fuse_gradients_reach_all_params():
    cfg = toy_cfg()
    rng = np.random.default_rng(7)
    p = ActorFusionParams.init(rng, cfg)
    bx = rng.uniform(0.3, 0.7, size=(1, 3, 4))
    bx[..., 2:] = 0.1
    t_f = Tensor(rng.normal(size=(1, 4, D)), requires_grad=True)
    out = fuse(boxes(bx), t_f, p, real(t_f))
    T.tsum(T.mul(out, out)).backward()
    for tensor in (p.box_proj, p.conv_kernel, p.conv_bias, t_f):
        assert tensor.grad is not None and np.abs(tensor.grad).max() > 0


# -- validation --------------------------------------------------------------

def test_degenerate_box_rejected():
    with pytest.raises(ContractError):
        boxes([[[0.5, 0.5, 0.0, 0.1]]]).validate()


def test_out_of_range_box_rejected():
    with pytest.raises(ContractError):
        boxes([[[1.2, 0.5, 0.1, 0.1]]]).validate()


def test_empty_actor_set_rejected():
    with pytest.raises(ConfigError):
        ActorBoxSet(np.zeros((1, 0, 4))).validate()


# -- reference boxes ---------------------------------------------------------

def reference_boxes(params: ReferenceBoxParams) -> ActorBoxSet:
    logits = reference_logits(params)
    return ActorBoxSet(boxes=1.0 / (1.0 + np.exp(-logits.data)))


def test_reference_boxes_start_at_shared_center():
    ref = reference_boxes(ReferenceBoxParams.init(5))
    assert ref.boxes.shape == (5, 4)
    np.testing.assert_allclose(ref.boxes,
                               np.tile([0.5, 0.5, 0.1, 0.1], (5, 1)),
                               atol=1e-12)


def test_reference_offsets_shift_in_logit_space():
    params = ReferenceBoxParams.init(2)
    params.offsets.data[1, 0] = 1.0
    ref = reference_boxes(params)
    np.testing.assert_allclose(ref.boxes[0], [0.5, 0.5, 0.1, 0.1], atol=1e-12)
    expected_cx = 1.0 / (1.0 + np.exp(-1.0))       # logit(0.5) + 1
    assert abs(ref.boxes[1, 0] - expected_cx) <= 1e-12


def test_reference_logits_differentiable_in_offsets():
    params = ReferenceBoxParams.init(3)
    T.tsum(T.sigmoid(reference_logits(params))).backward()
    assert params.offsets.grad is not None
    assert np.abs(params.offsets.grad).max() > 0


def test_reference_needs_at_least_one_query():
    with pytest.raises(ConfigError):
        ReferenceBoxParams.init(0)
