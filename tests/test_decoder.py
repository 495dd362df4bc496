"""Box-refining decoder: reference start, tube validity, actor fusion."""

import numpy as np
import pytest

from groundact import tensor as T
from groundact.config import LossWeights, ModelConfig
from groundact.data import ACTIONS, GROUPS, ActorAnnotation, SceneAnnotation
from groundact.decoder import (ActionDecoderParams, BoxHeadParams, box_head,
                               decode)
from groundact.encoder import VLEncoderParams, encode
from groundact.fusion import (ActorFusionParams, ReferenceBoxParams,
                              reference_logits)
from groundact.losses import total_objective
from groundact.tensor import ShapeError, Tensor

import helpers as H


def toy_cfg(**kw):
    base = dict(d_model=8, num_heads=2, d_ff_mult=2, dropout=0.0,
                encoder_layers=0, decoder_layers=2, frames=3,
                grid_h=2, grid_w=2, raster_h=8, raster_w=8,
                l_max=6, num_queries=3)
    base.update(kw)
    return ModelConfig(**base)


def make_rep(rng, cfg, b=1, l=4):
    v = Tensor(rng.normal(size=(b, cfg.frames, cfg.hw, cfg.d_model)))
    t = Tensor(rng.normal(size=(b, l, cfg.d_model)))
    enc_params = VLEncoderParams.init(rng, cfg)
    return encode(v, t, enc_params, cfg, np.ones((b, l), dtype=bool))


def make_all(rng, cfg, b=1):
    rep = make_rep(rng, cfg, b=b)
    dec = ActionDecoderParams.init(rng, cfg)
    fusion = ActorFusionParams.init(rng, cfg)
    ref = ReferenceBoxParams.init(cfg.num_queries)
    return rep, dec, fusion, ref


def test_fresh_box_heads_emit_reference_boxes():
    # zero-initialized final box-head layers leave the tube at the reference
    cfg = toy_cfg()
    rng = np.random.default_rng(0)
    rep, dec, fusion, ref = make_all(rng, cfg)
    out = decode(rep, dec, cfg, fusion, ref)
    for boxes in out.per_layer_boxes:
        np.testing.assert_allclose(
            boxes.data, np.broadcast_to([0.5, 0.5, 0.1, 0.1],
                                        boxes.shape), atol=1e-12)


def test_boxes_stay_in_unit_interval():
    cfg = toy_cfg()
    rng = np.random.default_rng(1)
    rep, dec, fusion, ref = make_all(rng, cfg, b=2)
    # give every box head real output weights
    for layer in dec.layers:
        layer.box_head.w3 = Tensor(rng.normal(size=(cfg.d_model, 4)),
                                   requires_grad=True)
        layer.box_head.b3 = Tensor(rng.normal(size=4), requires_grad=True)
    out = decode(rep, dec, cfg, fusion, ref)
    assert len(out.per_layer_boxes) == cfg.decoder_layers
    for boxes in out.per_layer_boxes:
        assert boxes.shape == (2, cfg.num_queries, cfg.frames, 4)
        assert boxes.data.min() > 0.0 and boxes.data.max() < 1.0
    assert out.final_boxes is out.per_layer_boxes[-1]


def _box_head_inputs(rng, b=2, n=3, t=4, d=8):
    """actors [B, N, 1, d], frame rows [B, 1, T, d] and a box head whose
    every layer, the zero-initialized last one too, has random weights."""
    leaf = lambda *s: Tensor(rng.normal(size=s), requires_grad=True)
    params = BoxHeadParams(leaf(d, d), leaf(d), leaf(d, d), leaf(d),
                           leaf(d, 4), leaf(4))
    return leaf(b, n, 1, d), leaf(b, 1, t, d), params


def _composed_box_head(actors, frame_rows, p):
    """The box head as the decoder once built it, one node per step."""
    h = H.relu(T.linear(T.add(actors, frame_rows), p.w1, p.b1))
    h = H.relu(T.linear(h, p.w2, p.b2))
    return T.linear(h, p.w3, p.b3)


def test_box_head_matches_composed():
    rng = np.random.default_rng(11)
    actors, frame_rows, p = _box_head_inputs(rng)
    inputs = [actors, frame_rows, p.w1, p.b1, p.w2, p.b2, p.w3, p.b3]
    weight = Tensor(rng.normal(size=(2, 3, 4, 4)))
    results = []
    for f in (box_head, _composed_box_head):
        for x in inputs:
            x.zero_grad()
        out = f(actors, frame_rows, p)
        T.tsum(T.mul(out, weight)).backward()
        results.append([out.data] + [x.grad for x in inputs])
    # the first ReLU's mask has entries both ways
    pre = (actors.data + frame_rows.data) @ p.w1.data + p.b1.data
    assert (pre < 0).any() and (pre > 0).any()
    for fused, composed in zip(*results):
        np.testing.assert_array_equal(fused, composed)


def test_box_head_keeps_no_array():
    # the summed input rows and both hidden layers are rebuilt in backward
    actors, frame_rows, p = _box_head_inputs(np.random.default_rng(12))
    assert H.held_array_bytes(lambda: box_head(actors, frame_rows, p)) == 0


def test_box_head_rejects_mismatched_rows():
    actors, frame_rows, p = _box_head_inputs(np.random.default_rng(13))
    with pytest.raises(ShapeError, match="actors"):
        box_head(Tensor(np.zeros((2, 3, 1, 6))), frame_rows, p)
    with pytest.raises(ShapeError, match="broadcast"):
        box_head(actors, Tensor(np.zeros((3, 1, 4, 8))), p)


def test_logit_shapes():
    cfg = toy_cfg()
    rng = np.random.default_rng(2)
    rep, dec, fusion, ref = make_all(rng, cfg, b=2)
    out = decode(rep, dec, cfg, fusion, ref)
    assert out.action_logits.shape == (2, cfg.num_queries, len(ACTIONS))
    assert out.group_logits.shape == (2, len(GROUPS))


def test_zero_decoder_layers_return_the_reference_tube():
    cfg = toy_cfg(decoder_layers=0)
    rng = np.random.default_rng(3)
    rep, dec, fusion, ref = make_all(rng, cfg, b=2)
    ref.offsets.data = rng.normal(0, 0.5, size=ref.offsets.shape)
    out = decode(rep, dec, cfg, fusion, ref)
    assert len(out.per_layer_boxes) == 1
    assert out.group_logits.shape == (2, len(GROUPS))
    n, t = cfg.num_queries, cfg.frames
    logits = np.broadcast_to(reference_logits(ref).data[None, :, None, :],
                             (2, n, t, 4))
    np.testing.assert_array_equal(out.final_boxes.data,
                                  T.sigmoid(Tensor(logits)).data)
    # the loss on the tube trains the reference offsets
    anns = [SceneAnnotation(f"clip{i}", t // 2, [ActorAnnotation(
        0, np.tile([0.3 + 0.2 * i, 0.4, 0.2, 0.3], (t, 1)), [0])], 0)
        for i in range(2)]
    loss, _ = total_objective(out, anns, LossWeights(), keyframe=t // 2)
    loss.backward()
    assert ref.offsets.grad is not None
    assert np.abs(ref.offsets.grad).max() > 0


def test_fusion_off_uses_learned_queries():
    cfg = toy_cfg(use_actor_fusion=False)
    rng = np.random.default_rng(4)
    rep, dec, fusion, ref = make_all(rng, cfg)
    out = decode(rep, dec, cfg, fusion, ref)
    assert out.final_boxes.shape == (1, cfg.num_queries, cfg.frames, 4)
    # learned queries receive gradient through the stack; the config alone
    # keeps the fusion parameters out of the graph
    T.tsum(out.action_logits).backward()
    assert dec.learned_queries.grad is not None
    assert np.abs(dec.learned_queries.grad).max() > 0
    assert fusion.box_proj.grad is None


def test_classifiers_are_rowwise_linear():
    # with no layers the heads read the fused queries and the group token
    cfg = toy_cfg(decoder_layers=0)
    rng = np.random.default_rng(7)
    rep, dec, fusion, ref = make_all(rng, cfg, b=2)
    out = decode(rep, dec, cfg, fusion, ref)
    x = out.actor_embeddings.data
    assert x.shape == (2, cfg.num_queries, cfg.d_model)
    np.testing.assert_allclose(
        out.action_logits.data, x @ dec.action_w.data + dec.action_b.data,
        atol=1e-12)
    g = rep.group.data[:, 0, :]
    np.testing.assert_allclose(
        out.group_logits.data, g @ dec.group_w.data + dec.group_b.data,
        atol=1e-12)


def test_action_head_reads_the_actor_embeddings():
    cfg = toy_cfg()
    rng = np.random.default_rng(10)
    rep, dec, fusion, ref = make_all(rng, cfg, b=2)
    out = decode(rep, dec, cfg, fusion, ref)
    assert out.actor_embeddings.shape == (2, cfg.num_queries, cfg.d_model)
    assert out.action_logits._parents[0] is out.actor_embeddings
    np.testing.assert_array_equal(
        out.action_logits.data,
        T.linear(out.actor_embeddings, dec.action_w, dec.action_b).data)


def test_gradient_flows_to_reference_offsets():
    cfg = toy_cfg()
    rng = np.random.default_rng(8)
    rep, dec, fusion, ref = make_all(rng, cfg)
    out = decode(rep, dec, cfg, fusion, ref)
    # later layers refine detached logits; the first layer's (auxiliary-loss)
    # boxes are the live path back to the reference offsets
    T.tsum(out.per_layer_boxes[0]).backward()
    assert ref.offsets.grad is not None
    assert np.abs(ref.offsets.grad).max() > 0


def test_decode_deterministic():
    cfg = toy_cfg()
    rng = np.random.default_rng(9)
    rep, dec, fusion, ref = make_all(rng, cfg)
    a = decode(rep, dec, cfg, fusion, ref)
    b = decode(rep, dec, cfg, fusion, ref)
    assert (a.final_boxes.data.tobytes() == b.final_boxes.data.tobytes())
    assert (a.group_logits.data.tobytes() == b.group_logits.data.tobytes())
