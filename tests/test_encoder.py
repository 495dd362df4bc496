"""Cross-modal encoder stack: identity base case, equivariances, the
concatenated view."""

import numpy as np
import pytest

from groundact import nn
from groundact import tensor as T
from groundact.config import ModelConfig
from groundact.encoder import VLEncoderParams, encode
from groundact.tensor import ShapeError, Tensor


def toy_cfg(**kw):
    base = dict(d_model=8, num_heads=2, d_ff_mult=2, dropout=0.0,
                encoder_layers=2, decoder_layers=1, frames=3,
                grid_h=2, grid_w=2, raster_h=8, raster_w=8,
                l_max=6, num_queries=2)
    base.update(kw)
    return ModelConfig(**base)


def without_positional(params):
    """Zero the temporal encoding table: adding exact zeros leaves the
    stack frame-permutation equivariant."""
    params.temporal_pe = Tensor(np.zeros_like(params.temporal_pe.data))
    return params


def real(t):
    """A mask marking every text row of t [B, L, d] as a real token."""
    return np.ones(t.shape[:2], dtype=bool)


def rand_inputs(rng, cfg, b=2, l=4):
    v = Tensor(rng.normal(size=(b, cfg.frames, cfg.hw, cfg.d_model)))
    t = Tensor(rng.normal(size=(b, l, cfg.d_model)))
    return v, t


def test_zero_layers_is_identity_concat():
    cfg = toy_cfg(encoder_layers=0)
    rng = np.random.default_rng(0)
    params = without_positional(VLEncoderParams.init(rng, cfg))
    v, t = rand_inputs(rng, cfg)
    rep = encode(v, t, params, cfg, real(t))
    np.testing.assert_array_equal(rep.video.data, v.data)
    np.testing.assert_array_equal(rep.text.data, t.data)
    np.testing.assert_allclose(rep.group.data,
                               np.broadcast_to(params.group_token.data,
                                               (2, 1, cfg.d_model)))


def test_concat_view_layout():
    # one video-side row set, the cells frame-major and then the group token,
    # runs through V2T, T2V and the FFN; zero output projections and a zero
    # fast-branch kernel make the self-attentions and the fast branch exact
    # identities, so the layer is only that
    cfg = toy_cfg(encoder_layers=1)
    rng = np.random.default_rng(1)
    params = without_positional(VLEncoderParams.init(rng, cfg))
    layer = params.layers[0]
    for attn in (layer.text_self_attn, layer.video_temporal_self_attn):
        attn.wo = Tensor(np.zeros_like(attn.wo.data), requires_grad=True)
    params.fast_branch.kernel = Tensor(
        np.zeros_like(params.fast_branch.kernel.data), requires_grad=True)
    v, t = rand_inputs(rng, cfg, b=2, l=4)
    rep = encode(v, t, params, cfg, real(t))

    b, tv, d = 2, cfg.frames * cfg.hw, cfg.d_model
    group = np.broadcast_to(params.group_token.data, (b, 1, d))
    rows = Tensor(np.concatenate([v.data.reshape(b, tv, d), group], axis=1))
    key_mask = np.expand_dims(real(t), -2)
    rows = nn.attention_block(rows, layer.norm_v2t, layer.v2t_cross,
                              nn.layer_norm(t, layer.norm_v2t), key_mask)
    text = nn.attention_block(t, layer.norm_t2v, layer.t2v_cross,
                              nn.layer_norm(rows, layer.norm_t2v))
    rows = nn.feed_forward_block(rows, layer.norm_ffn_video, layer.ffn)
    text = nn.feed_forward_block(text, layer.norm_ffn_text, layer.ffn)
    np.testing.assert_allclose(rep.video.data.reshape(b, tv, d),
                               rows.data[:, :tv], rtol=0, atol=1e-12)
    np.testing.assert_allclose(rep.group.data, rows.data[:, tv:],
                               rtol=0, atol=1e-12)
    np.testing.assert_allclose(rep.text.data, text.data, rtol=0, atol=1e-12)


def test_positional_encoding_varies_frames():
    cfg = toy_cfg(encoder_layers=0)
    rng = np.random.default_rng(2)
    params = VLEncoderParams.init(rng, cfg)
    v = Tensor(np.zeros((1, cfg.frames, cfg.hw, cfg.d_model)))
    t = Tensor(np.zeros((1, 2, cfg.d_model)))
    rep = encode(v, t, params, cfg, real(t))
    # each frame gets its own temporal code, constant across cells
    assert np.abs(rep.video.data[0, 0] - rep.video.data[0, 1]).max() > 1e-6
    for f in range(cfg.frames):
        np.testing.assert_array_equal(rep.video.data[0, f, 0],
                                      rep.video.data[0, f, 1])


def test_shapes_preserved_through_layers():
    cfg = toy_cfg()
    rng = np.random.default_rng(3)
    params = VLEncoderParams.init(rng, cfg)
    v, t = rand_inputs(rng, cfg, b=2, l=5)
    rep = encode(v, t, params, cfg, real(t))
    assert rep.video.shape == v.shape
    assert rep.text.shape == t.shape
    assert rep.group.shape == (2, 1, cfg.d_model)


def test_single_frame_clip_supported():
    cfg = toy_cfg(frames=1)
    rng = np.random.default_rng(4)
    params = VLEncoderParams.init(rng, cfg)
    v, t = rand_inputs(rng, cfg)
    rep = encode(v, t, params, cfg, real(t))
    assert rep.video.shape == v.shape


def test_frame_permutation_equivariance_without_positional():
    cfg = toy_cfg()
    rng = np.random.default_rng(5)
    params = without_positional(VLEncoderParams.init(rng, cfg))
    # a zero temporal conv kernel (the bias starts at zero) adds exact zeros
    params.fast_branch.kernel = Tensor(
        np.zeros_like(params.fast_branch.kernel.data), requires_grad=True)
    v, t = rand_inputs(rng, cfg, b=1)
    perm = np.array([2, 0, 1])
    rep = encode(v, t, params, cfg, real(t))
    rep_p = encode(Tensor(v.data[:, perm]), t, params, cfg, real(t))
    np.testing.assert_allclose(rep_p.video.data, rep.video.data[:, perm],
                               atol=1e-9)
    np.testing.assert_allclose(rep_p.text.data, rep.text.data, atol=1e-9)
    np.testing.assert_allclose(rep_p.group.data, rep.group.data, atol=1e-9)


def test_fast_branch_breaks_frame_permutation_equivariance():
    cfg = toy_cfg()
    rng = np.random.default_rng(6)
    params = without_positional(VLEncoderParams.init(rng, cfg))
    # give the temporal conv kernel real weight so order matters
    params.fast_branch.kernel = Tensor(
        rng.normal(size=params.fast_branch.kernel.shape), requires_grad=True)
    v, t = rand_inputs(rng, cfg, b=1)
    perm = np.array([2, 0, 1])
    rep = encode(v, t, params, cfg, real(t))
    rep_p = encode(Tensor(v.data[:, perm]), t, params, cfg, real(t))
    assert np.abs(rep_p.video.data - rep.video.data[:, perm]).max() > 1e-6


def test_text_padding_rows_do_not_leak():
    cfg = toy_cfg()
    rng = np.random.default_rng(7)
    params = VLEncoderParams.init(rng, cfg)
    v, t = rand_inputs(rng, cfg, b=1, l=5)
    mask = np.array([[True, True, True, False, False]])
    rep = encode(v, t, params, cfg, text_mask=mask)
    garbled = t.data.copy()
    garbled[0, 3:] += 100.0
    rep2 = encode(v, Tensor(garbled), params, cfg, text_mask=mask)
    np.testing.assert_allclose(rep2.video.data, rep.video.data, atol=1e-8)
    np.testing.assert_allclose(rep2.group.data, rep.group.data, atol=1e-8)
    np.testing.assert_allclose(rep2.text.data[0, :3], rep.text.data[0, :3],
                               atol=1e-8)


def test_width_mismatch_rejected():
    cfg = toy_cfg()
    params = VLEncoderParams.init(np.random.default_rng(8), cfg)
    with pytest.raises(ShapeError):
        encode(Tensor(np.zeros((1, 3, 4, 6))), Tensor(np.zeros((1, 2, 6))),
               params, cfg, np.ones((1, 2), dtype=bool))
    with pytest.raises(ShapeError):
        encode(Tensor(np.zeros((3, 4, 8))), Tensor(np.zeros((1, 2, 8))),
               params, cfg, np.ones((1, 2), dtype=bool))


def test_zero_cross_projections_decouple_the_modalities():
    # with V2T's and T2V's output projections zero, each cross-attention
    # adds exact zeros: the video side never sees the text, nor the text
    # side the video, in any layer
    cfg = toy_cfg()
    rng = np.random.default_rng(9)
    params = VLEncoderParams.init(rng, cfg)
    for layer in params.layers:
        for attn in (layer.v2t_cross, layer.t2v_cross):
            attn.wo = Tensor(np.zeros_like(attn.wo.data), requires_grad=True)
    v, t = rand_inputs(rng, cfg, b=1, l=3)
    v2, t2 = rand_inputs(rng, cfg, b=1, l=3)
    mask = np.array([[True, True, False]])
    rep = encode(v, t, params, cfg, mask)
    other_text = encode(v, t2, params, cfg, mask)
    other_video = encode(v2, t, params, cfg, mask)
    np.testing.assert_array_equal(other_text.video.data, rep.video.data)
    np.testing.assert_array_equal(other_text.group.data, rep.group.data)
    np.testing.assert_array_equal(other_video.text.data, rep.text.data)
    assert not np.array_equal(other_video.video.data, rep.video.data)


def test_gradient_reaches_both_modalities_and_group_token():
    cfg = toy_cfg()
    rng = np.random.default_rng(10)
    params = VLEncoderParams.init(rng, cfg)
    v, t = rand_inputs(rng, cfg)
    v.requires_grad = t.requires_grad = True
    rep = encode(v, t, params, cfg, real(t))
    loss = T.add(T.tsum(T.mul(rep.video, rep.video)),
                 T.add(T.tsum(T.mul(rep.text, rep.text)),
                       T.tsum(T.mul(rep.group, rep.group))))
    loss.backward()
    assert np.abs(v.grad).max() > 0
    assert np.abs(t.grad).max() > 0
    assert np.abs(params.group_token.grad).max() > 0


def test_encode_deterministic():
    cfg = toy_cfg()
    rng = np.random.default_rng(11)
    params = VLEncoderParams.init(rng, cfg)
    v, t = rand_inputs(rng, cfg)
    a = encode(v, t, params, cfg, real(t)).video.data
    b = encode(v, t, params, cfg, real(t)).video.data
    assert a.tobytes() == b.tobytes()
