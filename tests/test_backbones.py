"""Tokenizer, frame sampling, and the trainable stub feature extractors."""

import numpy as np
import pytest

from groundact import backbones as bb
from groundact import tensor as T
from groundact.backbones import (DataError, frame_indices, load_vocab,
                                 text_encode, tokenize, visual_encode)
from groundact.config import ModelConfig


def toy_cfg(**kw):
    base = dict(d_model=8, num_heads=2, d_ff_mult=2, dropout=0.0,
                encoder_layers=1, decoder_layers=1, frames=2,
                grid_h=2, grid_w=2, raster_h=8, raster_w=8,
                l_max=6, num_queries=2)
    base.update(kw)
    return ModelConfig(**base)


# -- vocabulary / tokenizer --------------------------------------------------

def test_default_vocab_well_formed():
    vocab = load_vocab()
    assert vocab[0] == "<unk>"
    assert len(vocab) == 64 == bb.VOCAB_SIZE
    assert len(set(vocab)) == len(vocab)
    for action in ("stand", "walk", "run", "wave", "jump", "sit"):
        assert action in vocab


def test_package_loads_under_another_name(monkeypatch):
    # two source trees in one process need distinct package names; no module
    # may reach the package by its literal name "groundact"
    import importlib
    import importlib.util
    import os
    import sys
    root = os.path.dirname(bb.__file__)
    alias, vocab = "groundact_alias", load_vocab()
    spec = importlib.util.spec_from_file_location(
        alias, os.path.join(root, "__init__.py"),
        submodule_search_locations=[root])
    monkeypatch.setitem(sys.modules, "groundact", None)   # unimportable
    try:
        package = importlib.util.module_from_spec(spec)
        sys.modules[alias] = package
        spec.loader.exec_module(package)
        backbones = importlib.import_module(f"{alias}.backbones")
        assert backbones.load_vocab() == vocab
    finally:
        for name in [m for m in sys.modules
                     if m == alias or m.startswith(alias + ".")]:
            del sys.modules[name]


def test_tokenize_known_words():
    vocab = ["<unk>", "walk", "stand"]
    assert tokenize("Walk, stand! walk", vocab) == [1, 2, 1]


def test_tokenize_oov_maps_to_unk():
    vocab = ["<unk>", "walk"]
    assert tokenize("somersault walk", vocab) == [0, 1]


def test_tokenize_truncates_to_l_max():
    vocab = ["<unk>", "a"]
    assert len(tokenize("a " * 30, vocab, l_max=5)) == 5


def test_tokenize_empty_rejected():
    with pytest.raises(DataError):
        tokenize("   ", ["<unk>"])
    with pytest.raises(DataError):
        tokenize("!!!", ["<unk>"])


# -- frame sampling ----------------------------------------------------------

def _sampled(total, t):
    """Frames of a clip whose frame f holds the value f, sampled to t."""
    frames = np.arange(total, dtype=float)[:, None, None, None]
    frames = np.broadcast_to(frames, (total, 4, 4, 1))
    return frames[frame_indices(total, t)]


def test_sample_frames_identity_when_equal():
    np.testing.assert_array_equal(_sampled(8, 8)[:, 0, 0, 0], np.arange(8))


def test_sample_frames_endpoints_included():
    picked = _sampled(16, 4)[:, 0, 0, 0]
    assert picked[0] == 0 and picked[-1] == 15
    np.testing.assert_array_equal(picked, [0, 5, 10, 15])


def test_sample_frames_single():
    out = _sampled(9, 1)
    assert out.shape[0] == 1
    assert out[0, 0, 0, 0] == 0


def test_sample_frames_too_many_rejected():
    with pytest.raises(DataError):
        _sampled(4, 5)


# -- visual stub -------------------------------------------------------------

def test_visual_encode_shapes():
    cfg = toy_cfg()
    rng = np.random.default_rng(0)
    params = bb.VisualStubParams.init(rng, cfg)
    frames = rng.random((3, cfg.frames, cfg.raster_h, cfg.raster_w, 1))
    vf = visual_encode(frames, params, cfg)
    assert vf.shape == (3, cfg.frames, cfg.hw, cfg.d_model)


def test_visual_encode_zero_frames_give_positional_code_only():
    cfg = toy_cfg()
    params = bb.VisualStubParams.init(np.random.default_rng(0), cfg)
    frames = np.zeros((1, cfg.frames, cfg.raster_h, cfg.raster_w, 1))
    vf = visual_encode(frames, params, cfg).data
    # zero pixels -> bias + spatial encoding, identical across frames
    np.testing.assert_array_equal(vf[0, 0], vf[0, 1])
    expected = params.bias.data + params.spatial_pe.data
    np.testing.assert_allclose(vf[0, 0], expected, atol=1e-12)


def test_visual_encode_locality():
    # perturbing one grid cell changes only that cell's feature row
    cfg = toy_cfg()
    rng = np.random.default_rng(1)
    params = bb.VisualStubParams.init(rng, cfg)
    frames = rng.random((1, cfg.frames, cfg.raster_h, cfg.raster_w, 1))
    base = visual_encode(frames, params, cfg).data
    bumped = frames.copy()
    bumped[0, 0, :cfg.patch_h, :cfg.patch_w, 0] += 1.0     # cell (0,0), frame 0
    out = visual_encode(bumped, params, cfg).data
    diff = np.abs(out - base).sum(axis=-1)[0]              # [T, HW]
    assert diff[0, 0] > 1e-6
    diff[0, 0] = 0.0
    assert diff.max() == 0.0


def test_visual_encode_indivisible_raster_rejected():
    cfg = toy_cfg()
    params = bb.VisualStubParams.init(np.random.default_rng(0), cfg)
    with pytest.raises(DataError):
        visual_encode(np.zeros((1, cfg.frames, 9, 8, 1)), params, cfg)


def test_visual_encode_gradient_reaches_projection():
    cfg = toy_cfg()
    rng = np.random.default_rng(2)
    params = bb.VisualStubParams.init(rng, cfg)
    frames = rng.random((1, cfg.frames, cfg.raster_h, cfg.raster_w, 1))
    out = visual_encode(frames, params, cfg)
    T.tsum(T.mul(out, out)).backward()
    assert params.proj.grad is not None and np.abs(params.proj.grad).max() > 0


# -- text stub ---------------------------------------------------------------

def encode_all_real(tokens, params, cfg):
    """The text stub on tokens that are all real (no padding)."""
    return text_encode(tokens, params, cfg, np.ones(tokens.shape, dtype=bool))


def test_text_encode_shapes_and_determinism():
    cfg = toy_cfg()
    params = bb.TextStubParams.init(np.random.default_rng(3), cfg)
    tokens = np.array([[1, 2, 3], [4, 5, 0]])
    a = encode_all_real(tokens, params, cfg).data
    b = encode_all_real(tokens, params, cfg).data
    assert a.shape == (2, 3, cfg.d_model)
    np.testing.assert_array_equal(a, b)


def test_text_encode_token_identity_matters():
    cfg = toy_cfg()
    params = bb.TextStubParams.init(np.random.default_rng(4), cfg)
    a = encode_all_real(np.array([[1, 2]]), params, cfg).data
    b = encode_all_real(np.array([[1, 3]]), params, cfg).data
    assert np.abs(a - b).max() > 1e-6


def test_text_encode_padding_mask_blocks_attention():
    cfg = toy_cfg()
    params = bb.TextStubParams.init(np.random.default_rng(5), cfg)
    tokens = np.array([[1, 2, 0, 0]])
    mask = np.array([[True, True, False, False]])
    masked = text_encode(tokens, params, cfg, mask=mask).data
    trimmed = encode_all_real(np.array([[1, 2]]), params, cfg).data
    np.testing.assert_allclose(masked[0, :2], trimmed[0], atol=1e-9)


def test_text_encode_oov_token_rejected():
    cfg = toy_cfg()
    params = bb.TextStubParams.init(np.random.default_rng(6), cfg)
    assert params.embedding.shape == (len(load_vocab()), cfg.d_model)
    with pytest.raises(DataError):
        encode_all_real(np.array([[bb.VOCAB_SIZE]]), params, cfg)
    with pytest.raises(DataError):
        encode_all_real(np.array([[-1]]), params, cfg)
