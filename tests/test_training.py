"""Training loop, checkpointing, evaluation plumbing, linear probe."""

import copy
import json

import numpy as np
import pytest

from groundact import backbones as bb
from groundact import data as D
from groundact import training as tr
from groundact.config import (ConfigError, ExperimentConfig, ModelConfig,
                              TrainConfig)
from groundact.model import GroundedModel, make_batch, slice_output
from groundact.tensor import Tensor
from groundact.training import (TrainingError, evaluate, linear_probe,
                                load_checkpoint, retrieval_recall,
                                save_checkpoint, train)


def tiny_cfg(**train_kw):
    cfg = ExperimentConfig()
    cfg.model = ModelConfig(d_model=16, num_heads=2, d_ff_mult=2, dropout=0.0,
                            encoder_layers=1, decoder_layers=1, frames=2,
                            grid_h=2, grid_w=2, raster_h=8, raster_w=8,
                            l_max=8, vocab_size=64, num_queries=3)
    defaults = dict(peak_lr=1e-3, warmup_epochs=1, total_epochs=4,
                    steps_per_epoch=4, batch_size=2, seed=0, eval_every=0)
    defaults.update(train_kw)
    cfg.train = TrainConfig(**defaults)
    return cfg


def tiny_corpus(n=4, seed=0):
    return D.generate_corpus(seed=seed, num_clips=n, num_actors=2, t_total=4,
                             raster=(8, 8))


VOCAB = bb.load_vocab()


# -- model plumbing ----------------------------------------------------------

def test_named_parameters_unique_and_trainable():
    model = GroundedModel(tiny_cfg().model, seed=0)
    params = model.named_parameters()
    assert len(params) > 50
    assert all(p.requires_grad for p in params.values())
    # names are hierarchical and stable across calls
    assert set(params) == set(model.named_parameters())


def test_make_batch_pads_and_masks():
    cfg = tiny_cfg().model
    corpus = tiny_corpus()
    clips = [c for c, _ in corpus]
    anns = [a for _, a in corpus]
    prompts = ["walk", "walk stand sit wave"] + [D.prompt_for(a)
                                                 for a in anns[2:]]
    batch = make_batch(clips, prompts, cfg, VOCAB, anns)
    assert batch.tokens.shape == batch.text_mask.shape
    assert batch.text_mask[0].sum() == 1
    assert not batch.text_mask[0, 1:].any()
    # annotations resampled to the model's frame count
    for ann in batch.annotations:
        for a in ann.actors:
            assert a.tube.shape == (cfg.frames, 4)
        assert ann.keyframe == cfg.frames // 2


def test_forward_shapes_and_slice_grads():
    cfg = tiny_cfg()
    corpus = tiny_corpus()
    model = GroundedModel(cfg.model, seed=1)
    batch = make_batch([c for c, _ in corpus],
                       [D.prompt_for(a) for _, a in corpus],
                       cfg.model, VOCAB, [a for _, a in corpus])
    rep, out = model.forward(batch)
    b = len(corpus)
    assert out.final_boxes.shape == (b, cfg.model.num_queries,
                                     cfg.model.frames, 4)
    # a per-sample slice still backpropagates into shared parameters
    from groundact import tensor as T
    T.tsum(slice_output(out, 1).final_boxes).backward()
    grads = [p.grad for p in model.named_parameters().values()
             if p.grad is not None and np.abs(p.grad).max() > 0]
    assert grads


# -- checkpointing -----------------------------------------------------------

def test_checkpoint_round_trip_bit_identical_forward(tmp_path):
    cfg = tiny_cfg()
    corpus = tiny_corpus()
    res = train(cfg, corpus, max_steps=3, vocab=VOCAB)
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, res.model, cfg, step=3, seed=cfg.train.seed)
    loaded, cfg2, opt2, meta = load_checkpoint(path)
    batch = make_batch([c for c, _ in corpus],
                       [D.prompt_for(a) for _, a in corpus],
                       cfg.model, VOCAB, [a for _, a in corpus])
    _, out_a = res.model.forward(batch)
    _, out_b = loaded.forward(batch)
    assert (out_a.final_boxes.data.tobytes()
            == out_b.final_boxes.data.tobytes())
    assert (out_a.group_logits.data.tobytes()
            == out_b.group_logits.data.tobytes())
    assert meta["step"] == 3
    assert cfg2.model.d_model == cfg.model.d_model


def test_checkpoint_preserves_optimizer_state(tmp_path):
    from groundact.optim import OptimizerState
    cfg = tiny_cfg()
    model = GroundedModel(cfg.model, seed=0)
    opt = OptimizerState("adam", step=7)
    name = next(iter(model.named_parameters()))
    opt.m[name] = np.full_like(model.named_parameters()[name].data, 0.25)
    opt.v[name] = np.full_like(model.named_parameters()[name].data, 0.5)
    path = tmp_path / "m.ckpt"
    save_checkpoint(path, model, cfg, opt=opt, step=7)
    _, _, opt2, _ = load_checkpoint(path)
    assert opt2.step == 7
    np.testing.assert_array_equal(opt2.m[name], opt.m[name])
    np.testing.assert_array_equal(opt2.v[name], opt.v[name])


def test_truncated_checkpoint_names_path_and_array(tmp_path):
    cfg = tiny_cfg()
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, GroundedModel(cfg.model, seed=0), cfg)
    data = path.read_bytes()
    path.write_bytes(data[:len(data) // 2])
    with pytest.raises(ValueError, match=r"model\.ckpt: truncated .*array '"):
        load_checkpoint(path)


def test_checkpoint_wrong_shape_rejected(tmp_path):
    cfg = tiny_cfg()
    model = GroundedModel(cfg.model, seed=0)
    state = model.state_arrays()
    name = next(iter(state))
    state[name] = np.zeros((1, 1))
    with pytest.raises(ValueError):
        model.load_state(state)


# -- training loop -----------------------------------------------------------

def test_train_same_seed_bit_identical_logs(tmp_path):
    corpus = tiny_corpus()
    log_a, log_b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    train(tiny_cfg(), corpus, log_path=str(log_a), max_steps=5, vocab=VOCAB)
    train(tiny_cfg(), corpus, log_path=str(log_b), max_steps=5, vocab=VOCAB)
    assert log_a.read_bytes() == log_b.read_bytes()
    rec = json.loads(log_a.read_text().splitlines()[0])
    assert {"step", "loss", "lr", "wd", "grad_norm",
            "l1", "giou", "group_ce", "action_bce"} <= set(rec)


def test_train_different_seed_differs(tmp_path):
    corpus = tiny_corpus()
    log_a, log_b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    train(tiny_cfg(seed=0), corpus, log_path=str(log_a), max_steps=5,
          vocab=VOCAB)
    train(tiny_cfg(seed=1), corpus, log_path=str(log_b), max_steps=5,
          vocab=VOCAB)
    assert log_a.read_bytes() != log_b.read_bytes()


def test_weak_mode_logs_zero_action_bce():
    corpus = tiny_corpus()
    res = train(tiny_cfg(), corpus, mode="weak", max_steps=4, vocab=VOCAB)
    assert res.history
    assert all(rec["action_bce"] == 0.0 for rec in res.history)
    # full mode does pay the action term
    res_full = train(tiny_cfg(), corpus, mode="full", max_steps=4, vocab=VOCAB)
    assert any(rec["action_bce"] > 0.0 for rec in res_full.history)


def test_train_rejects_bad_mode_and_overlong_run():
    corpus = tiny_corpus()
    with pytest.raises(TrainingError):
        train(tiny_cfg(), corpus, mode="semi", vocab=VOCAB)
    with pytest.raises(TrainingError):
        train(tiny_cfg(), corpus, max_steps=10 ** 6, vocab=VOCAB)


def test_train_rejects_more_actors_than_queries_before_step_0(tmp_path):
    corpus = D.generate_corpus(seed=0, num_clips=3, num_actors=3, t_total=4,
                               raster=(8, 8))
    cfg = tiny_cfg()
    cfg.model.num_queries = 2
    log = tmp_path / "log.jsonl"
    with pytest.raises(ConfigError, match="num_queries") as err:
        train(cfg, corpus, log_path=str(log), max_steps=2, vocab=VOCAB)
    assert corpus[0][1].clip_id in str(err.value)
    assert not log.exists()


def test_train_loss_moves():
    corpus = tiny_corpus()
    res = train(tiny_cfg(), corpus, max_steps=10, vocab=VOCAB)
    assert res.initial_loss > 0
    assert res.final_loss != res.initial_loss


# -- evaluation --------------------------------------------------------------

def test_evaluate_emits_sane_metrics_and_records():
    cfg = tiny_cfg()
    corpus = tiny_corpus()
    model = GroundedModel(cfg.model, seed=3)
    ev = evaluate(model, corpus, cfg, VOCAB)
    for v in (ev.group_accuracy, ev.merged_mca, ev.mca, ev.mpca,
              ev.mean_keyframe_iou, *ev.action_prf):
        assert 0.0 <= v <= 1.0
    assert ev.merged_mca >= ev.mca - 1e-12
    assert len(ev.records) == len(corpus)
    for rec in ev.records:
        rec.validate()
        assert len(rec.actors) == cfg.model.num_queries


def test_evaluate_without_decoder_uses_classifier_head():
    cfg = tiny_cfg()
    cfg.model.decoder_layers = 0
    model = GroundedModel(cfg.model, seed=4)
    ev = evaluate(model, tiny_corpus(), cfg, VOCAB)
    assert 0.0 <= ev.group_accuracy <= 1.0


def test_retrieval_recall_bounds():
    cfg = tiny_cfg()
    corpus = tiny_corpus(n=5)
    model = GroundedModel(cfg.model, seed=5)
    rec = retrieval_recall(model, corpus, cfg, VOCAB, ks=(1, 5))
    assert set(rec) == {1, 5}
    assert 0.0 <= rec[1] <= rec[5] <= 1.0


# -- linear probe ------------------------------------------------------------

def test_linear_probe_defaults_match_recipe():
    import inspect
    sig = inspect.signature(linear_probe)
    assert sig.parameters["epochs"].default == 100
    assert sig.parameters["batch_size"].default == 32
    assert sig.parameters["lr"].default == 1e-3
    assert sig.parameters["momentum"].default == 0.9


def test_linear_probe_separates_trivial_clusters():
    rng = np.random.default_rng(0)
    centers = np.eye(3) * 5.0
    labels = np.repeat(np.arange(3), 20)
    emb = centers[labels] + 0.1 * rng.normal(size=(60, 3))
    res = linear_probe(emb, labels, num_classes=3, epochs=40, seed=0)
    assert res.train_accuracy == 1.0
    assert res.weights.shape == (3, 3)


def test_linear_probe_leaves_embeddings_frozen():
    rng = np.random.default_rng(1)
    emb = rng.normal(size=(20, 4))
    before = emb.copy()
    linear_probe(emb, rng.integers(0, 2, size=20), num_classes=2, epochs=5)
    np.testing.assert_array_equal(emb, before)
