"""Training loop, checkpointing, evaluation plumbing, linear probe."""

import ctypes
import dataclasses
import json
from collections import Counter

import numpy as np
import pytest

from groundact import backbones as bb
from groundact import data as D
from groundact import metrics as M
from groundact import training as tr
from groundact.config import (ConfigError, ExperimentConfig, ModelConfig,
                              TrainConfig, config_text)
from groundact.model import GroundedModel, make_batch
from groundact.tensor import ContainerError, load_arrays, save_arrays
from groundact.training import (TrainingError, evaluate, linear_probe,
                                load_checkpoint, retrieval_recall,
                                save_checkpoint, train)

import helpers as H


def tiny_cfg(**train_kw):
    cfg = ExperimentConfig()
    cfg.model = ModelConfig(d_model=16, num_heads=2, d_ff_mult=2, dropout=0.0,
                            encoder_layers=1, decoder_layers=1, frames=2,
                            grid_h=2, grid_w=2, raster_h=8, raster_w=8,
                            l_max=8, num_queries=3)
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


def test_parameter_dict_built_once_keeps_tensors_through_load_state():
    model = GroundedModel(tiny_cfg().model, seed=0)
    before = model.named_parameters()
    model.load_state({k: np.full(v.shape, 0.5)
                      for k, v in model.state_arrays().items()})
    after = model.named_parameters()
    assert all(after[k] is p for k, p in before.items())
    assert all((p.data == 0.5).all() for p in before.values())
    for p in after.values():
        p.grad = np.ones(p.shape)
    model.zero_grad()
    assert all(p.grad is None for p in before.values())
    after.clear()          # callers get a copy of the dict
    assert model.named_parameters().keys() == before.keys()


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


@pytest.mark.parametrize("frames", [3, 4])
def test_sampled_tubes_frame_the_sampled_pixels(frames):
    # one actor per clip: its box is the bounding box of the nonzero pixels
    corpus = D.generate_corpus(seed=3, num_clips=4, num_actors=1, t_total=8,
                               motion_pool=("linear", "oscillate"))
    cfg = ModelConfig(frames=frames)
    batch = make_batch([c for c, _ in corpus], ["walk"] * len(corpus), cfg,
                       VOCAB, [a for _, a in corpus])
    h, w = batch.frames.shape[2:4]
    for clip_frames, ann in zip(batch.frames, batch.annotations):
        for f, box in enumerate(ann.actors[0].tube):
            ys, xs = np.nonzero(clip_frames[f, :, :, 0])
            fitted = [(xs.min() + xs.max() + 1) / (2 * w),
                      (ys.min() + ys.max() + 1) / (2 * h),
                      (xs.max() + 1 - xs.min()) / w,
                      (ys.max() + 1 - ys.min()) / h]
            assert fitted == box.tolist()


def test_make_batch_samples_each_clip_at_its_own_length():
    # clips of two lengths in one batch; the per-clip rules of frame_indices
    # and tokenize, and a copy of each annotation with sampled tubes
    cfg = tiny_cfg().model
    corpus = (tiny_corpus(n=2) + D.generate_corpus(
        seed=1, num_clips=2, num_actors=2, t_total=6, raster=(8, 8)))
    clips, anns = [c for c, _ in corpus], [a for _, a in corpus]
    prompts = [D.prompt_for(a) for a in anns]
    batch = make_batch(clips, prompts, cfg, VOCAB, anns)
    for i, (clip, ann) in enumerate(corpus):
        idx = bb.frame_indices(clip.frames.shape[0], cfg.frames)
        np.testing.assert_array_equal(batch.frames[i], clip.frames[idx])
        tokens = bb.tokenize(prompts[i], VOCAB, cfg.l_max)
        assert batch.tokens[i, :len(tokens)].tolist() == tokens
        assert batch.text_mask[i].sum() == len(tokens)
        got = batch.annotations[i]
        assert (got.clip_id, got.group_activity, got.weak, got.keyframe) == (
            ann.clip_id, ann.group_activity, ann.weak, cfg.frames // 2)
        for a, b in zip(got.actors, ann.actors):
            assert (a.track_id, a.actions) == (b.track_id, b.actions)
            np.testing.assert_array_equal(a.tube, b.tube[idx])
        assert ann.actors[0].tube.shape[0] == clip.frames.shape[0]


def test_tokenize_by_index_is_tokenize_by_word_list():
    index = bb.vocab_index(VOCAB)
    for prompt in ("walk", "Walk, stand! somersault", "a " * 30):
        assert (bb.tokenize(prompt, index, 5)
                == bb.tokenize(prompt, VOCAB, 5))


def test_make_batch_rejects_a_tube_of_another_length():
    from dataclasses import replace
    corpus = tiny_corpus(n=2)
    clip, ann = corpus[1]
    short = replace(ann, actors=[replace(ann.actors[0],
                                         tube=ann.actors[0].tube[:2])]
                    + ann.actors[1:])
    with pytest.raises(bb.DataError, match=rf"clip '{clip.clip_id}': track "
                       rf"{ann.actors[0].track_id} has 2 boxes, but the clip "
                       rf"has 4 frames"):
        make_batch([c for c, _ in corpus], ["walk", "walk"], tiny_cfg().model,
                   VOCAB, [corpus[0][1], short])


def test_empty_clip_list_is_a_data_error():
    # an empty corpus or split fails at the batch, not inside numpy
    cfg = tiny_cfg()
    with pytest.raises(bb.DataError, match="no clips to batch"):
        make_batch([], [], cfg.model, VOCAB, [])
    with pytest.raises(bb.DataError, match="no clips to batch"):
        train(cfg, [], max_steps=1, vocab=VOCAB)
    with pytest.raises(bb.DataError, match="no clips to batch"):
        evaluate(GroundedModel(cfg.model, seed=0), [], cfg, VOCAB)


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
    T.tsum(out.final_boxes[1:2]).backward()
    grads = [p.grad for p in model.named_parameters().values()
             if p.grad is not None and np.abs(p.grad).max() > 0]
    assert grads


def test_batched_forward_equals_per_clip_forwards():
    cfg = tiny_cfg().model
    cfg.encoder_layers = cfg.decoder_layers = 2
    corpus = tiny_corpus(n=4, seed=3)
    clips = [c for c, _ in corpus]
    anns = [a for _, a in corpus]
    # prompts of different lengths, so the batch pads and masks the text
    prompts = ["walk", "walk stand sit wave", D.prompt_for(anns[2]), "sit"]
    model = GroundedModel(cfg, seed=3)
    _, batched = model.forward(make_batch(clips, prompts, cfg, VOCAB, anns))
    for i in range(len(corpus)):
        _, single = model.forward(make_batch(clips[i:i + 1], prompts[i:i + 1],
                                             cfg, VOCAB, anns[i:i + 1]))
        pairs = list(zip(batched.per_layer_boxes, single.per_layer_boxes))
        pairs += [(batched.actor_embeddings, single.actor_embeddings),
                  (batched.action_logits, single.action_logits),
                  (batched.group_logits, single.group_logits)]
        for a, b in pairs:
            np.testing.assert_allclose(a.data[i:i + 1], b.data, rtol=0,
                                       atol=1e-12)


def test_training_step_graph_node_count():
    # pinned at 2 encoder and 2 decoder layers; the count does not depend on
    # the widths, so it reads the same as the acceptance overfit config.  The
    # encoder runs one FFN over the video cells and the group token together,
    # the decoder builds its temporal keys and frame rows once, and every
    # attention sublayer is one pre-norm residual node: 3 self-attentions
    # and V2T/T2V per encoder layer, actor self-attention and two
    # cross-attentions per decoder layer, and the text stub's self-attention.
    # Each decoder layer's box loss is one node of per-clip values and one
    # tsum over them, and its box head one node over the actor rows and the
    # frame rows: 5 fewer per layer than the add, 3 linears and 2 relus it
    # replaced, 324 -> 314.  Nodes are keyed by their backward closure's
    # qualname
    cfg = tiny_cfg()
    cfg.model.encoder_layers = cfg.model.decoder_layers = 2
    corpus = tiny_corpus()
    model = GroundedModel(cfg.model, seed=0)
    anns = [a for _, a in corpus]
    batch = make_batch([c for c, _ in corpus], [D.prompt_for(a) for a in anns],
                       cfg.model, VOCAB, anns)
    _, out = model.forward(batch)
    loss, _ = tr.batch_objective(out, batch, cfg, model.keyframe(), False)
    nodes = loss.topo_order()
    assert len(nodes) == 314
    kinds = Counter(n._backward.__qualname__.split(".")[0] for n in nodes
                    if n._backward is not None)
    assert {k: n for k, n in kinds.items() if "attention" in k} == {
        "attention_block": 17}


def _dfs_order_backward(root):
    """Reference backward in the depth-first order of ``topo_order``."""
    root.accumulate(np.ones_like(root.data))
    for node in reversed(root.topo_order()):
        if node._backward is not None and node.grad is not None:
            node._backward(node.grad)


def test_tape_order_gradients_equal_dfs_order_on_a_model_step():
    from groundact.nn import RunContext
    cfg = tiny_cfg()
    cfg.model.dropout = 0.1
    corpus = tiny_corpus(n=4)
    model = GroundedModel(cfg.model, seed=4)
    batch = make_batch([c for c, _ in corpus],
                       [D.prompt_for(a) for _, a in corpus],
                       cfg.model, VOCAB, [a for _, a in corpus])
    grads = []
    for backward in (lambda loss: loss.backward(), _dfs_order_backward):
        model.zero_grad()
        ctx = RunContext(training=True, rng=np.random.default_rng(0))
        _, out = model.forward(batch, ctx)
        loss, _ = tr.batch_objective(out, batch, cfg, model.keyframe(), False)
        backward(loss)
        grads.append({k: p.grad.copy()
                      for k, p in model.named_parameters().items()
                      if p.grad is not None})
    tape, dfs = grads
    assert tape.keys() == dfs.keys() and len(tape) > 50
    for k in dfs:
        scale = np.abs(dfs[k]).max()
        assert np.abs(tape[k] - dfs[k]).max() <= 1e-12 * scale, k


def _tiny_step():
    cfg = tiny_cfg()
    corpus = tiny_corpus()
    model = GroundedModel(cfg.model, seed=0)
    anns = [a for _, a in corpus]
    batch = make_batch([c for c, _ in corpus], [D.prompt_for(a) for a in anns],
                       cfg.model, VOCAB, anns)
    return cfg, model, batch


def test_a_model_step_holds_its_pinned_graph_bytes():
    # The numpy bytes one forward + loss holds before backward: every node's
    # output and what each rule keeps, byte for byte, so that a change which
    # keeps one more intermediate fails.  The fused nodes keep row means and
    # stds, softmax weights, the FFN pre-activation and no box-head layer,
    # and box_loss keeps nothing; when box_loss kept its gIoU geometry, this
    # read 144088
    cfg, model, batch = _tiny_step()

    def build():
        _, out = model.forward(batch)
        return tr.batch_objective(out, batch, cfg, model.keyframe(), False)[0]

    assert H.held_array_bytes(build) == 141144


def test_backward_frees_the_saved_values_of_a_model_step():
    # With out and loss still bound, the graph's saved values must be gone
    # after backward: what stays live in numpy's domain is the outputs' own
    # data and the parameter gradients, within 1 KiB (measured at this
    # config: 512 bytes, the group token's row beside the actor
    # embeddings, a view of the decoder's last activations).  When every
    # node kept its rule after the walk, 255640 bytes more stayed.
    import gc
    import tracemalloc
    cfg, model, batch = _tiny_step()
    gc.collect()
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    try:
        base = H.array_bytes()
        out = model.forward(batch)[1]
        loss, _ = tr.batch_objective(out, batch, cfg, model.keyframe(), False)
        model.zero_grad()
        loss.backward()
        after_backward = H.array_bytes() - base
    finally:
        if started:
            tracemalloc.stop()
    outputs = sum(t.data.nbytes for t in (*out.per_layer_boxes,
                                          out.actor_embeddings,
                                          out.action_logits, out.group_logits,
                                          loss))
    grads = sum(8 * p.size for p in model.named_parameters().values())
    assert abs(after_backward - (outputs + grads)) <= 1024, (
        after_backward, outputs, grads)


def _has_mallopt() -> bool:
    try:
        ctypes.CDLL(None).mallopt
    except (OSError, AttributeError):
        return False
    return True


@pytest.mark.skipif(not _has_mallopt(), reason="the C library has no mallopt")
def test_train_steps_keep_their_heap_pages():
    # Backward frees the graph and rebuilds values as it goes; unless malloc
    # keeps the heap's top, it trims it after each step and the next forward
    # faults the pages back in: ~1500 minor faults per overfit step
    code = (
        "import resource, sys\n"
        "from groundact import experiments as E, training\n"
        "faults, adam = [], training.adam_step\n"
        "def step(*args):\n"
        "    adam(*args)\n"
        "    faults.append(resource.getrusage(resource.RUSAGE_SELF)"
        ".ru_minflt)\n"
        "training.adam_step = step\n"
        "training.train(E.overfit_config(), E.overfit_corpus(), "
        "max_steps=13)\n"
        "print((faults[12] - faults[2]) / 10)\n")
    run = H.run_python("-c", code, timeout=300)
    assert run.returncode == 0, run.stderr
    # 3 warm-up steps, then 10 steps
    assert float(run.stdout) < 100


def test_backward_leaves_no_interior_node_alive_but_the_outputs():
    import weakref
    cfg, model, batch = _tiny_step()
    _, out = model.forward(batch)
    loss, _ = tr.batch_objective(out, batch, cfg, model.keyframe(), False)
    own = {id(x) for x in (*out.per_layer_boxes, out.actor_embeddings,
                           out.action_logits, out.group_logits, loss)}
    refs = [weakref.ref(n) for n in loss.topo_order()
            if n._backward is not None and id(n) not in own]
    assert len(refs) > 50
    model.zero_grad()
    loss.backward()
    alive = sum(r() is not None for r in refs)
    assert alive == 0, f"{alive} of {len(refs)} interior nodes alive"
    # the outputs keep their values, and nothing below them
    assert loss._parents == () and out.final_boxes._parents == ()
    assert np.isfinite(out.final_boxes.data).all()


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
    assert cfg2 == cfg


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


def test_byte_mutated_checkpoints_fail_naming_the_path(tmp_path):
    # every array carries a CRC-32, so no single changed byte loads: without
    # it 162 of these 300 copies loaded with silently changed weights
    cfg = tiny_cfg()
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, GroundedModel(cfg.model, seed=0), cfg)
    data = path.read_bytes()
    rng = np.random.default_rng(24)
    for at, flip in zip(rng.integers(0, len(data), 300),
                        rng.integers(1, 256, 300)):
        bad = bytearray(data)
        bad[at] ^= flip
        path.write_bytes(bad)
        with pytest.raises((ValueError, TrainingError)) as err:
            load_checkpoint(path)
        assert str(path) in str(err.value), (at, flip, err.value)


def _rewrite_meta(path, meta_bytes):
    cfg = tiny_cfg()
    save_checkpoint(path, GroundedModel(cfg.model, seed=0), cfg)
    arrays = load_arrays(path)
    arrays["__meta__"] = np.frombuffer(meta_bytes, dtype=np.uint8).copy()
    save_arrays(path, arrays)


@pytest.mark.parametrize("meta_bytes", [
    b'{"format_\xffversion": 3}', b'{"format_version": 3', b'', b'[3]',
    b'"text"', b'{}', b'{"format_version": 3}'],
    ids=["0xff_byte", "bad_json", "empty", "json_list", "json_string",
         "empty_object", "no_config"])
def test_malformed_checkpoint_meta_names_path(tmp_path, meta_bytes):
    path = tmp_path / "model.ckpt"
    _rewrite_meta(path, meta_bytes)
    with pytest.raises(ValueError, match="checkpoint meta is not a UTF-8 JSON "
                                         "object with format_version and "
                                         "config") as err:
        load_checkpoint(path)
    assert str(err.value).startswith(f"{path}: ")


def _older_checkpoint(path, version, model_keys, loss_keys=None):
    """Write a checkpoint whose meta claims ``version`` and stores its config
    as formats 1 to 4 did, a dict of section dicts, here with keys this
    build does not know."""
    cfg = tiny_cfg()
    save_checkpoint(path, GroundedModel(cfg.model, seed=0), cfg)
    config = dataclasses.asdict(cfg)
    config["model"].update(model_keys)
    config["loss"].update(loss_keys or {})
    H.edit_checkpoint_meta(path, format_version=version, config=config)


def test_version_1_checkpoint_rejected_by_version(tmp_path):
    # a format-1 file holds a parameter and a [model] key that format 2 does
    # not know, so the version check must run before the config is parsed
    path = tmp_path / "v1.ckpt"
    _older_checkpoint(path, 1, {"retired_option": False})
    arrays = load_arrays(path)
    arrays["param/decoder.retired_proj"] = np.zeros((4, 16))
    save_arrays(path, arrays)
    with pytest.raises(TrainingError, match="checkpoint version 1 unsupported"):
        load_checkpoint(path)


def test_version_2_checkpoint_rejected_by_version(tmp_path):
    # format 2 stored the label-head widths, the fusion kernel and the
    # aux-layer switch in its config
    path = tmp_path / "v2.ckpt"
    _older_checkpoint(path, 2, {"num_actions": 6, "num_groups": 6,
                                "fusion_kernel": 3}, {"aux_layers": True})
    with pytest.raises(TrainingError, match="checkpoint version 2 unsupported"):
        load_checkpoint(path)


def test_version_3_checkpoint_rejected_by_version(tmp_path):
    # format 3 stored the text embedding's row count as [model] vocab_size
    path = tmp_path / "v3.ckpt"
    _older_checkpoint(path, 3, {"vocab_size": 64})
    with pytest.raises(TrainingError, match="checkpoint version 3 unsupported"):
        load_checkpoint(path)


def test_version_4_checkpoint_rejected_by_version(tmp_path):
    # format 4 stored the config as a dict of section dicts, not INI text
    path = tmp_path / "v4.ckpt"
    _older_checkpoint(path, 4, {})
    with pytest.raises(TrainingError) as err:
        load_checkpoint(path)
    assert str(err.value) == (f"{path}: checkpoint version 4 unsupported; "
                              f"this build reads version 5")


def test_checkpoint_whose_parameters_do_not_fit_its_config_names_the_path(
        tmp_path):
    path = tmp_path / "model.ckpt"
    cfg = tiny_cfg()
    save_checkpoint(path, GroundedModel(cfg.model, seed=0), cfg)
    wider = config_text(cfg).replace("d_model = 16", "d_model = 32")
    H.edit_checkpoint_meta(path, config=wider)
    with pytest.raises(ContainerError) as err:
        load_checkpoint(path)
    assert str(err.value).startswith(f"{path}: shape mismatch for ")


def test_checkpoint_config_that_is_not_text_names_the_path(tmp_path):
    path = tmp_path / "model.ckpt"
    cfg = tiny_cfg()
    save_checkpoint(path, GroundedModel(cfg.model, seed=0), cfg)
    H.edit_checkpoint_meta(path, config=dataclasses.asdict(cfg))
    with pytest.raises(ConfigError) as err:
        load_checkpoint(path)
    assert str(err.value) == (f"checkpoint config is a dict, not INI text, "
                              f"in {path}")


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
    res = train(tiny_cfg(mode="weak"), corpus, max_steps=4, vocab=VOCAB)
    assert res.history
    assert all(rec["action_bce"] == 0.0 for rec in res.history)
    # full mode does pay the action term
    res_full = train(tiny_cfg(mode="full"), corpus, max_steps=4, vocab=VOCAB)
    assert any(rec["action_bce"] > 0.0 for rec in res_full.history)


def test_train_rejects_bad_mode_and_overlong_run():
    corpus = tiny_corpus()
    with pytest.raises(ConfigError, match="unknown mode 'semi'"):
        train(tiny_cfg(mode="semi"), corpus, vocab=VOCAB)
    with pytest.raises(TrainingError):
        train(tiny_cfg(), corpus, max_steps=10 ** 6, vocab=VOCAB)
    with pytest.raises(TrainingError, match="max_steps 0"):
        train(tiny_cfg(), corpus, max_steps=0, vocab=VOCAB)


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


@pytest.mark.parametrize("key, value", [("raster_h", 16), ("raster_w", 16),
                                        ("channels", 3), ("frames", 6)])
def test_clip_geometry_mismatch_is_config_error_before_step_0(tmp_path, key,
                                                              value):
    # tiny_corpus clips are 4 frames of 8 x 8 x 1 pixels
    corpus = tiny_corpus()
    cfg = tiny_cfg()
    setattr(cfg.model, key, value)
    log = tmp_path / "log.jsonl"
    with pytest.raises(ConfigError, match=rf"\[model\] {key} = {value}") as err:
        train(cfg, corpus, log_path=str(log), max_steps=2, vocab=VOCAB)
    assert corpus[0][0].clip_id in str(err.value)
    assert not log.exists()
    with pytest.raises(ConfigError, match=rf"\[model\] {key} = {value}"):
        evaluate(GroundedModel(cfg.model, seed=0), corpus, cfg, VOCAB)


def test_token_outside_the_embedding_is_data_error_before_step_0(tmp_path):
    # a vocabulary larger than the packaged one puts the action words past
    # the embedding's last row
    vocab = [f"filler{i}" for i in range(len(VOCAB))] + VOCAB
    log = tmp_path / "log.jsonl"
    with pytest.raises(bb.DataError, match=r"clip 'clip-0-\d{4}' has prompt "
                       r"token \d+, outside the packaged vocabulary of "
                       rf"{len(VOCAB)} tokens"):
        train(tiny_cfg(), tiny_corpus(), log_path=str(log), max_steps=2,
              vocab=vocab)
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
    for v in (ev.group_accuracy, ev.merged_mca, ev.mpca,
              ev.mean_keyframe_iou, *ev.action_prf):
        assert 0.0 <= v <= 1.0
    assert ev.merged_mca >= ev.group_accuracy - 1e-12
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


def _crafted_infer(monkeypatch):
    """Make ``training.infer`` return the real forward's outputs with these
    action logits (3 queries, 6 actions) and group logits:
    clip 0, saturated: query 0's sigmoid is 1.0 at actions 1 and 2, so its
      sigmoid argmax is 1 while its logit argmax, the vote, is 2;
    clip 1, nothing confident: queries 0, 1 and 2 fall back to their top
      actions 4, 0 and 2, the group to the classifier, which picks 4;
    clip 2, a two-way tie: query 0 holds actions 3 and 5 and votes 3,
      query 1 votes 1, query 2 does not vote;
    clips 3 on, the model's own logits, scaled so that some vote."""
    infer = tr.infer

    def crafted(*args):
        batch, rep, out = infer(*args)
        act = out.action_logits.data * 8.0
        act[:3] = -5.0
        act[0, 0, [1, 2]] = 40.0, 41.0
        act[1, [0, 1, 2], [4, 0, 2]] = -1.0
        act[2, 0, [3, 5]] = 2.0, 1.0
        act[2, 1, 1] = 3.0
        out.action_logits.data = act
        out.group_logits.data[1] = [0.0, 0.5, 0.0, 0.0, 3.0, 1.0]
        return batch, rep, out

    monkeypatch.setattr(tr, "infer", crafted)


@pytest.mark.parametrize("use_vote", [None, False])
@pytest.mark.parametrize("weak", [False, True])
def test_evaluate_predicts_as_the_clip_by_clip_rules(monkeypatch, use_vote,
                                                     weak):
    cfg = tiny_cfg()
    corpus = tiny_corpus(n=8)
    if weak:
        corpus = [(c, D.weak_supervision_view(a)) for c, a in corpus]
    model = GroundedModel(cfg.model, seed=3)
    _crafted_infer(monkeypatch)
    ev = evaluate(model, corpus, cfg, VOCAB, use_vote=use_vote)
    assert ev == H.reference_evaluate(model, corpus, cfg, VOCAB, use_vote)
    assert (ev.action_prf == (0.0, 0.0, 0.0)) == weak
    rec = ev.records
    assert rec[0].actors[0].labels == [1, 2]
    assert rec[0].actors[0].confidences == [1.0, 1.0]
    assert [a.labels for a in rec[1].actors] == [[4], [0], [2]]
    assert rec[1].group_label == 4
    assert rec[2].actors[0].labels == [3, 5]
    voting = [r for r in rec[3:]
              if any(max(a.confidences) > 0.5 for a in r.actors)]
    assert voting, "no clip of the model's own logits votes"
    if use_vote is None:
        assert rec[0].group_label == M.group_activity_vote(
            [[2]], D.ACTION_TO_GROUP) == 2
        assert rec[2].group_label == M.group_activity_vote(
            [[3], [1]], D.ACTION_TO_GROUP) == 1
        assert rec[0].group_confidence == 1.0
    else:
        logits = tr.infer(model, corpus, cfg, VOCAB)[2].group_logits.data
        assert [r.group_label for r in rec] == logits.argmax(-1).tolist()


def test_weak_mode_evaluates_with_the_group_head(monkeypatch):
    # a weak run never trains the action logits, so by default they do not
    # vote; the crafted logits make the vote and the group head disagree
    cfg = tiny_cfg(mode="weak")
    corpus = tiny_corpus(n=8)
    model = GroundedModel(cfg.model, seed=3)
    _crafted_infer(monkeypatch)
    ev = evaluate(model, corpus, cfg, VOCAB)
    assert ev == evaluate(model, corpus, cfg, VOCAB, use_vote=False)
    assert ev == H.reference_evaluate(model, corpus, cfg, VOCAB)
    assert ev != evaluate(model, corpus, cfg, VOCAB, use_vote=True)


def test_retrieval_recall_bounds():
    cfg = tiny_cfg()
    corpus = tiny_corpus(n=5)
    model = GroundedModel(cfg.model, seed=5)
    pool = tr.embedding_pool(tr.infer_matched(model, corpus, cfg, VOCAB), cfg)
    rec = retrieval_recall(model, *pool, VOCAB, ks=(1, 5))
    assert set(rec) == {1, 5}
    assert 0.0 <= rec[1] <= rec[5] <= 1.0


def test_retrieval_rejects_a_corpus_without_action_labels():
    cfg = tiny_cfg()
    corpus = [(c, D.weak_supervision_view(a)) for c, a in tiny_corpus()]
    model = GroundedModel(cfg.model, seed=5)
    pool = tr.embedding_pool(tr.infer_matched(model, corpus, cfg, VOCAB), cfg)
    with pytest.raises(TrainingError, match="no matched actor has action"):
        retrieval_recall(model, *pool, VOCAB, ks=(1,))


def test_retrieval_needs_a_decoder_layer():
    cfg = tiny_cfg()
    cfg.model.decoder_layers = 0
    model = GroundedModel(cfg.model, seed=5)
    inference = tr.infer_matched(model, tiny_corpus(), cfg, VOCAB)
    with pytest.raises(TrainingError, match="at least one decoder layer"):
        tr.embedding_pool(inference, cfg)


def test_retrieval_encodes_each_distinct_prompt_once(monkeypatch):
    from groundact.metrics import recall_at_k
    cfg = tiny_cfg()
    corpus = tiny_corpus(n=8, seed=3)
    model = GroundedModel(cfg.model, seed=5)
    # the reference: one text encode per matched actor
    inference = tr.infer_matched(model, corpus, cfg, VOCAB)
    embeddings, entries = tr.embedding_pool(inference, cfg)
    prompts = [" ".join(D.ACTIONS[a] for a in e["actions"]) for e in entries]
    queries = np.stack([tr.text_query_embedding(model, p, VOCAB)
                        for p in prompts])
    expected = {k: recall_at_k(queries, embeddings, list(range(len(entries))),
                               k) for k in (1, 5)}

    calls = []
    encode = bb.text_encode

    def counted(*args, **kwargs):
        calls.append(args[0].shape[0])
        return encode(*args, **kwargs)

    monkeypatch.setattr(bb, "text_encode", counted)
    pool = tr.embedding_pool(tr.infer_matched(model, corpus, cfg, VOCAB), cfg)
    rec = retrieval_recall(model, *pool, VOCAB, ks=(1, 5))
    assert rec == expected
    # one batched forward over the corpus, then one encode per prompt
    assert len(entries) > len(set(prompts))
    assert calls == [len(corpus)] + [1] * len(set(prompts))


def test_infer_forward_equals_graph_forward_without_a_graph():
    cfg = tiny_cfg()
    corpus = tiny_corpus(n=3)
    model = GroundedModel(cfg.model, seed=6)
    batch, rep, out = tr.infer(model, corpus, cfg, VOCAB)
    graph_rep, graph_out = model.forward(batch)
    pairs = [(rep.group, graph_rep.group),
             (out.action_logits, graph_out.action_logits),
             (out.group_logits, graph_out.group_logits)]
    pairs += list(zip(out.per_layer_boxes, graph_out.per_layer_boxes))
    for fast, graph in pairs:
        np.testing.assert_array_equal(fast.data, graph.data)
        assert len(fast.topo_order()) == 1
    assert len(graph_out.final_boxes.topo_order()) > 100


# -- linear probe ------------------------------------------------------------

def test_linear_probe_defaults_match_recipe():
    import inspect
    sig = inspect.signature(linear_probe)
    assert sig.parameters["epochs"].default == 100
    assert tr.PROBE_BATCH == 32 and tr.PROBE_LR == 1e-3
    assert tr.OptimizerState("sgd-momentum").momentum == 0.9


def test_linear_probe_schedule_spans_every_step(monkeypatch):
    # 40 rows in batches of 32 is two steps per epoch, the second short:
    # the cosine schedule must cover both, so no step runs at lr 0
    lrs, totals = [], set()
    step, decay = tr.sgd_momentum_step, tr.cosine_decay
    monkeypatch.setattr(tr, "sgd_momentum_step",
                        lambda params, opt, lr: (lrs.append(lr),
                                                 step(params, opt, lr))[1])
    monkeypatch.setattr(tr, "cosine_decay",
                        lambda i, total, lr: (totals.add(total),
                                              decay(i, total, lr))[1])
    rng = np.random.default_rng(2)
    linear_probe(rng.normal(size=(40, 4)), rng.integers(0, 3, size=40),
                 num_classes=3, epochs=4)
    assert totals == {len(lrs)} and len(lrs) == 8
    assert min(lrs) > 0.0


def test_linear_probe_separates_trivial_clusters():
    rng = np.random.default_rng(0)
    centers = np.eye(3) * 5.0
    labels = np.repeat(np.arange(3), 20)
    emb = centers[labels] + 0.1 * rng.normal(size=(60, 3))
    assert linear_probe(emb, labels, num_classes=3, epochs=40, seed=0) == 1.0


def test_linear_probe_leaves_embeddings_frozen():
    rng = np.random.default_rng(1)
    emb = rng.normal(size=(20, 4))
    before = emb.copy()
    linear_probe(emb, rng.integers(0, 2, size=20), num_classes=2, epochs=5)
    np.testing.assert_array_equal(emb, before)
