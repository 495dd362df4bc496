"""Whole-batch array paths against per-clip references, on ragged batches:
clips with 1 to 4 actors, actors with several (and repeated) actions, weak
clips, clips without a group label, and clips longer than the model's
frames beside clips of exactly its frames."""

from dataclasses import replace

import numpy as np
import pytest

from groundact import backbones as bb
from groundact import data as D
from groundact import training as tr
from groundact.config import ExperimentConfig, ModelConfig, TrainConfig
from groundact.losses import ground_truth, keyframe_matches
from groundact.model import GroundedModel, make_batch

import helpers as H

VOCAB = bb.load_vocab()
FRAMES = 4


def ragged_cfg() -> ExperimentConfig:
    cfg = ExperimentConfig()
    cfg.model = ModelConfig(d_model=16, num_heads=2, d_ff_mult=2, dropout=0.0,
                            encoder_layers=1, decoder_layers=1, frames=FRAMES,
                            grid_h=2, grid_w=2, raster_h=8, raster_w=8,
                            l_max=8, num_queries=5)
    cfg.train = TrainConfig(batch_size=4, eval_every=0)
    return cfg


def ragged_corpus():
    """16 clips: 1 to 4 actors, 4 or 7 frames; some actors hold two or
    three actions (one repeated), clips 3 and 10 are weak and clip 5 has no
    group label."""
    corpus = []
    for i in range(16):
        corpus += D.generate_corpus(seed=100 + i, num_clips=1,
                                    num_actors=1 + i % 4,
                                    t_total=FRAMES + 3 * (i % 3 == 2),
                                    raster=(8, 8))
    out = []
    for i, (clip, ann) in enumerate(corpus):
        # a second action, then the first one again
        more = lambda a, k: [(a.actions[0] + j) % 6 for j in (2, 0)][:k % 3]
        actors = [replace(a, actions=a.actions + more(a, i + k))
                  for k, a in enumerate(ann.actors)]
        ann = replace(ann, actors=actors,
                      group_activity=None if i == 5 else ann.group_activity)
        if i in (3, 10):
            ann = D.weak_supervision_view(ann)
        out.append((clip, ann))
    return out


@pytest.fixture(scope="module")
def corpus():
    return ragged_corpus()


def test_the_corpus_is_ragged(corpus):
    anns = [a for _, a in corpus]
    assert {len(a.actors) for a in anns} == {1, 2, 3, 4}
    assert {len(x.actions) for a in anns for x in a.actors} == {0, 1, 2, 3}
    assert any(len(set(x.actions)) < len(x.actions)
               for a in anns for x in a.actors)
    assert {c.frames.shape[0] for c, _ in corpus} == {FRAMES, FRAMES + 3}
    assert sum(a.weak for a in anns) == 2


def test_ground_truth_equals_the_per_clip_reference(corpus):
    cfg = ragged_cfg()
    anns = [a for _, a in corpus]
    batch = make_batch([c for c, _ in corpus], [D.prompt_for(a) for a in anns],
                       cfg.model, VOCAB, anns)
    for subset in (batch.annotations, batch.annotations[:1],
                   batch.annotations[3:4], batch.annotations[4:11]):
        got, ref = ground_truth(subset), H.reference_ground_truth(subset)
        for a, b in zip((got.tubes, got.counts, got.actions, got.weak),
                        (ref.tubes, ref.counts, ref.actions, ref.weak)):
            assert a.dtype == b.dtype and np.array_equal(a, b)


@pytest.mark.parametrize("weak", [False, True])
def test_keyframe_matches_equal_one_clip_batches(corpus, weak):
    cfg = ragged_cfg()
    model = GroundedModel(cfg.model, seed=1)
    batch, _, out = tr.infer(model, corpus, cfg, VOCAB)
    gt = ground_truth(batch.annotations)
    boxes, logits = out.final_boxes.data, out.action_logits.data * 8.0
    kf = model.keyframe()
    got = keyframe_matches(boxes, logits, gt, cfg.loss, kf, weak)
    for i, ann in enumerate(batch.annotations):
        one = keyframe_matches(boxes[i:i + 1], logits[i:i + 1],
                               ground_truth([ann]), cfg.loss, kf, weak)[0]
        assert got[i].gt_indices.tolist() == one.gt_indices.tolist()
        assert got[i].pred_indices.tolist() == one.pred_indices.tolist()
        assert got[i].total_cost == one.total_cost


@pytest.mark.parametrize("use_vote", [None, False])
def test_score_equals_the_per_clip_reference(corpus, monkeypatch, use_vote):
    cfg = ragged_cfg()
    model = GroundedModel(cfg.model, seed=2)
    infer = tr.infer

    def sharper(*args):
        # scaled logits: some queries vote, some hold several labels, and
        # the voters' top sigmoids are not all 1.0
        batch, rep, out = infer(*args)
        out.action_logits.data = out.action_logits.data * 10.0
        return batch, rep, out

    monkeypatch.setattr(tr, "infer", sharper)
    # the weak clips' actors have no labels to score
    with pytest.warns(UserWarning, match="empty ground-truth set skipped"):
        ev = tr.evaluate(model, corpus, cfg, VOCAB, use_vote=use_vote)
    with pytest.warns(UserWarning, match="empty ground-truth set skipped"):
        ref = H.reference_evaluate(model, corpus, cfg, VOCAB, use_vote)
    assert ev == ref
    labels = [a.labels for r in ev.records for a in r.actors]
    assert any(len(x) > 1 for x in labels)
    assert ev.action_prf != (0.0, 0.0, 0.0)


def test_make_batch_keeps_whole_clips_and_samples_longer_ones(corpus):
    cfg = ragged_cfg()
    clip0, ann0 = corpus[0]
    # an annotation of a whole clip whose keyframe is not the middle frame
    off = replace(ann0, keyframe=0)
    pairs = corpus + [(clip0, off)]
    clips, anns = [c for c, _ in pairs], [a for _, a in pairs]
    batch = make_batch(clips, [D.prompt_for(a) for a in anns], cfg.model,
                       VOCAB, anns)
    for clip, ann, got, frames in zip(clips, anns, batch.annotations,
                                      batch.frames):
        idx = bb.frame_indices(clip.frames.shape[0], FRAMES)
        assert np.array_equal(frames, clip.frames[idx])
        assert got.keyframe == FRAMES // 2
        if clip.frames.shape[0] == FRAMES and ann.keyframe == FRAMES // 2:
            assert got is ann
            continue
        assert got is not ann
        assert (got.clip_id, got.group_activity, got.weak) == (
            ann.clip_id, ann.group_activity, ann.weak)
        for a, b in zip(got.actors, ann.actors):
            assert (a.track_id, a.actions) == (b.track_id, b.actions)
            assert np.array_equal(a.tube, b.tube[idx])
    assert batch.annotations[-1].keyframe == FRAMES // 2
