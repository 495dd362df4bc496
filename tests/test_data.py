"""Synthetic scene generator, the annotation file, splits."""

import json
import random
import re
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from groundact import data as D
from groundact.data import (ACTIONS, GROUPS, DataError, ParseError,
                            ScenarioScript, SceneAnnotation, generate_corpus,
                            generate_scene, load_annotations, make_splits,
                            save_annotations, weak_supervision_view)

import helpers as H


def script(motions, speeds=None, **kw):
    return ScenarioScript(seed=7, num_actors=len(motions), motions=motions,
                          actions=[D.ACTION_FOR_MOTION[m] for m in motions],
                          speeds=speeds or [0.05] * len(motions), **kw)


# -- generator ---------------------------------------------------------------

def test_stationary_actor_tube_constant():
    clip, ann = generate_scene(script(["stationary"]), t_total=6)
    tube = ann.actors[0].tube
    assert tube.shape == (6, 4)
    assert np.all(tube == tube[0])


def test_linear_motion_moves_by_speed_per_frame():
    s = script(["linear"], speeds=[0.1], directions=[(1.0, 0.0)],
               starts=[(0.2, 0.5)], sizes=[(0.125, 0.25)])
    clip, ann = generate_scene(s, t_total=4, raster=(32, 32))
    cx = ann.actors[0].tube[:, 0]
    # +0.1 per frame in x, up to the half-pixel snap of a 32-cell raster
    np.testing.assert_allclose(np.diff(cx), 0.1, atol=1.0 / 32)
    assert np.all(ann.actors[0].tube[:, 1] == ann.actors[0].tube[0, 1])


def test_linear_motion_clamps_at_border():
    s = script(["linear"], speeds=[0.5], directions=[(1.0, 0.0)],
               starts=[(0.5, 0.5)], sizes=[(0.2, 0.2)])
    clip, ann = generate_scene(s, t_total=8)
    tube = ann.actors[0].tube
    assert tube[:, 0].max() <= 1.0 - tube[0, 2] / 2 + 1e-9
    assert np.all(tube[:, 0] + tube[:, 2] / 2 <= 1.0 + 1e-9)


def test_oscillate_returns_to_start_after_period():
    s = script(["oscillate"], directions=[(0.0, 1.0)],
               starts=[(0.5, 0.5)], sizes=[(0.2, 0.2)])
    clip, ann = generate_scene(s, t_total=9)
    tube = ann.actors[0].tube
    np.testing.assert_allclose(tube[8], tube[0], atol=1e-9)  # sin period 8


def test_tubes_match_rendered_pixels_exactly():
    # a box fitted to each actor's rendered pixels reproduces the tube
    for seed in range(3):
        corpus = generate_corpus(seed=seed, num_clips=2, num_actors=2,
                                 t_total=5, raster=(32, 32))
        for clip, ann in corpus:
            h, w = clip.frames.shape[1:3]
            intensities = np.linspace(0.35, 1.0, len(ann.actors))
            for a, level in zip(ann.actors, intensities):
                for f in range(5):
                    mask = np.isclose(clip.frames[f, :, :, 0], level)
                    if not mask.any():      # fully occluded by a later actor
                        continue
                    ys, xs = np.nonzero(mask)
                    fitted = np.array([(xs.min() + xs.max() + 1) / (2 * w),
                                       (ys.min() + ys.max() + 1) / (2 * h),
                                       (xs.max() + 1 - xs.min()) / w,
                                       (ys.max() + 1 - ys.min()) / h])
                    gt = a.tube[f]
                    # occlusion can clip a rectangle; require containment
                    assert np.all(np.abs(fitted[:2] - gt[:2]) <= gt[2:] / 2 + 1e-9)
                    if np.isclose(fitted[2] * fitted[3],
                                  gt[2] * gt[3], atol=1e-9):
                        np.testing.assert_allclose(fitted, gt, atol=1e-9)


def test_generator_deterministic_per_seed():
    a = generate_corpus(seed=5, num_clips=3, num_actors=2, t_total=4)
    b = generate_corpus(seed=5, num_clips=3, num_actors=2, t_total=4)
    c = generate_corpus(seed=6, num_clips=3, num_actors=2, t_total=4)
    for (ca, aa), (cb, ab) in zip(a, b):
        assert ca.frames.tobytes() == cb.frames.tobytes()
        for x, y in zip(aa.actors, ab.actors):
            assert x.tube.tobytes() == y.tube.tobytes()
    assert any(x[0].frames.tobytes() != y[0].frames.tobytes()
               for x, y in zip(a, c))


def test_group_label_is_majority_action():
    clip, ann = generate_scene(script(["linear", "linear", "stationary"]),
                               t_total=4)
    assert ann.group_activity == D.ACTION_FOR_MOTION["linear"]


def test_group_from_actions_tie_breaks_low():
    # one walker, one stander: the tied vote goes to the lower action index
    clip, ann = generate_scene(script(["linear", "stationary"]), t_total=4)
    assert ann.group_activity == GROUPS.index("standing")
    with pytest.raises(DataError):
        generate_scene(script([]), t_total=2)
    with pytest.raises(DataError):
        generate_corpus(seed=0, num_clips=1, num_actors=0, t_total=2)


def test_one_data_error_class():
    from groundact import backbones
    assert D.DataError is backbones.DataError
    with pytest.raises(D.DataError):
        backbones.tokenize("", backbones.load_vocab(), 8)


def test_unknown_motion_kind_rejected():
    s = script(["stationary"])
    s.motions = ["teleport"]
    with pytest.raises(DataError):
        generate_scene(s, t_total=2)


# -- weak view ---------------------------------------------------------------

def test_weak_view_strips_actions_keeps_boxes():
    clip, ann = generate_scene(script(["linear", "stationary"]), t_total=4)
    weak = weak_supervision_view(ann)
    assert weak.weak
    assert weak.group_activity == ann.group_activity
    for wa, fa in zip(weak.actors, ann.actors):
        assert wa.actions == []
        assert np.array_equal(wa.tube, fa.tube)
    # original untouched
    assert all(a.actions for a in ann.actors)


# -- native format -----------------------------------------------------------

def test_native_round_trip(tmp_path):
    corpus = generate_corpus(seed=2, num_clips=4, num_actors=2, t_total=3)
    anns = [a for _, a in corpus]
    path = tmp_path / "ann.txt"
    save_annotations(path, anns)
    assert path.read_text().splitlines()[0] == "#groundact-annotations v1"
    loaded = load_annotations(path)
    assert len(loaded) == len(anns)
    for x, y in zip(loaded, anns):
        assert x.clip_id == y.clip_id
        assert x.keyframe == y.keyframe
        assert x.group_activity == y.group_activity
        for xa, ya in zip(x.actors, y.actors):
            assert xa.actions == ya.actions
            np.testing.assert_allclose(xa.tube, ya.tube, atol=1e-6)


def test_native_empty_file_is_empty_list(tmp_path):
    path = tmp_path / "empty.txt"
    path.write_text("")
    assert load_annotations(path) == []


@pytest.mark.parametrize("content,exc,fragment", [
    ("#wrong-header\n", ParseError, "line 1"),
    ("#groundact-annotations v1\n{broken\n", ParseError, "line 2"),
    ('#groundact-annotations v1\n{"clip_id": "c"}\n', ParseError, "line 2"),
    ('#groundact-annotations v1\n'
     '{"clip_id": "c", "keyframe": 0, "group_activity": 0, "actors": '
     '[{"track_id": 0, "tube": [[1.5, 0.5, 0.1, 0.1]], "actions": [0]}]}\n',
     DataError, "line 2"),
    ('#groundact-annotations v1\n'
     '{"clip_id": "c", "keyframe": 0, "group_activity": 0, "actors": '
     '[{"track_id": 0, "tube": [[0.5, 0.5, 0.1, 0.1]], "actions": [99]}]}\n',
     DataError, "line 2"),
    ('#groundact-annotations v1\n'
     '{"clip_id": "c", "keyframe": 0, "group_activity": 42, "actors": '
     '[{"track_id": 0, "tube": [[0.5, 0.5, 0.1, 0.1]], "actions": [0]}]}\n',
     DataError, "line 2"),
])
def test_native_malformed_inputs_rejected_with_line(tmp_path, content, exc,
                                                    fragment):
    path = tmp_path / "bad.txt"
    path.write_text(content)
    with pytest.raises(exc, match=fragment):
        load_annotations(path)


def test_unknown_format_rejected(tmp_path):
    # another layout (here a Volleyball-style line) has no native header
    path = tmp_path / "vb.txt"
    path.write_text("12345.jpg walking 100 200 40 80 walk\n")
    with pytest.raises(ParseError, match="line 1: expected header"):
        load_annotations(path)


_HEADER = "#groundact-annotations v1"


def _record(**changes):
    """One valid native record as a line, with fields replaced or, where the
    value is None, removed; actor fields go through ``actor``."""
    actor = {"track_id": 0, "tube": [[0.5, 0.5, 0.1, 0.1]] * 2,
             "actions": [0]}
    actor.update(changes.pop("actor", {}))
    rec = {"clip_id": "c", "keyframe": 1, "group_activity": 0,
           "weak": False, "actors": [actor]}
    rec.update(changes)
    return json.dumps({k: v for k, v in rec.items() if v is not None})


@pytest.mark.parametrize("line,exc,fragment", [
    (_record(clip_id=None), ParseError, "missing field 'clip_id'"),
    (_record(keyframe=None), ParseError, "missing field 'keyframe'"),
    (_record(keyframe="1"), ParseError, "'keyframe' has type str"),
    (_record(keyframe=0), DataError,
     "keyframe 0 is not frame 1, the middle of the 2-frame tubes"),
    (_record(group_activity="walking"), ParseError, "'group_activity'"),
    (_record(group_activity=True), ParseError, "'group_activity' has type bool"),
    (_record(weak="no"), ParseError, "'weak'"),
    (_record(actors={"0": {}}), ParseError, "'actors'"),
    (_record(actors=[7]), ParseError, "actor is not a JSON object"),
    (_record(actor={"actions": ["x"]}), ParseError, "not all integers"),
    (_record(actor={"actions": [1.5]}), ParseError, "not all integers"),
    (_record(actor={"tube": [[0.5, 0.5, 0.1, 0.1], [0.5, 0.5]]}),
     ParseError, r"not a \[T, 4\] array"),
    (_record(actor={"tube": [["0.5", 0.5, 0.1, 0.1]]}), ParseError,
     r"not a \[T, 4\] array"),
    (_record(actor={"tube": [[0.5, 0.5, 0.0, 0.1]]}), DataError, "zero size"),
    (_record(actors=[{"track_id": 0, "tube": [[0.5, 0.5, 0.1, 0.1]],
                      "actions": [0]},
                     {"track_id": 1, "tube": [[0.5, 0.5, 0.1, 0.1]] * 2,
                      "actions": [0]}]), DataError, "differ in length"),
    ("[1, 2]", ParseError, "not a JSON object"),
], ids=lambda v: "record" if isinstance(v, str) and v[:1] in "{[" else None)
def test_native_bad_fields_fail_naming_the_line(tmp_path, line, exc,
                                                 fragment):
    path = tmp_path / "bad.txt"
    path.write_text(f"{_HEADER}\n{_record()}\n{line}\n")
    with pytest.raises(exc, match=f"^line 3: .*{fragment}"):
        load_annotations(path)


def test_native_invalid_utf8_names_the_line(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_bytes(f"{_HEADER}\n".encode() + b'{"clip_id": "\xff"}\n')
    with pytest.raises(ParseError, match="^line 2: not UTF-8"):
        load_annotations(path)


def _annotation_file() -> bytes:
    corpus = generate_corpus(seed=3, num_clips=2, num_actors=2, t_total=2)
    with tempfile.TemporaryDirectory() as d:
        path = f"{d}/ann.txt"
        save_annotations(path, [a for _, a in corpus])
        with open(path, "rb") as fh:
            return fh.read()


ANNOTATION_FILE = _annotation_file()
# bytes that keep a mutated record close to valid JSON, so that the field
# and type checks are reached, not only the JSON parser
JSON_BYTES = st.sampled_from(list(b'0123456789.-e"[]{},: tfn\xff'))


@settings(deadline=None, max_examples=60)
@given(cut=st.integers(0, len(ANNOTATION_FILE)),
       edits=st.lists(st.tuples(st.integers(0, len(ANNOTATION_FILE)),
                                st.one_of(JSON_BYTES, st.integers(0, 255))),
                       max_size=3))
def test_annotation_loader_fails_only_at_the_boundary(cut, edits):
    data = bytearray(ANNOTATION_FILE[:cut])
    for at, byte in edits:
        if data:
            data[at % len(data)] = byte
    with tempfile.TemporaryDirectory() as d:
        path = f"{d}/ann.txt"
        with open(path, "wb") as fh:
            fh.write(data)
        try:
            load_annotations(path)
        except (ParseError, DataError) as exc:
            assert re.match(r"line \d+: ", str(exc)), exc


# values a mutated record puts in place of a field or a list element
JSON_VALUES = [None, True, -1, 0, 1, 99, 1.5, -0.5, 1e400, "x", "", [], {},
               [[0.5, 0.5, 0.1, 0.1]], [0.5, 0.5, 0.1], [[[1]]], {"0": 0}]


def _variant(rng: random.Random, rec):
    """rec with one value, at a seeded place in its nesting, replaced by one
    of JSON_VALUES or removed."""
    rec = json.loads(json.dumps(rec))
    node = rec
    while True:
        keys = list(node) if isinstance(node, dict) else range(len(node))
        if not keys:
            return rec
        key = rng.choice(list(keys))
        if isinstance(node[key], (dict, list)) and rng.random() < 0.6:
            node = node[key]
            continue
        if rng.random() < 0.2:
            del node[key]
        else:
            node[key] = rng.choice(JSON_VALUES)
        return rec


def test_mutated_annotations_fail_only_with_errors_naming_the_file(tmp_path):
    # seeded line, record-field and byte mutations of a valid file: each
    # loads, or fails as a ParseError or DataError naming the line and file
    records = [json.loads(line) for line in ANNOTATION_FILE.splitlines()[1:]]
    rng = random.Random(0)
    pool = [json.dumps(_variant(rng, rng.choice(records))).encode()
            for _ in range(300)] + [_HEADER.encode(), b"#header v2", b"{"]
    path = tmp_path / "ann.txt"
    failed = 0
    for _ in range(1500):
        path.write_bytes(H.mutated(rng, ANNOTATION_FILE, pool))
        try:
            load_annotations(path)
        except (ParseError, DataError) as err:
            failed += 1
            assert re.match(r"line \d+: ", str(err)), err
            assert str(err).endswith(f", in {path}"), err
    assert failed > 750


# -- splits ------------------------------------------------------------------

def test_splits_deterministic_and_disjoint():
    corpus = generate_corpus(seed=1, num_clips=12, num_actors=2, t_total=3)
    tr1, te1 = make_splits(corpus, (0.75, 0.25), seed=0)
    tr2, te2 = make_splits(corpus, (0.75, 0.25), seed=0)
    assert [a.clip_id for _, a in tr1] == [a.clip_id for _, a in tr2]
    assert len(tr1) == 9 and len(te1) == 3
    ids = {a.clip_id for _, a in tr1} | {a.clip_id for _, a in te1}
    assert len(ids) == 12


def test_splits_bad_ratios_rejected():
    with pytest.raises(DataError):
        make_splits([], (0.5, 0.4), seed=0)


# -- prompts -----------------------------------------------------------------

def test_prompt_lists_sorted_actions_without_group_word():
    clip, ann = generate_scene(script(["oscillate", "stationary"]), t_total=3)
    words = D.prompt_for(ann).split()
    # the label being predicted must never appear in the prompt
    assert GROUPS[ann.group_activity] not in words
    assert words == sorted(set(words), key=lambda w: ACTIONS.index(w))
    assert words  # actions of both actors are mentioned


@settings(deadline=None, max_examples=20)
@given(st.integers(min_value=0, max_value=10 ** 6),
       st.integers(min_value=1, max_value=4))
def test_generated_boxes_always_valid(seed, actors):
    corpus = generate_corpus(seed=seed, num_clips=1, num_actors=actors,
                             t_total=4)
    for clip, ann in corpus:
        for a in ann.actors:
            assert np.all(a.tube[:, 2:] > 0)
            corners_lo = a.tube[:, :2] - a.tube[:, 2:] / 2
            corners_hi = a.tube[:, :2] + a.tube[:, 2:] / 2
            assert corners_lo.min() >= -1e-9
            assert corners_hi.max() <= 1 + 1e-9
