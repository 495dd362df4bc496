"""Hierarchical inference rules and the evaluation metric suite."""

import json
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from groundact import metrics as M
from groundact.metrics import (ActorPrediction, LabelHierarchy, MetricError,
                               PredictionRecord, group_activity_vote,
                               hierarchical_infer, mca, mean_per_class_accuracy,
                               multilabel_prf, recall_at_k)
from groundact.tensor import ContractError


TWO_LEVEL = LabelHierarchy(partitions=[["running", "jumping", "other"],
                                       ["walking", "standing"]])


# -- hierarchical inference --------------------------------------------------

def test_infer_short_circuits_on_confident_first_partition():
    label = hierarchical_infer([np.array([3.0, 0.0, 1.0]),
                                np.array([99.0, 0.0])], TWO_LEVEL)
    assert label == "running"      # second partition never consulted


def test_infer_descends_through_other():
    label = hierarchical_infer([np.array([0.0, 1.0, 5.0]),
                                np.array([2.0, 1.0])], TWO_LEVEL)
    assert label == "walking"


def test_infer_single_partition_is_argmax():
    h = LabelHierarchy(partitions=[["a", "b", "c"]])
    assert hierarchical_infer([np.array([0.1, 0.9, 0.5])], h) == "b"


def test_infer_arity_mismatch_rejected():
    with pytest.raises(MetricError):
        hierarchical_infer([np.zeros(3)], TWO_LEVEL)


def test_infer_logit_width_mismatch_rejected():
    with pytest.raises(MetricError):
        hierarchical_infer([np.zeros(2), np.zeros(2)], TWO_LEVEL)


def test_hierarchy_final_partition_must_not_hold_other():
    h = LabelHierarchy(partitions=[["a", "other"], ["b", "other"]])
    with pytest.raises(MetricError):
        h.validate()


def test_hierarchy_nonfinal_partition_needs_one_other():
    h = LabelHierarchy(partitions=[["a", "b"], ["c"]])
    with pytest.raises(MetricError):
        h.validate()


def test_hierarchy_duplicate_label_rejected():
    h = LabelHierarchy(partitions=[["a", "other"], ["a", "b"]])
    with pytest.raises(MetricError):
        h.validate()


# -- group vote --------------------------------------------------------------

A2G = {0: 100, 1: 101, 2: 102}


def test_vote_majority():
    # members [walk, walk, stand] with walk=1, stand=0
    assert group_activity_vote([[1], [1], [0]], A2G) == 101


def test_vote_single_member():
    assert group_activity_vote([[2]], A2G) == 102


def test_vote_tie_breaks_to_lowest_index():
    assert group_activity_vote([[1], [0]], A2G) == 100


def test_vote_empty_group_rejected():
    with pytest.raises(ContractError):
        group_activity_vote([], A2G)


def test_vote_counts_multilabel_members():
    assert group_activity_vote([[0, 2], [2], [1]], A2G) == 102


# -- classification accuracy -------------------------------------------------

def test_mca_all_correct():
    assert mca(["a", "b"], ["a", "b"]) == 1.0


def test_mca_counting_example():
    assert mca(list("AABC"), list("ABBC")) == 0.75


def test_mca_merge_map_coarsens():
    merge = {"A": "X", "B": "X"}
    assert mca(["A"], ["B"], merge=merge) == 1.0
    assert mca(["A"], ["B"]) == 0.0


def test_mca_empty_rejected():
    with pytest.raises(MetricError):
        mca([], [])


def test_mca_length_mismatch_rejected():
    with pytest.raises(MetricError):
        mca(["a"], ["a", "b"])


def test_mean_per_class_accuracy_weights_classes_equally():
    # class a: 1/1 correct; class b: 1/3 correct -> mean 2/3
    preds = ["a", "b", "x", "x"]
    labels = ["a", "b", "b", "b"]
    assert abs(mean_per_class_accuracy(preds, labels) - 2.0 / 3.0) <= 1e-12


@settings(deadline=None, max_examples=40)
@given(st.lists(st.tuples(st.integers(0, 5), st.integers(0, 5)),
                min_size=1, max_size=20))
def test_mca_merge_never_hurts(pairs):
    preds = [p for p, _ in pairs]
    labels = [l for _, l in pairs]
    merge = {i: i // 2 for i in range(6)}     # strictly coarsening
    assert mca(preds, labels, merge=merge) >= mca(preds, labels)


# -- multi-label P/R/F -------------------------------------------------------

def test_prf_perfect():
    assert multilabel_prf([{1, 2}], [{1, 2}]) == (1.0, 1.0, 1.0)


def test_prf_half_overlap():
    p, r, f = multilabel_prf([{"a", "b"}], [{"b", "c"}])
    assert (p, r, f) == (0.5, 0.5, 0.5)


def test_prf_empty_prediction():
    p, r, f = multilabel_prf([set()], [{"a"}])
    assert (p, r, f) == (0.0, 0.0, 0.0)


def test_prf_empty_gt_skipped_with_warning():
    with pytest.warns(UserWarning):
        p, r, f = multilabel_prf([{1}, set()], [{1}, set()])
    assert (p, r, f) == (1.0, 1.0, 1.0)


def test_prf_all_empty_gt_rejected():
    with pytest.warns(UserWarning):
        with pytest.raises(MetricError):
            multilabel_prf([{1}], [set()])


@settings(deadline=None, max_examples=40)
@given(st.lists(st.tuples(st.sets(st.integers(0, 6), max_size=4),
                          st.sets(st.integers(0, 6), min_size=1, max_size=4)),
                min_size=1, max_size=10))
def test_prf_bounds_and_zero_rule(samples):
    preds = [p for p, _ in samples]
    gts = [g for _, g in samples]
    p, r, f = multilabel_prf(preds, gts)
    assert 0.0 <= p <= 1.0 and 0.0 <= r <= 1.0 and 0.0 <= f <= 1.0


@settings(deadline=None, max_examples=60)
@given(st.lists(st.tuples(st.sets(st.integers(0, 6), max_size=4),
                          st.sets(st.integers(0, 6), max_size=4)),
                min_size=1, max_size=12).filter(
                    lambda s: any(g for _, g in s)))
def test_prf_from_counts_is_the_set_by_set_rule(samples):
    preds = [p for p, _ in samples]
    gts = [g for _, g in samples]
    counts = np.array([(len(p & g), len(p), len(g)) for p, g in samples])
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        assert M.prf_from_counts(*counts.T) == multilabel_prf(preds, gts)


def test_prf_from_counts_warns_once_and_rejects_all_empty_gt():
    with pytest.warns(UserWarning, match="^2 sample"):
        assert M.prf_from_counts(*np.array([[1, 1, 1], [0, 1, 0],
                                            [0, 2, 0]]).T) == (1.0, 1.0, 1.0)
    with pytest.warns(UserWarning), pytest.raises(MetricError):
        M.prf_from_counts(*np.array([[0, 1, 0]]).T)


# -- retrieval ---------------------------------------------------------------

def test_recall_perfect_alignment():
    emb = np.eye(4)
    assert recall_at_k(emb, emb, [0, 1, 2, 3], 1) == 1.0


def test_recall_rank_counting():
    # 3 queries over 8 candidates with gt ranks 1, 4, 7
    cands = np.eye(8)
    queries = np.zeros((3, 8))
    gts = [0, 3, 6]
    for qi, (gt, rank) in enumerate(zip(gts, [1, 4, 7])):
        # give the gt candidate the rank-th largest score
        order = [i for i in range(8) if i != gt]
        order.insert(rank - 1, gt)
        for pos, cand in enumerate(order):
            queries[qi, cand] = 8 - pos
    assert recall_at_k(queries, cands, gts, 5) == pytest.approx(2.0 / 3.0)
    assert recall_at_k(queries, cands, gts, 1) == pytest.approx(1.0 / 3.0)
    assert recall_at_k(queries, cands, gts, 8) == 1.0


def test_recall_tie_breaks_to_lower_index():
    cands = np.array([[1.0, 0.0], [1.0, 0.0], [1.0, 0.0]])   # all identical
    q = np.array([[1.0, 0.0]])
    assert recall_at_k(q, cands, [0], 1) == 1.0
    assert recall_at_k(q, cands, [2], 1) == 0.0
    assert recall_at_k(q, cands, [2], 3) == 1.0


def test_cosine_ranking_ties_go_to_the_lower_index():
    # rows 1 and 3 point the same way as the query at different lengths, so
    # they tie at 1; the zero row 0 scores 0 through the norm floor, as does
    # the orthogonal row 2, and row 0 wins that tie
    cands = np.array([[0.0, 0.0], [2.0, 0.0], [0.0, 1.0], [0.5, 0.0],
                      [-1.0, 0.0]])
    sims, order = M.cosine_ranking(np.array([[3.0, 0.0]]), cands)
    np.testing.assert_allclose(sims, [[0.0, 1.0, 0.0, 1.0, -1.0]])
    assert order.tolist() == [[1, 3, 0, 2, 4]]


def test_recall_k_exceeds_candidates_rejected():
    with pytest.raises(MetricError):
        recall_at_k(np.eye(2), np.eye(2), [0, 1], 3)


@settings(deadline=None, max_examples=25)
@given(st.integers(min_value=0, max_value=2 ** 31 - 1))
def test_recall_monotone_in_k(seed):
    rng = np.random.default_rng(seed)
    q = rng.normal(size=(4, 6))
    c = rng.normal(size=(7, 6))
    gt = rng.integers(0, 7, size=4).tolist()
    vals = [recall_at_k(q, c, gt, k) for k in range(1, 8)]
    assert all(a <= b + 1e-12 for a, b in zip(vals, vals[1:]))
    assert vals[-1] == 1.0


# -- prediction records ------------------------------------------------------

def _record(conf=0.9):
    return PredictionRecord(
        clip_id="clip-0", group_label=2, group_confidence=conf,
        actors=[ActorPrediction([1, 3], [0.8, 0.6],
                                [0.5, 0.5, 0.125, 0.25])])


def load_predictions(path):
    """Read back the records a predictions file holds."""
    with open(path) as fh:
        return [PredictionRecord(
            clip_id=rec["clip_id"], group_label=rec["group_label"],
            group_confidence=rec["group_confidence"],
            actors=[ActorPrediction(a["labels"], a["confidences"],
                                    a["keyframe_box"])
                    for a in rec["actors"]])
            for rec in map(json.loads, fh)]


def test_prediction_round_trip_bit_identical(tmp_path):
    path1, path2 = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    records = [_record(), _record(0.25)]
    M.save_predictions(path1, records)
    loaded = load_predictions(path1)
    M.save_predictions(path2, loaded)
    assert path1.read_bytes() == path2.read_bytes()
    assert loaded[0].clip_id == "clip-0"
    assert loaded[1].group_confidence == 0.25


def test_prediction_confidence_out_of_range_rejected(tmp_path):
    with pytest.raises(MetricError):
        M.save_predictions(tmp_path / "x.jsonl", [_record(conf=1.5)])
