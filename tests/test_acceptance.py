"""Acceptance gate: ten criteria, one printed pass/fail line each.

Each criterion is a single test that prints ``criterion N (<name>): PASS`` on
success (visible with ``pytest -s`` or in captured-output reports) and the
matching FAIL line before re-raising on failure.  The expensive experiments
(overfit, weak-supervision, ablation) come from ``groundact.experiments``,
which the scripts run too; the overfit and weak runs are cached in
module-scoped fixtures so the suite trains each model exactly once.
"""

import itertools
import json
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from groundact import backbones as bb
from groundact import data as D
from groundact import experiments as E
from groundact import losses as L
from groundact import metrics as M
from groundact.config import ExperimentConfig, ModelConfig, TrainConfig
from groundact.model import make_batch
from groundact.optim import lr_at, wd_at
from groundact.tensor import Tensor
from groundact.training import load_checkpoint, save_checkpoint, train
from groundact.verify import TOLERANCE, run_suite

FIXTURES = Path(__file__).parent / "fixtures"
VOCAB = bb.load_vocab()


def report(num, name):
    """Print the criterion verdict even when the assert fails."""
    class _Reporter:
        def __enter__(self):
            return self

        def __exit__(self, exc_type, exc, tb):
            verdict = "PASS" if exc_type is None else "FAIL"
            line = f"criterion {num} ({name}): {verdict}"
            print(line)
            print(line, file=sys.stderr)
            return False
    return _Reporter()


# -- independent oracles (duplicated here on purpose: the gate must not
# -- trust the library it is checking) ----------------------------------------

def grid_giou(a_corners, b_corners, points_per_axis=1000):
    """Count-in-cell rasterization over the convex hull bounding box."""
    ax1, ay1, ax2, ay2 = a_corners
    bx1, by1, bx2, by2 = b_corners
    lo_x, hi_x = min(ax1, bx1), max(ax2, bx2)
    lo_y, hi_y = min(ay1, by1), max(ay2, by2)
    xs = np.linspace(lo_x, hi_x, points_per_axis, endpoint=False)
    ys = np.linspace(lo_y, hi_y, points_per_axis, endpoint=False)
    step_x = (hi_x - lo_x) / points_per_axis
    step_y = (hi_y - lo_y) / points_per_axis
    xs, ys = xs + step_x / 2, ys + step_y / 2
    gx, gy = np.meshgrid(xs, ys, indexing="ij")
    in_a = (gx >= ax1) & (gx < ax2) & (gy >= ay1) & (gy < ay2)
    in_b = (gx >= bx1) & (gx < bx2) & (gy >= by1) & (gy < by2)
    cell = step_x * step_y
    inter = np.count_nonzero(in_a & in_b) * cell
    union = np.count_nonzero(in_a | in_b) * cell
    hull = (hi_x - lo_x) * (hi_y - lo_y)
    return inter / union - (hull - union) / hull


def brute_force_match(cost):
    m, n = cost.shape
    best_cols, best_total = None, np.inf
    for cols in itertools.permutations(range(n), m):
        total = cost[np.arange(m), list(cols)].sum()
        if total < best_total - 1e-12:
            best_total, best_cols = total, cols
    return best_cols, best_total


# -- shared experiment fixtures ----------------------------------------------

@pytest.fixture(scope="module")
def overfit_run():
    return E.train_and_evaluate(E.overfit_config(), E.overfit_corpus(),
                                E.OVERFIT_STEPS)


@pytest.fixture(scope="module")
def weak_run():
    return E.train_and_evaluate(E.overfit_config("weak"), E.overfit_corpus(),
                                E.OVERFIT_STEPS)


# -- the ten criteria --------------------------------------------------------

def test_criterion_1_gradient_suite():
    with report(1, "gradient suite"):
        start = time.time()
        results = run_suite(seed=0, repeats=20)
        elapsed = time.time() - start
        assert results, "empty gradient suite"
        worst = max(results.values())
        bad = {k: v for k, v in results.items() if v > 1e-4}
        assert not bad, f"failed cases: {bad}"
        assert worst <= 1e-4 and TOLERANCE <= 1e-4
        assert elapsed < 120, f"gradient suite took {elapsed:.0f}s"


def test_criterion_2_giou_oracle():
    with report(2, "gIoU vs grid oracle"):
        assert abs(L.giou_corners((0, 0, 1, 1), (2, 2, 3, 3))
                   - (-7.0 / 9.0)) <= 1e-12
        assert abs(L.giou_corners((0, 0, 2, 2), (1, 1, 3, 3))
                   - (-5.0 / 63.0)) <= 1e-12
        rng = np.random.default_rng(2024)
        worst = 0.0
        for _ in range(100):
            x1, y1, x3, y3 = rng.uniform(0, 0.7, size=4)
            w, h, w2, h2 = rng.uniform(0.05, 0.3, size=4)
            a = (x1, y1, x1 + w, y1 + h)
            b = (x3, y3, x3 + w2, y3 + h2)
            worst = max(worst, abs(L.giou_corners(a, b) - grid_giou(a, b)))
        assert worst <= 1e-2, f"worst oracle gap {worst:.4f}"


def test_criterion_2_program_giou_matches_grid_oracle():
    # criterion 2's pairs against the gIoU the program matches with
    # (pairwise_iou) and trains on (box_loss's 1 - gIoU term)
    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(100):
        x1, y1, x3, y3 = rng.uniform(0, 0.7, size=4)
        w, h, w2, h2 = rng.uniform(0.05, 0.3, size=4)
        a = (x1, y1, x1 + w, y1 + h)
        b = (x3, y3, x3 + w2, y3 + h2)
        oracle = grid_giou(a, b)
        pa = np.array([[x1 + w / 2, y1 + h / 2, w, h]])
        pb = np.array([[x3 + w2 / 2, y3 + h2 / 2, w2, h2]])
        matched = L.pairwise_iou(pa, pb)[1][0, 0]
        trained = 1.0 - L.box_loss(Tensor(pa), slice(None), pb, np.ones(1),
                                   0.0, 1.0)[2]
        worst = max(worst, abs(matched - oracle), abs(trained - oracle))
    assert worst <= 1e-2, f"worst oracle gap {worst:.4f}"


def test_criterion_3_matching_oracle():
    with report(3, "assignment vs brute force"):
        rng = np.random.default_rng(3)
        start = time.time()
        for _ in range(200):
            n = int(rng.integers(1, 8))           # N <= 7
            m = int(rng.integers(1, min(n, 6) + 1))  # M <= 6, M <= N
            cost = rng.uniform(-5, 5, size=(m, n))
            res = L.hungarian_match(cost)
            _, oracle_total = brute_force_match(cost)
            assert abs(res.total_cost - oracle_total) <= 1e-9
        assert time.time() - start < 30


def test_criterion_4_overfit_grounding(overfit_run):
    with report(4, "overfit grounding"):
        res, ev, elapsed = overfit_run
        ratio = res.final_loss / res.initial_loss
        assert ratio < 0.05, f"loss only fell to {ratio:.1%} of initial"
        assert ev.mean_keyframe_iou > 0.75, f"IoU {ev.mean_keyframe_iou:.3f}"
        assert ev.group_accuracy == 1.0, f"group acc {ev.group_accuracy}"
        assert elapsed < 600, f"overfit run took {elapsed:.0f}s"


def test_criterion_5_ablation_ordering():
    with report(5, "ablation ordering"):
        corpus = E.ablation_corpus()
        res = E.run_ablation(E.ablation_config(), corpus, corpus,
                             max_steps=E.ABLATION_STEPS)
        pv = res.per_variant
        assert (pv["encoder"]["merged_mca"]
                > pv["features-only"]["merged_mca"]), pv
        assert (pv["encoder-decoder"]["merged_mca"]
                > pv["encoder"]["merged_mca"]), pv
        assert (pv["encoder-decoder"]["iou"]
                > pv["no-fusion"]["iou"]), pv


def test_criterion_6_metric_fixtures():
    with report(6, "metric goldens"):
        fx = json.loads((FIXTURES / "metrics_fixture.json").read_text())
        preds, labels = fx["group_predictions"], fx["group_labels"]
        merge = {i: D.MERGED_GROUPS[D.GROUPS[i]]
                 for i in range(len(D.GROUPS))}
        assert M.mca(preds, labels) == fx["golden_mca"]
        assert M.mca(preds, labels, merge=merge) == fx["golden_merged_mca"]
        assert (M.mean_per_class_accuracy(preds, labels)
                == fx["golden_mpca"])
        import warnings
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            p, r, f = M.multilabel_prf(
                [set(s) for s in fx["prediction_sets"]],
                [set(s) for s in fx["ground_truth_sets"]])
        assert p == fx["golden_precision"]
        assert r == fx["golden_recall"]
        assert f == fx["golden_f1"]
        q = np.tile(np.asarray(fx["retrieval_query"], dtype=np.float64),
                    (fx["retrieval_num_queries"], 1))
        c = np.eye(len(fx["retrieval_query"]))
        for k, golden in fx["golden_recall_at"].items():
            assert M.recall_at_k(q, c, fx["retrieval_gt_index"],
                                 int(k)) == golden


def test_criterion_7_inference_rules():
    with report(7, "hierarchical inference and voting"):
        hier = M.LabelHierarchy(
            partitions=[["running", "jumping", "other"],
                        ["walking", "standing"]])
        # confident top level short-circuits
        assert M.hierarchical_infer(
            [np.array([3.0, 1.0, 0.0]), np.array([9.0, 9.0])],
            hier) == "running"
        # the sentinel wins the first partition, so descend
        assert M.hierarchical_infer(
            [np.array([0.0, 1.0, 5.0]), np.array([2.0, -1.0])],
            hier) == "walking"
        a2g = {i: i for i in range(6)}
        # plain majority
        assert M.group_activity_vote([[1], [1], [2]], a2g) == 1
        # tie between actions 2 and 4 breaks to the lower index
        assert M.group_activity_vote([[4], [2], [2], [4]], a2g) == 2


def test_criterion_8_schedules():
    with report(8, "lr and wd schedules"):
        cfg = TrainConfig()
        warm = cfg.warmup_steps
        assert lr_at(0, cfg) == 0.0
        assert lr_at(warm, cfg) == 5e-4
        mid = warm + (cfg.total_steps - warm) // 2
        assert abs(lr_at(mid, cfg) - 2.5e-4) <= 1e-9
        assert wd_at(0, cfg) == 0.04
        assert wd_at(cfg.total_steps, cfg) == 0.1


def test_criterion_9_determinism_and_checkpointing(tmp_path):
    with report(9, "determinism and checkpoint round trip"):
        cfg = ExperimentConfig()
        cfg.model = ModelConfig(d_model=16, num_heads=2, d_ff_mult=2,
                                dropout=0.1, encoder_layers=1,
                                decoder_layers=1, frames=2, grid_h=2,
                                grid_w=2, raster_h=8, raster_w=8,
                                num_queries=3)
        cfg.train = TrainConfig(peak_lr=1e-3, warmup_epochs=1,
                                total_epochs=4, steps_per_epoch=4,
                                batch_size=2, seed=11, eval_every=0)
        corpus = D.generate_corpus(seed=1, num_clips=4, num_actors=2,
                                   t_total=4, raster=(8, 8))
        log_a, log_b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        res = train(cfg, corpus, log_path=str(log_a), max_steps=8,
                    vocab=VOCAB)
        train(cfg, corpus, log_path=str(log_b), max_steps=8, vocab=VOCAB)
        assert log_a.read_bytes() == log_b.read_bytes()

        path = tmp_path / "model.ckpt"
        save_checkpoint(path, res.model, cfg, step=8)
        loaded, _, _, _ = load_checkpoint(path)
        batch = make_batch([c for c, _ in corpus],
                           [D.prompt_for(a) for _, a in corpus],
                           cfg.model, VOCAB, [a for _, a in corpus])
        _, out_a = res.model.forward(batch)
        _, out_b = loaded.forward(batch)
        assert (out_a.final_boxes.data.tobytes()
                == out_b.final_boxes.data.tobytes())
        assert (out_a.group_logits.data.tobytes()
                == out_b.group_logits.data.tobytes())
        assert (out_a.action_logits.data.tobytes()
                == out_b.action_logits.data.tobytes())


def test_criterion_10_weak_supervision_contract(weak_run):
    with report(10, "weak supervision contract"):
        res, ev, _ = weak_run
        assert res.history, "no training log records"
        assert all(rec["action_bce"] == 0.0 for rec in res.history)
        ratio = res.final_loss / res.initial_loss
        assert ratio < 0.05, f"weak loss only fell to {ratio:.1%}"
        assert ev.mean_keyframe_iou > 0.75, f"IoU {ev.mean_keyframe_iou:.3f}"
