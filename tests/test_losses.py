"""Box geometry, set matching, and the grounding objective.

The expensive oracle sweeps (10^6-point grid gIoU on 100 pairs, brute-force
assignment on 200 instances) live in test_acceptance.py; here each oracle is
exercised on a smaller budget plus all the exact hand-derived cases.
"""

import itertools
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from groundact import losses as L
from groundact import tensor as T
from groundact.config import LossWeights
from groundact.tensor import ContractError, ShapeError, Tensor, grad_check

import helpers as H
from helpers import rowwise


# -- oracles -----------------------------------------------------------------

def grid_giou(a_corners, b_corners, points_per_axis=1000):
    """Rasterized gIoU estimate: count grid points inside each region."""
    ax1, ay1, ax2, ay2 = a_corners
    bx1, by1, bx2, by2 = b_corners
    lo_x, hi_x = min(ax1, bx1), max(ax2, bx2)
    lo_y, hi_y = min(ay1, by1), max(ay2, by2)
    xs = np.linspace(lo_x, hi_x, points_per_axis, endpoint=False)
    ys = np.linspace(lo_y, hi_y, points_per_axis, endpoint=False)
    step_x = (hi_x - lo_x) / points_per_axis
    step_y = (hi_y - lo_y) / points_per_axis
    xs, ys = xs + step_x / 2, ys + step_y / 2          # cell centres
    gx, gy = np.meshgrid(xs, ys, indexing="ij")
    in_a = (gx >= ax1) & (gx < ax2) & (gy >= ay1) & (gy < ay2)
    in_b = (gx >= bx1) & (gx < bx2) & (gy >= by1) & (gy < by2)
    cell = step_x * step_y
    inter = np.count_nonzero(in_a & in_b) * cell
    union = np.count_nonzero(in_a | in_b) * cell
    hull = (hi_x - lo_x) * (hi_y - lo_y)               # grid covers the hull
    return inter / union - (hull - union) / hull


def brute_force_match(cost):
    """Minimum-cost injection of rows into columns by full enumeration."""
    m, n = cost.shape
    best_cols, best_total = None, np.inf
    for cols in itertools.permutations(range(n), m):
        total = cost[np.arange(m), list(cols)].sum()
        if total < best_total - 1e-12:
            best_total, best_cols = total, cols
    return best_cols, best_total


def giou(a, b):
    """Generalized IoU of two (cx, cy, w, h) boxes, by the scalar gIoU."""
    return L.giou_corners(L.cxcywh_to_corners(a), L.cxcywh_to_corners(b))


def random_corner_box(rng):
    x1, y1 = rng.uniform(0, 0.7, size=2)
    w, h = rng.uniform(0.05, 0.3, size=2)
    return (x1, y1, x1 + w, y1 + h)


# -- gIoU exact values -------------------------------------------------------

def test_giou_identical_box_is_one():
    assert giou((0.5, 0.5, 0.2, 0.3), (0.5, 0.5, 0.2, 0.3)) == 1.0


def test_giou_disjoint_hand_value():
    # unit squares at (0,0) and (2,2): IoU 0, union 2, hull 9
    v = L.giou_corners((0, 0, 1, 1), (2, 2, 3, 3))
    assert abs(v - (-7.0 / 9.0)) <= 1e-12


def test_giou_overlapping_hand_value():
    # 2x2 squares overlapping in a unit square: IoU 1/7, hull 9, union 7
    v = L.giou_corners((0, 0, 2, 2), (1, 1, 3, 3))
    assert abs(v - (1.0 / 7.0 - 2.0 / 9.0)) <= 1e-12
    assert abs(v - (-5.0 / 63.0)) <= 1e-12


def test_giou_nested_equals_iou():
    # nested boxes: hull == union, so gIoU == IoU == area ratio
    v = L.giou_corners((0, 0, 4, 4), (1, 1, 3, 3))
    assert abs(v - 4.0 / 16.0) <= 1e-12


def test_giou_degenerate_box_rejected():
    with pytest.raises(ContractError):
        giou((0.5, 0.5, 0.0, 0.2), (0.5, 0.5, 0.2, 0.2))


def test_giou_grid_oracle_sample():
    rng = np.random.default_rng(42)
    for _ in range(10):
        a, b = random_corner_box(rng), random_corner_box(rng)
        assert abs(L.giou_corners(a, b) - grid_giou(a, b)) <= 1e-2


@settings(deadline=None, max_examples=60)
@given(st.integers(min_value=0, max_value=2 ** 31 - 1))
def test_giou_bounded_and_below_iou(seed):
    rng = np.random.default_rng(seed)
    a, b = random_corner_box(rng), random_corner_box(rng)
    g = L.giou_corners(a, b)
    iw = max(0.0, min(a[2], b[2]) - max(a[0], b[0]))
    ih = max(0.0, min(a[3], b[3]) - max(a[1], b[1]))
    inter = iw * ih
    area = lambda c: (c[2] - c[0]) * (c[3] - c[1])
    iou = inter / (area(a) + area(b) - inter)
    assert -1.0 < g <= 1.0
    assert g <= iou + 1e-12


def test_pairwise_iou_agrees_with_scalar():
    rng = np.random.default_rng(1)
    pred = rng.uniform(0.2, 0.8, size=(3, 4))
    gt = rng.uniform(0.2, 0.8, size=(2, 4))
    pred[:, 2:] = rng.uniform(0.05, 0.3, size=(3, 2))
    gt[:, 2:] = rng.uniform(0.05, 0.3, size=(2, 2))
    iou, mat = L.pairwise_iou(pred, gt)
    for i in range(2):
        for j in range(3):
            assert abs(mat[i, j] - giou(gt[i], pred[j])) <= 1e-12
            a, b = L.cxcywh_to_corners(gt[i]), L.cxcywh_to_corners(pred[j])
            iw = max(0.0, min(a[2], b[2]) - max(a[0], b[0]))
            ih = max(0.0, min(a[3], b[3]) - max(a[1], b[1]))
            union = gt[i, 2] * gt[i, 3] + pred[j, 2] * pred[j, 3] - iw * ih
            assert abs(iou[i, j] - iw * ih / union) <= 1e-12


# -- composed references -----------------------------------------------------
#
# L1, gIoU and cross-entropy built from tensor primitives, one graph node per
# step, the way the objective was first written.  The fused box-loss node
# must agree with them in value and in every gradient.

def _corners(boxes: Tensor) -> Tensor:
    cx, cy = boxes[..., 0:1], boxes[..., 1:2]
    w, h = boxes[..., 2:3], boxes[..., 3:4]
    half_w, half_h = T.mul(w, 0.5), T.mul(h, 0.5)
    return T.concat([T.sub(cx, half_w), T.sub(cy, half_h),
                     T.add(cx, half_w), T.add(cy, half_h)], axis=-1)


def _giou_tensor(pred_corners: Tensor, gt_corners) -> Tensor:
    """Pairwise (already matched) gIoU, [..., 4] x [..., 4] -> [...]."""
    px1, py1 = pred_corners[..., 0], pred_corners[..., 1]
    px2, py2 = pred_corners[..., 2], pred_corners[..., 3]
    gx1, gy1 = gt_corners[..., 0], gt_corners[..., 1]
    gx2, gy2 = gt_corners[..., 2], gt_corners[..., 3]
    area_p = T.mul(T.sub(px2, px1), T.sub(py2, py1))
    area_g = T.mul(T.sub(gx2, gx1), T.sub(gy2, gy1))
    zero = Tensor(np.zeros(area_p.shape))
    iw = H.maximum(T.sub(H.minimum(px2, gx2), H.maximum(px1, gx1)), zero)
    ih = H.maximum(T.sub(H.minimum(py2, gy2), H.maximum(py1, gy1)), zero)
    inter = T.mul(iw, ih)
    union = T.sub(T.add(area_p, area_g), inter)
    hull = T.mul(T.sub(H.maximum(px2, gx2), H.minimum(px1, gx1)),
                 T.sub(H.maximum(py2, gy2), H.minimum(py1, gy1)))
    return T.sub(H.div(inter, union), H.div(T.sub(hull, union), hull))


def giou_loss(pred: Tensor, gt, weights=None) -> Tensor:
    """Mean of (1 - gIoU) over matched pairs [..., P, 4]; with ``weights``
    (broadcastable to [..., P]), their weighted sum."""
    g = _giou_tensor(_corners(pred), L.cxcywh_to_corners(gt))
    x = T.sub(1.0, g)
    return T.tmean(x) if weights is None else T.tsum(T.mul(x, weights))


def l1_loss(pred: Tensor, gt, weights=None) -> Tensor:
    """Mean absolute coordinate difference over matched pairs [..., P, 4];
    with ``weights``, the weighted sum over pairs of each pair's mean."""
    diff = H.absolute(T.sub(pred, gt))
    if weights is None:
        return T.tmean(diff)
    return T.tsum(T.mul(diff, np.expand_dims(weights, -1) / pred.shape[-1]))


def cross_entropy(logits: Tensor, target: int) -> Tensor:
    """Single-label CE from raw logits [G]."""
    return T.mul(T.log_softmax(logits, axis=-1)[target], -1.0)


def _fused_terms(pred, gt):
    """The fused node's (L1, gIoU) terms as unweighted means over pairs."""
    pred = pred if isinstance(pred, Tensor) else Tensor(pred)
    weights = np.full(pred.shape[:-1], 1.0 / max(pred.size // 4, 1))
    return L.box_loss(pred, slice(None), gt, weights, 1.0, 1.0)[1:]


# -- differentiable box loss -------------------------------------------------

def test_giou_loss_single_pair_value():
    pred = Tensor(np.array([[0.5, 0.5, 1.0, 1.0]]))   # corners (0,0,1,1)
    gt = np.array([[2.5, 2.5, 1.0, 1.0]])             # corners (2,2,3,3)
    loss, _, gl = L.box_loss(pred, slice(None), gt, np.ones(1), 0.0, 1.0)
    assert abs(loss.item() - 16.0 / 9.0) <= 1e-12     # 1 - (-7/9)
    assert loss.item() == gl


def test_giou_loss_identical_zero():
    b = np.array([[0.4, 0.6, 0.2, 0.2], [0.7, 0.3, 0.1, 0.3]])
    assert _fused_terms(b.copy(), b) == (0.0, 0.0)


def test_box_loss_empty_match_is_zero():
    boxes = Tensor(np.full((2, 3, 4), 0.5), requires_grad=True)
    idx = (np.zeros((2, 0), dtype=int), np.zeros((2, 0), dtype=int))
    loss, l1, gl = L.box_loss(boxes, idx, np.zeros((2, 0, 4)),
                              np.zeros((2, 0)), 5.0, 2.0)
    np.testing.assert_array_equal(loss.data, [0.0, 0.0])
    assert (l1, gl) == (0.0, 0.0)
    T.tsum(loss).backward()
    np.testing.assert_array_equal(boxes.grad, np.zeros((2, 3, 4)))


def test_box_loss_keeps_no_array():
    # backward rebuilds the pairs and their geometry from boxes.data[index]
    # and gt, as the fused nodes rebuild theirs
    rng = np.random.default_rng(14)
    boxes = Tensor(rng.uniform(0.3, 0.6, (8, 6, 4, 4)), requires_grad=True)
    index = (np.arange(8)[:, None], rng.integers(0, 6, (8, 3)))
    gt = rng.uniform(0.3, 0.6, (8, 3, 4, 4))
    w = np.full((8, 3, 1), 0.01)
    assert H.held_array_bytes(
        lambda: L.box_loss(boxes, index, gt, w, 5.0, 2.0)[0]) == 0


def test_giou_loss_gradient():
    gt = np.array([[0.5, 0.5, 0.3, 0.3], [0.2, 0.7, 0.15, 0.2]])
    pred0 = Tensor(np.array([[0.45, 0.55, 0.25, 0.35], [0.3, 0.6, 0.2, 0.15]]))
    w = np.full(2, 0.5)
    # the stack is box_loss's row axis: gt and w broadcast over it
    err = grad_check(lambda p: L.box_loss(p, slice(None), gt, w, 0.0, 1.0)[0],
                     pred0)
    assert err <= 1e-4


def test_l1_loss_hand_value():
    pred = np.array([[0.5, 0.5, 0.2, 0.2]])
    gt = np.array([[0.6, 0.5, 0.2, 0.4]])
    assert abs(_fused_terms(pred, gt)[0] - 0.075) <= 1e-12


def test_l1_loss_symmetric():
    rng = np.random.default_rng(3)
    a, b = rng.random((4, 4)), rng.random((4, 4))
    assert _fused_terms(a, b)[0] == _fused_terms(b, a)[0]


def _box_loss_cases():
    """(boxes [B, N, T, 4], gathered query per gt [B, M], gt [B, M, T, 4],
    weights [B, M, 1]).  The first case has exact dyadic coordinates:
    min/max ties on both sides of an axis with equal centres (|0|), an
    identical pair, touching boxes (an intersection of exactly 0 width),
    disjoint boxes, a tie on one side only, and, as ``total_objective``
    pads, a repeated query at weight 0."""
    gt = np.array([[[[0.5, 0.5, 0.25, 0.25]] * 2,
                    [[0.25, 0.75, 0.125, 0.25]] * 2],
                   [[[0.625, 0.375, 0.25, 0.5]] * 2,
                    [[0.5, 0.5, 0.5, 0.5]] * 2]])
    boxes = np.array([[[[0.5, 0.5, 0.375, 0.25],       # y sides tie
                        [0.5, 0.5, 0.25, 0.25]],       # identical
                       [[0.375, 0.8125, 0.125, 0.25],  # x1 touches gt x2
                        [0.0625, 0.125, 0.125, 0.125]],  # disjoint
                       [[0.4, 0.45, 0.3, 0.2], [0.55, 0.6, 0.2, 0.3]]],
                      [[[0.625, 0.375, 0.25, 0.25],    # x sides tie
                        [0.6875, 0.375, 0.125, 0.5]],  # x2 and y sides tie
                       [[0.9, 0.9, 0.125, 0.125], [0.75, 0.5, 0.5, 0.5]],
                       [[0.3, 0.2, 0.1, 0.3], [0.8, 0.8, 0.3, 0.3]]]])
    idx = np.array([[0, 1], [0, 0]])
    weights = np.array([[[0.25], [0.25]], [[0.5], [0.0]]])
    yield boxes, idx, gt, weights
    rng = np.random.default_rng(31)
    boxes = rng.uniform(0.3, 0.7, size=(3, 4, 2, 4))
    boxes[..., 2:] = rng.uniform(0.05, 0.4, size=(3, 4, 2, 2))
    gt = rng.uniform(0.3, 0.7, size=(3, 3, 2, 4))
    gt[..., 2:] = rng.uniform(0.05, 0.4, size=(3, 3, 2, 2))
    idx = np.array([[2, 0, 2], [1, 3, 0], [3, 1, 2]])
    weights = np.array([[[0.2], [0.3], [0.0]], [[0.1], [0.1], [0.1]],
                        [[0.4], [0.0], [0.0]]])
    yield boxes, idx, gt, weights


@pytest.mark.parametrize("case", [0, 1])
def test_fused_box_loss_matches_composed(case):
    boxes, idx, gt, weights = list(_box_loss_cases())[case]
    index = (np.arange(len(idx))[:, None], idx)
    results = []
    for fused in (True, False):
        x = Tensor(boxes.copy(), requires_grad=True)
        if fused:
            loss, l1, gl = L.box_loss(x, index, gt, weights, 5.0, 2.0)
            rows = loss.data.tolist()
            loss = T.tsum(loss)
        else:
            l1_t, gl_t = l1_loss(x[index], gt, weights), giou_loss(
                x[index], gt, weights)
            l1, gl = l1_t.item(), gl_t.item()
            loss = T.add(T.mul(l1_t, 5.0), T.mul(gl_t, 2.0))
            # each clip's value, composed over that clip's pairs alone
            pred = boxes[index]
            rows = [5.0 * l1_loss(Tensor(pred[i]), gt[i], weights[i]).item()
                    + 2.0 * giou_loss(Tensor(pred[i]), gt[i],
                                      weights[i]).item()
                    for i in range(len(idx))]
        T.mul(loss, 0.75).backward()
        results.append((rows, l1, gl, x.grad))
    (rows_f, l1_f, gl_f, g_f), (rows_c, l1_c, gl_c, g_c) = results
    # per clip, not the total: the sum over clips of 5 L1 + 2 G can differ
    # from 5 L1 + 2 G of the sums in the last ulp
    assert (rows_f, l1_f, gl_f) == (rows_c, l1_c, gl_c)
    np.testing.assert_allclose(g_f, g_c, rtol=0, atol=1e-12)
    if case == 0:
        # unmatched queries get nothing, nor does the padded repeat
        assert not g_f[:, 2].any() and not g_f[1, 1].any()
        assert g_f[0, 0].any() and g_f[0, 1].any() and g_f[1, 0].any()


def _rows_alone(boxes, idx, gt, weights, upstream):
    """box_loss on each clip of a case alone: its value and the gradient of
    upstream[i] times that value."""
    out = []
    for i in range(len(idx)):
        x = Tensor(boxes[i:i + 1].copy(), requires_grad=True)
        loss = L.box_loss(x, (np.zeros((1, 1), dtype=int), idx[i:i + 1]),
                          gt[i:i + 1], weights[i:i + 1], 5.0, 2.0)[0]
        T.mul(T.tsum(loss), upstream[i]).backward()
        out.append((loss.data[0], x.grad[0]))
    return out


@pytest.mark.parametrize("case", [0, 1])
def test_box_loss_rows_match_each_clip_alone(case):
    boxes, idx, gt, weights = list(_box_loss_cases())[case]
    # an upstream gradient that differs per clip: training seeds every row
    # with the same value, and grad_check's analytic pass has one row
    upstream = np.array([0.3, -1.7, 2.9])[:len(idx)]
    x = Tensor(boxes.copy(), requires_grad=True)
    loss, l1, gl = L.box_loss(x, (np.arange(len(idx))[:, None], idx), gt,
                              weights, 5.0, 2.0)
    T.tsum(T.mul(loss, upstream)).backward()
    alone = _rows_alone(boxes, idx, gt, weights, upstream)
    assert loss.shape == (len(idx),)
    np.testing.assert_array_equal(loss.data, [a[0] for a in alone])
    for i, a in enumerate(alone):
        np.testing.assert_array_equal(x.grad[i], a[1])
    # the totals are those of every pair in one row
    _, l1_one, gl_one = L.box_loss(Tensor(boxes[np.arange(len(idx))[:, None],
                                                 idx][None]),
                                   slice(None), gt[None], weights[None],
                                   5.0, 2.0)
    assert (l1, gl) == (l1_one, gl_one)


@pytest.mark.parametrize("gt_shape,w_shape,bad", [
    ((3, 4), (2, 2), "gt of shape (3, 4)"),
    ((2, 1, 2, 4), (2, 2), "gt of shape (2, 1, 2, 4)"),   # adds an axis
    ((2, 4), (3,), "weights of shape (3,)"),
    ((2, 4), (2, 2, 4), "weights of shape (2, 2, 4)"),    # the coordinates
])
def test_box_loss_rejects_pairs_that_do_not_broadcast(gt_shape, w_shape, bad):
    boxes = Tensor(np.full((2, 2, 4), 0.5), requires_grad=True)
    with pytest.raises(ShapeError, match=re.escape(bad) + ".*"
                       + re.escape("(matched boxes (2, 2, 4))")):
        L.box_loss(boxes, slice(None), np.full(gt_shape, 0.5),
                   np.ones(w_shape), 1.0, 1.0)


@pytest.mark.parametrize("shape", [(4,), (2, 3)])
def test_box_loss_needs_a_row_axis_and_four_coordinates(shape):
    with pytest.raises(ShapeError, match=re.escape(f"got shape {shape}")):
        L.box_loss(Tensor(np.full(shape, 0.5)), slice(None),
                   np.full(shape, 0.5), np.ones(shape[:-1]), 1.0, 1.0)


# -- matching ----------------------------------------------------------------

def test_hungarian_two_by_two():
    m = L.hungarian_match(np.array([[1.0, 2.0], [2.0, 1.0]]))
    assert m.pairs() == [(0, 0), (1, 1)]
    assert m.total_cost == 2.0


def test_hungarian_one_by_one():
    m = L.hungarian_match(np.array([[5.0]]))
    assert m.pairs() == [(0, 0)]
    assert m.total_cost == 5.0


def test_hungarian_rectangular_leaves_predictions_free():
    cost = np.array([[10.0, 1.0, 10.0], [1.0, 10.0, 10.0]])
    m = L.hungarian_match(cost)
    assert m.pairs() == [(0, 1), (1, 0)]
    assert m.total_cost == 2.0


def test_hungarian_matches_brute_force_sample():
    rng = np.random.default_rng(4)
    for _ in range(25):
        mm = int(rng.integers(1, 6))
        nn = int(rng.integers(mm, 7))
        cost = rng.random((mm, nn))
        res = L.hungarian_match(cost)
        _, best_total = brute_force_match(cost)
        assert abs(res.total_cost - best_total) <= 1e-9


def test_hungarian_more_gts_than_preds_rejected():
    with pytest.raises(ContractError):
        L.hungarian_match(np.zeros((3, 2)))


def test_hungarian_nonfinite_rejected():
    with pytest.raises(ContractError):
        L.hungarian_match(np.array([[1.0, np.inf]]))


def test_match_cost_hand_built_two_by_two():
    w = LossWeights()         # l1=5, giou=2, action_bce=1
    gt = np.array([[0.3, 0.3, 0.2, 0.2], [0.7, 0.7, 0.2, 0.2]])
    pred = gt[::-1].copy()    # swapped
    logits = np.array([[-4.0, 4.0], [4.0, -4.0]])  # pred j confident on action of gt 1-j
    gt_actions = [[0], [1]]
    cost = L.match_cost(pred, logits, gt, gt_actions, w)
    # diagonal: boxes are swapped -> large cost; off-diagonal: perfect boxes
    sig = lambda v: 1.0 / (1.0 + np.exp(-v))
    expected_01 = 0.0 + 0.0 + 1.0 * (1.0 - sig(4.0))
    assert abs(cost[0, 1] - expected_01) <= 1e-6
    l1_term = 5 * np.abs(gt[0] - pred[0]).sum()
    giou_term = 2 * (1.0 - giou(gt[0], pred[0]))
    bce_term = 1.0 * (1.0 - sig(-4.0))
    assert abs(cost[0, 0] - (l1_term + giou_term + bce_term)) <= 1e-6
    # matching picks the swap
    assert L.hungarian_match(cost).pairs() == [(0, 1), (1, 0)]


def test_match_cost_weak_mode_drops_action_term():
    w = LossWeights()
    gt = np.array([[0.3, 0.3, 0.2, 0.2]])
    pred = gt.copy()
    logits = np.array([[10.0, -10.0]])
    full = L.match_cost(pred, logits, gt, [[1]], w, weak=False)
    weak = L.match_cost(pred, logits, gt, [[1]], w, weak=True)
    assert full[0, 0] > weak[0, 0]
    assert abs(weak[0, 0]) <= 1e-12


def test_match_cost_tie_break_lowest_index():
    w = LossWeights()
    gt = np.array([[0.5, 0.5, 0.2, 0.2]])
    pred = np.repeat(gt, 4, axis=0)        # all predictions identical
    cost = L.match_cost(pred, np.zeros((4, 6)), gt, [[0]], w)
    assert L.hungarian_match(cost).pairs() == [(0, 0)]


def test_loaded_solver_equals_scipy_optimize():
    # every shape the workloads match, with float costs and with costs of
    # exact ties, where the two must break them the same way
    from scipy.optimize import linear_sum_assignment
    rng = np.random.default_rng(20)
    for m in range(1, 13):
        for n in range(m, 13):
            for cost in (rng.random((m, n)),
                         rng.integers(0, 3, (m, n)).astype(np.float64)):
                rows, cols = L.linear_sum_assignment(cost)
                want_rows, want_cols = linear_sum_assignment(cost)
                assert np.array_equal(rows, want_rows)
                assert np.array_equal(cols, want_cols)


def test_solver_falls_back_to_scipy_optimize(monkeypatch):
    import importlib.util
    from scipy.optimize import linear_sum_assignment
    monkeypatch.setattr(importlib.util, "find_spec", lambda *args: None)
    assert L._load_assignment_solver() is linear_sum_assignment


def _padded(action_lists):
    """Ragged per-actor action lists -> [M, K] indices padded with -1."""
    out = np.full((len(action_lists), max(map(len, action_lists), default=0)),
                  -1, dtype=np.int64)
    for i, actions in enumerate(action_lists):
        out[i, :len(actions)] = actions
    return out


def _loop_match_cost(pred, logits, gt, gt_actions, w, weak):
    """One clip's matching cost with the action term added actor by actor:
    the reference for the masked, batched action term."""
    l1 = np.abs(gt[:, None, :] - pred[None, :, :]).sum(axis=-1)
    cost = w.l1 * l1 + w.giou * (1.0 - L.pairwise_iou(pred, gt)[1])
    if not weak and w.action_bce > 0:
        probs = 1.0 / (1.0 + np.exp(-logits))
        for i, actions in enumerate(gt_actions):
            if actions:
                cost[i] += w.action_bce * (
                    1.0 - probs[:, list(actions)].mean(axis=-1))
    return cost


def test_batched_match_cost_equals_per_clip_calls():
    from dataclasses import replace
    arrays, anns = _random_batch(np.random.default_rng(20),
                                 [1, 6, 3, 2, 4, 5], layers=1)
    anns[1].actors[0] = replace(anns[1].actors[0], actions=[])
    for j, actions in enumerate(([5, 0, 3], [1, 2, 4, 0], [3, 1, 5, 4, 2])):
        anns[4 + j % 2].actors[j] = replace(anns[4 + j % 2].actors[j],
                                            actions=actions)
    anns[2] = replace(anns[2], weak=True)
    w, keyframe = LossWeights(), 1
    boxes, logits = arrays["boxes"][0], arrays["actions"]
    gt = L.ground_truth(anns)
    assert gt.actions.shape == (6, 6, 5)
    batched = L.match_cost(boxes[:, :, keyframe], logits,
                           gt.tubes[:, :, keyframe], gt.actions, w,
                           weak=gt.weak)
    matches = L.keyframe_matches(boxes, logits, gt, w, keyframe)
    for i, ann in enumerate(anns):
        m = len(ann.actors)
        acts = [sorted(a.actions) for a in ann.actors]
        key = np.stack([a.tube[keyframe] for a in ann.actors])
        one = L.match_cost(boxes[i, :, keyframe], logits[i], key,
                           _padded(acts), w, weak=ann.weak)
        np.testing.assert_array_equal(batched[i, :m], one)
        np.testing.assert_array_equal(
            one, _loop_match_cost(boxes[i, :, keyframe], logits[i], key,
                                  acts, w, ann.weak))
        assert matches[i].pairs() == L.hungarian_match(one).pairs()
    # weak mode for the whole batch drops every action term
    all_weak = L.match_cost(boxes[:, :, keyframe], logits,
                            gt.tubes[:, :, keyframe], gt.actions, w,
                            weak=True)
    boxes_only = L.match_cost(boxes[:, :, keyframe], logits,
                              gt.tubes[:, :, keyframe], gt.actions,
                              replace(w, action_bce=0.0))
    np.testing.assert_array_equal(all_weak, boxes_only)


# -- classification terms ----------------------------------------------------

def _group_ce(group_logits, group):
    tube = np.stack([[0.4, 0.5, 0.2, 0.2]] * 2)
    out = _fake_output([tube[None, None]], group_logits=group_logits[None])
    return L.total_objective(out, [_annotation([tube], [[0]], group)],
                             LossWeights(action_bce=0.0),
                             keyframe=1)[1]["group_ce"]


def test_cross_entropy_uniform_logits():
    assert abs(_group_ce(np.zeros(6), 3) - np.log(6.0)) <= 1e-12


def test_cross_entropy_confident_correct_near_zero():
    logits = np.full(6, -10.0)
    logits[2] = 10.0
    assert _group_ce(logits, 2) < 1e-6


def test_bce_matches_direct_formula():
    rng = np.random.default_rng(5)
    x = rng.normal(size=(3, 4))
    y = (rng.random((3, 4)) > 0.5).astype(float)
    got = L.binary_cross_entropy_with_logits(Tensor(x), y).item()
    p = 1.0 / (1.0 + np.exp(-x))
    want = -(y * np.log(p) + (1 - y) * np.log(1 - p)).mean()
    assert abs(got - want) <= 1e-10


def test_bce_gradient():
    rng = np.random.default_rng(6)
    y = (rng.random((2, 3)) > 0.5).astype(float)
    x0 = Tensor(rng.normal(size=(2, 3)))
    err = grad_check(
        rowwise(lambda v: L.binary_cross_entropy_with_logits(v, y)), x0)
    assert err <= 1e-6


# -- total objective ---------------------------------------------------------

def _fake_output(layer_boxes, action_logits=None, group_logits=None):
    """A decoder output over the given per-layer tubes; the logits default
    to zeros."""
    from groundact.decoder import DecoderOutput
    b, n = layer_boxes[0].shape[:2]
    return DecoderOutput(
        per_layer_boxes=[Tensor(x) for x in layer_boxes],
        actor_embeddings=Tensor(np.zeros((b, n, 1))),
        action_logits=Tensor(np.zeros((b, n, 6)) if action_logits is None
                             else action_logits),
        group_logits=Tensor(np.zeros((b, 6)) if group_logits is None
                            else group_logits))


def _annotation(tubes, actions, group=0):
    from groundact.data import ActorAnnotation, SceneAnnotation
    actors = [ActorAnnotation(i, np.asarray(t, dtype=float), list(a))
              for i, (t, a) in enumerate(zip(tubes, actions))]
    return SceneAnnotation(clip_id="fixture", keyframe=1, actors=actors,
                           group_activity=group)


def test_total_objective_weighting():
    # box-only weights: total must equal 5*l1 + 2*giou computed independently
    rng = np.random.default_rng(7)
    t_frames = 3
    gt_tube = np.stack([[0.4, 0.5, 0.2, 0.2]] * t_frames)
    pred = np.stack([[0.5, 0.55, 0.25, 0.18]] * t_frames)[None, None]
    ann = _annotation([gt_tube], [[0]])
    out = _fake_output([pred], action_logits=np.zeros((1, 1, 6)))
    w = LossWeights(group_ce=0.0, action_bce=0.0)
    total, breakdown = L.total_objective(out, [ann], w, keyframe=1)
    l1 = l1_loss(Tensor(pred[0, 0]), gt_tube).item()
    gl = giou_loss(Tensor(pred[0, 0]), gt_tube).item()
    assert abs(total.item() - (5 * l1 + 2 * gl)) <= 1e-10
    assert abs(breakdown["l1"] - l1) <= 1e-12


def test_total_objective_perfect_prediction_zero():
    t_frames = 2
    tube = np.stack([[0.4, 0.5, 0.2, 0.2]] * t_frames)
    ann = _annotation([tube], [[0]])
    out = _fake_output([tube[None, None]])
    w = LossWeights(group_ce=0.0, action_bce=0.0)
    total, _ = L.total_objective(out, [ann], w, keyframe=1)
    assert total.item() == 0.0


def test_total_objective_gt_permutation_invariant():
    rng = np.random.default_rng(9)
    tubes = [np.stack([[0.3, 0.3, 0.2, 0.2]] * 2),
             np.stack([[0.7, 0.7, 0.2, 0.2]] * 2)]
    pred = rng.uniform(0.25, 0.75, size=(1, 3, 2, 4))
    pred[..., 2:] = rng.uniform(0.1, 0.3, size=pred[..., 2:].shape)
    logits = rng.normal(size=(1, 3, 6))
    w = LossWeights()
    a1 = _annotation(tubes, [[0], [1]])
    a2 = _annotation(tubes[::-1], [[1], [0]])
    t1, _ = L.total_objective(_fake_output([pred], logits), [a1], w,
                              keyframe=1)
    t2, _ = L.total_objective(_fake_output([pred], logits), [a2], w,
                              keyframe=1)
    assert abs(t1.item() - t2.item()) <= 1e-10


def test_total_objective_no_actors_rejected():
    from groundact.data import SceneAnnotation
    ann = SceneAnnotation(clip_id="empty", keyframe=0, actors=[],
                          group_activity=0)
    with pytest.raises(ValueError):
        L.total_objective(_fake_output([np.zeros((1, 1, 1, 4))]), [ann],
                          LossWeights(), keyframe=0)


def test_weak_mode_zero_action_bce_in_breakdown():
    tube = np.stack([[0.4, 0.5, 0.2, 0.2]] * 2)
    ann = _annotation([tube], [[2]])
    out = _fake_output([tube[None, None]],
                       action_logits=np.ones((1, 1, 6)))
    _, breakdown = L.total_objective(out, [ann], LossWeights(), keyframe=1,
                                     weak=True)
    assert breakdown["action_bce"] == 0.0


# -- batched objective against one clip at a time ----------------------------

def _one_clip_objectives(out, anns, w, keyframe, weak=False):
    """Mean over clips of the one-clip objective, each clip scored on its own
    slice of the outputs: the reference the batched objective must equal."""
    total = Tensor(np.zeros(()))
    agg = {"l1": 0.0, "giou": 0.0, "group_ce": 0.0, "action_bce": 0.0}
    b = len(anns)
    for i, ann in enumerate(anns):
        s = slice(i, i + 1)
        gt = np.stack([a.tube for a in ann.actors])
        acts = [[] if weak else sorted(a.actions) for a in ann.actors]
        logits = out.action_logits[s]
        for boxes in out.per_layer_boxes:
            clip_boxes = boxes[s]
            cost = L.match_cost(clip_boxes.data[0, :, keyframe],
                                logits.data[0], gt[:, keyframe],
                                _padded(acts), w, weak=weak)
            match = L.hungarian_match(cost)
            pred = clip_boxes[0, match.pred_indices]
            l1 = l1_loss(pred, gt)
            gl = giou_loss(T.reshape(pred, (-1, 4)), gt.reshape(-1, 4))
            total = T.add(T.add(total, T.mul(l1, w.l1)), T.mul(gl, w.giou))
            agg["l1"] += l1.item() / b
            agg["giou"] += gl.item() / b
        if w.group_ce > 0 and ann.group_activity is not None:
            ce = cross_entropy(out.group_logits[s][0], ann.group_activity)
            total = T.add(total, T.mul(ce, w.group_ce))
            agg["group_ce"] += ce.item() / b
        if not weak and w.action_bce > 0:
            targets = np.zeros(logits.shape[1:])
            for gt_i, pred_j in match.pairs():
                targets[pred_j, acts[gt_i]] = 1.0
            bce = L.binary_cross_entropy_with_logits(logits[0], targets)
            total = T.add(total, T.mul(bce, w.action_bce))
            agg["action_bce"] += bce.item() / b
    return T.mul(total, 1.0 / b), agg


def _random_boxes(rng, shape):
    boxes = rng.uniform(0.3, 0.7, size=shape + (4,))
    boxes[..., 2:] = rng.uniform(0.1, 0.3, size=shape + (2,))
    return boxes


def _random_batch(rng, counts, queries=6, frames=3, layers=2, unlabelled=()):
    """Arrays of a decoder output and annotations with the given actor
    counts; clips listed in ``unlabelled`` have no group label."""
    from groundact.data import ActorAnnotation, SceneAnnotation
    b = len(counts)
    arrays = {"boxes": [_random_boxes(rng, (b, queries, frames))
                        for _ in range(layers)],
              "actions": rng.normal(size=(b, queries, 6)),
              "groups": rng.normal(size=(b, 6))}
    anns = []
    for i, m in enumerate(counts):
        actors = [ActorAnnotation(j, _random_boxes(rng, (frames,)),
                                  sorted(rng.choice(6, size=1 + j % 2,
                                                    replace=False).tolist()))
                  for j in range(m)]
        anns.append(SceneAnnotation(
            f"clip{i}", frames // 2, actors,
            None if i in unlabelled else int(rng.integers(6))))
    return arrays, anns


def _output(arrays):
    """Fresh leaf tensors over the arrays (each call a new graph)."""
    from groundact.decoder import DecoderOutput
    leaf = lambda a: Tensor(a.copy(), requires_grad=True)
    return DecoderOutput([leaf(x) for x in arrays["boxes"]], [],
                         leaf(arrays["actions"]), leaf(arrays["groups"]))


def _assert_batched_equals_one_clip(arrays, anns, w, weak=False):
    keyframe = anns[0].keyframe
    results = []
    for objective in (L.total_objective, _one_clip_objectives):
        out = _output(arrays)
        total, breakdown = objective(out, anns, w, keyframe, weak=weak)
        total.backward()
        grads = [np.zeros(x.shape) if x.grad is None else x.grad
                 for x in out.per_layer_boxes + [out.action_logits,
                                                 out.group_logits]]
        results.append((total.item(), breakdown, grads))
    (t_b, bd_b, g_b), (t_r, bd_r, g_r) = results
    assert abs(t_b - t_r) <= 1e-12 * max(1.0, abs(t_r))
    for k in bd_r:
        assert abs(bd_b[k] - bd_r[k]) <= 1e-12, k
    for gb, gr in zip(g_b, g_r):
        np.testing.assert_allclose(gb, gr, rtol=0, atol=1e-12)
    return t_b


def test_batched_objective_ragged_equals_one_clip_mean():
    arrays, anns = _random_batch(np.random.default_rng(10), [1, 4, 2, 6, 3])
    assert _assert_batched_equals_one_clip(arrays, anns, LossWeights()) > 0


def test_batched_objective_unlabelled_group_equals_one_clip_mean():
    arrays, anns = _random_batch(np.random.default_rng(11), [2, 3, 1],
                                 unlabelled=(1,))
    _assert_batched_equals_one_clip(arrays, anns, LossWeights())


def test_batched_objective_weak_equals_one_clip_mean():
    from groundact.data import weak_supervision_view
    arrays, anns = _random_batch(np.random.default_rng(12), [3, 1, 2])
    _assert_batched_equals_one_clip(arrays, anns, LossWeights(), weak=True)
    weak_anns = [weak_supervision_view(a) for a in anns]
    _assert_batched_equals_one_clip(arrays, weak_anns, LossWeights(),
                                    weak=True)


def test_action_bce_leaves_weakly_annotated_clips_out():
    from groundact.data import weak_supervision_view
    arrays, anns = _random_batch(np.random.default_rng(16), [2, 3])
    w = LossWeights()
    out = _output(arrays)
    total, breakdown = L.total_objective(
        out, [anns[0], weak_supervision_view(anns[1])], w, keyframe=1)
    first = {"boxes": [x[:1] for x in arrays["boxes"]],
             "actions": arrays["actions"][:1], "groups": arrays["groups"][:1]}
    _, alone = L.total_objective(_output(first), anns[:1], w, keyframe=1)
    assert breakdown["action_bce"] == alone["action_bce"] > 0
    total.backward()
    assert not out.action_logits.grad[1].any()
    assert out.action_logits.grad[0].any()
    # a batch of weak clips only has no BCE term, also in full mode
    out = _output(arrays)
    total, breakdown = L.total_objective(
        out, [weak_supervision_view(a) for a in anns], w, keyframe=1)
    total.backward()
    assert breakdown["action_bce"] == 0.0 and out.action_logits.grad is None


def test_batched_objective_gradient_wrt_boxes():
    arrays, anns = _random_batch(np.random.default_rng(15), [1, 3], layers=1)
    out = _output(arrays)

    def loss(boxes):
        out.per_layer_boxes = [boxes]
        return L.total_objective(out, anns, LossWeights(), keyframe=1)[0]

    assert grad_check(rowwise(loss), Tensor(arrays["boxes"][0])) <= 1e-6


@settings(deadline=None, max_examples=25)
@given(st.integers(min_value=0, max_value=2 ** 31 - 1))
def test_batched_objective_invariant_to_clip_and_actor_order(seed):
    rng = np.random.default_rng(seed)
    counts = rng.integers(1, 5, size=int(rng.integers(1, 5))).tolist()
    arrays, anns = _random_batch(rng, counts, unlabelled=(0,))
    w = LossWeights()
    total, breakdown = L.total_objective(_output(arrays), anns, w, keyframe=1)

    from dataclasses import replace
    order = rng.permutation(len(anns))
    shuffled = {"boxes": [x[order] for x in arrays["boxes"]],
                "actions": arrays["actions"][order],
                "groups": arrays["groups"][order]}
    anns2 = [replace(anns[i], actors=[anns[i].actors[j] for j in
                                      rng.permutation(len(anns[i].actors))])
             for i in order]
    total2, breakdown2 = L.total_objective(_output(shuffled), anns2, w,
                                           keyframe=1)
    assert abs(total.item() - total2.item()) <= 1e-12 * max(1.0, total.item())
    for k in breakdown:
        assert abs(breakdown[k] - breakdown2[k]) <= 1e-12


def test_batched_objective_graph_size_independent_of_batch():
    sizes = []
    for counts in ([2, 1], [2, 1, 3, 1, 2, 4]):
        arrays, anns = _random_batch(np.random.default_rng(16), counts,
                                     unlabelled=(1,))
        total, _ = L.total_objective(_output(arrays), anns, LossWeights(),
                                     keyframe=1)
        sizes.append(len(total.topo_order()))
    assert sizes[0] == sizes[1]
