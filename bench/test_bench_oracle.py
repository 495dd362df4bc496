"""Tests for the benchmark's own checks (bench/oracle.py).

    PYTHONPATH=src python3 -m pytest -q bench
"""

import itertools

import numpy as np

import oracle
from groundact import tensor as T
from groundact.tensor import Tensor
from workloads import DIRECTIONAL_TOL


def random_boxes(rng, n):
    """(cx, cy, w, h) boxes well inside the unit square."""
    wh = rng.uniform(0.05, 0.4, size=(n, 2))
    c = rng.uniform(0.25, 0.75, size=(n, 2))
    return np.concatenate([c, wh], axis=1)


def raster_iou_giou(a, b, points=600):
    """IoU and gIoU by counting cell centres over the hull of two boxes."""
    (ax1, ay1, ax2, ay2), (bx1, by1, bx2, by2) = oracle.corners(np.stack([a, b]))
    lo_x, hi_x = min(ax1, bx1), max(ax2, bx2)
    lo_y, hi_y = min(ay1, by1), max(ay2, by2)
    xs = lo_x + (np.arange(points) + 0.5) * (hi_x - lo_x) / points
    ys = lo_y + (np.arange(points) + 0.5) * (hi_y - lo_y) / points
    gx, gy = np.meshgrid(xs, ys, indexing="ij")
    in_a = (gx >= ax1) & (gx < ax2) & (gy >= ay1) & (gy < ay2)
    in_b = (gx >= bx1) & (gx < bx2) & (gy >= by1) & (gy < by2)
    inter = np.count_nonzero(in_a & in_b)
    union = np.count_nonzero(in_a | in_b)
    hull = points * points
    return inter / union, inter / union - (hull - union) / hull


def test_iou_and_giou_match_rasterized_areas():
    rng = np.random.default_rng(0)
    for _ in range(20):
        pred, gt = random_boxes(rng, 3), random_boxes(rng, 2)
        iou, giou = oracle.iou_giou(pred, gt)
        assert iou.shape == giou.shape == (2, 3)
        for g in range(2):
            for p in range(3):
                r_iou, r_giou = raster_iou_giou(pred[p], gt[g])
                assert abs(iou[g, p] - r_iou) < 1e-2
                assert abs(giou[g, p] - r_giou) < 1e-2


def test_exact_assignment_matches_brute_force():
    rng = np.random.default_rng(1)
    for _ in range(60):
        m = int(rng.integers(1, 5))
        n = int(rng.integers(m, 7))
        cost = rng.normal(size=(m, n))
        best = min(sum(cost[i, c] for i, c in enumerate(cols))
                   for cols in itertools.permutations(range(n), m))
        pairs = oracle.exact_assignment(cost)
        assert [i for i, _ in pairs] == list(range(m))
        assert len({j for _, j in pairs}) == m
        assert abs(sum(cost[i, j] for i, j in pairs) - best) < 1e-12


def square_with_gradient(scale):
    """y = sum(x * x) whose backward returns ``scale`` times the gradient."""
    def f(x: Tensor) -> Tensor:
        sq = Tensor(x.data * x.data, requires_grad=True, _parents=(x,),
                    _backward=lambda g: x.accumulate(scale * 2 * x.data * g))
        return T.tsum(sq)
    return f


def directional_error_of(f, rng):
    x0 = rng.normal(size=5)
    d = rng.normal(size=5)
    x = Tensor(x0.copy(), requires_grad=True)
    f(x).backward()
    analytic = float(x.grad @ d)
    return oracle.directional_error(lambda t: f(Tensor(x0 + t * d)).item(),
                                    analytic)


def test_directional_check_passes_a_correct_gradient():
    assert directional_error_of(square_with_gradient(1.0),
                                np.random.default_rng(2)) <= DIRECTIONAL_TOL


def test_directional_check_catches_a_wrong_gradient():
    for scale in (1.001, 0.0, -1.0):
        assert directional_error_of(square_with_gradient(scale),
                                    np.random.default_rng(3)) > DIRECTIONAL_TOL


def test_directional_check_declines_a_jump():
    """A loss that jumps within the step (a flipped matching) is no test of
    the gradient: the check returns None instead of an error."""
    def f(x: Tensor) -> Tensor:
        return T.add(T.tsum(T.mul(x, x)), float(x.data[0] > 0))
    x0 = np.array([0.0, 0.5, -0.3])
    d = np.array([1.0, 0.2, 0.1])
    x = Tensor(x0.copy(), requires_grad=True)
    f(x).backward()
    assert oracle.directional_error(lambda t: f(Tensor(x0 + t * d)).item(),
                                    float(x.grad @ d)) is None
