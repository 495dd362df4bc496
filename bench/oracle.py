"""Computations the benchmark checks the program against.

Everything here is written apart from groundact: box IoU and gIoU from the
(cx, cy, w, h) definition, the keyframe matching cost, an exact minimum-cost
assignment by dynamic programming over subsets (no scipy), and a
central-difference directional derivative.  Only numpy is used.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np


def corners(boxes: np.ndarray) -> np.ndarray:
    """(cx, cy, w, h) -> (x1, y1, x2, y2) along the last axis."""
    b = np.asarray(boxes, dtype=np.float64)
    half = b[..., 2:] / 2
    return np.concatenate([b[..., :2] - half, b[..., :2] + half], axis=-1)


def iou_giou(pred: np.ndarray, gt: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Pairwise IoU and generalized IoU, each [len(gt), len(pred)]."""
    p = corners(pred)[None, :, :]
    g = corners(gt)[:, None, :]
    lo = np.maximum(p[..., :2], g[..., :2])
    hi = np.minimum(p[..., 2:], g[..., 2:])
    inter = np.prod(np.clip(hi - lo, 0.0, None), axis=-1)
    area_p = np.prod(p[..., 2:] - p[..., :2], axis=-1)
    area_g = np.prod(g[..., 2:] - g[..., :2], axis=-1)
    union = area_p + area_g - inter
    hull = np.prod(np.maximum(p[..., 2:], g[..., 2:])
                   - np.minimum(p[..., :2], g[..., :2]), axis=-1)
    iou = inter / union
    return iou, iou - (hull - union) / hull


def keyframe_cost(pred_boxes: np.ndarray, action_logits: np.ndarray,
                  gt_boxes: np.ndarray, gt_actions: Sequence[Sequence[int]],
                  w_l1: float, w_giou: float, w_action: float) -> np.ndarray:
    """Matching cost [M gt, N pred]: weighted L1 + (1 - gIoU) + action miss.

    The action term is the mean over a gt actor's labels of one minus the
    predicted sigmoid probability; actors without labels have none.
    """
    l1 = np.abs(gt_boxes[:, None, :] - pred_boxes[None, :, :]).sum(axis=-1)
    cost = w_l1 * l1 + w_giou * (1.0 - iou_giou(pred_boxes, gt_boxes)[1])
    probs = 1.0 / (1.0 + np.exp(-action_logits))
    for i, labels in enumerate(gt_actions):
        if labels and w_action > 0:
            cost[i] += w_action * (1.0 - probs[:, list(labels)].mean(axis=-1))
    return cost


def exact_assignment(cost: np.ndarray) -> List[Tuple[int, int]]:
    """Minimum-cost matching of every row to a distinct column (rows <= cols).

    Dynamic programming over the subsets of rows already matched, one column
    at a time: ``best[mask]`` is the least cost of matching the rows in
    ``mask`` to the columns seen so far.  Returns (row, col) pairs by row.
    """
    m, n = cost.shape
    if m > n:
        raise ValueError(f"{m} rows cannot be matched to {n} columns")
    full = (1 << m) - 1
    masks = np.arange(1 << m)
    best = np.full(1 << m, np.inf)
    best[0] = 0.0
    choices = []                      # per column: row taken per mask, or -1
    for j in range(n):
        new = best.copy()
        took = np.full(1 << m, -1)
        for i in range(m):
            src = masks[(masks >> i) & 1 == 0]
            dst = src | (1 << i)
            cand = best[src] + cost[i, j]
            better = cand < new[dst]
            new[dst[better]] = cand[better]
            took[dst[better]] = i
        best = new
        choices.append(took)
    pairs, mask = [], full
    for j in reversed(range(n)):
        i = choices[j][mask]
        if i >= 0:
            pairs.append((int(i), j))
            mask &= ~(1 << i)
    return sorted(pairs)


def directional_error(loss_at: Callable[[float], float], analytic: float,
                      eps: float = 1e-6,
                      kink_tol: float = 1e-3) -> Optional[float]:
    """Relative gap between ``analytic`` and the central difference of
    ``loss_at(t)`` (the loss at parameters theta + t * direction) at t = 0.

    Returns None when the two one-sided differences disagree by more than
    ``kink_tol``: the loss has a kink or a jump within ``eps`` along this
    direction (a Hungarian assignment that flips, say), so it has no
    derivative there to compare with.
    """
    f0, fp, fm = loss_at(0.0), loss_at(eps), loss_at(-eps)
    d_plus, d_minus = (fp - f0) / eps, (f0 - fm) / eps
    if abs(d_plus - d_minus) > kink_tol * max(1.0, abs(d_plus), abs(d_minus)):
        return None
    numeric = (fp - fm) / (2 * eps)
    return abs(analytic - numeric) / max(1.0, abs(analytic), abs(numeric))
