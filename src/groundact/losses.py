"""Grounding objective: L1 + generalized IoU on Hungarian-matched boxes,
plus group cross-entropy and per-actor binary cross-entropy, accumulated
over every decoder layer.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np
from scipy.optimize import linear_sum_assignment

from . import tensor as T
from .config import LossWeights
from .tensor import ContractError, Tensor


# -- box geometry ------------------------------------------------------------

def cxcywh_to_corners(boxes):
    """(cx, cy, w, h) -> (x1, y1, x2, y2); works on arrays and Tensors."""
    if isinstance(boxes, Tensor):
        cx, cy = boxes[..., 0:1], boxes[..., 1:2]
        w, h = boxes[..., 2:3], boxes[..., 3:4]
        half_w, half_h = T.mul(w, 0.5), T.mul(h, 0.5)
        return T.concat([T.sub(cx, half_w), T.sub(cy, half_h),
                         T.add(cx, half_w), T.add(cy, half_h)], axis=-1)
    boxes = np.asarray(boxes, dtype=np.float64)
    out = np.empty_like(boxes)
    out[..., 0] = boxes[..., 0] - boxes[..., 2] / 2
    out[..., 1] = boxes[..., 1] - boxes[..., 3] / 2
    out[..., 2] = boxes[..., 0] + boxes[..., 2] / 2
    out[..., 3] = boxes[..., 1] + boxes[..., 3] / 2
    return out


def giou_corners(a, b) -> float:
    """Generalized IoU of two corner-form boxes; exact scalar arithmetic."""
    ax1, ay1, ax2, ay2 = (float(v) for v in a)
    bx1, by1, bx2, by2 = (float(v) for v in b)
    area_a = (ax2 - ax1) * (ay2 - ay1)
    area_b = (bx2 - bx1) * (by2 - by1)
    if area_a <= 0 or area_b <= 0:
        raise ContractError("degenerate (zero-area) box")
    iw = max(0.0, min(ax2, bx2) - max(ax1, bx1))
    ih = max(0.0, min(ay2, by2) - max(ay1, by1))
    inter = iw * ih
    union = area_a + area_b - inter
    hull = (max(ax2, bx2) - min(ax1, bx1)) * (max(ay2, by2) - min(ay1, by1))
    return inter / union - (hull - union) / hull


def giou(a, b) -> float:
    """Generalized IoU of two (cx, cy, w, h) boxes, in (-1, 1]."""
    return giou_corners(cxcywh_to_corners(a), cxcywh_to_corners(b))


def pairwise_iou(pred_cxcywh: np.ndarray, gt_cxcywh: np.ndarray):
    """Pairwise IoU and gIoU over shared leading axes,
    pred [..., N, 4] x gt [..., M, 4] -> ([..., M, N], [..., M, N])."""
    p = cxcywh_to_corners(pred_cxcywh)[..., None, :, :]
    g = cxcywh_to_corners(gt_cxcywh)[..., :, None, :]
    area_p = (p[..., 2] - p[..., 0]) * (p[..., 3] - p[..., 1])
    area_g = (g[..., 2] - g[..., 0]) * (g[..., 3] - g[..., 1])
    iw = np.clip(np.minimum(p[..., 2], g[..., 2]) - np.maximum(p[..., 0], g[..., 0]), 0, None)
    ih = np.clip(np.minimum(p[..., 3], g[..., 3]) - np.maximum(p[..., 1], g[..., 1]), 0, None)
    inter = iw * ih
    union = area_p + area_g - inter
    hull = ((np.maximum(p[..., 2], g[..., 2]) - np.minimum(p[..., 0], g[..., 0]))
            * (np.maximum(p[..., 3], g[..., 3]) - np.minimum(p[..., 1], g[..., 1])))
    iou = inter / union
    return iou, iou - (hull - union) / hull


# -- differentiable losses ---------------------------------------------------

def _giou_tensor(pred_corners: Tensor, gt_corners: Tensor) -> Tensor:
    """Pairwise (already matched) gIoU, [..., 4] x [..., 4] -> [...]."""
    px1, py1 = pred_corners[..., 0], pred_corners[..., 1]
    px2, py2 = pred_corners[..., 2], pred_corners[..., 3]
    gx1, gy1 = gt_corners[..., 0], gt_corners[..., 1]
    gx2, gy2 = gt_corners[..., 2], gt_corners[..., 3]
    area_p = T.mul(T.sub(px2, px1), T.sub(py2, py1))
    area_g = T.mul(T.sub(gx2, gx1), T.sub(gy2, gy1))
    zero = Tensor(np.zeros(area_p.shape))
    iw = T.maximum(T.sub(T.minimum(px2, gx2), T.maximum(px1, gx1)), zero)
    ih = T.maximum(T.sub(T.minimum(py2, gy2), T.maximum(py1, gy1)), zero)
    inter = T.mul(iw, ih)
    union = T.sub(T.add(area_p, area_g), inter)
    hull = T.mul(T.sub(T.maximum(px2, gx2), T.minimum(px1, gx1)),
                 T.sub(T.maximum(py2, gy2), T.minimum(py1, gy1)))
    return T.sub(T.div(inter, union), T.div(T.sub(hull, union), hull))


def giou_loss(pred: Tensor, gt, weights=None) -> Tensor:
    """Mean of (1 - gIoU) over matched (cx, cy, w, h) pairs [..., P, 4];
    with ``weights`` (broadcastable to [..., P]), their weighted sum."""
    if _pair_count(pred) == 0:
        warnings.warn("giou_loss on empty match set, returning 0")
        return Tensor(np.zeros(()))
    if not isinstance(gt, Tensor):
        gt = np.asarray(gt, dtype=np.float64)
    g = _giou_tensor(cxcywh_to_corners(pred), cxcywh_to_corners(gt))
    return _pair_mean(T.sub(1.0, g), weights)


def l1_loss(pred: Tensor, gt, weights=None) -> Tensor:
    """Mean absolute coordinate difference over matched pairs [..., P, 4];
    with ``weights`` (broadcastable to [..., P]), the weighted sum over pairs
    of each pair's mean."""
    if _pair_count(pred) == 0:
        warnings.warn("l1_loss on empty match set, returning 0")
        return Tensor(np.zeros(()))
    diff = T.absolute(T.sub(pred, gt))
    return _pair_mean(diff, None if weights is None
                      else np.expand_dims(weights, -1) / pred.shape[-1])


def _pair_mean(x: Tensor, weights) -> Tensor:
    return T.tmean(x) if weights is None else T.tsum(T.mul(x, weights))


def _pair_count(x) -> int:
    shape = x.shape
    return int(np.prod(shape[:-1])) if len(shape) else 0


# -- matching ----------------------------------------------------------------

@dataclass
class MatchResult:
    """Injective map from ground-truth indices to prediction indices."""
    gt_indices: np.ndarray
    pred_indices: np.ndarray
    total_cost: float

    def pairs(self):
        return list(zip(self.gt_indices.tolist(), self.pred_indices.tolist()))


def hungarian_match(cost: np.ndarray) -> MatchResult:
    """Exact minimum-cost assignment of M ground truths to N predictions."""
    cost = np.asarray(cost, dtype=np.float64)
    if cost.ndim != 2:
        raise ContractError(f"cost must be a matrix, got shape {cost.shape}")
    m, n = cost.shape
    if m > n:
        raise ContractError(f"more ground truths ({m}) than predictions ({n})")
    if not np.isfinite(cost).all():
        raise ContractError("non-finite entries in cost matrix")
    rows, cols = linear_sum_assignment(cost)
    order = np.argsort(rows)
    rows, cols = rows[order], cols[order]
    return MatchResult(rows, cols, float(cost[rows, cols].sum()))


def _padded_actions(action_lists: Sequence[Sequence[int]]) -> np.ndarray:
    """Per-actor action indices, ragged -> [M, K] int array padded with -1."""
    out = np.full((len(action_lists), max(map(len, action_lists), default=0)),
                  -1, dtype=np.int64)
    for i, actions in enumerate(action_lists):
        out[i, :len(actions)] = actions
    return out


def match_cost(pred_boxes: np.ndarray, pred_action_logits: Optional[np.ndarray],
               gt_boxes: np.ndarray, gt_actions, weights: LossWeights,
               weak=False) -> np.ndarray:
    """Pairwise matching cost on keyframe boxes over shared leading axes,
    pred [..., N, 4] (logits [..., N, A]) x gt [..., M, 4] -> [..., M, N].

    cost(i, j) = l1_weight * |b_i - bhat_j|_1 + giou_weight * (1 - gIoU)
                 [+ bce_weight * mean over gt actions of (1 - sigmoid(logit))]
    gt_actions is [..., M, K] action indices padded with -1, or
    one clip's ragged per-actor lists.  The action term is dropped for
    actors without actions and where ``weak`` (a bool or a [...] array of
    per-clip flags) is set.
    """
    pred_boxes = np.asarray(pred_boxes, dtype=np.float64)
    gt_boxes = np.asarray(gt_boxes, dtype=np.float64)
    l1 = np.abs(gt_boxes[..., :, None, :] - pred_boxes[..., None, :, :]).sum(axis=-1)
    giou_mat = pairwise_iou(pred_boxes, gt_boxes)[1]
    cost = weights.l1 * l1 + weights.giou * (1.0 - giou_mat)
    if (weights.action_bce > 0 and pred_action_logits is not None
            and gt_actions is not None):
        acts = (gt_actions if isinstance(gt_actions, np.ndarray)
                else _padded_actions(gt_actions))
        used = (acts >= 0) & ~np.asarray(weak, dtype=bool)[..., None, None]
        count = used.sum(axis=-1)                                 # [..., M]
        if count.any():
            probs = 1.0 / (1.0 + np.exp(-np.asarray(pred_action_logits,
                                                    dtype=np.float64)))
            # [..., M, N, K]: probability of query j for actor i's k-th action
            picked = np.take_along_axis(probs[..., None, :, :],
                                        np.where(used, acts, 0)[..., None, :],
                                        axis=-1)
            mean = ((picked * used[..., None, :]).sum(axis=-1)
                    / np.maximum(count, 1)[..., None])
            cost += np.where(count[..., None] > 0,
                             weights.action_bce * (1.0 - mean), 0.0)
    return cost


@dataclass
class GroundTruth:
    """A batch's ground-truth actors, padded to its largest clip."""
    tubes: np.ndarray      # [B, M, T, 4]; padded slots hold a valid box
    counts: np.ndarray     # [B] actors per clip
    actions: np.ndarray    # [B, M, K] sorted action indices, padded with -1
    weak: np.ndarray       # [B] clips annotated without actions


# gt box in the padded actor slots: valid, so gIoU stays finite at weight 0
_PAD_BOX = np.array([0.5, 0.5, 0.5, 0.5])


def ground_truth(annotations) -> GroundTruth:
    """Pad the clips' actor tubes and sorted action lists into arrays."""
    anns = list(annotations)
    for ann in anns:
        if not ann.actors:
            raise ValueError(f"annotation {ann.clip_id} has no actor boxes")
    counts = np.array([len(a.actors) for a in anns])
    frames = anns[0].actors[0].tube.shape[0]
    tubes = np.tile(_PAD_BOX, (len(anns), counts.max(), frames, 1))
    most = max(len(a.actions) for ann in anns for a in ann.actors)
    actions = np.full(tubes.shape[:2] + (most,), -1, dtype=np.int64)
    for i, ann in enumerate(anns):
        tubes[i, :counts[i]] = [a.tube for a in ann.actors]
        for j, actor in enumerate(ann.actors):
            actions[i, j, :len(actor.actions)] = sorted(actor.actions)
    return GroundTruth(tubes, counts, actions,
                       np.array([a.weak for a in anns], dtype=bool))


def keyframe_matches(boxes: np.ndarray, action_logits: Optional[np.ndarray],
                     gt: GroundTruth, weights: LossWeights, keyframe: int,
                     weak: bool = False) -> List[MatchResult]:
    """Per clip, the minimum-cost match of its actors to its queries.

    boxes [B, N, T, 4] and action_logits [B, N, A] (or None) are plain
    arrays; the cost is taken on the keyframe boxes, in one ``match_cost``
    over the batch.  The action term is dropped for weak mode and for
    weakly annotated clips.
    """
    cost = match_cost(boxes[:, :, keyframe, :], action_logits,
                      gt.tubes[:, :, keyframe, :], gt.actions, weights,
                      weak=weak | gt.weak)
    return [hungarian_match(cost[i, :m]) for i, m in enumerate(gt.counts)]


# -- classification terms ----------------------------------------------------

def cross_entropy(logits: Tensor, target: int) -> Tensor:
    """Single-label CE from raw logits [G]."""
    return T.mul(T.log_softmax(logits, axis=-1)[target], -1.0)


def binary_cross_entropy_with_logits(logits: Tensor, targets: np.ndarray) -> Tensor:
    """Mean BCE over all entries; numerically stable softplus form."""
    y = Tensor(np.asarray(targets, dtype=np.float64))
    # bce = softplus(x) - x*y
    return T.tmean(T.sub(T.softplus(logits), T.mul(logits, y)))


# -- total objective ---------------------------------------------------------

def total_objective(decoder_out, annotations, weights: LossWeights,
                    keyframe: int, weak: bool = False,
                    fallback_boxes: Optional[Tensor] = None):
    """Batch objective: the mean over clips of each clip's objective,
    accumulated over decoder layers.

    decoder_out: DecoderOutput with per-layer [B, N, T, 4] box tubes.
    annotations: one SceneAnnotation per clip, tubes sampled to T frames.
    fallback_boxes [B, N, T, 4] stands in for the layers when there are none.
    The matching cost is one array op over the batch and the assignment is
    solved per clip; every loss term is one op over the whole batch, with
    actors padded to the largest clip and each clip's boxes weighted
    1/(B M_i T) so the sum equals the mean of per-clip means.
    Returns (scalar Tensor, breakdown dict of python floats).
    """
    anns = list(annotations)
    truth = ground_truth(anns)
    gt, counts = truth.tubes, truth.counts                   # [B, M, T, 4]
    b, frames = len(anns), gt.shape[2]
    valid = np.arange(gt.shape[1]) < counts[:, None]         # [B, M]
    box_w = (valid / (b * counts[:, None] * frames))[:, :, None]
    rows = np.arange(b)[:, None]

    layer_boxes = decoder_out.per_layer_boxes
    if not layer_boxes and fallback_boxes is not None:
        layer_boxes = [fallback_boxes]
    if not weights.aux_layers:
        layer_boxes = layer_boxes[-1:]
    act_logits = (decoder_out.action_logits.data
                  if decoder_out.action_logits is not None else None)

    total = Tensor(np.zeros(()))
    breakdown = {"l1": 0.0, "giou": 0.0, "group_ce": 0.0, "action_bce": 0.0}
    matches = None
    for boxes in layer_boxes:
        matches = keyframe_matches(boxes.data, act_logits, truth, weights,
                                   keyframe, weak)
        # padded slots repeat the clip's matched queries, at weight 0
        idx = np.stack([np.resize(m.pred_indices, gt.shape[1])
                        for m in matches])
        pred = boxes[rows, idx]                              # [B, M, T, 4]
        l1 = l1_loss(pred, gt, box_w)
        gl = giou_loss(pred, gt, box_w)
        total = T.add(total, T.add(T.mul(l1, weights.l1),
                                   T.mul(gl, weights.giou)))
        breakdown["l1"] += l1.item()
        breakdown["giou"] += gl.item()

    labelled = [i for i, a in enumerate(anns) if a.group_activity is not None]
    if weights.group_ce > 0 and labelled:
        logp = T.log_softmax(decoder_out.group_logits, axis=-1)    # [B, G]
        picked = logp[labelled, [anns[i].group_activity for i in labelled]]
        ce = T.mul(T.tsum(picked), -1.0 / b)
        total = T.add(total, T.mul(ce, weights.group_ce))
        breakdown["group_ce"] = ce.item()

    if not weak and weights.action_bce > 0 and matches is not None:
        targets = np.zeros(decoder_out.action_logits.shape)       # [B, N, A]
        for i, (ann, m) in enumerate(zip(anns, matches)):
            for gt_i, pred_j in m.pairs():
                targets[i, pred_j, ann.actors[gt_i].actions] = 1.0
        bce = binary_cross_entropy_with_logits(decoder_out.action_logits,
                                               targets)
        total = T.add(total, T.mul(bce, weights.action_bce))
        breakdown["action_bce"] = bce.item()

    return total, breakdown
