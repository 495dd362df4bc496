"""Grounding objective: L1 + generalized IoU on Hungarian-matched boxes (one
fused graph node per decoder layer, one value per clip), plus group
cross-entropy and per-actor binary cross-entropy, accumulated over every
decoder layer.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import os
from collections import namedtuple
from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

from . import tensor as T
from .config import LossWeights
from .tensor import ContractError, ShapeError, Tensor


def _load_assignment_solver():
    """scipy's compiled rectangular assignment solver, without importing
    ``scipy.optimize``.

    ``scipy.optimize.linear_sum_assignment`` is the builtin of the extension
    module ``scipy/optimize/_lsap``. Loading that one file, found without
    importing scipy, skips importing the whole package, which took most of
    the program's start-up time and memory; the function and its
    tie-breaking are the same. Where scipy has no standalone compiled
    ``_lsap``, the public import is used."""
    scipy = importlib.util.find_spec("scipy")
    if scipy is not None and scipy.submodule_search_locations:
        path = [os.path.join(p, "optimize")
                for p in scipy.submodule_search_locations]
        spec = importlib.machinery.PathFinder.find_spec(f"{__package__}._lsap",
                                                        path)
        if spec is not None and isinstance(
                spec.loader, importlib.machinery.ExtensionFileLoader):
            module = importlib.util.module_from_spec(spec)
            spec.loader.exec_module(module)
            return module.linear_sum_assignment
    from scipy.optimize import linear_sum_assignment
    return linear_sum_assignment


linear_sum_assignment = _load_assignment_solver()


# -- box geometry ------------------------------------------------------------

def cxcywh_to_corners(boxes) -> np.ndarray:
    """(cx, cy, w, h) -> (x1, y1, x2, y2) over the last axis."""
    boxes = np.asarray(boxes, dtype=np.float64)
    out = np.empty_like(boxes)
    out[..., 0] = boxes[..., 0] - boxes[..., 2] / 2
    out[..., 1] = boxes[..., 1] - boxes[..., 3] / 2
    out[..., 2] = boxes[..., 0] + boxes[..., 2] / 2
    out[..., 3] = boxes[..., 1] + boxes[..., 3] / 2
    return out


def giou_corners(a, b) -> float:
    """Generalized IoU of two corner-form boxes; exact scalar arithmetic.

    The scalar reference for ``pairwise_iou`` and ``box_loss``, which the
    program uses; the acceptance tests check it against a grid oracle.
    """
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


# the gIoU terms of corner-form boxes p against g, broadcast together;
# iw_raw and ih_raw are the intersection's sides before the clamp at 0, and
# hw and hh the hull's
_Overlap = namedtuple("_Overlap", "pw ph iw_raw ih_raw iw ih inter union hw "
                                  "hh hull iou giou")


def _overlap(p: np.ndarray, g: np.ndarray) -> _Overlap:
    """The geometry that ``pairwise_iou`` and ``box_loss`` share."""
    px1, py1, px2, py2 = (p[..., i] for i in range(4))
    gx1, gy1, gx2, gy2 = (g[..., i] for i in range(4))
    pw, ph = px2 - px1, py2 - py1
    area_g = (gx2 - gx1) * (gy2 - gy1)
    iw_raw = np.minimum(px2, gx2) - np.maximum(px1, gx1)
    ih_raw = np.minimum(py2, gy2) - np.maximum(py1, gy1)
    iw, ih = np.maximum(iw_raw, 0.0), np.maximum(ih_raw, 0.0)
    inter = iw * ih
    union = pw * ph + area_g - inter
    hw = np.maximum(px2, gx2) - np.minimum(px1, gx1)
    hh = np.maximum(py2, gy2) - np.minimum(py1, gy1)
    hull = hw * hh
    iou = inter / union
    return _Overlap(pw, ph, iw_raw, ih_raw, iw, ih, inter, union, hw, hh,
                    hull, iou, iou - (hull - union) / hull)


def pairwise_iou(pred_cxcywh: np.ndarray, gt_cxcywh: np.ndarray):
    """Pairwise IoU and gIoU over shared leading axes,
    pred [..., N, 4] x gt [..., M, 4] -> ([..., M, N], [..., M, N])."""
    ov = _overlap(cxcywh_to_corners(pred_cxcywh)[..., None, :, :],
                  cxcywh_to_corners(gt_cxcywh)[..., :, None, :])
    return ov.iou, ov.giou


# -- differentiable box loss -------------------------------------------------

def box_loss(boxes: Tensor, index, gt: np.ndarray, weights: np.ndarray,
             l1_weight: float, giou_weight: float) -> Tuple[Tensor, float, float]:
    """L1 + gIoU over matched (cx, cy, w, h) pairs as one graph node, one
    value per row.

    The pairs are ``boxes[index]``, of shape [R, ..., 4], against ``gt``
    (broadcastable to that shape); ``weights`` (broadcastable to [R, ...])
    weights each pair.  Returns the [R] values l1_weight * L1_r +
    giou_weight * G_r over each row's pairs, and the two terms summed over
    all pairs as floats, where L1 = sum(weights * mean |pred - gt| over the
    4 coordinates) and G = sum(weights * (1 - gIoU)).  The backward is
    written out by hand and keeps the subgradients of the elementwise ops
    at ties: |0|' = 0, the clamp of an empty intersection passes the
    gradient at exactly 0, and a min/max tie sends it to the prediction.
    The node keeps no array of its own: the backward rebuilds the pairs and
    their geometry from ``boxes.data[index]`` and ``gt``.
    """
    pred = boxes.data[index]
    gt = np.asarray(gt, dtype=np.float64)
    w = np.asarray(weights, dtype=np.float64)
    _check_pairs(pred.shape, gt.shape, w.shape)
    l1_pairs = np.abs(pred - gt) * (np.expand_dims(w, -1) / pred.shape[-1])
    l1 = float(l1_pairs.sum())
    gl_pairs = (1.0 - _overlap(cxcywh_to_corners(pred),
                               cxcywh_to_corners(gt)).giou) * w
    gl = float(gl_pairs.sum())
    # a row's sums add its pairs in the order a call on that row alone does
    pairs = tuple(range(1, pred.ndim - 1))
    data = (l1_weight * l1_pairs.sum(axis=pairs + (-1,))
            + giou_weight * gl_pairs.sum(axis=pairs))
    req = boxes.requires_grad

    def backward(grad):
        pred = boxes.data[index]
        p, g = cxcywh_to_corners(pred), cxcywh_to_corners(gt)
        px1, py1, px2, py2 = (p[..., i] for i in range(4))
        gx1, gy1, gx2, gy2 = (g[..., i] for i in range(4))
        ov = _overlap(p, g)
        # [R] -> [R, 1, ...], broadcast over each row's pairs
        grad = grad.reshape(grad.shape + (1,) * len(pairs))
        d_pred = np.sign(pred - gt) * (np.expand_dims(grad * l1_weight, -1)
                                       * np.expand_dims(w, -1) / pred.shape[-1])
        d_giou = -(grad * giou_weight) * w
        union, hull = ov.union, ov.hull
        d_inter = d_giou / union
        d_union = -d_giou * ov.inter / (union * union) + d_giou / hull
        d_hull = -d_giou / hull + d_giou * (hull - union) / (hull * hull)
        d_inter = d_inter - d_union
        d_iw = d_inter * ov.ih * (ov.iw_raw >= 0)
        d_ih = d_inter * ov.iw * (ov.ih_raw >= 0)
        d_hw, d_hh = d_hull * ov.hh, d_hull * ov.hw
        d_x2 = d_union * ov.ph + d_iw * (px2 <= gx2) + d_hw * (px2 >= gx2)
        d_x1 = -d_union * ov.ph - d_iw * (px1 >= gx1) - d_hw * (px1 <= gx1)
        d_y2 = d_union * ov.pw + d_ih * (py2 <= gy2) + d_hh * (py2 >= gy2)
        d_y1 = -d_union * ov.pw - d_ih * (py1 >= gy1) - d_hh * (py1 <= gy1)
        d_pred[..., 0] += d_x1 + d_x2
        d_pred[..., 1] += d_y1 + d_y2
        d_pred[..., 2] += 0.5 * (d_x2 - d_x1)
        d_pred[..., 3] += 0.5 * (d_y2 - d_y1)
        full = np.zeros_like(boxes.data)
        np.add.at(full, index, d_pred)
        boxes.accumulate(full)

    return Tensor(data, req, (boxes,), backward if req else None), l1, gl


def _check_pairs(pred: tuple, gt: tuple, weights: tuple) -> None:
    """``box_loss``'s boundary: [R, ..., 4] matched boxes, a gt that
    broadcasts to them and weights that broadcast to [R, ...]."""
    if len(pred) < 2 or pred[-1] != 4:
        raise ShapeError(f"box_loss needs matched boxes [R, ..., 4], "
                         f"got shape {pred}")
    for name, shape, target in (("gt", gt, pred),
                                ("weights", weights, pred[:-1])):
        try:
            fits = np.broadcast_shapes(shape, target) == target
        except ValueError:
            fits = False
        if not fits:
            raise ShapeError(f"box_loss {name} of shape {shape} does not "
                             f"broadcast to {target} (matched boxes {pred})")


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
    # with M <= N the solver returns rows 0..M-1 in order
    rows, cols = linear_sum_assignment(cost)
    return MatchResult(rows, cols, float(cost[rows, cols].sum()))


def match_cost(pred_boxes: np.ndarray, pred_action_logits: np.ndarray,
               gt_boxes: np.ndarray, gt_actions: np.ndarray,
               weights: LossWeights, weak=False) -> np.ndarray:
    """Pairwise matching cost on keyframe boxes over shared leading axes,
    pred [..., N, 4] (logits [..., N, A]) x gt [..., M, 4] -> [..., M, N].

    cost(i, j) = l1_weight * |b_i - bhat_j|_1 + giou_weight * (1 - gIoU)
                 [+ bce_weight * mean over gt actions of (1 - sigmoid(logit))]
    gt_actions is [..., M, K] action indices padded with -1, as in
    ``GroundTruth.actions``.  The action term is dropped for actors without
    actions and where ``weak`` (a bool or a [...] array of per-clip flags)
    is set.
    """
    pred_boxes = np.asarray(pred_boxes, dtype=np.float64)
    gt_boxes = np.asarray(gt_boxes, dtype=np.float64)
    l1 = np.abs(gt_boxes[..., :, None, :] - pred_boxes[..., None, :, :]).sum(axis=-1)
    giou_mat = pairwise_iou(pred_boxes, gt_boxes)[1]
    cost = weights.l1 * l1 + weights.giou * (1.0 - giou_mat)
    if weights.action_bce > 0:
        acts = np.asarray(gt_actions)
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
    """Pad the clips' actor tubes and sorted action lists into arrays, each
    filled by one scatter."""
    anns = list(annotations)
    for ann in anns:
        if not ann.actors:
            raise ValueError(f"annotation {ann.clip_id} has no actor boxes")
    actors = [a for ann in anns for a in ann.actors]
    counts = np.array([len(ann.actors) for ann in anns])
    # each actor's clip and slot, and each action's actor and place, in order
    clip, slot = np.nonzero(np.arange(counts.max()) < counts[:, None])
    stacked = np.array([a.tube for a in actors])             # [sum M, T, 4]
    tubes = np.tile(_PAD_BOX, (len(anns), counts.max(), stacked.shape[1], 1))
    tubes[clip, slot] = stacked
    lengths = np.array([len(a.actions) for a in actors])
    actor, k = np.nonzero(np.arange(lengths.max()) < lengths[:, None])
    actions = np.full(tubes.shape[:2] + (lengths.max(),), -1, dtype=np.int64)
    actions[clip[actor], slot[actor], k] = [
        act for a in actors for act in sorted(a.actions)]
    return GroundTruth(tubes, counts, actions,
                       np.array([a.weak for a in anns], dtype=bool))


def keyframe_matches(boxes: np.ndarray, action_logits: np.ndarray,
                     gt: GroundTruth, weights: LossWeights, keyframe: int,
                     weak: bool = False) -> List[MatchResult]:
    """Per clip, the minimum-cost match of its actors to its queries.

    boxes [B, N, T, 4] and action_logits [B, N, A] are plain
    arrays; the cost is taken on the keyframe boxes, in one ``match_cost``
    over the batch.  The action term is dropped for weak mode and for
    weakly annotated clips.
    """
    cost = match_cost(boxes[:, :, keyframe, :], action_logits,
                      gt.tubes[:, :, keyframe, :], gt.actions, weights,
                      weak=weak | gt.weak)
    return [hungarian_match(cost[i, :m]) for i, m in enumerate(gt.counts)]


# -- classification terms ----------------------------------------------------

def binary_cross_entropy_with_logits(logits: Tensor, targets: np.ndarray) -> Tensor:
    """Mean BCE over all entries; numerically stable softplus form."""
    y = Tensor(np.asarray(targets, dtype=np.float64))
    # bce = softplus(x) - x*y
    return T.tmean(T.sub(T.softplus(logits), T.mul(logits, y)))


# -- total objective ---------------------------------------------------------

def total_objective(decoder_out, annotations, weights: LossWeights,
                    keyframe: int, weak: bool = False):
    """Batch objective: the mean over clips of each clip's objective,
    accumulated over decoder layers.

    decoder_out: DecoderOutput with one or more per-layer [B, N, T, 4] box
    tubes (a decoder without layers returns its reference tube).
    annotations: one SceneAnnotation per clip, tubes sampled to T frames.
    The matching cost is one array op over the batch and the assignment is
    solved per clip; every loss term is one op over the whole batch, with
    actors padded to the largest clip and each clip's boxes weighted
    1/(B M_i T) so the sum equals the mean of per-clip means.  The action
    BCE is the mean over the queries of clips that are not weakly annotated.
    Returns (scalar Tensor, breakdown dict of python floats).
    """
    anns = list(annotations)
    truth = ground_truth(anns)
    gt, counts = truth.tubes, truth.counts                   # [B, M, T, 4]
    b, frames = len(anns), gt.shape[2]
    valid = np.arange(gt.shape[1]) < counts[:, None]         # [B, M]
    box_w = (valid / (b * counts[:, None] * frames))[:, :, None]
    rows = np.arange(b)[:, None]

    total = Tensor(np.zeros(()))
    breakdown = {"l1": 0.0, "giou": 0.0, "group_ce": 0.0, "action_bce": 0.0}
    for boxes in decoder_out.per_layer_boxes:
        matches = keyframe_matches(boxes.data, decoder_out.action_logits.data,
                                   truth, weights, keyframe, weak)
        # padded slots repeat the clip's matched queries, at weight 0
        idx = np.stack([np.resize(m.pred_indices, gt.shape[1])
                        for m in matches])
        loss, l1, gl = box_loss(boxes, (rows, idx), gt, box_w,
                                weights.l1, weights.giou)     # [B] per clip
        total = T.add(total, T.tsum(loss))
        breakdown["l1"] += l1
        breakdown["giou"] += gl

    labelled = [i for i, a in enumerate(anns) if a.group_activity is not None]
    if weights.group_ce > 0 and labelled:
        logp = T.log_softmax(decoder_out.group_logits, axis=-1)    # [B, G]
        picked = logp[labelled, [anns[i].group_activity for i in labelled]]
        ce = T.mul(T.tsum(picked), -1.0 / b)
        total = T.add(total, T.mul(ce, weights.group_ce))
        breakdown["group_ce"] = ce.item()

    # weakly annotated clips have no action targets, so no BCE rows
    strong = np.flatnonzero(~truth.weak)
    if not weak and weights.action_bce > 0 and strong.size:
        logits = decoder_out.action_logits                        # [B, N, A]
        targets = np.zeros(logits.shape)
        # each actor's actions, at the query the last layer matched it to
        clip, actor, k = np.nonzero(truth.actions >= 0)
        targets[clip, idx[clip, actor], truth.actions[clip, actor, k]] = 1.0
        if strong.size < b:
            logits, targets = logits[strong], targets[strong]
        bce = binary_cross_entropy_with_logits(logits, targets)
        total = T.add(total, T.mul(bce, weights.action_bce))
        breakdown["action_bce"] = bce.item()

    return total, breakdown
