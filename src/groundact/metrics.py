"""Inference rules and evaluation metrics.

Hierarchical label selection with "Other" descent, group activity by member
majority vote, classification accuracy (plain, merged, and per-class mean),
per-sample multi-label precision/recall/F1, and R@K retrieval.
"""

from __future__ import annotations

import json
import warnings
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from .tensor import ContractError


class MetricError(ValueError):
    pass


# -- hierarchical inference --------------------------------------------------

@dataclass
class LabelHierarchy:
    """Ordered partitions of the label set; every non-final partition holds
    exactly one "Other" sentinel that triggers descent."""
    partitions: List[List[str]]
    other: str = "other"

    def validate(self):
        seen: Set[str] = set()
        for i, part in enumerate(self.partitions):
            final = i == len(self.partitions) - 1
            others = [l for l in part if l == self.other]
            if final and others:
                raise MetricError("final partition must not contain 'Other'")
            if not final and len(others) != 1:
                raise MetricError(f"partition {i} needs exactly one "
                                  f"{self.other!r} sentinel")
            for label in part:
                if label != self.other and label in seen:
                    raise MetricError(f"duplicate label {label!r}")
                seen.add(label)


def hierarchical_infer(partition_logits: Sequence[np.ndarray],
                       hierarchy: LabelHierarchy) -> str:
    """Argmax partition by partition, descending only on the Other sentinel.

    A metric-only utility for label hierarchies: no prediction path calls
    it.  The model predicts flat per-actor action labels and a group label
    (``training.evaluate``).
    """
    hierarchy.validate()
    if len(partition_logits) != len(hierarchy.partitions):
        raise MetricError(
            f"{len(partition_logits)} logit vectors for "
            f"{len(hierarchy.partitions)} partitions")
    for i, (logits, labels) in enumerate(zip(partition_logits,
                                             hierarchy.partitions)):
        logits = np.asarray(logits, dtype=np.float64)
        if logits.shape != (len(labels),):
            raise MetricError(f"partition {i}: {logits.shape} logits for "
                              f"{len(labels)} labels")
        pick = labels[int(np.argmax(logits))]
        if pick != hierarchy.other:
            return pick
    raise MetricError("hierarchy descended past the final partition")


def group_activity_vote(member_action_labels: Sequence[Sequence[int]],
                        action_to_group: Dict[int, int]) -> int:
    """Most frequent member action, mapped to its group label; ties break to
    the lowest action index."""
    if not member_action_labels:
        raise ContractError("empty group: no members to vote")
    counts: Dict[int, int] = {}
    for labels in member_action_labels:
        for a in labels:
            counts[a] = counts.get(a, 0) + 1
    if not counts:
        raise ContractError("no action labels among group members")
    best = min(sorted(counts), key=lambda a: (-counts[a], a))
    return action_to_group[best]


# -- classification metrics --------------------------------------------------

def mca(preds: Sequence, labels: Sequence,
        merge: Optional[Dict] = None) -> float:
    """Fraction of exact matches, optionally after mapping both sides
    through a merge map."""
    if len(preds) != len(labels):
        raise MetricError(f"length mismatch {len(preds)} vs {len(labels)}")
    if not preds:
        raise MetricError("empty prediction list")
    if merge is not None:
        preds = [merge.get(p, p) for p in preds]
        labels = [merge.get(l, l) for l in labels]
    return sum(p == l for p, l in zip(preds, labels)) / len(preds)


def mean_per_class_accuracy(preds: Sequence, labels: Sequence) -> float:
    """Per-class recall averaged over the classes present in the labels."""
    if not preds:
        raise MetricError("empty prediction list")
    per_class: Dict = {}
    for p, l in zip(preds, labels):
        hit, total = per_class.get(l, (0, 0))
        per_class[l] = (hit + (p == l), total + 1)
    return float(np.mean([h / t for h, t in per_class.values()]))


def multilabel_prf(pred_sets: Sequence[Set], gt_sets: Sequence[Set]
                   ) -> Tuple[float, float, float]:
    """Per-sample precision/recall/F1, averaged over samples.

    Samples with an empty ground-truth set are skipped (recall undefined).
    The set-by-set reference for :func:`prf_from_counts`, which the
    program uses; the acceptance tests check it against golden values.
    """
    if len(pred_sets) != len(gt_sets):
        raise MetricError("length mismatch")
    ps, rs, fs = [], [], []
    for pred, gt in zip(pred_sets, gt_sets):
        pred, gt = set(pred), set(gt)
        if not gt:
            warnings.warn("sample with empty ground-truth set skipped")
            continue
        inter = len(pred & gt)
        p = inter / len(pred) if pred else 0.0
        r = inter / len(gt)
        f = 2 * p * r / (p + r) if p + r else 0.0
        ps.append(p)
        rs.append(r)
        fs.append(f)
    if not ps:
        raise MetricError("no samples with non-empty ground truth")
    return float(np.mean(ps)), float(np.mean(rs)), float(np.mean(fs))


def prf_from_counts(hits: np.ndarray, predicted: np.ndarray,
                    relevant: np.ndarray) -> Tuple[float, float, float]:
    """:func:`multilabel_prf` from each sample's |pred & gt|, |pred| and
    |gt| (integer arrays): p = hits / predicted (0 with nothing predicted),
    r = hits / relevant, f = 2 p r / (p + r) (0 where p + r is 0), each
    averaged over the samples with relevant > 0; the others are skipped
    with a warning."""
    keep = relevant > 0
    if not keep.all():
        warnings.warn(f"{int((~keep).sum())} sample(s) with empty "
                      f"ground-truth set skipped")
    if not keep.any():
        raise MetricError("no samples with non-empty ground truth")
    hits, predicted, relevant = hits[keep], predicted[keep], relevant[keep]
    p = np.divide(hits, predicted, out=np.zeros(hits.shape),
                  where=predicted > 0)
    r = hits / relevant
    f = np.divide(2 * p * r, p + r, out=np.zeros(hits.shape), where=p + r > 0)
    return float(np.mean(p)), float(np.mean(r)), float(np.mean(f))


# -- retrieval ---------------------------------------------------------------

def cosine_ranking(queries: np.ndarray, candidates: np.ndarray
                   ) -> Tuple[np.ndarray, np.ndarray]:
    """Cosine similarities [Q, C] of query rows to candidate rows, and each
    query's candidate indices [Q, C], most similar first; ties go to the
    lower index.  Norms are floored at 1e-12: a zero row scores 0."""
    q = np.asarray(queries, dtype=np.float64)
    c = np.asarray(candidates, dtype=np.float64)
    qn = q / np.maximum(np.linalg.norm(q, axis=-1, keepdims=True), 1e-12)
    cn = c / np.maximum(np.linalg.norm(c, axis=-1, keepdims=True), 1e-12)
    sims = qn @ cn.T
    # a stable sort of -sim keeps tied candidates in index order
    return sims, np.argsort(-sims, axis=-1, kind="stable")


def recall_at_k(query_embeddings: np.ndarray, candidate_embeddings: np.ndarray,
                gt_match_index: Sequence[int], k: int) -> float:
    """Fraction of queries whose true candidate ranks in the cosine top-K of
    :func:`cosine_ranking`."""
    _, order = cosine_ranking(query_embeddings, candidate_embeddings)
    if k > order.shape[1]:
        raise MetricError(f"K={k} exceeds {order.shape[1]} candidates")
    hits = [gt in order[qi, :k] for qi, gt in enumerate(gt_match_index)]
    return sum(hits) / len(hits)


# -- prediction interchange records ------------------------------------------

@dataclass
class ActorPrediction:
    labels: List[int]
    confidences: List[float]
    keyframe_box: List[float]


@dataclass
class PredictionRecord:
    clip_id: str
    group_label: int
    group_confidence: float
    actors: List[ActorPrediction]

    def validate(self):
        confs = [self.group_confidence] + [c for a in self.actors
                                           for c in a.confidences]
        if any(not 0.0 <= c <= 1.0 for c in confs):
            raise MetricError(f"{self.clip_id}: confidence outside [0, 1]")


def save_predictions(path, records: Sequence[PredictionRecord]):
    """Line-delimited JSON with sorted keys and fixed float precision, so
    identical predictions serialize bit-identically."""
    with open(path, "w") as fh:
        for rec in records:
            rec.validate()
            fh.write(json.dumps({
                "clip_id": rec.clip_id,
                "group_label": rec.group_label,
                "group_confidence": round(rec.group_confidence, 6),
                "actors": [{"labels": a.labels,
                            "confidences": [round(c, 6) for c in a.confidences],
                            "keyframe_box": [round(v, 6) for v in a.keyframe_box]}
                           for a in rec.actors],
            }, sort_keys=True) + "\n")
