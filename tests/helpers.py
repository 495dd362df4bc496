"""Shared test helpers.

The reference ops below are graph nodes that the program no longer runs:
the fused kernels replaced them.  They live here, not in groundact.tensor,
because the tests' composed references, against which every fused kernel
is compared, are built from them, one node per step.
:func:`reference_cases` checks each against finite differences.

The reference predictions at the end are ``training.evaluate`` as it was
before it worked on whole-batch arrays: one clip at a time, through
:func:`predict_actions` and :func:`predict_group`.
"""

import gc
import json
import os
import random
import subprocess
import sys
import tracemalloc
from pathlib import Path
from typing import Callable, List, Optional, Tuple

import numpy as np

from groundact import data as D
from groundact import tensor as T
from groundact import training
from groundact.losses import (GroundTruth, ground_truth, keyframe_matches,
                              pairwise_iou)
from groundact.metrics import (ActorPrediction, PredictionRecord,
                               group_activity_vote, mca,
                               mean_per_class_accuracy, multilabel_prf)
from groundact.tensor import Tensor
from groundact.verify import _row_sums


def rowwise(f1: Callable[[Tensor], Tensor]) -> Callable[[Tensor], Tensor]:
    """Lift a scalar function of one input to the stacked form that
    :func:`T.grad_check` takes: row k of the result is ``f1(stack[k])``."""
    def f(stack: Tensor) -> Tensor:
        return T.concat([T.reshape(f1(stack[k]), (1,))
                         for k in range(stack.shape[0])])
    return f


def array_bytes() -> int:
    """The bytes of numpy array data alive now, by tracemalloc in numpy's
    own domain (tracing must be on).  Python objects do not count."""
    snap = tracemalloc.take_snapshot().filter_traces(
        [tracemalloc.DomainFilter(True, np.lib.tracemalloc_domain)])
    return sum(stat.size for stat in snap.statistics("filename"))


def held_array_bytes(build: Callable[[], Tensor]) -> int:
    """The bytes of numpy array data that ``build()`` leaves alive besides
    its output's (:func:`array_bytes`): for a graph node built from inputs
    that exist already, the arrays its backward keeps.  Python objects (the
    node, its closure, the tape's list) do not count."""
    gc.collect()
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    try:
        base = array_bytes()
        out = build()
        return array_bytes() - base - out.data.nbytes
    finally:
        if started:
            tracemalloc.stop()


def edit_checkpoint_meta(path, **entries) -> None:
    """Set ``entries`` in the meta of the checkpoint at ``path``, and write
    it again through ``save_arrays``."""
    arrays = T.load_arrays(path)
    meta = json.loads(bytes(arrays["__meta__"]).decode())
    meta.update(entries)
    arrays["__meta__"] = np.frombuffer(
        json.dumps(meta, sort_keys=True).encode(), dtype=np.uint8).copy()
    T.save_arrays(path, arrays)


# -- reference ops -----------------------------------------------------------

def div(a, b):
    return T._binary(a, b, lambda x, y: x / y,
                     lambda g, x, y: g / y, lambda g, x, y: -g * x / (y * y))


def maximum(a, b):
    return T._binary(a, b, np.maximum, lambda g, x, y: g * (x >= y),
                     lambda g, x, y: g * (x < y))


def minimum(a, b):
    return T._binary(a, b, np.minimum, lambda g, x, y: g * (x <= y),
                     lambda g, x, y: g * (x > y))


def where(cond: np.ndarray, a, b):
    """Select from two tensors with a constant boolean mask."""
    return T._binary(a, b, lambda x, y: np.where(cond, x, y),
                     lambda g, x, y: g * cond, lambda g, x, y: g * ~cond)


def relu(x):
    return T._unary(x, lambda v: np.maximum(v, 0.0),
                    lambda g, v, out: g * (v > 0))


def tanh(x):
    return T._unary(x, np.tanh, lambda g, v, out: g * (1.0 - out * out))


def sqrt(x):
    return T._unary(x, np.sqrt, lambda g, v, out: g * 0.5 / out)


def absolute(x):
    return T._unary(x, np.abs, lambda g, v, out: g * np.sign(v))


def matmul(a, b):
    return T._binary(a, b, np.matmul,
                     lambda g, x, y: g @ np.swapaxes(y, -1, -2),
                     lambda g, x, y: np.swapaxes(x, -1, -2) @ g)


def softmax(x, axis: int = -1):
    x = T.as_tensor(x)
    shifted = x.data - x.data.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    out = e / e.sum(axis=axis, keepdims=True)
    req = x.requires_grad

    def backward(g):
        dot = (g * out).sum(axis=axis, keepdims=True)
        x.accumulate(out * (g - dot))

    return Tensor(out, req, (x,), backward if req else None)


def gelu(x):
    """tanh-approximated GELU as one node, from the two kernels that
    ``nn.feed_forward_block`` runs; the backward reuses the forward tanh."""
    x = T.as_tensor(x)
    v = x.data
    data, t = T.gelu_forward(v)
    req = x.requires_grad

    def backward(g):
        x.accumulate(g * T.gelu_slope(v, t))

    return Tensor(data, req, (x,), backward if req else None)


def sigmoid_values(v: np.ndarray) -> np.ndarray:
    """The logistic function of an array by a masked split: 1 / (1 + e^-v)
    where v >= 0, e^v / (1 + e^v) elsewhere (NaN included)."""
    out = np.empty_like(v)
    pos = v >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-v[pos]))
    ev = np.exp(v[~pos])
    out[~pos] = ev / (1.0 + ev)
    return out


def reference_cases(rng: np.random.Generator):
    """(name, function, input) triples for the ops above, in the stacked
    form that :func:`T.grad_check` takes: the stack is one more leading
    axis, and each row of the output is summed to one value."""
    rs = _row_sums
    u = lambda *s: Tensor(rng.uniform(-1, 1, size=s))
    pos = lambda *s: Tensor(rng.uniform(0.1, 1, size=s))
    b, denom, rhs, rhs_b = u(4, 3), pos(4, 3), u(3, 5), u(2, 3, 4)
    return [
        ("div", lambda x: rs(div(x, denom)), u(4, 3)),
        ("matmul", lambda x: rs(matmul(x, rhs)), u(4, 3)),
        ("batched_matmul", lambda x: rs(matmul(x, rhs_b)), u(2, 5, 3)),
        ("maximum", lambda x: rs(maximum(x, b)), u(4, 3)),
        ("minimum", lambda x: rs(minimum(x, b)), u(4, 3)),
        ("gelu", lambda x: rs(gelu(x)), u(4, 3)),
        ("tanh", lambda x: rs(tanh(x)), u(4, 3)),
        ("sqrt", lambda x: rs(sqrt(x)), pos(4, 3)),
        ("abs", lambda x: rs(absolute(x)), u(4, 3)),
        ("softmax", lambda x: rs(T.mul(softmax(x, axis=-1), b)), u(4, 3)),
        ("where", lambda x: rs(where(np.eye(4, 3, dtype=bool), x, b)),
         u(4, 3)),
        ("relu", lambda x: rs(relu(x)), u(4, 3)),
    ]


# -- reference predictions ---------------------------------------------------

def reference_ground_truth(annotations):
    """``losses.ground_truth`` one clip and one actor at a time."""
    anns = list(annotations)
    counts = np.array([len(a.actors) for a in anns])
    frames = anns[0].actors[0].tube.shape[0]
    tubes = np.tile(np.full(4, 0.5), (len(anns), counts.max(), frames, 1))
    most = max(len(a.actions) for ann in anns for a in ann.actors)
    actions = np.full(tubes.shape[:2] + (most,), -1, dtype=np.int64)
    for i, ann in enumerate(anns):
        tubes[i, :counts[i]] = [a.tube for a in ann.actors]
        for j, actor in enumerate(ann.actors):
            actions[i, j, :len(actor.actions)] = sorted(actor.actions)
    return GroundTruth(tubes, counts, actions,
                       np.array([a.weak for a in anns], dtype=bool))


def predict_actions(action_logits: np.ndarray) -> List[List[int]]:
    """Per query: sigmoid-thresholded label set, top-1 if nothing confident."""
    probs = 1.0 / (1.0 + np.exp(-action_logits))
    out = []
    for row in probs:
        labels = [int(i) for i in np.flatnonzero(row > 0.5)]
        out.append(labels if labels else [int(np.argmax(row))])
    return out


def predict_group(group_logits: np.ndarray, action_logits: np.ndarray,
                  use_vote: bool) -> Tuple[int, float]:
    """Group label of one clip ([G] group and [N, A] action logits) via
    member majority vote over confident actor queries, falling back to the
    group-token classifier."""
    probs = np.exp(group_logits - group_logits.max())
    probs /= probs.sum()
    cls_label, cls_conf = int(np.argmax(group_logits)), float(probs.max())
    if not use_vote:
        return cls_label, cls_conf
    sig = 1.0 / (1.0 + np.exp(-action_logits))
    confident = [i for i in range(action_logits.shape[0])
                 if sig[i].max() > 0.5]
    if not confident:
        return cls_label, cls_conf
    members = [[int(np.argmax(action_logits[i]))] for i in confident]
    label = group_activity_vote(members, D.ACTION_TO_GROUP)
    conf = float(np.mean([sig[i].max() for i in confident]))
    return label, conf


def reference_evaluate(model, corpus, cfg, vocab,
                       use_vote: Optional[bool] = None):
    """``training.evaluate``, one clip at a time."""
    if use_vote is None:
        use_vote = cfg.model.decoder_layers >= 1 and cfg.train.mode != "weak"
    batch, _, out = training.infer(model, corpus, cfg, vocab)
    keyframe = model.keyframe()
    boxes = out.final_boxes.data
    act_all = out.action_logits.data
    gt = ground_truth(batch.annotations)
    matches = keyframe_matches(boxes, act_all, gt, cfg.loss, keyframe)
    iou_all = pairwise_iou(boxes[:, :, keyframe, :],
                           gt.tubes[:, :, keyframe, :])[0]
    pred_groups, gt_groups = [], []
    pred_sets, gt_sets = [], []
    ious, records = [], []
    for i, (ann, match) in enumerate(zip(batch.annotations, matches)):
        act_logits = act_all[i]
        label, conf = predict_group(out.group_logits.data[i], act_logits,
                                    use_vote)
        pred_groups.append(label)
        gt_groups.append(ann.group_activity)
        query_actions = predict_actions(act_logits)
        ious.extend(iou_all[i, match.gt_indices, match.pred_indices].tolist())
        pred_sets.extend(set(query_actions[j]) for j in match.pred_indices)
        gt_sets.extend(set(ann.actors[k].actions) for k in match.gt_indices)
        sig = 1.0 / (1.0 + np.exp(-act_logits))
        records.append(PredictionRecord(
            clip_id=ann.clip_id, group_label=label, group_confidence=conf,
            actors=[ActorPrediction(
                labels=query_actions[q],
                confidences=[float(sig[q, a]) for a in query_actions[q]],
                keyframe_box=[float(v) for v in boxes[i, q, keyframe]])
                for q in range(boxes.shape[1])]))
    merge = {g: D.MERGED_GROUPS[D.GROUPS[g]] for g in range(len(D.GROUPS))}
    prf = (multilabel_prf(pred_sets, gt_sets)
           if any(gt_sets) else (0.0, 0.0, 0.0))
    return training.EvalResult(
        group_accuracy=mca(pred_groups, gt_groups),
        merged_mca=mca(pred_groups, gt_groups, merge=merge),
        mpca=mean_per_class_accuracy(pred_groups, gt_groups),
        mean_keyframe_iou=float(np.mean(ious)) if ious else 0.0,
        action_prf=prf, records=records)


# -- reader mutations --------------------------------------------------------

def mutated(rng: random.Random, data: bytes, pool: List[bytes]) -> bytes:
    """data after one to three seeded edits, each of a line (deleted,
    duplicated, swapped with another or replaced by a line of ``pool``) or
    of a byte (replaced, inserted or deleted, any of the 256 values)."""
    for _ in range(rng.randint(1, 3)):
        op = rng.randrange(7)
        if op < 4:
            lines = data.split(b"\n")
            i, j = rng.randrange(len(lines)), rng.randrange(len(lines))
            if op == 0:
                del lines[i]
            elif op == 1:
                lines.insert(i, lines[j])
            elif op == 2:
                lines[i], lines[j] = lines[j], lines[i]
            else:
                lines[i] = rng.choice(pool)
            data = b"\n".join(lines)
        else:
            at = rng.randrange(len(data) + 1)
            byte = bytes([rng.randrange(256)])
            data = (data[:at] + byte + data[at + 1:] if op == 4
                    else data[:at] + byte + data[at:] if op == 5
                    else data[:at] + data[at + 1:])
    return data


SRC = Path(__file__).resolve().parent.parent / "src"


def run_python(*args, timeout=120) -> subprocess.CompletedProcess:
    """``python ARGS`` in a child process at one BLAS thread, with ``src/``
    on its path; its output is captured as text."""
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
           "MKL_NUM_THREADS": "1", "PYTHONPATH": os.pathsep.join(
               filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))}
    return subprocess.run([sys.executable, *args], env=env,
                          capture_output=True, text=True, timeout=timeout)
