"""Training and evaluation loops, checkpointing, and the linear probe.

Runs are deterministic given the seed: batch order, dropout, and every
numeric update derive from one seeded generator, and the metrics log
contains no wall-clock fields.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from . import backbones as bb
from . import data as D
from . import nn
from . import tensor as T
from .config import (ConfigError, ExperimentConfig, config_from_dict,
                     config_to_dict)
from .losses import hungarian_match, match_cost, total_objective
from .metrics import (ActorPrediction, PredictionRecord, group_activity_vote,
                      mca, mean_per_class_accuracy)
from .model import Batch, GroundedModel, make_batch, slice_output
from .nn import RunContext
from .optim import (OptimizerState, adam_step, clip_grad_norm, cosine_decay,
                    lr_at, sgd_momentum_step, wd_at)
from .tensor import Tensor, load_arrays, save_arrays


class TrainingError(RuntimeError):
    pass


# -- checkpoints -------------------------------------------------------------

CHECKPOINT_VERSION = 1


def save_checkpoint(path, model: GroundedModel, cfg: ExperimentConfig,
                    opt: Optional[OptimizerState] = None, step: int = 0,
                    seed: int = 0):
    arrays = {f"param/{k}": v for k, v in model.state_arrays().items()}
    if opt is not None:
        for k, v in opt.m.items():
            arrays[f"opt/m/{k}"] = v
        for k, v in opt.v.items():
            arrays[f"opt/v/{k}"] = v
    meta = {"format_version": CHECKPOINT_VERSION, "step": step, "seed": seed,
            "config": config_to_dict(cfg),
            "opt": None if opt is None else
            {"kind": opt.kind, "step": opt.step, "beta1": opt.beta1,
             "beta2": opt.beta2, "eps": opt.eps, "momentum": opt.momentum}}
    arrays["__meta__"] = np.frombuffer(
        json.dumps(meta, sort_keys=True).encode(), dtype=np.uint8).copy()
    save_arrays(path, arrays)


def load_checkpoint(path) -> Tuple[GroundedModel, ExperimentConfig,
                                   Optional[OptimizerState], dict]:
    arrays = load_arrays(path)
    meta = json.loads(bytes(arrays.pop("__meta__")).decode())
    if meta["format_version"] != CHECKPOINT_VERSION:
        raise TrainingError(f"checkpoint version {meta['format_version']} "
                            f"unsupported")
    cfg = config_from_dict(meta["config"])
    model = GroundedModel(cfg.model, seed=meta.get("seed", 0))
    model.load_state({k[len("param/"):]: v for k, v in arrays.items()
                      if k.startswith("param/")})
    opt = None
    if meta.get("opt"):
        o = meta["opt"]
        opt = OptimizerState(kind=o["kind"], step=o["step"], beta1=o["beta1"],
                             beta2=o["beta2"], eps=o["eps"],
                             momentum=o["momentum"])
        opt.m = {k[len("opt/m/"):]: v.copy() for k, v in arrays.items()
                 if k.startswith("opt/m/")}
        opt.v = {k[len("opt/v/"):]: v.copy() for k, v in arrays.items()
                 if k.startswith("opt/v/")}
    return model, cfg, opt, meta


# -- objective over a batch --------------------------------------------------

def batch_objective(out, batch: Batch, cfg: ExperimentConfig, keyframe: int,
                    weak: bool, fallback_boxes=None):
    total = Tensor(np.zeros(()))
    agg = {"l1": 0.0, "giou": 0.0, "group_ce": 0.0, "action_bce": 0.0}
    n = len(batch.annotations)
    for i, ann in enumerate(batch.annotations):
        fb = fallback_boxes[i:i + 1] if fallback_boxes is not None else None
        li, bd = total_objective(slice_output(out, i), ann, cfg.loss,
                                 keyframe, weak=weak, fallback_boxes=fb)
        total = T.add(total, li)
        for k in agg:
            agg[k] += bd[k] / n
    return T.mul(total, 1.0 / n), agg


def _teacher_arrays(batch: Batch, keyframe: int):
    ms = [len(a.actors) for a in batch.annotations]
    mmax = max(ms)
    boxes = np.zeros((len(ms), mmax, 4))
    mask = np.zeros((len(ms), mmax), dtype=bool)
    for i, ann in enumerate(batch.annotations):
        for j, actor in enumerate(ann.actors):
            boxes[i, j] = actor.tube[keyframe]
            mask[i, j] = True
    return boxes, mask


def _reference_fallback(model: GroundedModel, b: int) -> Tensor:
    from .fusion import reference_logits
    cfg = model.cfg
    ref = reference_logits(model.params.reference)
    tube = T.broadcast_to(T.reshape(ref, (1, cfg.num_queries, 1, 4)),
                          (b, cfg.num_queries, cfg.frames, 4))
    return T.sigmoid(tube)


# -- evaluation --------------------------------------------------------------

@dataclass
class EvalResult:
    group_accuracy: float
    merged_mca: float
    mca: float
    mpca: float
    mean_keyframe_iou: float
    action_prf: Tuple[float, float, float]
    records: List[PredictionRecord] = field(default_factory=list)


def predict_actions(action_logits: np.ndarray) -> List[List[int]]:
    """Per query: sigmoid-thresholded label set, top-1 if nothing confident."""
    probs = 1.0 / (1.0 + np.exp(-action_logits))
    out = []
    for row in probs:
        labels = [int(i) for i in np.flatnonzero(row > 0.5)]
        out.append(labels if labels else [int(np.argmax(row))])
    return out


def predict_group(out_i, cfg, use_vote: bool) -> Tuple[int, float]:
    """Group label via member majority vote over confident actor queries,
    falling back to the group-token classifier."""
    logits = out_i.group_logits.data[0]
    probs = np.exp(logits - logits.max())
    probs /= probs.sum()
    cls_label, cls_conf = int(np.argmax(logits)), float(probs.max())
    if not use_vote:
        return cls_label, cls_conf
    act = out_i.action_logits.data[0]
    sig = 1.0 / (1.0 + np.exp(-act))
    confident = [i for i in range(act.shape[0]) if sig[i].max() > 0.5]
    if not confident:
        return cls_label, cls_conf
    members = [[int(np.argmax(act[i]))] for i in confident]
    label = group_activity_vote(members, D.ACTION_TO_GROUP)
    conf = float(np.mean([sig[i].max() for i in confident]))
    return label, conf


def evaluate(model: GroundedModel, corpus, cfg: ExperimentConfig,
             vocab: List[str], use_vote: Optional[bool] = None) -> EvalResult:
    """Metrics over (clip, annotation) pairs; also emits prediction records."""
    if use_vote is None:
        use_vote = cfg.model.decoder_layers >= 1
    clips = [c for c, _ in corpus]
    anns = [a for _, a in corpus]
    batch = make_batch(clips, [D.prompt_for(a) for a in anns],
                       cfg.model, vocab, anns)
    _, out = model.forward(batch)
    keyframe = model.keyframe()

    pred_groups, gt_groups = [], []
    pred_sets, gt_sets = [], []
    ious, records = [], []
    have_boxes = bool(out.per_layer_boxes)
    for i, ann in enumerate(batch.annotations):
        out_i = slice_output(out, i)
        label, conf = predict_group(out_i, cfg, use_vote)
        pred_groups.append(label)
        gt_groups.append(ann.group_activity)

        act_logits = out_i.action_logits.data[0]
        query_actions = predict_actions(act_logits)
        if have_boxes:
            boxes = out_i.final_boxes.data[0]            # [N, T, 4]
        else:
            boxes = _reference_fallback(model, 1).data[0]
        gt_key = np.stack([a.tube[keyframe] for a in ann.actors])
        cost = match_cost(boxes[:, keyframe, :], act_logits, gt_key,
                          [a.actions for a in ann.actors], cfg.loss,
                          weak=ann.weak)
        match = hungarian_match(cost)
        iou = _iou_matrix(boxes[:, keyframe, :], gt_key)
        ious.extend(iou[match.gt_indices, match.pred_indices].tolist())

        matched_pred_actions = [set(query_actions[j]) for j in match.pred_indices]
        matched_gt_actions = [set(ann.actors[k].actions) for k in match.gt_indices]
        pred_sets.extend(matched_pred_actions)
        gt_sets.extend(matched_gt_actions)

        sig = 1.0 / (1.0 + np.exp(-act_logits))
        records.append(PredictionRecord(
            clip_id=ann.clip_id, group_label=label, group_confidence=conf,
            actors=[ActorPrediction(
                labels=query_actions[q],
                confidences=[float(sig[q, a]) for a in query_actions[q]],
                keyframe_box=[float(v) for v in boxes[q, keyframe]])
                for q in range(boxes.shape[0])]))

    from .metrics import multilabel_prf
    merge = {g: D.MERGED_GROUPS[D.GROUPS[g]] for g in range(len(D.GROUPS))}
    # without per-actor labels (weak annotations) precision/recall is undefined
    prf = (multilabel_prf(pred_sets, gt_sets)
           if any(gt_sets) else (0.0, 0.0, 0.0))
    return EvalResult(
        group_accuracy=mca(pred_groups, gt_groups),
        merged_mca=mca(pred_groups, gt_groups, merge=merge),
        mca=mca(pred_groups, gt_groups),
        mpca=mean_per_class_accuracy(pred_groups, gt_groups),
        mean_keyframe_iou=float(np.mean(ious)) if ious else 0.0,
        action_prf=prf, records=records)


def _iou_matrix(pred: np.ndarray, gt: np.ndarray) -> np.ndarray:
    from .losses import cxcywh_to_corners
    p = cxcywh_to_corners(pred)[None, :, :]
    g = cxcywh_to_corners(gt)[:, None, :]
    iw = np.clip(np.minimum(p[..., 2], g[..., 2]) - np.maximum(p[..., 0], g[..., 0]), 0, None)
    ih = np.clip(np.minimum(p[..., 3], g[..., 3]) - np.maximum(p[..., 1], g[..., 1]), 0, None)
    inter = iw * ih
    area_p = (p[..., 2] - p[..., 0]) * (p[..., 3] - p[..., 1])
    area_g = (g[..., 2] - g[..., 0]) * (g[..., 3] - g[..., 1])
    return inter / (area_p + area_g - inter)


# -- training loop -----------------------------------------------------------

@dataclass
class TrainResult:
    model: GroundedModel
    final_loss: float
    initial_loss: float
    history: List[dict]
    checkpoint_path: Optional[str] = None


def train(cfg: ExperimentConfig, corpus, mode: Optional[str] = None,
          log_path: Optional[str] = None,
          checkpoint_path: Optional[str] = None,
          max_steps: Optional[int] = None,
          eval_corpus=None, vocab: Optional[List[str]] = None) -> TrainResult:
    """Seeded full training loop over (clip, annotation) pairs.

    ``mode`` defaults to ``cfg.train.mode``.
    """
    cfg.validate()
    if mode is None:
        mode = cfg.train.mode
    if mode not in ("full", "weak"):
        raise TrainingError(f"unknown mode {mode!r}")
    vocab = vocab or bb.load_vocab()
    seed = cfg.train.seed
    rng = np.random.default_rng(seed)

    anns = [a for _, a in corpus]
    for ann in anns:
        if len(ann.actors) > cfg.model.num_queries:
            raise ConfigError(
                f"clip {ann.clip_id!r} has {len(ann.actors)} actors, more "
                f"than [model] num_queries = {cfg.model.num_queries}")
    if mode == "weak":
        anns = [D.weak_supervision_view(a) for a in anns]
    clips = [c for c, _ in corpus]
    full = make_batch(clips, [D.prompt_for(a) for a in anns],
                      cfg.model, vocab, anns)

    model = GroundedModel(cfg.model, seed=seed)
    params = model.named_parameters()
    opt = OptimizerState(kind="adam")
    total_steps = max_steps if max_steps is not None else cfg.train.total_steps
    if total_steps > cfg.train.total_steps:
        raise TrainingError("max_steps beyond the configured schedule")
    keyframe = model.keyframe()
    ctx = RunContext(training=True, rng=rng)
    weak = mode == "weak"

    history: List[dict] = []
    log_fh = open(log_path, "w") if log_path else None
    initial_loss = None
    last_good = None
    best_metric = -np.inf
    try:
        for step in range(total_steps):
            n = len(corpus)
            bs = min(cfg.train.batch_size, n)
            idx = rng.choice(n, size=bs, replace=False)
            batch = Batch(full.frames[idx], full.tokens[idx],
                          full.text_mask[idx],
                          [full.annotations[i] for i in idx],
                          [full.clip_ids[i] for i in idx])
            tf_boxes = tf_mask = None
            if cfg.model.teacher_forcing:
                tf_boxes, tf_mask = _teacher_arrays(batch, keyframe)
            _, out = model.forward(batch, ctx, tf_boxes, tf_mask)
            fallback = (_reference_fallback(model, bs)
                        if not out.per_layer_boxes else None)
            loss, agg = batch_objective(out, batch, cfg, keyframe, weak,
                                        fallback)
            loss_val = loss.item()
            if not np.isfinite(loss_val):
                kept = ("" if last_good is None else
                        f"; checkpoint from step {last_good} retained")
                raise TrainingError(
                    f"loss diverged (NaN/Inf) at step {step}{kept}")
            if initial_loss is None:
                initial_loss = loss_val
            model.zero_grad()
            loss.backward()
            grad_norm = clip_grad_norm(params, cfg.train.grad_clip)
            lr = lr_at(step, cfg.train)
            wd = wd_at(step, cfg.train)
            adam_step(params, opt, lr, wd)

            rec = {"step": step, "loss": round(loss_val, 8),
                   "lr": round(lr, 10), "wd": round(wd, 10),
                   "grad_norm": round(grad_norm, 6),
                   **{k: round(v, 8) for k, v in agg.items()}}
            if (eval_corpus is not None and cfg.train.eval_every > 0
                    and (step + 1) % cfg.train.eval_every == 0):
                ev = evaluate(model, eval_corpus, cfg, vocab)
                rec["eval_merged_mca"] = round(ev.merged_mca, 6)
                rec["eval_iou"] = round(ev.mean_keyframe_iou, 6)
                metric = ev.merged_mca + ev.mean_keyframe_iou
                if checkpoint_path and metric > best_metric:
                    best_metric = metric
                    save_checkpoint(checkpoint_path, model, cfg, opt,
                                    step=step, seed=seed)
                    last_good = step
            history.append(rec)
            if log_fh:
                log_fh.write(json.dumps(rec, sort_keys=True) + "\n")
        if checkpoint_path and last_good is None:
            save_checkpoint(checkpoint_path, model, cfg, opt,
                            step=total_steps, seed=seed)
    finally:
        if log_fh:
            log_fh.close()
    return TrainResult(model=model, final_loss=history[-1]["loss"],
                       initial_loss=initial_loss, history=history,
                       checkpoint_path=checkpoint_path)


# -- retrieval ---------------------------------------------------------------

def text_query_embedding(model: GroundedModel, prompt: str,
                         vocab: List[str]) -> np.ndarray:
    """Pooled text-stub embedding of a free-text prompt."""
    tokens = bb.tokenize(prompt, vocab, model.cfg.l_max).tokens
    arr = np.array([tokens], dtype=np.int64)
    mask = np.ones_like(arr, dtype=bool)
    feats = bb.text_encode(arr, model.params.text, model.cfg, mask)
    return feats.t_f.data[0].mean(axis=0)


def actor_embedding_pool(model: GroundedModel, corpus, cfg: ExperimentConfig,
                         vocab: List[str]):
    """Decoder actor embeddings matched to ground-truth actors.

    Returns (embeddings [C, d], entries), one entry per matched gt actor:
    dicts with clip_id, track_id, actions, keyframe_box.
    """
    clips = [c for c, _ in corpus]
    anns = [a for _, a in corpus]
    batch = make_batch(clips, [D.prompt_for(a) for a in anns],
                       cfg.model, vocab, anns)
    _, out = model.forward(batch)
    keyframe = model.keyframe()
    if out.per_layer_actor_embeddings:
        emb_all = out.per_layer_actor_embeddings[-1].data
    else:
        raise TrainingError("retrieval needs at least one decoder layer")
    boxes_all = out.final_boxes.data
    embeddings, entries = [], []
    for i, ann in enumerate(batch.annotations):
        gt_key = np.stack([a.tube[keyframe] for a in ann.actors])
        cost = match_cost(boxes_all[i, :, keyframe, :],
                          out.action_logits.data[i], gt_key,
                          [a.actions for a in ann.actors], cfg.loss,
                          weak=ann.weak)
        match = hungarian_match(cost)
        for gt_i, pred_j in match.pairs():
            embeddings.append(emb_all[i, pred_j])
            entries.append({"clip_id": ann.clip_id,
                            "track_id": ann.actors[gt_i].track_id,
                            "actions": list(ann.actors[gt_i].actions),
                            "keyframe_box": boxes_all[i, pred_j, keyframe].tolist()})
    return np.stack(embeddings), entries


def retrieval_recall(model: GroundedModel, corpus, cfg: ExperimentConfig,
                     vocab: List[str], ks=(1, 5, 10)) -> Dict[int, float]:
    """R@K: does an actor's embedding rank in the top K for the text query
    built from its own action word?"""
    from .metrics import recall_at_k
    embeddings, entries = actor_embedding_pool(model, corpus, cfg, vocab)
    queries, gt_idx = [], []
    for ci, entry in enumerate(entries):
        if not entry["actions"]:
            continue
        prompt = " ".join(D.ACTIONS[a] for a in entry["actions"])
        queries.append(text_query_embedding(model, prompt, vocab))
        gt_idx.append(ci)
    out = {}
    for k in ks:
        if k <= len(entries):
            out[k] = recall_at_k(np.stack(queries), embeddings, gt_idx, k)
    return out


# -- linear probe ------------------------------------------------------------

@dataclass
class ProbeResult:
    train_accuracy: float
    weights: np.ndarray
    bias: np.ndarray


def extract_embeddings(model: GroundedModel, corpus, cfg: ExperimentConfig,
                       vocab: List[str]) -> Tuple[np.ndarray, np.ndarray]:
    """Frozen group-token embeddings and group labels for probing."""
    clips = [c for c, _ in corpus]
    anns = [a for _, a in corpus]
    batch = make_batch(clips, [D.prompt_for(a) for a in anns],
                       cfg.model, vocab, anns)
    rep, _ = model.forward(batch)
    emb = rep.group.data[:, 0, :]
    labels = np.array([a.group_activity for a in anns])
    return emb, labels


def linear_probe(embeddings: np.ndarray, labels: np.ndarray,
                 num_classes: int, epochs: int = 100, batch_size: int = 32,
                 lr: float = 1e-3, momentum: float = 0.9,
                 seed: int = 0) -> ProbeResult:
    """SGD-with-momentum softmax probe over frozen embeddings, cosine decay."""
    rng = np.random.default_rng(seed)
    n, d = embeddings.shape
    w = Tensor(np.zeros((d, num_classes)), requires_grad=True)
    b = Tensor(np.zeros(num_classes), requires_grad=True)
    params = {"w": w, "b": b}
    opt = OptimizerState(kind="sgd-momentum", momentum=momentum)
    total_steps = epochs * max(n // batch_size, 1)
    step = 0
    for _ in range(epochs):
        order = rng.permutation(n)
        for start in range(0, n, batch_size):
            idx = order[start:start + batch_size]
            x = Tensor(embeddings[idx])
            logits = T.linear(x, w, b)
            logp = T.log_softmax(logits, axis=-1)
            nll = T.mul(T.tmean(logp[np.arange(len(idx)), labels[idx]]), -1.0)
            for p in params.values():
                p.zero_grad()
            nll.backward()
            sgd_momentum_step(params, opt, cosine_decay(step, total_steps, lr))
            step += 1
    pred = np.argmax(embeddings @ w.data + b.data, axis=-1)
    return ProbeResult(train_accuracy=float((pred == labels).mean()),
                       weights=w.data, bias=b.data)
