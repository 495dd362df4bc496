"""Training and evaluation loops, checkpointing, and the linear probe.

Runs are deterministic given the seed: batch order, dropout, and every
numeric update derive from one seeded generator, and the metrics log
contains no wall-clock fields.  A checkpoint keeps its config as INI text,
which loads through the parser that reads config files, so a bad value
fails naming the checkpoint.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Dict, List, NamedTuple, Optional, Tuple

import numpy as np

from . import backbones as bb
from . import data as D
from . import tensor as T
from .config import ConfigError, ExperimentConfig, config_text, parse_config
from .decoder import DecoderOutput
from .losses import (GroundTruth, ground_truth, keyframe_matches,
                     pairwise_iou, total_objective)
from .metrics import (ActorPrediction, PredictionRecord, mca,
                      mean_per_class_accuracy, prf_from_counts, recall_at_k)
from .model import Batch, GroundedModel, make_batch
from .nn import RunContext
from .optim import (OptimizerState, adam_step, clip_grad_norm, cosine_decay,
                    lr_at, sgd_momentum_step, wd_at)
from .tensor import ContainerError, Tensor, load_arrays, save_arrays


class TrainingError(RuntimeError):
    pass


# -- checkpoints -------------------------------------------------------------

CHECKPOINT_VERSION = 5


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
            "config": config_text(cfg),
            "opt": None if opt is None else
            {"kind": opt.kind, "step": opt.step, "beta1": opt.beta1,
             "beta2": opt.beta2, "eps": opt.eps, "momentum": opt.momentum}}
    arrays["__meta__"] = np.frombuffer(
        json.dumps(meta, sort_keys=True).encode(), dtype=np.uint8).copy()
    save_arrays(path, arrays)


def load_checkpoint(path) -> Tuple[GroundedModel, ExperimentConfig,
                                   Optional[OptimizerState], dict]:
    arrays = load_arrays(path)
    try:
        meta = json.loads(bytes(arrays.pop("__meta__", b"")).decode())
        version, _ = meta["format_version"], meta["config"]
    except (ValueError, TypeError, KeyError) as e:
        raise ContainerError(f"{path}: checkpoint meta is not a UTF-8 JSON "
                             f"object with format_version and config "
                             f"({e!r})") from None
    if version != CHECKPOINT_VERSION:
        raise TrainingError(f"{path}: checkpoint version {version} "
                            f"unsupported; this build reads version "
                            f"{CHECKPOINT_VERSION}")
    text = meta["config"]
    if not isinstance(text, str):
        raise ConfigError(f"checkpoint config is a {type(text).__name__}, "
                          f"not INI text, in {path}")
    cfg = parse_config(text, path)
    model = GroundedModel(cfg.model, seed=meta.get("seed", 0))
    try:
        model.load_state({k[len("param/"):]: v for k, v in arrays.items()
                          if k.startswith("param/")})
    except ValueError as e:            # parameters that do not fit the config
        raise ContainerError(f"{path}: {e}") from None
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
                    weak: bool):
    return total_objective(out, batch.annotations, cfg.loss, keyframe, weak)


# -- evaluation --------------------------------------------------------------

@dataclass
class EvalResult:
    group_accuracy: float
    merged_mca: float
    mpca: float
    mean_keyframe_iou: float
    action_prf: Tuple[float, float, float]
    records: List[PredictionRecord] = field(default_factory=list)


def infer(model: GroundedModel, corpus, cfg: ExperimentConfig,
          vocab: List[str]):
    """Batch the (clip, annotation) pairs with their prompts and run the
    forward without building a graph; returns (batch, shared
    representation, decoder output)."""
    anns = [a for _, a in corpus]
    batch = make_batch([c for c, _ in corpus], [D.prompt_for(a) for a in anns],
                       cfg.model, vocab, anns)
    with T.no_grad():
        rep, out = model.forward(batch)
    return batch, rep, out


class Inference(NamedTuple):
    """What :func:`infer_matched` returns, which the metrics and the
    retrieval pool both read."""
    batch: Batch
    out: DecoderOutput
    gt: GroundTruth
    matches: list               # one keyframe matching per clip
    keyframe: int


def infer_matched(model: GroundedModel, corpus, cfg: ExperimentConfig,
                  vocab: List[str]) -> Inference:
    """:func:`infer`, then match each clip's predicted actors to its
    ground-truth actors at the keyframe."""
    batch, _, out = infer(model, corpus, cfg, vocab)
    keyframe = model.keyframe()
    gt = ground_truth(batch.annotations)
    matches = keyframe_matches(out.final_boxes.data, out.action_logits.data,
                               gt, cfg.loss, keyframe)
    return Inference(batch, out, gt, matches, keyframe)


def evaluate(model: GroundedModel, corpus, cfg: ExperimentConfig,
             vocab: List[str], use_vote: Optional[bool] = None) -> EvalResult:
    """Metrics over (clip, annotation) pairs; also emits prediction records
    (:func:`score`)."""
    return score(infer_matched(model, corpus, cfg, vocab), cfg, use_vote)


def score(inference: Inference, cfg: ExperimentConfig,
          use_vote: Optional[bool] = None) -> EvalResult:
    """The metrics and prediction records of one :func:`infer_matched`.

    Every prediction comes from array ops over the batch's logits:
    - a query's labels are the actions with sigmoid > 0.5, or its sigmoid
      argmax when there is none;
    - the queries whose top sigmoid is > 0.5 vote, each with its logit
      argmax (saturated sigmoids tie where logits do not), and the most
      frequent action, ties to the lowest, names the group through
      ``D.ACTION_TO_GROUP``: ``metrics.group_activity_vote``'s rule.  Its
      confidence is the mean of the voters' top sigmoids;
    - with no voter, or when ``use_vote`` is off, the group is the group
      head's softmax argmax, at its probability.

    ``use_vote`` defaults to on when there is a decoder layer, except for a
    ``[train] mode = weak`` config: a weak run never trains the action
    logits that vote.
    """
    if use_vote is None:
        use_vote = cfg.model.decoder_layers >= 1 and cfg.train.mode != "weak"
    batch, out, gt, matches, keyframe = inference
    boxes = out.final_boxes.data
    logits = out.action_logits.data                               # [B, N, A]
    iou_all = pairwise_iou(boxes[:, :, keyframe, :],
                           gt.tubes[:, :, keyframe, :])[0]       # [B, M, N]

    sig = 1.0 / (1.0 + np.exp(-logits))
    labels = sig > 0.5
    voters = labels.any(-1)                                       # [B, N]
    labels[~voters, sig[~voters].argmax(-1)] = True
    votes = np.eye(sig.shape[-1], dtype=bool)[logits.argmax(-1)]
    voted = (votes & voters[..., None]).sum(1).argmax(-1)  # ties: lowest
    to_group = np.array([D.ACTION_TO_GROUP[a] for a in range(sig.shape[-1])])
    group_logits = out.group_logits.data
    group_probs = np.exp(group_logits - group_logits.max(-1, keepdims=True))
    group_probs /= group_probs.sum(-1, keepdims=True)
    vote = voters.any(-1) & use_vote                              # [B]
    pred_groups = np.where(vote, to_group[voted],
                           group_logits.argmax(-1)).tolist()
    confs = group_probs.max(-1).tolist()
    # a voting clip's confidence is the mean over its own voters, summed as
    # np.mean sums them: a masked sum over all queries would group the
    # additions differently
    voter_tops = sig.max(-1)[voters]                          # clip by clip
    voter_ends = np.cumsum(voters.sum(-1)).tolist()
    for i in np.flatnonzero(vote).tolist():
        top = voter_tops[voter_ends[i - 1] if i else 0:voter_ends[i]]
        confs[i] = float(top.sum() / top.size)
    gt_groups = [ann.group_activity for ann in batch.annotations]

    # the matched (clip, gt actor, query) triples, clip by clip
    clip = np.repeat(np.arange(len(matches)),
                     [len(m.gt_indices) for m in matches])
    gt_idx = np.concatenate([m.gt_indices for m in matches])
    pred_idx = np.concatenate([m.pred_indices for m in matches])
    ious = iou_all[clip, gt_idx, pred_idx]
    gt_labels = np.zeros(gt.actions.shape[:2] + labels.shape[-1:], dtype=bool)
    c, m, k = np.nonzero(gt.actions >= 0)
    gt_labels[c, m, gt.actions[c, m, k]] = True
    pred, truth = labels[clip, pred_idx], gt_labels[clip, gt_idx]  # [K, A]
    relevant = truth.sum(-1)
    # without per-actor labels (weak annotations) precision/recall is undefined
    prf = (prf_from_counts((pred & truth).sum(-1), pred.sum(-1), relevant)
           if relevant.any() else (0.0, 0.0, 0.0))

    # each query's labels and their sigmoids, in row-major order
    actions = np.nonzero(labels)[2].tolist()
    sigmoids = sig[labels].tolist()
    ends = np.cumsum(labels.sum(-1).ravel()).tolist()
    keyframe_boxes = boxes[:, :, keyframe].reshape(-1, 4).tolist()
    # (labels, confidences, keyframe box) of each query
    queries = [ActorPrediction(actions[a:b], sigmoids[a:b], box)
               for a, b, box in zip([0] + ends[:-1], ends, keyframe_boxes)]
    n = labels.shape[1]
    records = [PredictionRecord(clip_id=ann.clip_id, group_label=label,
                                group_confidence=conf,
                                actors=queries[i * n:(i + 1) * n])
               for i, (ann, label, conf) in enumerate(
                   zip(batch.annotations, pred_groups, confs))]

    merge = {g: D.MERGED_GROUPS[D.GROUPS[g]] for g in range(len(D.GROUPS))}
    return EvalResult(
        group_accuracy=mca(pred_groups, gt_groups),
        merged_mca=mca(pred_groups, gt_groups, merge=merge),
        mpca=mean_per_class_accuracy(pred_groups, gt_groups),
        mean_keyframe_iou=float(np.mean(ious)) if ious.size else 0.0,
        action_prf=prf, records=records)


# -- training loop -----------------------------------------------------------

@dataclass
class TrainResult:
    model: GroundedModel
    final_loss: float
    initial_loss: float
    history: List[dict]


def train(cfg: ExperimentConfig, corpus, log_path: Optional[str] = None,
          checkpoint_path: Optional[str] = None,
          max_steps: Optional[int] = None,
          eval_corpus=None, vocab: Optional[List[str]] = None) -> TrainResult:
    """Seeded full training loop over (clip, annotation) pairs, supervised
    as ``cfg.train.mode`` says."""
    cfg.validate()
    total_steps = max_steps if max_steps is not None else cfg.train.total_steps
    if not 1 <= total_steps <= cfg.train.total_steps:
        raise TrainingError(f"max_steps {total_steps} outside the configured "
                            f"schedule of 1..{cfg.train.total_steps} steps")
    weak = cfg.train.mode == "weak"
    vocab = vocab or bb.load_vocab()
    seed = cfg.train.seed
    rng = np.random.default_rng(seed)

    anns = [a for _, a in corpus]
    if weak:
        anns = [D.weak_supervision_view(a) for a in anns]
    clips = [c for c, _ in corpus]
    full = make_batch(clips, [D.prompt_for(a) for a in anns],
                      cfg.model, vocab, anns)

    model = GroundedModel(cfg.model, seed=seed)
    params = model.named_parameters()
    opt = OptimizerState(kind="adam")
    keyframe = model.keyframe()
    ctx = RunContext(training=True, rng=rng)

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
            _, out = model.forward(batch, ctx)
            loss, agg = batch_objective(out, batch, cfg, keyframe, weak)
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
                       initial_loss=initial_loss, history=history)


# -- retrieval ---------------------------------------------------------------

def text_query_embedding(model: GroundedModel, prompt: str,
                         vocab: List[str]) -> np.ndarray:
    """Pooled text-stub embedding of a free-text prompt."""
    tokens = bb.tokenize(prompt, vocab, model.cfg.l_max)
    arr = np.array([tokens], dtype=np.int64)
    mask = np.ones_like(arr, dtype=bool)
    with T.no_grad():
        t_f = bb.text_encode(arr, model.params.text, model.cfg, mask)
    return t_f.data[0].mean(axis=0)


def embedding_pool(inference: Inference, cfg: ExperimentConfig):
    """The decoder actor embeddings of one :func:`infer_matched` that are
    matched to ground-truth actors.

    Returns (embeddings [C, d], entries), one entry per matched gt actor:
    dicts with clip_id, track_id, actions, keyframe_box.
    """
    if not cfg.model.decoder_layers:
        raise TrainingError("retrieval needs at least one decoder layer")
    batch, out, _, matches, keyframe = inference
    emb_all = out.actor_embeddings.data
    boxes_all = out.final_boxes.data
    embeddings, entries = [], []
    for i, (ann, match) in enumerate(zip(batch.annotations, matches)):
        for gt_i, pred_j in match.pairs():
            embeddings.append(emb_all[i, pred_j])
            entries.append({"clip_id": ann.clip_id,
                            "track_id": ann.actors[gt_i].track_id,
                            "actions": list(ann.actors[gt_i].actions),
                            "keyframe_box": boxes_all[i, pred_j, keyframe].tolist()})
    return np.stack(embeddings), entries


def retrieval_recall(model: GroundedModel, embeddings: np.ndarray,
                     entries: list, vocab: List[str],
                     ks=(1, 5, 10)) -> Dict[int, float]:
    """R@K over a pool from :func:`embedding_pool`: does an actor's
    embedding rank in the top K for the text query built from its own
    action word?  Each distinct query is encoded once."""
    encoded: Dict[str, np.ndarray] = {}
    queries, gt_idx = [], []
    for ci, entry in enumerate(entries):
        if not entry["actions"]:
            continue
        prompt = " ".join(D.ACTIONS[a] for a in entry["actions"])
        if prompt not in encoded:
            encoded[prompt] = text_query_embedding(model, prompt, vocab)
        queries.append(encoded[prompt])
        gt_idx.append(ci)
    if not queries:
        raise TrainingError("no matched actor has action labels, which "
                            "retrieval recall needs")
    out = {}
    for k in ks:
        if k <= len(entries):
            out[k] = recall_at_k(np.stack(queries), embeddings, gt_idx, k)
    return out


# -- linear probe ------------------------------------------------------------

PROBE_BATCH = 32
PROBE_LR = 1e-3


def extract_embeddings(model: GroundedModel, corpus, cfg: ExperimentConfig,
                       vocab: List[str]) -> Tuple[np.ndarray, np.ndarray]:
    """Frozen group-token embeddings and group labels for probing."""
    _, rep, _ = infer(model, corpus, cfg, vocab)
    return (rep.group.data[:, 0, :],
            np.array([a.group_activity for _, a in corpus]))


def linear_probe(embeddings: np.ndarray, labels: np.ndarray,
                 num_classes: int, epochs: int = 100, seed: int = 0) -> float:
    """Softmax probe over frozen embeddings, trained by SGD with
    ``OptimizerState``'s momentum in batches of ``PROBE_BATCH``, cosine decay
    from ``PROBE_LR``; returns its accuracy on the embeddings it was trained
    on."""
    rng = np.random.default_rng(seed)
    n, d = embeddings.shape
    w = Tensor(np.zeros((d, num_classes)), requires_grad=True)
    b = Tensor(np.zeros(num_classes), requires_grad=True)
    params = {"w": w, "b": b}
    opt = OptimizerState(kind="sgd-momentum")
    total_steps = epochs * -(-n // PROBE_BATCH)    # a short last batch counts
    step = 0
    for _ in range(epochs):
        order = rng.permutation(n)
        for start in range(0, n, PROBE_BATCH):
            idx = order[start:start + PROBE_BATCH]
            x = Tensor(embeddings[idx])
            logits = T.linear(x, w, b)
            logp = T.log_softmax(logits, axis=-1)
            nll = T.mul(T.tmean(logp[np.arange(len(idx)), labels[idx]]), -1.0)
            for p in params.values():
                p.zero_grad()
            nll.backward()
            sgd_momentum_step(params, opt,
                              cosine_decay(step, total_steps, PROBE_LR))
            step += 1
    pred = np.argmax(embeddings @ w.data + b.data, axis=-1)
    return float((pred == labels).mean())
