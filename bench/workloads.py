"""The benchmark workloads, the rounds they run and the checks they make.

A run sets up ``inputs`` seeded inputs (corpus, batch, model), then repeats
rounds until its time is up, cycling through the inputs.  Every round does
the same operations:

* ``steps`` training steps from the fixed model init, each one operation:
  forward, ``batch_objective``, ``backward``, ``clip_grad_norm`` and
  ``adam_step``, in the order ``training.train`` runs them;
* ``evals`` passes of ``training.evaluate`` over the corpus, each one
  operation, and ``suites`` passes of ``verify.run_suite``, each case one
  operation, both spread evenly between the steps;
* the correctness checks, which are not timed.

The program is called only through module attributes (``optim.adam_step``,
not a name imported from it), so the tracer's wrappers see every call.
"""

from __future__ import annotations

import os
import resource
import statistics
import sys
import time
import traceback
from contextlib import nullcontext
from dataclasses import dataclass
from typing import Dict, List, Optional

import numpy as np

from groundact import backbones as bb
from groundact import data as D
from groundact import model as M
from groundact import nn, optim, training, verify
from groundact.config import ExperimentConfig, ModelConfig, TrainConfig

import oracle

OUT_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "out")

# tolerances of the checks; the directional derivative is a float64 central
# difference with step 1e-6, seen to agree to ~1e-9 relative
DIRECTIONAL_TOL = 1e-6
DIRECTIONS = 3        # seeded directions tried before giving up on a kink
IOU_TOL = 1e-9
BATCHED_TOL = 1e-12

# Every workload starts from the same model init; the seed draws the corpus
# and the batch order.  Seeded inits spread the crowd IoU after 40 steps by
# a fifth between seeds, a fixed init by a few percent.
MODEL_SEED = 0


@dataclass(frozen=True)
class Workload:
    name: str
    model: dict          # ModelConfig fields
    corpus: dict         # data.generate_corpus arguments besides the seed
    steps: int           # training steps per round
    inputs: int          # seeded inputs; fit_keyframe_iou is their mean
    evals: int           # evaluate passes per round
    suites: int          # gradcheck suite passes per round
    corpus_seed: Optional[int] = None    # a fixed corpus; else from the seed
    peak_lr: float = 1e-3


WORKLOADS = {w.name: w for w in [
    # the acceptance overfit config and corpus (tests/test_acceptance.py,
    # criterion 4), so the seed draws only the batch order: over seeded
    # 8-clip corpora the IoU after 40 steps spreads by a quarter
    Workload("overfit",
             model=dict(d_model=64, num_heads=4, d_ff_mult=2, dropout=0.0,
                        encoder_layers=2, decoder_layers=2, frames=8,
                        grid_h=4, grid_w=4, raster_h=32, raster_w=32,
                        num_queries=2),
             corpus=dict(num_clips=8, num_actors=2, t_total=8,
                         motion_pool=("stationary", "linear", "oscillate")),
             steps=40, inputs=3, evals=5, suites=3, corpus_seed=0),
    # many actors, thin encoder: loss, matching and decoder dominate
    Workload("crowd",
             model=dict(d_model=32, num_heads=4, d_ff_mult=2, dropout=0.0,
                        encoder_layers=1, decoder_layers=4, frames=4,
                        grid_h=2, grid_w=2, raster_h=32, raster_w=32,
                        num_queries=12),
             corpus=dict(num_clips=64, num_actors=8, t_total=4),
             steps=40, inputs=3, evals=4, suites=2),
    # the finite-difference suite, plus a model at its toy block sizes:
    # tiny tensors, where per-node Python overhead dominates.  At the
    # acceptance peak_lr this model barely moves in 40 steps, and its IoU
    # varies by a tenth between corpora, hence nine inputs
    Workload("gradcheck",
             model=dict(d_model=8, num_heads=2, d_ff_mult=2, dropout=0.0,
                        encoder_layers=1, decoder_layers=1, frames=2,
                        grid_h=2, grid_w=2, raster_h=8, raster_w=8,
                        num_queries=2),
             corpus=dict(num_clips=32, num_actors=2, t_total=2, raster=(8, 8)),
             steps=40, inputs=9, evals=3, suites=2, peak_lr=3e-3),
]}


def experiment(w: Workload, seed: int) -> ExperimentConfig:
    cfg = ExperimentConfig()
    cfg.model = ModelConfig(**w.model)
    # the acceptance schedule; a round trains its first `steps` steps
    cfg.train = TrainConfig(peak_lr=w.peak_lr, warmup_epochs=1, total_epochs=20,
                            steps_per_epoch=25, batch_size=8, seed=seed,
                            eval_every=0)
    return cfg


@dataclass
class Input:
    seed: int
    cfg: ExperimentConfig
    corpus: list
    full: M.Batch
    vocab: List[str]


def setup(w: Workload, seed: int, r: int) -> Input:
    """Corpus generation, make_batch and model init for input r."""
    sub = 1000 * seed + r
    cfg = experiment(w, sub)
    vocab = bb.load_vocab()
    corpus = D.generate_corpus(
        seed=sub if w.corpus_seed is None else w.corpus_seed, **w.corpus)
    anns = [a for _, a in corpus]
    full = M.make_batch([c for c, _ in corpus], [D.prompt_for(a) for a in anns],
                        cfg.model, vocab, anns)
    M.GroundedModel(cfg.model, seed=MODEL_SEED)
    return Input(sub, cfg, corpus, full, vocab)


def take(full: M.Batch, idx) -> M.Batch:
    return M.Batch(full.frames[idx], full.tokens[idx], full.text_mask[idx],
                   [full.annotations[i] for i in idx],
                   [full.clip_ids[i] for i in idx])


def outputs(out) -> List[np.ndarray]:
    return ([b.data for b in out.per_layer_boxes]
            + [out.action_logits.data, out.group_logits.data])


def spread(k: int, steps: int) -> List[int]:
    """k step indices spread evenly over a round, the last one included."""
    return [(j + 1) * steps // k - 1 for j in range(k)]


def batch_loss(model, batch, cfg):
    _, out = model.forward(batch)
    return training.batch_objective(out, batch, cfg, model.keyframe(), False)[0]


def recompute_iou(out, full: M.Batch, cfg, keyframe) -> float:
    """Mean matched keyframe IoU from the forward outputs, by the oracle."""
    boxes = out.final_boxes.data[:, :, keyframe, :]
    logits = out.action_logits.data
    w = cfg.loss
    ious = []
    for i, ann in enumerate(full.annotations):
        gt = np.stack([a.tube[keyframe] for a in ann.actors])
        cost = oracle.keyframe_cost(boxes[i], logits[i], gt,
                                    [a.actions for a in ann.actors],
                                    w.l1, w.giou, w.action_bce)
        iou = oracle.iou_giou(boxes[i], gt)[0]
        ious += [iou[g, p] for g, p in oracle.exact_assignment(cost)]
    return float(np.mean(ious))


def graph_stats(roots) -> tuple:
    """Nodes reachable from the roots and the MB their arrays hold."""
    nodes = {}
    for root in roots:
        for node in root.topo_order():
            nodes[id(node)] = node
    return len(nodes), sum(n.data.nbytes for n in nodes.values()) / 2 ** 20


class Run:
    """One benchmark run: counts, samples and, when traced, the tracer."""

    def __init__(self, w: Workload, seed: int, tracer=None):
        self.w, self.seed, self.tracer = w, seed, tracer
        self.attempted = self.failed = 0
        self.correct = True
        self.setup_s: List[float] = []
        self.step_s: Dict[bool, List[float]] = {False: [], True: []}
        self.eval_s: List[float] = []
        self.suite_s: List[float] = []
        self.fit_iou: List[float] = []
        self.clips = 0
        self.graph: Dict[str, tuple] = {}
        self.traced = False
        self.done = 0        # operations of the current round finished
        rng = np.random.default_rng(0)
        self.cases = len(verify.op_cases(rng)) + len(verify.block_cases(rng))

    def span(self, name):
        return self.tracer.span(name) if self.traced else nullcontext()

    def fail(self, what: str, ops: int = 1):
        """A failed check: the operation it belongs to counts as failed."""
        print(f"CHECK FAILED [{self.w.name} seed {self.seed}]: {what}",
              file=sys.stderr)
        self.correct = False
        self.failed += ops

    # -- set-up --------------------------------------------------------------

    def setup(self) -> List[Input]:
        self._trace(self.tracer is not None)
        inputs = []
        for r in range(self.w.inputs):
            with self.span("bench.setup"):
                start = time.perf_counter()
                inputs.append(setup(self.w, self.seed, r))
                self.setup_s.append(time.perf_counter() - start)
        self._trace(False)
        return inputs

    def _trace(self, on: bool):
        if self.tracer and on != self.traced:
            (self.tracer.install if on else self.tracer.uninstall)()
            self.traced = on

    # -- one round -----------------------------------------------------------

    def round(self, inp: Input, index: int):
        # in a traced run every other round is traced; the untraced rounds
        # give the same run's tracing overhead
        self._trace(self.tracer is not None and index % 2 == 1)
        ops = self.w.steps + self.w.evals + self.w.suites * self.cases
        self.attempted += ops
        self.done = 0
        try:
            self.fit(inp, first=index < self.w.inputs)
        except Exception as exc:  # an operation raised: the rest count failed
            traceback.print_exc()
            print(f"OPERATION FAILED [{self.w.name} seed {self.seed}]: {exc!r}",
                  file=sys.stderr)
            self.failed += ops - self.done
        finally:
            self._trace(False)

    def fit(self, inp: Input, first: bool):
        """Train from the fixed init, evaluating and running the gradcheck
        suite at evenly spread steps (so that each timing samples the whole
        round), then check the trained model."""
        cfg, full, w = inp.cfg, inp.full, self.w
        model = M.GroundedModel(cfg.model, seed=MODEL_SEED)
        params = model.named_parameters()
        rng = np.random.default_rng(inp.seed)       # batch order and dropout
        ctx = nn.RunContext(training=True, rng=rng)
        opt = optim.OptimizerState(kind="adam")
        keyframe = model.keyframe()
        n = len(inp.corpus)
        bs = min(cfg.train.batch_size, n)
        head = take(full, np.arange(bs))
        start_loss = batch_loss(model, head, cfg).item()
        eval_after = spread(w.evals, w.steps)
        suite_after = spread(w.suites, w.steps)

        for step in range(w.steps):
            with self.span("bench.step" if step else "bench.first_step"):
                start = time.perf_counter()
                batch = take(full, rng.choice(n, size=bs, replace=False))
                _, out = model.forward(batch, ctx)
                loss, _ = training.batch_objective(out, batch, cfg, keyframe,
                                                   False)
                loss_val = loss.item()
                model.zero_grad()
                loss.backward()
                optim.clip_grad_norm(params, cfg.train.grad_clip)
                optim.adam_step(params, opt, optim.lr_at(step, cfg.train),
                                optim.wd_at(step, cfg.train))
                elapsed = time.perf_counter() - start
            if step:
                self.step_s[self.traced].append(elapsed)
            if not np.isfinite(loss_val):
                self.fail(f"step {step} loss {loss_val}")
            self.done += 1
            for _ in range(eval_after.count(step)):
                ev = self.evaluate(model, inp)
            for _ in range(suite_after.count(step)):
                self.gradcheck(inp, seed=inp.seed + step)

        if first:
            self.fit_iou.append(ev.mean_keyframe_iou)
        end_loss = batch_loss(model, head, cfg).item()
        if not end_loss < start_loss:
            self.fail(f"loss on the first batch did not fall: "
                      f"{start_loss} -> {end_loss}")
        self.check_gradient(model, full, cfg, inp.seed)
        self.check_outputs(model, opt, inp, ev.mean_keyframe_iou)

    def evaluate(self, model, inp: Input):
        start = time.perf_counter()
        ev = training.evaluate(model, inp.corpus, inp.cfg, inp.vocab)
        self.eval_s.append(time.perf_counter() - start)
        self.clips = len(inp.corpus)
        self.done += 1
        return ev

    def gradcheck(self, inp: Input, seed: int):
        start = time.perf_counter()
        errors = verify.run_suite(seed=seed)
        self.suite_s.append(time.perf_counter() - start)
        self.done += self.cases
        if not errors:
            self.fail("gradcheck suite is empty", self.cases)
        bad = {k: v for k, v in errors.items() if not v <= verify.TOLERANCE}
        if bad:
            self.fail(f"gradcheck cases over tolerance: {bad}", len(bad))

    # -- checks --------------------------------------------------------------

    def check_gradient(self, model, full: M.Batch, cfg, seed):
        """<grad, d> from backward against a central difference along d.

        The decoder detaches its boxes between layers and hands the
        reference boxes to fusion as plain values, so by design only the
        last decoder layer and the output heads get the full derivative;
        d spans those.  The check runs on the trained model: at step 0 all
        queries are identical, the matching sits on a tie and the loss has a
        kink there.  Where the loss has a kink or jump along d (an
        assignment tie), the next seeded direction is tried on the next
        batch of the corpus.
        """
        last = f"decoder.layers.{cfg.model.decoder_layers - 1}."
        params = {k: p for k, p in model.named_parameters().items()
                  if k.startswith((last, "decoder.action_", "decoder.group_"))}
        base = {k: p.data for k, p in params.items()}
        n = len(full.clip_ids)
        bs = min(cfg.train.batch_size, n)
        rng = np.random.default_rng(seed)
        try:
            for attempt in range(DIRECTIONS):
                batch = take(full, (np.arange(bs) + attempt * bs) % n)
                loss = batch_loss(model, batch, cfg)
                if not attempt:
                    self.graph["step"] = graph_stats([loss])
                model.zero_grad()
                loss.backward()
                d = {k: rng.normal(size=v.shape) for k, v in base.items()}
                norm = np.sqrt(sum((v * v).sum() for v in d.values()))
                analytic = sum((p.grad * d[k]).sum() for k, p in params.items()
                               if p.grad is not None) / norm

                def loss_at(t):
                    for k, p in params.items():
                        p.data = base[k] + (t / norm) * d[k]
                    return batch_loss(model, batch, cfg).item()

                err = oracle.directional_error(loss_at, analytic)
                for k, p in params.items():
                    p.data = base[k]
                if err is not None:
                    if not err <= DIRECTIONAL_TOL:
                        self.fail(f"directional derivative error {err:.3g}")
                    return
            print(f"note [{self.w.name} seed {self.seed}]: loss has a kink "
                  f"along {DIRECTIONS} directions; derivative not compared",
                  file=sys.stderr)
        finally:
            for k, p in params.items():
                p.data = base[k]
            model.zero_grad()

    def check_outputs(self, model, opt, inp: Input, iou: float):
        """Boxes, recomputed IoU, batched vs single forwards, checkpoint."""
        cfg, full = inp.cfg, inp.full
        _, out = model.forward(full)
        self.graph["eval"] = graph_stats([out.final_boxes, out.action_logits,
                                          out.group_logits])
        for layer, boxes in enumerate(out.per_layer_boxes):
            b = boxes.data
            if not (np.all((b >= 0) & (b <= 1)) and np.all(b[..., 2:] > 0)):
                self.fail(f"decoder layer {layer}: box outside [0, 1] or "
                          f"without positive size")
        mine = recompute_iou(out, full, cfg, model.keyframe())
        if not abs(mine - iou) <= IOU_TOL:
            self.fail(f"evaluate keyframe IoU {iou}, recomputed {mine}")

        head = take(full, np.arange(min(8, len(inp.corpus))))
        batched = outputs(model.forward(head)[1])
        for i, (clip, ann) in enumerate(inp.corpus[:len(head.clip_ids)]):
            single = M.make_batch([clip], [D.prompt_for(ann)], cfg.model,
                                  inp.vocab, [ann])
            for a, b in zip(batched, outputs(model.forward(single)[1])):
                gap = np.abs(a[i:i + 1] - b).max()
                if not gap <= BATCHED_TOL:
                    self.fail(f"clip {i}: batched vs single forward {gap:.3g}")

        os.makedirs(OUT_DIR, exist_ok=True)
        path = os.path.join(OUT_DIR, f"{self.w.name}-{os.getpid()}.ckpt")
        try:
            training.save_checkpoint(path, model, cfg, opt,
                                     step=self.w.steps, seed=inp.seed)
            loaded = training.load_checkpoint(path)[0]
        finally:
            if os.path.exists(path):
                os.remove(path)
        for a, b in zip(batched, outputs(loaded.forward(head)[1])):
            if not np.array_equal(a, b):
                self.fail("forward after checkpoint save and load differs")

    # -- results -------------------------------------------------------------

    def end_to_end(self, import_s: float) -> Dict[str, tuple]:
        med = statistics.median
        return {
            "setup_s": (import_s + med(self.setup_s), "s"),
            "train_step_ms": (1000 * med(self.step_s[False]), "ms"),
            "eval_clips_per_s": (self.clips / med(self.eval_s), "clips/s"),
            "fit_keyframe_iou": (float(np.mean(self.fit_iou)), "ratio"),
            "gradcheck_s": (med(self.suite_s), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                            / 1024, "MB"),
        }

    def per_layer(self) -> Dict[str, tuple]:
        tr = self.tracer
        own, dur, calls, _ = tr.split("bench.step")
        ms = lambda s: (1000 * s, "ms")
        step = {
            "tensor.backward_ms": ms(own["tensor.backward"]),
            "tensor.topo_order_ms": ms(own["tensor.topo_order"]),
            "encoder.encode_ms": ms(own["encoder.encode"]),
            "backbones.visual_encode_ms": ms(own["backbones.visual_encode"]),
            "backbones.text_encode_ms": ms(own["backbones.text_encode"]),
            "fusion.fuse_ms": ms(own["fusion.fuse"]),
            "decoder.decode_ms": ms(own["decoder.decode"]),
            "model.forward_ms": ms(own["model.forward"]),
            "training.batch_objective_ms": ms(own["training.batch_objective"]),
            "losses.objective_ms": ms(own["losses.objective"]),
            "losses.match_cost_ms": ms(own["losses.match_cost"]),
            "losses.hungarian_ms": ms(own["losses.hungarian"]),
            "optim.clip_grad_norm_ms": ms(own["optim.clip_grad_norm"]),
            "optim.adam_step_ms": ms(own["optim.adam_step"]),
            "step.other_ms": ms(own["bench.step"]),
        }
        # the self times above partition the traced step, so they add up to
        # its mean duration; the overhead is that minus the untraced mean
        traced = dur["bench.step"]
        untraced = statistics.fmean(self.step_s[False])
        _, ev, _, _ = tr.split("training.evaluate")
        _, st, _, _ = tr.split("bench.setup")
        suite_own, suite, _, _ = tr.split("verify.run_suite")
        return {
            **step,
            "fusion.fuse_calls": (calls["fusion.fuse"], "count"),
            "losses.hungarian_calls": (calls["losses.hungarian"], "count"),
            "tensor.graph_nodes": (self.graph["step"][0], "count"),
            "tensor.graph_mb": (self.graph["step"][1], "MB"),
            "trace.step_ms": ms(traced),
            "trace.untraced_step_ms": ms(untraced),
            "trace.overhead_ms": ms(traced - untraced),
            "training.evaluate_ms": ms(ev["training.evaluate"]),
            "eval.forward_ms": ms(ev["model.forward"]),
            "eval.graph_nodes": (self.graph["eval"][0], "count"),
            "eval.graph_mb": (self.graph["eval"][1], "MB"),
            "data.generate_corpus_ms": ms(st["data.generate_corpus"]),
            "model.make_batch_ms": ms(st["model.make_batch"]),
            "model.init_ms": ms(st["model.init"]),
            "verify.run_suite_ms": ms(suite["verify.run_suite"]),
            "verify.grad_check_self_ms": ms(suite_own["tensor.grad_check"]),
        }
