"""Span tracer for the benchmark's traced run.

The tracer wraps public functions of groundact modules from the outside: no
program source changes.  Every module attribute (and class attribute) that
refers to a traced function is replaced by a wrapper while the tracer is
installed, so ``from .losses import hungarian_match`` bindings are traced as
well.  Spans stay in memory as (name, start, end, parent) and are written
out when the run ends.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Dict, List, Tuple

# (module, attribute, span name).  A dotted attribute names a class method.
TRACED = [
    ("groundact.data", "generate_corpus", "data.generate_corpus"),
    ("groundact.model", "make_batch", "model.make_batch"),
    ("groundact.model", "GroundedModel.__init__", "model.init"),
    ("groundact.model", "GroundedModel.forward", "model.forward"),
    ("groundact.backbones", "visual_encode", "backbones.visual_encode"),
    ("groundact.backbones", "text_encode", "backbones.text_encode"),
    ("groundact.encoder", "encode", "encoder.encode"),
    ("groundact.fusion", "fuse", "fusion.fuse"),
    ("groundact.decoder", "decode", "decoder.decode"),
    ("groundact.training", "batch_objective", "training.batch_objective"),
    ("groundact.training", "evaluate", "training.evaluate"),
    ("groundact.losses", "total_objective", "losses.objective"),
    ("groundact.losses", "match_cost", "losses.match_cost"),
    ("groundact.losses", "hungarian_match", "losses.hungarian"),
    ("groundact.tensor", "Tensor.backward", "tensor.backward"),
    ("groundact.tensor", "Tensor.topo_order", "tensor.topo_order"),
    ("groundact.tensor", "grad_check", "tensor.grad_check"),
    ("groundact.optim", "clip_grad_norm", "optim.clip_grad_norm"),
    ("groundact.optim", "adam_step", "optim.adam_step"),
    ("groundact.verify", "run_suite", "verify.run_suite"),
]


class Tracer:
    def __init__(self):
        self.spans: List[list] = []          # [name, start, end, parent]
        self._stack: List[int] = []
        self._patches: List[Tuple[object, str, object]] = []

    # -- recording -----------------------------------------------------------

    @contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else -1
        idx = len(self.spans)
        self.spans.append([name, time.perf_counter(), 0.0, parent])
        self._stack.append(idx)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[idx][2] = time.perf_counter()

    def _wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)
        return traced

    def install(self):
        """Replace every binding of each traced function by its wrapper."""
        modules = [m for k, m in sys.modules.items()
                   if k == "groundact" or k.startswith("groundact.")]
        for mod_name, attr, name in TRACED:
            owner = sys.modules[mod_name]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                self._patch(cls, meth, self._wrap(name, vars(cls)[meth]))
                continue
            original = getattr(owner, attr)
            wrapped = self._wrap(name, original)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, key, wrapped)

    def _patch(self, obj, key, value):
        self._patches.append((obj, key, vars(obj)[key]))
        setattr(obj, key, value)

    def uninstall(self):
        for obj, key, original in reversed(self._patches):
            setattr(obj, key, original)
        self._patches.clear()

    def dump(self, path):
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent"],
                       "spans": self.spans}, fh)

    # -- analysis ------------------------------------------------------------

    def self_times(self) -> List[float]:
        own = [end - start for _, start, end, _ in self.spans]
        for _, start, end, parent in self.spans:
            if parent >= 0:
                own[parent] -= end - start
        return own

    def under(self, root: str) -> Dict[int, List[int]]:
        """Span indices below each span named ``root``, keyed by that span."""
        found: Dict[int, List[int]] = {}
        owner = [-1] * len(self.spans)
        for i, (name, _, _, parent) in enumerate(self.spans):
            if name == root:
                owner[i] = i
                found[i] = []
            elif parent >= 0 and owner[parent] >= 0:
                owner[i] = owner[parent]
                found[owner[i]].append(i)
        return found

    def split(self, root: str):
        """Per ``root`` span, the mean self time and mean total time (s) of
        the root and of each span name below it, the mean call count of each
        name, and the number of root spans.  The self times of a root and of
        its subtree add up to the root's duration."""
        own = self.self_times()
        groups = self.under(root)
        own_sum: Dict[str, float] = defaultdict(float)
        dur_sum: Dict[str, float] = defaultdict(float)
        calls: Dict[str, int] = defaultdict(int)
        for r, members in groups.items():
            for i in [r] + members:
                name, start, end, _ = self.spans[i]
                own_sum[name] += own[i]
                dur_sum[name] += end - start
                calls[name] += 1
        n = max(len(groups), 1)
        mean = lambda d: defaultdict(float, {k: v / n for k, v in d.items()})
        return mean(own_sum), mean(dur_sum), mean(calls), len(groups)
