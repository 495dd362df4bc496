"""Static checks over the package source: every config field and every
dataclass field is read, no module imports a name it never uses, every
top-level function has a caller outside the tests, the gradient suite
checks exactly the ops that the program runs, every program name the
benchmark traces or calls exists, the benchmark's overfit workload is the
overfit experiment, and the program starts without importing
``scipy.optimize``."""

import ast
from collections import Counter

import pytest

import helpers as H

SRC = H.SRC / "groundact"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
CONFIG_CLASSES = ("ModelConfig", "LossWeights", "TrainConfig")

# receivers a config is spelled as: `cfg.frames`, `weights.l1`,
# `cfg.train.seed`, `self.cfg.num_queries`; an argparse `args.mode` is not
CONFIG_RECEIVERS = {"cfg", "weights", "model", "loss", "train"}


def _tree(path):
    return ast.parse(path.read_text(), filename=str(path))


def _config_fields():
    tree = _tree(SRC / "config.py")
    return {node.name: [s.target.id for s in node.body
                        if isinstance(s, ast.AnnAssign)]
            for node in tree.body
            if isinstance(node, ast.ClassDef) and node.name in CONFIG_CLASSES}


def _receiver(node: ast.expr):
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


def _field_reads(tree, config_class=None):
    """Attribute names loaded from a config receiver, outside validate().

    Inside a config class (``config_class``), ``self`` is a receiver too,
    so a derived property such as ``patch_h`` counts as a read."""
    reads = set()

    def visit(node, in_validate, owner):
        if isinstance(node, ast.ClassDef):
            owner = node.name
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            in_validate = in_validate or node.name == "validate"
        if (isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
                and not in_validate):
            recv = _receiver(node.value)
            if recv in CONFIG_RECEIVERS or (
                    recv == "self" and owner in CONFIG_CLASSES):
                reads.add(node.attr)
        for child in ast.iter_child_nodes(node):
            visit(child, in_validate, owner)

    visit(tree, False, None)
    return reads


def test_every_config_field_is_read_outside_validate():
    reads = set()
    for path in MODULES:
        reads |= _field_reads(_tree(path))
    unread = [f"{cls}.{name}" for cls, names in _config_fields().items()
              for name in names if name not in reads]
    assert not unread, f"config fields never read: {unread}"


def test_field_check_sees_a_field_read_only_by_validate():
    tree = ast.parse(
        "class TrainConfig:\n"
        "    mode: str = 'full'\n"
        "    def validate(self):\n"
        "        if self.mode not in ('full', 'weak'):\n"
        "            raise ValueError(self.mode)\n"
        "def train(args, cfg):\n"
        "    return args.mode\n")
    assert "mode" not in _field_reads(tree)
    assert "mode" in _field_reads(ast.parse("def f(cfg):\n"
                                            "    return cfg.train.mode\n"))


def _unused_imports(tree):
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted(name for name in imported if name not in used)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert _unused_imports(_tree(path)) == []


def test_import_check_sees_an_unused_name():
    tree = ast.parse("from __future__ import annotations\n"
                     "import os\nfrom typing import List, Tuple\n"
                     "def f(x: List[int]):\n    return x\n")
    assert _unused_imports(tree) == ["Tuple", "os"]


# -- program functions that only tests reach ---------------------------------

ROOT = SRC.parents[1]
PROGRAM = sorted(p for d in ("src", "scripts", "bench")
                 for p in (ROOT / d).rglob("*.py")
                 if not p.name.startswith("test_"))
# a metric-only utility, the scalar gIoU reference and the set-by-set
# precision/recall reference, which criteria 7, 2 and 6 of the acceptance
# tests gate
ONLY_TESTED = {"hierarchical_infer", "giou_corners", "multilabel_prf"}


def _top_level_functions(tree):
    return {node.name: node for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))}


STEMS = {p.stem for p in MODULES}
_SCOPES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)


def _import_targets(node):
    """(bound name, target) per alias of an import: target is ("module", m)
    for a package module m, (m, f) for name f of module m, else None."""
    if isinstance(node, ast.Import):
        for alias in node.names:
            last = alias.name.split(".")[-1]
            if alias.asname and last in STEMS:
                yield alias.asname, ("module", last)
            else:
                yield (alias.asname or alias.name).split(".")[0], None
        return
    module = (node.module or "").split(".")[-1]
    for alias in node.names:
        bound = alias.asname or alias.name
        if module in STEMS:
            yield bound, (module, alias.name)
        elif module in ("", "groundact") and alias.name in STEMS:
            yield bound, ("module", alias.name)
        else:
            yield bound, None


def _scope_bindings(scope, stem) -> dict:
    """The names a module, function or lambda binds in its own scope, each
    mapped to its import target, to (stem, name) for a top-level function
    of a package module, or to None."""
    out = {}
    if isinstance(scope, _SCOPES):
        a = scope.args
        for arg in a.posonlyargs + a.args + a.kwonlyargs + [a.vararg, a.kwarg]:
            if arg:
                out[arg.arg] = None
    nodes = list(scope.body) if isinstance(scope.body, list) else [scope.body]
    while nodes:
        node = nodes.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            top = isinstance(scope, ast.Module) and stem in STEMS
            out[node.name] = (stem, node.name) if top else None
        elif isinstance(node, ast.ClassDef):
            out[node.name] = None
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            out.update(_import_targets(node))
        elif isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Load):
            out[node.id] = None
        elif isinstance(node, ast.ExceptHandler) and node.name:
            out[node.name] = None
        if not isinstance(node, (*_SCOPES, ast.ClassDef)):
            nodes.extend(ast.iter_child_nodes(node))
    return out


def _references(tree, stem) -> Counter:
    """How often each (module, function) of the package is referred to in
    tree, the file of module ``stem``.  A reference counts only where it
    can bind that function: a module-qualified attribute (``T.stack``), an
    imported name, or a name of the defining module that no local binding
    shadows; a function's references to itself do not count."""
    refs = Counter()

    def visit(node, scopes, own):
        if isinstance(node, _SCOPES):
            scopes = scopes + [_scope_bindings(node, stem)]
        target = None
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            target = next((s[node.id] for s in reversed(scopes)
                           if node.id in s), None)
        elif (isinstance(node, ast.Attribute)
              and isinstance(node.value, ast.Name)):
            module = next((s[node.value.id] for s in reversed(scopes)
                           if node.value.id in s), None)
            if module and module[0] == "module":
                target = (module[1], node.attr)
        if target and target[0] != "module" and target != own:
            refs[target] += 1
        for child in ast.iter_child_nodes(node):
            visit(child, scopes, own)

    module_scope = [_scope_bindings(tree, stem)]
    for node in tree.body:
        own = (stem, getattr(node, "name", None))
        visit(node, module_scope, own)
    return refs


def _program_references(skip=()) -> Counter:
    """The references of every program file but those in ``skip``."""
    total = Counter()
    for p in PROGRAM:
        if p not in skip:
            total += _references(_tree(p), p.stem)
    return total


def _without_program_caller(paths):
    """Top-level functions of ``paths`` that no program file refers to,
    other than from inside their own definition."""
    total = _program_references()
    entry = (ROOT / "pyproject.toml").read_text()
    return [f"{path.stem}.{name}" for path in paths
            for name in _top_level_functions(_tree(path))
            if not total[(path.stem, name)] and f":{name}" not in entry]


def test_every_program_function_has_a_program_caller():
    unused = [name for name in _without_program_caller(MODULES)
              if name.split(".")[1] not in ONLY_TESTED]
    assert not unused, f"functions only tests reach: {unused}"


def test_caller_check_sees_a_function_only_tests_reach():
    tree = ast.parse("def used():\n    return 1\n"
                     "def only_tests(x):\n    return only_tests(x)\n"
                     "print(used())\n")
    refs = _references(tree, "tensor")
    assert refs[("tensor", "used")] == 1
    assert refs[("tensor", "only_tests")] == 0


def test_caller_check_ignores_names_that_cannot_bind_the_function():
    # a local variable and numpy's function of the same name are not callers
    tensor = ast.parse("import numpy as np\n"
                       "def stack(ts):\n    return ts\n"
                       "def topo(root):\n    stack = [root]\n"
                       "    return stack.pop()\n"
                       "def grid(xs):\n    return np.stack(xs)\n"
                       "class Node:\n    def walk(self, stack):\n"
                       "        return [stack for stack in stack]\n")
    assert _references(tensor, "tensor")[("tensor", "stack")] == 0
    assert _references(ast.parse("def f(xs):\n    return stack(xs)\n"
                                 "def stack(xs):\n    return xs\n"),
                       "tensor")[("tensor", "stack")] == 1
    caller = ast.parse("from groundact import tensor as T\n"
                       "from groundact.tensor import stack as st\n"
                       "import numpy as np\n"
                       "def f(xs):\n    return T.stack(xs), st(xs), "
                       "np.stack(xs)\n"
                       "def g(st):\n    return st\n")
    assert _references(caller, "run")[("tensor", "stack")] == 2


# -- the gradient suite checks exactly the ops the program runs ---------------

VERIFY = SRC / "verify.py"
# (module, name) -> definition, for each top-level tensor and nn function
OPS = {(stem, name): fn for stem in ("tensor", "nn")
       for name, fn in _top_level_functions(_tree(SRC / f"{stem}.py")).items()}


def _suite_refs(tree) -> set:
    """The (module, name) pairs that ``op_cases`` in tree, the file of
    verify.py, refers to; indexing a Tensor, ``x[idx]``, runs T.getitem."""
    cases = _top_level_functions(tree)["op_cases"]
    imports = [node for node in tree.body
               if isinstance(node, (ast.Import, ast.ImportFrom))]
    refs = set(_references(ast.Module(body=imports + [cases],
                                      type_ignores=[]), "verify"))
    if any(isinstance(node, ast.Subscript) for node in ast.walk(cases)):
        refs.add(("tensor", "getitem"))
    return refs


def _builds_node(fn) -> bool:
    """Whether fn calls ``_binary`` or ``_unary``, or builds a Tensor with
    parents and a backward."""
    return any(isinstance(node, ast.Call) and (
        _receiver(node.func) in ("_binary", "_unary")
        or _receiver(node.func) == "Tensor" and (
            len(node.args) >= 4
            or any(k.arg == "_backward" for k in node.keywords)))
        for node in ast.walk(fn))


def test_every_op_the_suite_checks_has_a_program_caller_besides_verify():
    # an op that only the suite runs is dead code with a gradient check
    callers = _program_references(skip=(VERIFY,))
    only_suite = sorted(f"{stem}.{name}" for stem, name
                        in _suite_refs(_tree(VERIFY)) & set(OPS)
                        if not callers[(stem, name)])
    assert not only_suite, f"ops only the gradient suite runs: {only_suite}"


def test_every_op_the_program_runs_has_a_suite_case():
    # private helpers (_binary, _unary) are reached through the public ops
    callers = _program_references(skip=(VERIFY,))
    suite = _suite_refs(_tree(VERIFY))
    unchecked = sorted(f"{stem}.{name}" for (stem, name), fn in OPS.items()
                       if not name.startswith("_") and _builds_node(fn)
                       and callers[(stem, name)] and (stem, name) not in suite)
    assert not unchecked, f"ops with no finite-difference case: {unchecked}"


def test_suite_checks_see_op_cases_and_graph_nodes():
    verify = ("from . import tensor as T\ndef op_cases(rng):\n"
              "    return [('div', lambda x: T.div(x, {}))]\n"
              "def block_cases(rng):\n    return T.matmul(x, x[0])\n")
    assert _suite_refs(ast.parse(verify.format("2.0"))) == {("tensor", "div")}
    assert ("tensor", "getitem") in _suite_refs(ast.parse(
        verify.format("x[0]")))
    fns = _top_level_functions(ast.parse(
        "def exp(x):\n    return _unary(x, np.exp, lambda g, v, o: g * o)\n"
        "def node(x):\n    return Tensor(x.data, True, (x,), print)\n"
        "def hook(x):\n    return T.Tensor(x.data, _backward=print)\n"
        "def leaf(x):\n    return Tensor(x.data, requires_grad=True)\n"
        "def composed(x):\n    return add(x, exp(x))\n"))
    assert [n for n, fn in fns.items() if _builds_node(fn)] == [
        "exp", "node", "hook"]


# -- dataclass fields that nothing reads --------------------------------------

# the summed assignment cost, which criterion 3 of the acceptance tests gates
UNREAD_FIELDS = {"MatchResult.total_cost"}


def _is_dataclass(node: ast.ClassDef) -> bool:
    for d in node.decorator_list:
        d = d.func if isinstance(d, ast.Call) else d
        if _receiver(d) == "dataclass":
            return True
    return False


def _dataclass_fields(tree) -> list:
    """``Class.field`` for each field of each dataclass the tree declares,
    other than the config classes, whose fields have their own check."""
    return [f"{node.name}.{s.target.id}" for node in ast.walk(tree)
            if isinstance(node, ast.ClassDef) and _is_dataclass(node)
            and node.name not in CONFIG_CLASSES
            for s in node.body
            if isinstance(s, ast.AnnAssign) and isinstance(s.target, ast.Name)]


def _attribute_loads(tree) -> set:
    return {node.attr for node in ast.walk(tree)
            if isinstance(node, ast.Attribute)
            and isinstance(node.ctx, ast.Load)}


def _unread_fields(declaring, reading) -> list:
    """Dataclass fields of the ``declaring`` trees that no ``reading`` tree
    loads as an attribute, by name."""
    loads = set().union(*map(_attribute_loads, reading))
    return [name for tree in declaring for name in _dataclass_fields(tree)
            if name.split(".")[1] not in loads]


def test_every_dataclass_field_is_read_by_the_program():
    unread = [name for name in _unread_fields(map(_tree, MODULES),
                                              map(_tree, PROGRAM))
              if name not in UNREAD_FIELDS]
    assert not unread, f"dataclass fields nothing reads: {unread}"


def test_field_check_sees_a_field_nothing_reads():
    decl = ast.parse("from dataclasses import dataclass\n"
                     "@dataclass(frozen=True)\nclass Result:\n"
                     "    loss: float\n    path: str = ''\n"
                     "    def show(self):\n        return self.loss\n"
                     "class Plain:\n    path: str\n"
                     "class ModelConfig:\n    width: int\n")
    assert _unread_fields([decl], [decl]) == ["Result.path"]
    user = ast.parse("def f(res):\n    res.path = 'x'\n    return res\n")
    assert _unread_fields([decl], [decl, user]) == ["Result.path"]
    user = ast.parse("def f(res):\n    return res.path\n")
    assert _unread_fields([decl], [decl, user]) == []


# -- program names the benchmark calls ---------------------------------------

BENCH = ROOT / "bench"


def _module_names(stem) -> set:
    """The names package module ``stem`` defines at top level, plus
    ``Class.name`` for what each class body defines."""
    names = set()
    for node in _tree(SRC / f"{stem}.py").body:
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            names |= {bound for bound, _ in _import_targets(node)}
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [
                node.target]
            names |= {t.id for t in targets if isinstance(t, ast.Name)}
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            names.add(node.name)
        elif isinstance(node, ast.ClassDef):
            names.add(node.name)
            for sub in node.body:
                if isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    names.add(f"{node.name}.{sub.name}")
                elif (isinstance(sub, ast.AnnAssign)
                      and isinstance(sub.target, ast.Name)):
                    names.add(f"{node.name}.{sub.target.id}")
    return names


def _unresolved(refs) -> list:
    """The (module stem, name) pairs that the package does not define."""
    return sorted(f"{stem}.{name}" for stem, name in refs
                  if stem not in STEMS or name not in _module_names(stem))


def _traced_names(tree) -> set:
    """(module stem, attribute) of every ``TRACED`` entry of the tracer."""
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "TRACED"
                        for t in node.targets)):
            return {(module.split(".")[-1], attr)
                    for module, attr, _ in ast.literal_eval(node.value)}
    raise AssertionError("no TRACED list in the tracer")


def _module_attribute_names(tree) -> set:
    """(module stem, name) of every package name a file imports, and of
    every attribute it reads off an imported package module."""
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            bound.update((k, v) for k, v in _import_targets(node) if v)
    refs = {v for v in bound.values() if v[0] != "module"}
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name)):
            target = bound.get(node.value.id)
            if target and target[0] == "module":
                refs.add((target[1], node.attr))
    return refs


def test_every_traced_function_exists():
    traced = _traced_names(_tree(BENCH / "tracer.py"))
    assert traced and not _unresolved(traced)


def test_the_tracer_wraps_every_traced_function_and_restores_it(
        monkeypatch):
    # what `bench/run.py --trace 1` does: each (module, attribute) of TRACED
    # resolves at run time, installing the tracer replaces it by a wrapper,
    # and uninstalling puts the original back
    import importlib
    monkeypatch.syspath_prepend(str(BENCH))
    import tracer

    def resolve(module, attr):
        obj = importlib.import_module(module)
        for part in attr.split("."):
            obj = getattr(obj, part)
        return obj

    originals = [resolve(m, a) for m, a, _ in tracer.TRACED]
    assert all(callable(f) for f in originals)
    t = tracer.Tracer()
    t.install()
    try:
        for (m, a, _), f in zip(tracer.TRACED, originals):
            assert resolve(m, a).__wrapped__ is f, (m, a)
    finally:
        t.uninstall()
    assert [resolve(m, a) for m, a, _ in tracer.TRACED] == originals


def test_every_program_name_the_workloads_use_exists():
    refs = _module_attribute_names(_tree(BENCH / "workloads.py"))
    assert ("training", "batch_objective") in refs
    assert not _unresolved(refs)


def test_bench_name_check_sees_a_missing_name():
    tree = ast.parse("from groundact import training as tr\n"
                     "from groundact.model import GroundedModel, gone\n"
                     "import numpy as np\n"
                     "def f(x):\n    return tr.batch_objective(x), "
                     "tr.renamed(x), np.stack(x)\n")
    assert _unresolved(_module_attribute_names(tree)) == [
        "model.gone", "training.renamed"]
    assert _unresolved({("model", "GroundedModel.forward"),
                        ("tensor", "Tensor.backward")}) == []
    assert _unresolved({("model", "GroundedModel.gone"),
                        ("nowhere", "f")}) == [
        "model.GroundedModel.gone", "nowhere.f"]


def test_the_bench_overfit_workload_is_the_overfit_experiment(monkeypatch):
    # bench/ keeps its own copy of the overfit experiment; this keeps the
    # two equal: the model, every schedule field but the seed (the bench's
    # seed draws the batch order) and the corpus arguments
    from groundact import data as D
    from groundact import experiments as E
    monkeypatch.syspath_prepend(str(BENCH))
    import workloads
    w = workloads.WORKLOADS["overfit"]
    bench, ours = workloads.experiment(w, seed=1), E.overfit_config()
    bench.train.seed = ours.train.seed
    assert bench == ours
    calls = []
    monkeypatch.setattr(D, "generate_corpus", lambda **kw: calls.append(kw))
    E.overfit_corpus()
    assert calls == [{"seed": w.corpus_seed, **w.corpus}]


# -- start-up imports ----------------------------------------------------------

def test_program_starts_without_scipy_optimize():
    # losses.py loads only scipy's compiled assignment solver; the whole
    # package would cost most of a process's start-up time and memory
    code = ("import sys\n"
            "import groundact, groundact.cli, groundact.training, "
            "groundact.verify\n"
            "print(sorted(m for m in sys.modules if m == 'scipy.optimize'\n"
            "             or m.startswith('scipy.optimize.')))\n")
    run = H.run_python("-c", code)
    assert run.returncode == 0, run.stderr
    assert run.stdout.strip() == "[]"
