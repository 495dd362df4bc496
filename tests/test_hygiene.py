"""Static checks over the package source: every config field is read, no
module imports a name it never uses, and every top-level function has a
caller outside the tests."""

import ast
import pathlib
from collections import Counter

import pytest

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "groundact"
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
# a metric-only utility that criterion 7 of the acceptance tests gates
ONLY_TESTED = {"hierarchical_infer"}


def _top_level_functions(tree):
    return {node.name: node for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))}


def _references(tree) -> Counter:
    """How often each name is loaded, or read as an attribute, in tree."""
    return Counter(n.id if isinstance(n, ast.Name) else n.attr
                   for n in ast.walk(tree)
                   if isinstance(n, (ast.Name, ast.Attribute)))


def _without_program_caller(paths):
    """Top-level functions of ``paths`` that no program file refers to,
    other than from inside their own definition."""
    total = Counter()
    for p in PROGRAM:
        total += _references(_tree(p))
    entry = (ROOT / "pyproject.toml").read_text()
    unused = []
    for path in paths:
        for name, node in _top_level_functions(_tree(path)).items():
            if (total[name] - _references(node)[name] == 0
                    and f":{name}" not in entry):
                unused.append(f"{path.stem}.{name}")
    return unused


def test_every_program_function_has_a_program_caller():
    unused = [name for name in _without_program_caller(MODULES)
              if name.split(".")[1] not in ONLY_TESTED]
    assert not unused, f"functions only tests reach: {unused}"


def test_caller_check_sees_a_function_only_tests_reach():
    tree = ast.parse("def used():\n    return 1\n"
                     "def only_tests(x):\n    return only_tests(x)\n"
                     "print(used())\n")
    refs = _references(tree)
    own = {name: _references(node)[name]
           for name, node in _top_level_functions(tree).items()}
    assert refs["used"] - own["used"] == 1
    assert refs["only_tests"] - own["only_tests"] == 0
