"""Import hygiene and parameter storage of the package, checked on the source text.

No module imports another ``lsnpc`` module's private (``_``-prefixed) name,
and no import sits inside a function body: a helper that several modules
need is public, and a dependency is visible at the top of its module.

No module binds a new array to a Tensor's ``data`` (``<expr>.data = ...``)
except where the array is bound: ``Tensor.__init__`` and ``AdamW.__init__``,
which moves the parameters into the arena it owns.  Anywhere else a
rebinding would silently detach a parameter from its optimizer; writes go
into the array (``p.data[...] = ...``).

Only ``checkpoint.py`` imports ``struct`` or ``json``: it is the one codec
of every artifact, binary payloads behind a JSON header, and a second one
would need them again.  No module imports ``ast``: header values are JSON,
not Python literals.

Only ``evaluation.py`` defines ``to_csv`` or ``to_text``: ``Report`` is the
one table that every command writes, and a second renderer would duplicate it.

Only ``autodiff.py`` touches a node's ``_parents`` or ``_rec`` or a
recorded plan's fields: the tape and the plan are one engine, and code
elsewhere that walked a node's parents or called its rule would not be
replayed by a plan.

Only ``theory._mc_draws`` calls ``standard_t``: the Monte-Carlo pairs of
the affine-bound check share its one block of Student draws, and a sampler
anywhere else would redraw that block per pair.
"""

import ast
from pathlib import Path

import pytest

import lsnpc
from lsnpc.autodiff import Plan

SOURCES = sorted(Path(lsnpc.__file__).parent.glob("*.py"))


def violations(text: str) -> list[str]:
    """One line per private cross-module import or function-level import."""
    tree = ast.parse(text)
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (
                node.level > 0 or (node.module or "").split(".")[0] == "lsnpc"):
            for alias in node.names:
                if alias.name.startswith("_"):
                    found.append(f"line {node.lineno}: imports private {alias.name}")
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            name = getattr(node, "name", "lambda")
            for inner in ast.walk(node):
                if isinstance(inner, (ast.Import, ast.ImportFrom)):
                    found.append(f"line {inner.lineno}: import inside {name}")
    return sorted(set(found))


def test_the_checker_flags_both_kinds():
    text = ("from .model import LsnpcModel, _chain\n"
            "from lsnpc.autodiff import _unbroadcast\n"
            "from . import rngs\n"
            "def f():\n"
            "    from .correction import correct\n"
            "    return correct\n")
    assert violations(text) == ["line 1: imports private _chain",
                                "line 2: imports private _unbroadcast",
                                "line 5: import inside f"]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_module_imports_are_public_and_top_level(path):
    assert violations(path.read_text(encoding="utf-8")) == []


DATA_BINDERS = {"Tensor.__init__", "AdamW.__init__"}


def data_rebindings(text: str) -> list[str]:
    """One line per ``<expr>.data = ...`` outside the functions of DATA_BINDERS."""
    found = []

    def visit(node, scope):
        if isinstance(node, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            scope = f"{scope}.{node.name}" if scope else node.name
        targets = []
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, ast.AnnAssign):
            targets = [node.target]
        for target in targets:
            for leaf in ast.walk(target):
                if (isinstance(leaf, ast.Attribute) and leaf.attr == "data"
                        and isinstance(leaf.ctx, ast.Store) and scope not in DATA_BINDERS):
                    found.append(f"line {leaf.lineno}: binds .data in {scope or 'module'}")
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(ast.parse(text), "")
    return found


def test_the_rebinding_checker_flags_a_planted_case():
    text = ("class Tensor:\n"
            "    def __init__(self, data):\n"
            "        self.data = data\n"
            "class AdamW:\n"
            "    def __init__(self, p, view):\n"
            "        p.data = view\n"
            "def restore(p, value, q):\n"
            "    p.data[...] = value\n"
            "    p.data -= value\n"
            "    p.data = value\n"
            "    q.data, r = value, 1\n"
            "class Model:\n"
            "    def __init__(self, p):\n"
            "        self.params['w'].data: object = p\n")
    assert data_rebindings(text) == ["line 10: binds .data in restore",
                                     "line 11: binds .data in restore",
                                     "line 14: binds .data in Model.__init__"]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_module_rebinds_a_tensors_data(path):
    assert data_rebindings(path.read_text(encoding="utf-8")) == []


def module_imports(text: str, module: str) -> list[str]:
    """One line per import of ``module``, in either form."""
    found = []
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module or ""]
        else:
            continue
        if any(name.split(".")[0] == module for name in names):
            found.append(f"line {node.lineno}: imports {module}")
    return found


def test_the_struct_checker_flags_both_import_forms():
    text = ("import math, struct as st\n"
            "from struct import pack\n"
            "from . import structure\n"
            "import structlog\n")
    assert module_imports(text, "struct") == ["line 1: imports struct", "line 2: imports struct"]


def test_the_import_checker_flags_json_and_ast_in_both_forms():
    text = ("import json\n"
            "from ast import literal_eval\n"
            "import jsonschema, astroid\n"
            "from .json import dumps\n"
            "import os, ast as syntax\n"
            "from json.decoder import JSONDecodeError\n")
    assert module_imports(text, "json") == ["line 1: imports json", "line 6: imports json"]
    assert module_imports(text, "ast") == ["line 2: imports ast", "line 5: imports ast"]


def test_only_the_checkpoint_module_imports_struct():
    for module in ("struct", "json"):
        importers = [p.name for p in SOURCES
                     if module_imports(p.read_text(encoding="utf-8"), module)]
        assert importers == ["checkpoint.py"], module


def test_no_module_imports_ast():
    importers = [p.name for p in SOURCES if module_imports(p.read_text(encoding="utf-8"), "ast")]
    assert importers == []


RENDERERS = {"to_csv", "to_text"}


def renderer_definitions(text: str) -> list[str]:
    """One line per function or method named ``to_csv`` or ``to_text``."""
    found = sorted((node.lineno, node.name) for node in ast.walk(ast.parse(text))
                   if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                   and node.name in RENDERERS)
    return [f"line {line}: defines {name}" for line, name in found]


def test_the_renderer_checker_flags_methods_and_functions():
    text = ("class TheoryReport:\n"
            "    def to_csv(self):\n"
            "        return ''\n"
            "    def to_text_lines(self):\n"
            "        return []\n"
            "def to_text(report):\n"
            "    return report.to_csv()\n")
    assert renderer_definitions(text) == ["line 2: defines to_csv", "line 6: defines to_text"]


def test_only_the_evaluation_module_renders_reports():
    renderers = [p.name for p in SOURCES if renderer_definitions(p.read_text(encoding="utf-8"))]
    assert renderers == ["evaluation.py"]


TAPE_FIELDS = {"_parents", "_rec", *Plan.__slots__}


def tape_accesses(text: str) -> list[str]:
    """One line per attribute access to a node's tape fields or a plan's."""
    found = sorted((node.lineno, node.attr) for node in ast.walk(ast.parse(text))
                   if isinstance(node, ast.Attribute) and node.attr in TAPE_FIELDS)
    return [f"line {line}: touches {attr}" for line, attr in found]


def test_the_tape_checker_flags_reads_and_writes():
    text = ("def walk(node, plan):\n"
            "    for p in node._parents:\n"
            "        p._rec[1](None, 1.0)\n"
            "    node._rec = None\n"
            "    return plan._plan_forward, node.parents, node._op\n")
    assert tape_accesses(text) == ["line 2: touches _parents", "line 3: touches _rec",
                                   "line 4: touches _rec", "line 5: touches _plan_forward"]


def test_only_the_autodiff_module_touches_the_tape_and_the_plan():
    touching = [p.name for p in SOURCES if tape_accesses(p.read_text(encoding="utf-8"))]
    assert touching == ["autodiff.py"]


STUDENT_DRAWERS = {("theory.py", "_mc_draws")}


def student_draw_calls(name: str, text: str) -> list[str]:
    """One line per call of ``standard_t`` outside the functions of STUDENT_DRAWERS."""
    found = []

    def visit(node, scope):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            scope = node.name
        if isinstance(node, ast.Call) and (name, scope) not in STUDENT_DRAWERS:
            func = node.func
            called = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", "")
            if called == "standard_t":
                found.append(f"line {node.lineno}: calls standard_t in {scope or 'module'}")
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(ast.parse(text), "")
    return found


def test_the_student_draw_checker_flags_a_planted_case():
    text = ("from numpy.random import standard_t\n"
            "def _mc_draws(rng):\n"
            "    return rng.standard_t(df=4.0, size=(10, 2))\n"
            "def _mc_kl_pair(rng, n):\n"
            "    return rng.standard_t(4.0, size=(n, 2)), standard_t(4.0)\n"
            "DRAWS = rngs.stream(1, 'theory').standard_t(4.0, 3)\n")
    assert student_draw_calls("theory.py", text) == [
        "line 5: calls standard_t in _mc_kl_pair", "line 5: calls standard_t in _mc_kl_pair",
        "line 6: calls standard_t in module"]
    assert student_draw_calls("distributions.py", text)[0] == (
        "line 3: calls standard_t in _mc_draws")


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_only_the_theory_draw_helper_calls_standard_t(path):
    assert student_draw_calls(path.name, path.read_text(encoding="utf-8")) == []
