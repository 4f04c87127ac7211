"""Every name in a module's ``__all__`` resolves, and every function or
class listed there has a caller.

Tooling walks these lists with ``getattr`` (the benchmark's tracer wraps
each exported callable, and ``from lsnpc.x import *`` imports them), so a
stale entry left behind by a deleted function breaks it.  An exported
function or class that no other code of the package or of the benchmark
names is reached only by tests: dead code that a later change could build on.
"""

import ast
import importlib
import inspect
import pkgutil
from pathlib import Path

import pytest

import lsnpc

MODULES = ["lsnpc", *sorted(f"lsnpc.{m.name}" for m in pkgutil.iter_modules(lsnpc.__path__))]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    missing = [attr for attr in getattr(module, "__all__", ()) if not hasattr(module, attr)]
    assert missing == []


# ---------------------------------------------------------------------------
# The benchmark reads its per-layer metrics off spans named after lsnpc
# callables.  A span whose callable was renamed or dropped from ``__all__`` is
# never recorded, so its metric silently reads 0 instead of failing.

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _literal_assignment(tree: ast.Module, name: str) -> ast.expr:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == name for t in node.targets):
            return node.value
    raise AssertionError(f"no module-level {name} in perfbench")


def _strings(nodes) -> list[str]:
    return [node.value for node in nodes
            if isinstance(node, ast.Constant) and isinstance(node.value, str)]


def _span_names_read_by_perfbench() -> set[str]:
    """``INSPECTORS`` keys, ``TICK_POINTS``, the spans of ``WORKLOAD_METRICS``,
    and the literal names passed to ``named(...)`` and ``_under(...)``."""
    workloads = ast.parse((PERFBENCH / "workloads.py").read_text(encoding="utf-8"))
    run = ast.parse((PERFBENCH / "run.py").read_text(encoding="utf-8"))
    names = set(_strings(_literal_assignment(workloads, "INSPECTORS").keys))
    names.update(_strings(_literal_assignment(workloads, "TICK_POINTS").elts))
    metrics = _literal_assignment(workloads, "WORKLOAD_METRICS")
    names.update(_strings(spec.elts[2] for spec in metrics.values))
    for tree in (workloads, run):
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                func = node.func
                called = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                if called == "named":
                    names.update(_strings(node.args[:1]))
                elif called == "_under":
                    names.update(_strings(node.args[1:2]))
    return names


def _traced_span_names() -> set[str]:
    """The span name of every callable that perfbench's tracer wraps: each
    function in an lsnpc ``__all__``, and each public method (or ``__call__``)
    of a class in one, less the classes it leaves untraced."""
    tracing = ast.parse((PERFBENCH / "tracing.py").read_text(encoding="utf-8"))
    untraced = ast.literal_eval(_literal_assignment(tracing, "_UNTRACED_CLASSES"))
    names = set()
    for module_name in MODULES:
        module = importlib.import_module(module_name)
        for attr in getattr(module, "__all__", ()):
            obj = getattr(module, attr)
            home = getattr(obj, "__module__", "") or ""
            if not home.startswith("lsnpc"):
                continue
            prefix = home.removeprefix("lsnpc.")
            if inspect.isfunction(obj):
                names.add(f"{prefix}.{obj.__qualname__}")
            elif inspect.isclass(obj) and obj.__name__ not in untraced:
                names.update(f"{prefix}.{obj.__qualname__}.{key}"
                             for key, value in vars(obj).items()
                             if inspect.isfunction(value)
                             and (key == "__call__" or not key.startswith("_")))
    return names


def test_every_span_perfbench_reads_is_traced():
    read = _span_names_read_by_perfbench()
    assert {"correction.correct", "layers.AdamW.step", "model.LsnpcModel.decode_labels",
            "experiment.verify_all"} <= read
    assert sorted(read - _traced_span_names()) == []


def test_the_training_loop_and_its_plan_stay_out_of_every_all():
    # The tracer wraps every callable an ``__all__`` lists.  A span around
    # ``fit``, a recording or a replay would stand between a trainer's span
    # and its ``AdamW.step`` spans, which ``baseclf.steps`` and
    # ``model.steps`` count only directly under the trainer.
    listed = {attr for name in MODULES
              for attr in getattr(importlib.import_module(name), "__all__", ())}
    assert listed & {"fit", "Plan", "record", "detached"} == set()


# ---------------------------------------------------------------------------
# Exported functions and classes are named by code outside their own
# definition, under src/lsnpc/ or in perfbench/.  Package re-exports (the
# imports and ``__all__`` of ``lsnpc/__init__.py``) and docstrings do not count.

SOURCES = {path.stem: path.read_text(encoding="utf-8")
           for path in sorted(Path(lsnpc.__file__).parent.glob("*.py"))
           if path.name != "__init__.py"}
READERS = {path.stem: path.read_text(encoding="utf-8")
           for path in sorted(PERFBENCH.glob("*.py")) if not path.name.startswith("test_")}

ALLOWED_WITHOUT_CALLER = {
    "autodiff.grad_check",  # the tests' gradient tool
    "baseclf.load_base",  # kept for stages that reuse their artifacts (ROADMAP item 6)
    "model.load_model",  # likewise
}


def _named_outside(tree: ast.Module, skip: str | None) -> set[str]:
    """The names and attribute names that the code of ``tree`` reads, outside
    its top-level function or class ``skip``."""
    names = set()
    for top in tree.body:
        if isinstance(top, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)) \
                and top.name == skip:
            continue
        for node in ast.walk(top):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
    return names


def dead_exports(sources: dict[str, str], readers: dict[str, str]) -> list[str]:
    """``module.name`` for each function or class that a module of ``sources``
    defines at top level and lists in its ``__all__``, and that no code of
    ``sources`` or ``readers`` names outside that definition."""
    trees = {name: ast.parse(text) for name, text in {**sources, **readers}.items()}
    dead = []
    for module in sorted(sources):
        tree = trees[module]
        exported = next((ast.literal_eval(node.value) for node in tree.body
                         if isinstance(node, ast.Assign) and any(
                             isinstance(t, ast.Name) and t.id == "__all__"
                             for t in node.targets)), [])
        defined = {node.name for node in tree.body
                   if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))}
        for attr in exported:
            if attr in defined and not any(
                    attr in _named_outside(other, attr if other is tree else None)
                    for other in trees.values()):
                dead.append(f"{module}.{attr}")
    return dead


def test_the_dead_export_checker_flags_a_planted_case():
    sources = {
        "alpha": ('"""Mentions dead_fn and DeadClass."""\n'
                  "__all__ = ['used_fn', 'dead_fn', 'DeadClass', 'SelfUser', 'LIMIT', 'bench_fn']\n"
                  "LIMIT = 3\n"
                  "def used_fn():\n"
                  "    return 1\n"
                  "def dead_fn():\n"
                  "    return dead_fn()\n"
                  "class DeadClass:\n"
                  "    def make(self):\n"
                  "        return DeadClass()\n"
                  "class SelfUser:\n"
                  "    pass\n"
                  "def bench_fn():\n"
                  "    return SelfUser\n"),
        "beta": ("from .alpha import dead_fn, used_fn\n"
                 "def caller():\n"
                 "    return used_fn()\n"),
    }
    readers = {"run": "import lsnpc.alpha\nlsnpc.alpha.bench_fn()\n"}
    assert dead_exports(sources, readers) == ["alpha.dead_fn", "alpha.DeadClass"]
    assert dead_exports(sources, {}) == ["alpha.dead_fn", "alpha.DeadClass", "alpha.bench_fn"]


def test_every_exported_function_and_class_has_a_caller():
    assert sorted(set(dead_exports(SOURCES, READERS)) - ALLOWED_WITHOUT_CALLER) == []


def test_every_export_allowed_without_a_caller_is_still_exported():
    listed = {f"{name.removeprefix('lsnpc.')}.{attr}" for name in MODULES[1:]
              for attr in getattr(importlib.import_module(name), "__all__", ())}
    assert ALLOWED_WITHOUT_CALLER <= listed
