"""Every name in a module's ``__all__`` resolves.

Tooling walks these lists with ``getattr`` (the benchmark's tracer wraps
each exported callable, and ``from lsnpc.x import *`` imports them), so a
stale entry left behind by a deleted function breaks it.
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
