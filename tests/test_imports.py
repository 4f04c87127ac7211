"""Import hygiene of the package, checked on the source text.

No module imports another ``lsnpc`` module's private (``_``-prefixed) name,
and no import sits inside a function body: a helper that several modules
need is public, and a dependency is visible at the top of its module.
"""

import ast
from pathlib import Path

import pytest

import lsnpc

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
