"""Spans around calls into the ``lsnpc`` modules, recorded from outside them.

``instrument`` swaps wrappers into every ``lsnpc`` module (and onto class
methods) for the duration of a ``with`` block and restores the originals on
exit; nothing under ``src/`` changes.  Each call of a wrapped function
appends one span ``[name, start, end, parent, info]`` to an in-memory list;
``parent`` is the index of the enclosing wrapped call, or -1.  ``info`` is
whatever the optional inspector returns for the call (row counts, output
checks), so counts are taken at the same boundary as the time.
"""

from __future__ import annotations

import functools
import inspect
import math
import sys
import time
from contextlib import contextmanager

# Per-operation tensor methods would put a span on every tape node; the
# per-layer numbers come from the layer and step boundaries instead.
_UNTRACED_CLASSES = {"Tensor"}


class Recorder:
    """In-memory span list plus the stack of open spans."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []

    def wrap(self, name: str, fn, inspector=None):
        """``fn`` recording a span per call; ``inspector(arguments, result)``
        receives the call's arguments by parameter name."""
        spans, stack = self.spans, self._stack
        signature = inspect.signature(fn) if inspector is not None else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, None]
            spans.append(span)
            stack.append(index)
            span[1] = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if inspector is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                span[4] = inspector(bound.arguments, out)
            return out

        return wrapper

    def named(self, name: str, since: int = 0) -> list[list]:
        return [s for s in self.spans[since:] if s[0] == name]


def span_name(fn) -> str:
    return f"{fn.__module__.removeprefix('lsnpc.')}.{fn.__qualname__}"


def _lsnpc_modules():
    return [m for n, m in sorted(sys.modules.items())
            if (n == "lsnpc" or n.startswith("lsnpc.")) and m is not None]


def public_callables():
    """Functions and public methods named in the ``__all__`` of each module."""
    found = {}
    for module in _lsnpc_modules():
        for attr in getattr(module, "__all__", ()):
            obj = getattr(module, attr)
            if inspect.isfunction(obj) and obj.__module__.startswith("lsnpc"):
                found[id(obj)] = (None, obj.__name__, obj)
            elif (inspect.isclass(obj) and obj.__module__.startswith("lsnpc")
                  and obj.__name__ not in _UNTRACED_CLASSES):
                for key, value in vars(obj).items():
                    if inspect.isfunction(value) and (key == "__call__"
                                                      or not key.startswith("_")):
                        found[id(value)] = (obj, key, value)
    return list(found.values())


@contextmanager
def instrument(recorder: Recorder, targets, inspectors=None, around=None):
    """Wrap ``targets`` ((owner class or None, attribute, function) triples).

    A module-level function is replaced under every name that any ``lsnpc``
    module binds it to, so ``from .x import f`` call sites see the wrapper.
    ``inspectors`` maps a span name to an inspector for that call, and
    ``around`` to a decorator applied inside the span.
    """
    inspectors = inspectors or {}
    around = around or {}
    wrapped = {}
    undo = []
    for owner, attr, fn in targets:
        name = span_name(fn)
        inner = around[name](fn) if name in around else fn
        wrapper = recorder.wrap(name, inner, inspectors.get(name))
        if owner is not None:
            undo.append((owner, attr, fn))
            setattr(owner, attr, wrapper)
        else:
            wrapped[id(fn)] = wrapper
    try:
        for module in _lsnpc_modules():
            for attr, value in list(vars(module).items()):
                wrapper = wrapped.get(id(value))
                if wrapper is not None:
                    undo.append((module, attr, value))
                    setattr(module, attr, wrapper)
        yield recorder
    finally:
        for owner, attr, original in reversed(undo):
            setattr(owner, attr, original)


def self_times(spans) -> list[float]:
    """Each span's duration minus the time its direct children cover.

    ``spans`` is a whole recorder list, so parent indices address it
    directly.  Calls run on one thread, so the children of a span are
    disjoint in time and their durations add up.
    """
    own = [s[2] - s[1] for s in spans]
    for s in spans:
        if s[3] >= 0:
            own[s[3]] -= s[2] - s[1]
    return own


def tail_percentile(n: int) -> int:
    """Highest whole percentile with at least 10 of ``n`` samples beyond it."""
    if n <= 10:
        return 0
    return int(math.floor(100.0 * (1.0 - 10.0 / n)))


def span_cost(calls: int = 20_000) -> float:
    """Seconds one recorded span adds to a call, timed on a no-op."""
    def noop():
        return None

    wrapped = Recorder().wrap("noop", noop)
    t0 = time.perf_counter()
    for _ in range(calls):
        noop()
    t1 = time.perf_counter()
    for _ in range(calls):
        wrapped()
    t2 = time.perf_counter()
    return max((t2 - t1) - (t1 - t0), 0.0) / calls
