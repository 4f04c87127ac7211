"""Named, independent random streams derived from one experiment seed.

Every stochastic stage (data generation, splitting, corruption, weight init,
batch shuffling, latent noise, ...) pulls from its own stream so that changing
the draw count in one stage never shifts the draws seen by another.  Streams
are derived deterministically from (seed, tag words), so the same seed always
reproduces the same experiment end to end.

Because no unit of work shares a stream with another, independent units can
run in any process: ``fan_out`` maps a function over them in a pool of
worker processes and hands the results back in order.  ``workers`` is the
one rule for how many processes or threads such work may start, and
``one_blas_thread`` keeps threads that each call BLAS off each other's cores.
"""

from __future__ import annotations

import ctypes
import functools
import multiprocessing
import os
import zlib
from concurrent.futures import ProcessPoolExecutor
from contextlib import contextmanager

import numpy as np

__all__ = ["stream", "spawn_seed"]


def _tag_words(tags: tuple) -> tuple[int, ...]:
    words = []
    for tag in tags:
        if isinstance(tag, (int, np.integer)):
            words.append(int(tag) & 0xFFFFFFFF)
        else:
            words.append(zlib.crc32(str(tag).encode("utf-8")))
    return tuple(words)


def stream(seed: int, *tags) -> np.random.Generator:
    """Return a Generator for the stream named by ``tags`` under ``seed``.

    Tags may be strings or small integers (e.g. a sample index).  The same
    (seed, tags) always yields an identical stream; distinct tags yield
    statistically independent streams.
    """
    ss = np.random.SeedSequence(entropy=int(seed), spawn_key=_tag_words(tags))
    return np.random.Generator(np.random.PCG64(ss))


def spawn_seed(seed: int, *tags) -> int:
    """Derive a child integer seed for stages that seed themselves."""
    ss = np.random.SeedSequence(entropy=int(seed), spawn_key=_tag_words(tags))
    return int(ss.generate_state(1, np.uint64)[0])


# The thread-count functions of OpenBLAS builds: plain, 64-bit-integer, and
# the symbol-prefixed copies that numpy and scipy wheels bundle.
_OPENBLAS_NAMES = ("openblas_{}_num_threads", "openblas_{}_num_threads64_",
                   "scipy_openblas_{}_num_threads", "scipy_openblas_{}_num_threads64_")


@functools.cache
def _openblas() -> tuple:
    """(setter, getter) of the thread count of each OpenBLAS this process has
    mapped, found once per process; empty where ``/proc`` cannot be read.

    OpenBLAS reads ``OPENBLAS_NUM_THREADS`` only when it loads, so a count
    is changed through these.  Another BLAS is not found and is left as it
    is.  numpy and scipy map their OpenBLAS when ``lsnpc`` is imported.
    """
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = [ctypes.CDLL(path) for path in
                    sorted({line.split()[-1] for line in fh if "openblas" in line})]
    except OSError:
        return ()
    found = []
    for lib in libs:
        for name in _OPENBLAS_NAMES:
            setter = getattr(lib, name.format("set"), None)
            getter = getattr(lib, name.format("get"), None)
            if setter is not None and getter is not None:
                setter.argtypes, setter.restype = [ctypes.c_int], None
                getter.argtypes, getter.restype = [], ctypes.c_int
                found.append((setter, getter))
                break
    return tuple(found)


@contextmanager
def one_blas_thread():
    """Runs the ``with`` block with every OpenBLAS on one thread, for a
    block that runs its own threads, each calling BLAS: one BLAS thread
    each keeps them from oversubscribing the cores.  Each count that was
    above 1 is restored on exit, also when the block raises; an OpenBLAS on
    one thread is left alone."""
    changed = [(setter, count) for setter, getter in _openblas() if (count := getter()) > 1]
    for setter, _ in changed:
        setter(1)
    try:
        yield
    finally:
        for setter, count in changed:
            setter(count)


# Set in each ``fan_out`` worker by its pool initializer.
_in_worker = False


def _start_worker() -> None:
    """Pool initializer: marks this process as a ``fan_out`` worker, so
    ``workers`` gives it 1, and sets one BLAS thread in it.

    A forked worker keeps the parent's OpenBLAS thread count, so workers on
    every core would each run that many BLAS threads and oversubscribe the
    cores (a two-worker default-size ``eval`` ran 2x slower than serial).
    """
    global _in_worker
    _in_worker = True
    for setter, _ in _openblas():
        setter(1)


def cores() -> int:
    """CPUs this process may run on: the one reading behind ``workers``."""
    return len(os.sched_getaffinity(0))


def workers(units: int) -> int:
    """How many processes or threads ``units`` independent units run on: one
    per core, at most one per unit, never fewer than 1, and 1 inside a
    ``fan_out`` worker, whose siblings already hold the other cores."""
    if _in_worker:
        return 1
    return max(1, min(cores(), units))


@contextmanager
def fan_out(fn, units):
    """Yields an iterator of ``fn(unit)`` over ``units``, in their order.

    ``fn`` must be a module-level function and each result a pure function of
    its unit, so the results do not depend on where they are computed.  The
    work runs in ``workers(len(units))`` forked worker processes, each with
    one BLAS thread; with one worker it runs lazily in this process and
    starts no pool.  So a ``fan_out`` inside a worker runs in that worker,
    and no pool is ever nested.  Workers are forked, not spawned: they start
    in milliseconds, need no ``__main__`` guard in the calling script, and
    see the caller's module state, so a caller with other threads must not
    hold a lock a worker needs.  The pool is shut down when the ``with`` block
    exits, pending units cancelled if it exits by an exception, so no worker
    outlives the block.
    """
    units = list(units)
    count = workers(len(units))
    if count == 1:
        yield map(fn, units)
        return
    with ProcessPoolExecutor(count, mp_context=multiprocessing.get_context("fork"),
                             initializer=_start_worker) as pool:
        try:
            yield pool.map(fn, units)
        except BaseException:
            pool.shutdown(cancel_futures=True)
            raise
