"""Named, independent random streams derived from one experiment seed.

Every stochastic stage (data generation, splitting, corruption, weight init,
batch shuffling, latent noise, ...) pulls from its own stream so that changing
the draw count in one stage never shifts the draws seen by another.  Streams
are derived deterministically from (seed, tag words), so the same seed always
reproduces the same experiment end to end.

Because no unit of work shares a stream with another, independent units can
run in any process: ``fan_out`` maps a function over them in a pool of
worker processes and hands the results back in order.
"""

from __future__ import annotations

import ctypes
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


# The thread-count setters of OpenBLAS builds: plain, 64-bit-integer, and
# the symbol-prefixed copies that numpy and scipy wheels bundle.
_OPENBLAS_SETTERS = ("openblas_set_num_threads", "openblas_set_num_threads64_",
                     "scipy_openblas_set_num_threads", "scipy_openblas_set_num_threads64_")


def _one_blas_thread() -> None:
    """Pool initializer: one BLAS thread in this worker.

    A forked worker keeps the parent's OpenBLAS thread count, so workers on
    every core would each run that many BLAS threads and oversubscribe the
    cores (a two-worker default-size ``eval`` ran 2x slower than serial).
    OpenBLAS reads ``OPENBLAS_NUM_THREADS`` only when it loads, so this calls
    the setter of each OpenBLAS that the process has mapped; another BLAS is
    left as it is.
    """
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = [ctypes.CDLL(path) for path in
                    sorted({line.split()[-1] for line in fh if "openblas" in line})]
    except OSError:
        return
    for lib in libs:
        for name in _OPENBLAS_SETTERS:
            setter = getattr(lib, name, None)
            if setter is not None:
                setter.argtypes, setter.restype = [ctypes.c_int], None
                setter(1)


def cores() -> int:
    """CPUs this process may run on: the one reading behind ``fan_out``'s
    worker count."""
    return len(os.sched_getaffinity(0))


@contextmanager
def fan_out(fn, units):
    """Yields an iterator of ``fn(unit)`` over ``units``, in their order.

    ``fn`` must be a module-level function and each result a pure function of
    its unit, so the results do not depend on where they are computed.  The
    work runs in ``min(cores(), len(units))`` forked worker processes, each
    with one BLAS thread; with one worker it runs lazily in this process and
    starts no pool.  Workers are forked, not spawned: they start in
    milliseconds, need no ``__main__`` guard in the calling script, and see
    the caller's module state, so a caller with other threads must not hold
    a lock a worker needs.  The pool is shut down when the ``with`` block
    exits, pending units cancelled if it exits by an exception, so no worker
    outlives the block.
    """
    units = list(units)
    workers = min(cores(), len(units))
    if workers <= 1:
        yield map(fn, units)
        return
    with ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("fork"),
                             initializer=_one_blas_thread) as pool:
        try:
            yield pool.map(fn, units)
        except BaseException:
            pool.shutdown(cancel_futures=True)
            raise
