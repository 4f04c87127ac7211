"""Monte-Carlo label correction and the KNN post-processing baseline.

The corrected probability of each label is the mean, over sampled chains
yhat -> zhat -> z, of the decoder output at (x, z).  The innermost
expectation over y is analytic (a Bernoulli's mean is its probability), so
no y sampling occurs.  True labels never enter: the signature has no Y.
Correction is inference only: it calls the model's forward maps with plain
arrays, which return arrays and build no autodiff tape.

``correct()`` runs over batches of ``_BATCH`` = 200 rows: its result on X is
the row-wise concatenation, bit for bit, of its results on X[0:200],
X[200:400], ...  Each batch draws its yhat and its noise from fresh
``correct/*`` streams, as a call of that size would, so a call of at most 200
rows is one batch.  Beyond X and the result, a call holds one batch's
working arrays at a time, whatever its number of rows.

The Monte-Carlo noise of a batch (the Gaussian draws of zhat and z and the
chi-square mixing draws) depends only on the seed, the batch's shape and the
proposal, never on the model or on X.  So it is drawn once per key and
reused, read-only, by later batches with the same key; the fixed-nu
chi-square values are kept transformed.  Two keys are kept, a full batch's
and a ragged last batch's, so repeated calls of any one size hit the cache
on every batch (the per-epoch validation of a trainer, both arms' test
corrections).  A key's draws, s_y * s_zhat * (1 + s_z) * n * m float64 plus
s_y * s_zhat * n chi-square values, take 1.7 MB at n = 200 with the default
``[correction]``, so the two keys stay in memory between calls in 3.4 MB.

The KNN baseline runs its blocks of ``_KNN_BLOCK`` = 64 query rows on one
thread per core (``rngs.workers``), each thread holding one block of
distances and the neighbour selection's arrays for that block: the matmul
that dominates it and the selection's pass over each distance row release
the GIL, while the selection's small steps on the gathered chunks hold it.
``correct()`` stays on one thread: its small per-chain operations hold the
GIL, so threads gave it no gain.
"""

from __future__ import annotations

import functools
import threading
from dataclasses import dataclass

import numpy as np

from . import rngs
from .baseclf import BaseClassifier, predict_probs, sample_predictions
from .distributions import rsample_diag_normal
from .model import LsnpcModel, chain, chi2_from_uniform

__all__ = [
    "CorrectionConfig",
    "CorrectionResult",
    "correct",
    "binarize",
    "knn_correct",
    "save_correction",
    "load_correction",
]

# Rows per batch of correct(): the default validation split.
_BATCH = 200
# Query rows per distance block in knn_correct, each selected whole: against
# 14 000 training rows a block is 7.2 MB of float64 distances, and the
# argpartition of a block that falls back whole returns as many int64
# indices.  A row's distance bits can depend on the row count of its block
# (BLAS picks its kernels by shape), so the blocks keep these boundaries
# whatever the thread count.
_KNN_BLOCK = 64
# Training columns per chunk in the neighbour selection: its first stage
# reads every distance once for the chunk minima, its second only K chunks.
_KNN_CHUNK = 128


@dataclass(frozen=True)
class CorrectionConfig:
    s_y: int = 8
    s_zhat: int = 4
    s_z: int = 1
    tau: float = 0.5
    seed: int = 0

    def __post_init__(self):
        if min(self.s_y, self.s_zhat, self.s_z) < 1:
            raise ValueError("all sample counts must be >= 1")
        if not 0.0 < self.tau < 1.0:
            raise ValueError("threshold must lie strictly inside (0, 1)")


@dataclass
class CorrectionResult:
    probs: np.ndarray
    labels: np.ndarray
    se: np.ndarray


@functools.lru_cache(maxsize=2)
def _noise(seed: int, n: int, m: int, s_y: int, s_zhat: int, s_z: int, proposal: str, nu):
    """The ``correct/noise`` draws of ``correct()``, read-only, per yhat group s:
    ``eps_zhat[s]`` (s_zhat, n, m), ``eps_z[s]`` (s_zhat, s_z, n, m) and, for
    a Student proposal, ``mix[s]`` (s_zhat, n, 1) (None for a Normal one).

    The groups take their draws from the stream in turn, each in that
    order; the pinned outputs of ``correct()`` depend on this order.
    ``mix`` holds the chi-square(nu) values when ``nu`` is given (a fixed
    nu) and the uniforms when it is None (a learned nu, which transforms
    them per row).  A batch with a new key draws for all s_y groups at once,
    and the cache drops the least recently used of its two keys after it
    draws, so a miss holds three keys' draws at its peak: 5.1 MB at n = 200
    with the default ``[correction]``.
    """
    rng = rngs.stream(seed, "correct", "noise")
    eps_zhat = np.empty((s_y, s_zhat, n, m))
    eps_z = np.empty((s_y, s_zhat, s_z, n, m))
    mix = np.empty((s_y, s_zhat, n, 1)) if proposal == "student" else None
    for s in range(s_y):
        rng.standard_normal(out=eps_zhat[s])
        rng.standard_normal(out=eps_z[s])
        if mix is not None:
            rng.random(out=mix[s])
    if mix is not None and nu is not None:
        mix = chi2_from_uniform(nu, mix)
    for a in (eps_zhat, eps_z, mix):
        if a is not None:
            a.flags.writeable = False
    return eps_zhat, eps_z, mix


def correct(model: LsnpcModel, h: BaseClassifier, X, cfg: CorrectionConfig) -> CorrectionResult:
    """Corrected label probabilities for every row of X, with per-cell MC SE.

    The rows run in batches of ``_BATCH``: the result is the row-wise
    concatenation of the results of the calls on X[0:200], X[200:400], ...,
    each of which draws its yhat and noise afresh (see the module docstring
    for the memory this bounds).

    The model maps and the base classifier run on plain arrays, so no tape is
    built (see :mod:`lsnpc.model`), and like the tape they do not warn on a
    non-finite value: a NaN feature row gives NaN probabilities in its row.

    Each of the s_y * s_zhat * s_z chains is one pass over all rows of a
    batch.  The chains are not stacked into one larger pass, and rows that
    share a sampled yhat are not encoded once for all of them: a row's
    output bits depend on the shape of the batch it is in (BLAS picks its
    kernels by shape), so either would change the corrected probabilities in
    their last bits.

    A batch reuses the latent noise and the chi-square draws of an earlier
    batch with its (seed, rows, m, s_y, s_zhat, s_z, proposal, fixed nu),
    from this call or a previous one, while that key is one of the two last
    used.  A learned nu transforms the kept uniforms with each batch's
    per-row nu.
    """
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[1] != model.cfg.d:
        raise ValueError(f"model expects (n, {model.cfg.d}) features, got shape {X.shape}")
    probs, se = np.empty((len(X), model.cfg.k)), np.empty((len(X), model.cfg.k))
    for i in range(0, len(X), _BATCH):
        probs[i : i + _BATCH], se[i : i + _BATCH] = _correct_batch(model, h, X[i : i + _BATCH], cfg)
    return CorrectionResult(probs=probs, labels=binarize(probs, cfg.tau), se=se)


def _correct_batch(model: LsnpcModel, h: BaseClassifier, X: np.ndarray, cfg: CorrectionConfig):
    """``(probs, se)`` of the rows of X, one batch of ``correct()``."""
    n, m = X.shape[0], model.cfg.m
    P = predict_probs(h, X)
    yhat_all = sample_predictions(P, cfg.s_y, rngs.stream(cfg.seed, "correct", "yhat"))
    student = model.cfg.proposal == "student"
    fixed_nu = model.cfg.nu if student and model.cfg.nu_mode == "fixed" else None
    eps_zhat, eps_z, mix = _noise(cfg.seed, n, m, cfg.s_y, cfg.s_zhat, cfg.s_z,
                                  model.cfg.proposal, fixed_nu)

    chains = []
    with np.errstate(all="ignore"):
        for s in range(cfg.s_y):
            mu_t, sig_t, nu = model.proposal(X, yhat_all[s])
            for t in range(cfg.s_zhat):
                chi2 = None
                if student:
                    chi2 = mix[s, t] if fixed_nu is not None else chi2_from_uniform(nu, mix[s, t])
                _, mu_k, sig_k = chain(model, mu_t, sig_t, nu, eps_zhat[s, t], chi2)
                for u in range(cfg.s_z):
                    z = rsample_diag_normal(mu_k, sig_k, eps_z[s, t, u])
                    chains.append(model.decode_labels(X, z))
    stacked = np.stack(chains)
    probs = stacked.mean(axis=0)
    if len(chains) > 1:
        se = stacked.std(axis=0, ddof=1) / np.sqrt(len(chains))
    else:
        se = np.zeros_like(probs)
    return probs, se


def binarize(probs, tau: float) -> np.ndarray:
    """Elementwise strict threshold: a probability equal to tau maps to 0."""
    if not 0.0 < tau < 1.0:
        raise ValueError("threshold must lie strictly inside (0, 1)")
    return (np.asarray(probs) > tau).astype(np.uint8)


def _sq_distances(q, T, t2, out):
    """``np.sum(np.square(q), axis=1, keepdims=True) - 2.0 * q @ T.T + t2``,
    bit for bit, written into ``out``: scaling by a power of two is exact, so
    the product may be scaled after it is formed."""
    np.matmul(q, T.T, out=out)
    out *= -2.0
    out += np.sum(np.square(q), axis=1, keepdims=True)
    out += t2
    return out


def _k_nearest(d2, K: int):
    """``(nearest, fallback)``: for each row of ``d2``, the column indices of
    its K smallest values, the ones ``np.argpartition(row, K - 1)[:K]``
    selects, and the rows that took that argpartition (see ``knn_correct``)."""
    n_rows, n = d2.shape
    starts = np.arange(0, n, _KNN_CHUNK)
    # the K gathered chunks must be at most a quarter of the row to pay
    if len(starts) < 4 * K:
        return np.argpartition(d2, K - 1, axis=1)[:, :K], np.arange(n_rows)
    mins = np.minimum.reduceat(d2, starts, axis=1)
    chunks = np.argpartition(mins, K, axis=1)
    c = np.take_along_axis(mins, chunks[:, K : K + 1], axis=1)[:, 0]
    at = np.arange(n_rows)
    cols = (chunks[:, :K, None] * _KNN_CHUNK + np.arange(_KNN_CHUNK)).reshape(n_rows, -1)
    vals = d2.reshape(-1)[np.minimum(cols, n - 1) + n * at[:, None]]
    vals[cols >= n] = np.inf
    pick = np.argpartition(vals, K, axis=1)
    a = np.take_along_axis(vals, pick[:, :K], axis=1).max(axis=1)
    b = vals[at, pick[:, K]]
    nearest = np.take_along_axis(cols, pick[:, :K], axis=1)
    # a NaN makes its chunk's minimum NaN, which hides the chunk's other
    # distances, so a row with one falls back
    fallback = np.flatnonzero(~(a < np.minimum(b, c)) | np.isnan(mins).any(axis=1))
    for i in fallback:
        nearest[i] = np.argpartition(d2[i], K - 1)[:K]
    return nearest, fallback


def knn_correct(train_features, noisy_train_labels, X, K: int = 5) -> np.ndarray:
    """Per-label majority vote over the K Euclidean-nearest training rows.

    Exact K/2 ties resolve to 1, and noisy labels other than 0 and 1 are
    rejected.  Distances are computed for ``_KNN_BLOCK`` query rows at a
    time, and the neighbours of a block's rows are selected in two stages,
    each run on the whole block.  First, each row's distances are cut into
    chunks of ``_KNN_CHUNK`` columns and the K chunks with the smallest
    minima found.  Then those chunks are gathered (a ragged last chunk
    padded with +inf) and their K smallest values taken.  With a the K-th
    smallest gathered value, b the (K+1)-th and c the (K+1)-th smallest
    chunk minimum, every distance outside the gathered chunks is at least
    c, so when a < min(b, c) exactly K distances are at most a: the K
    nearest are unique, and are the ones ``np.argpartition(row, K - 1)[:K]``
    selects.  A row for which this fails (its K-th and (K+1)-th distances
    tie, or it holds a NaN, whose chunk minimum is NaN) takes that
    argpartition.  So does the whole block, in one argpartition, when the
    training set has fewer than 4 K chunks: there the gathers are more than
    a quarter of each row, and the two stages cost more than they save (a
    1 400-row training set selected 1.4x slower).  So the votes are
    argpartition's, bit for bit.

    The blocks run on ``rngs.workers(blocks)`` threads (one per core, one
    inside a ``fan_out`` worker), each with one reused block buffer and
    writing its own rows of the result under the caller's numpy error
    state, so the labels do not depend on the thread count.  Beyond the
    inputs and the result, memory stays near ``threads * 2 * _KNN_BLOCK *
    n_train * 8`` bytes, whatever the number of queries: a block of
    distances, and either the int64 argpartition indices of a block that
    falls back whole or the two-stage selection's chunk minima
    (``_KNN_BLOCK * n_train / _KNN_CHUNK * 16`` bytes) and gathers (about
    ``4 * _KNN_BLOCK * K * _KNN_CHUNK * 8`` bytes, 1.3 MB at K = 5, and
    about a block at most, as the K chunks are at most a quarter of a
    row).  While more than one thread runs, OpenBLAS runs on one thread
    (``rngs.one_blas_thread``), so the block threads do not each ask it for
    every core.  Every thread has ended, and
    the BLAS thread counts are restored, when the call returns or raises.
    """
    T = np.asarray(train_features, dtype=np.float64)
    L = np.asarray(noisy_train_labels, dtype=np.float64)
    Q = np.asarray(X, dtype=np.float64)
    if T.ndim != 2 or Q.ndim != 2 or T.shape[1] != Q.shape[1]:
        raise ValueError(f"training features {T.shape} and query features {Q.shape} "
                         "must be (n, d) arrays of equal feature dimensions")
    if L.ndim != 2 or L.shape[0] != T.shape[0]:
        raise ValueError(f"noisy labels {L.shape} must have one row per training "
                         f"feature row {T.shape}")
    bad = np.count_nonzero((L != 0) & (L != 1))
    if bad:
        raise ValueError(f"noisy labels must be 0 or 1; {bad} of their {L.size} entries are not")
    if K < 1:
        raise ValueError("K must be >= 1")
    if K > T.shape[0]:
        raise ValueError(f"K={K} exceeds the {T.shape[0]} training rows")
    t2 = np.sum(np.square(T), axis=1)
    out = np.empty((Q.shape[0], L.shape[1]), dtype=np.uint8)
    starts = range(0, Q.shape[0], _KNN_BLOCK)
    threads = rngs.workers(len(starts))

    def run_blocks(first: int) -> None:
        block = np.empty((min(_KNN_BLOCK, Q.shape[0]), T.shape[0]))
        for start in starts[first::threads]:
            q = Q[start : start + _KNN_BLOCK]
            d2 = _sq_distances(q, T, t2, block[: len(q)])
            votes = L[_k_nearest(d2, K)[0]].sum(axis=1)
            out[start : start + len(q)] = 2 * votes >= K

    if threads == 1:
        run_blocks(0)
        return out
    # One thread per share of the blocks, each started whatever the others'
    # progress (a pool may hand a second share to a thread that finished its
    # first), and every started thread joined before the BLAS counts return.
    # A new thread starts with numpy's default error handling, so each takes
    # the caller's.
    failures, err = [], np.geterr()

    def run_share(first: int) -> None:
        try:
            with np.errstate(**err):
                run_blocks(first)
        except BaseException as e:
            failures.append(e)

    shares = [threading.Thread(target=run_share, args=(first,)) for first in range(threads)]
    with rngs.one_blas_thread():
        try:
            for thread in shares:
                thread.start()
        finally:
            for thread in shares:
                if thread.ident is not None:
                    thread.join()
    if failures:
        raise failures[0]
    return out


def save_correction(result: CorrectionResult, path) -> None:
    """One CSV row per input row: k probabilities then k binary labels."""
    with open(path, "w", encoding="utf-8") as fh:
        for probs_row, labels_row in zip(result.probs, result.labels):
            cells = [repr(float(p)) for p in probs_row]
            cells += [str(int(v)) for v in labels_row]
            fh.write(",".join(cells) + "\n")


def load_correction(path) -> tuple[np.ndarray, np.ndarray]:
    probs, labels = [], []
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            cells = line.strip().split(",")
            if not cells or cells == [""]:
                continue
            if len(cells) % 2:
                raise ValueError("malformed row: expected k probabilities + k labels")
            k = len(cells) // 2
            probs.append([float(c) for c in cells[:k]])
            labels.append([int(c) for c in cells[k:]])
    return np.asarray(probs, dtype=np.float64), np.asarray(labels, dtype=np.uint8)
