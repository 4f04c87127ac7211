"""Monte-Carlo label correction and the KNN post-processing baseline.

The corrected probability of each label is the mean, over sampled chains
yhat -> zhat -> z, of the decoder output at (x, z).  The innermost
expectation over y is analytic (a Bernoulli's mean is its probability), so
no y sampling occurs.  True labels never enter: the signature has no Y.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import rngs
from .baseclf import BaseClassifier, predict_probs, sample_predictions
from .model import LsnpcModel, _chi2_from_uniform
from .distributions import rsample_diag_normal, rsample_diag_student

__all__ = [
    "CorrectionConfig",
    "CorrectionResult",
    "correct",
    "binarize",
    "knn_correct",
    "save_correction",
    "load_correction",
]

# Query rows per distance block in knn_correct: against 14 000 training rows
# a block is 29 MB of float64 distances.
_KNN_BLOCK = 256


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

    @property
    def n_chains(self) -> int:
        return self.s_y * self.s_zhat * self.s_z


@dataclass
class CorrectionResult:
    probs: np.ndarray
    labels: np.ndarray
    se: np.ndarray


def correct(model: LsnpcModel, h: BaseClassifier, X, cfg: CorrectionConfig) -> CorrectionResult:
    """Corrected label probabilities for every row of X, with per-cell MC SE."""
    X = np.asarray(X, dtype=np.float64)
    if X.shape[1] != model.cfg.d:
        raise ValueError(f"model expects {model.cfg.d} features, got {X.shape[1]}")
    n, m = X.shape[0], model.cfg.m
    P = predict_probs(h, X)
    yhat_rng = rngs.stream(cfg.seed, "correct", "yhat")
    noise_rng = rngs.stream(cfg.seed, "correct", "noise")
    yhat_all = sample_predictions(P, cfg.s_y, yhat_rng)

    chains = []
    for s in range(cfg.s_y):
        yhat = yhat_all[s]
        mu_t, sig_t = model.encode_xy(X, yhat)
        nu = model.proposal_nu(X, yhat)
        eps_zhat = noise_rng.standard_normal((cfg.s_zhat, n, m))
        eps_z = noise_rng.standard_normal((cfg.s_zhat, cfg.s_z, n, m))
        chi2_u = None
        if model.cfg.proposal == "student":
            chi2_u = noise_rng.random((cfg.s_zhat, n, 1))
        for t in range(cfg.s_zhat):
            if model.cfg.proposal == "student":
                chi2 = _chi2_from_uniform(nu, chi2_u[t])
                zhat = rsample_diag_student((mu_t, sig_t, nu), eps_zhat[t], chi2)
            else:
                zhat = rsample_diag_normal((mu_t, sig_t), eps_zhat[t])
            mu_k, sig_k = model.encode_zhat_to_z(zhat)
            for u in range(cfg.s_z):
                z = rsample_diag_normal((mu_k, sig_k), eps_z[t, u])
                chains.append(model.decode_labels(X, z).data.copy())
    stacked = np.stack(chains)
    probs = stacked.mean(axis=0)
    if len(chains) > 1:
        se = stacked.std(axis=0, ddof=1) / np.sqrt(len(chains))
    else:
        se = np.zeros_like(probs)
    return CorrectionResult(probs=probs, labels=binarize(probs, cfg.tau), se=se)


def binarize(probs, tau: float) -> np.ndarray:
    """Elementwise strict threshold: a probability equal to tau maps to 0."""
    if not 0.0 < tau < 1.0:
        raise ValueError("threshold must lie strictly inside (0, 1)")
    return (np.asarray(probs) > tau).astype(np.uint8)


def knn_correct(train_features, noisy_train_labels, X, K: int = 5) -> np.ndarray:
    """Per-label majority vote over the K Euclidean-nearest training rows.

    Exact K/2 ties resolve to 1.  Distances are computed for
    ``_KNN_BLOCK`` query rows at a time, so memory stays bounded by the
    block, not by the number of queries.
    """
    T = np.asarray(train_features, dtype=np.float64)
    L = np.asarray(noisy_train_labels, dtype=np.float64)
    Q = np.asarray(X, dtype=np.float64)
    if K < 1:
        raise ValueError("K must be >= 1")
    if K > T.shape[0]:
        raise ValueError(f"K={K} exceeds the {T.shape[0]} training rows")
    if T.shape[1] != Q.shape[1]:
        raise ValueError("feature dimensions differ")
    t2 = np.sum(np.square(T), axis=1)
    out = np.empty((Q.shape[0], L.shape[1]), dtype=np.uint8)
    for start in range(0, Q.shape[0], _KNN_BLOCK):
        q = Q[start : start + _KNN_BLOCK]
        d2 = np.sum(np.square(q), axis=1, keepdims=True) - 2.0 * q @ T.T + t2
        nearest = np.argpartition(d2, K - 1, axis=1)[:, :K]
        votes = L[nearest].sum(axis=1)
        out[start : start + _KNN_BLOCK] = 2 * votes >= K
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
