"""Synthetic correlated multilabel data and the dataset file format.

The generator draws a low-rank latent factor per instance, produces labels by
thresholding random linear label prototypes of that factor, and emits features
as a random linear embedding of the same factor plus Gaussian noise.  Shared
factors make labels correlated, and the threshold offsets control imbalance;
labels stay recoverable from features up to the injected feature noise.

Datasets persist as 'dataset' files of the container laid out in the
``checkpoint`` module docstring, with the generator's name and every
``GeneratorConfig`` field in the header's ``meta`` object: identical configs
reproduce byte-identical files, and a load followed by a save reproduces the
file byte for byte.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field

import numpy as np

from . import checkpoint, rngs

__all__ = [
    "FeatureDataset",
    "GeneratorConfig",
    "SyntheticAux",
    "generate_synthetic",
    "save_dataset",
    "load_dataset",
]


@dataclass
class FeatureDataset:
    """Feature matrix X (n x d float32) and binary label matrix Y (n x k)."""

    X: np.ndarray
    Y: np.ndarray
    metadata: dict = field(default_factory=dict)

    def __post_init__(self):
        self.X = np.asarray(self.X, dtype=np.float32)
        self.Y = np.asarray(self.Y, dtype=np.uint8)
        if self.X.ndim != 2 or self.Y.ndim != 2:
            raise ValueError("X and Y must be 2-d")
        if self.X.shape[0] != self.Y.shape[0]:
            raise ValueError(
                f"row counts differ: X has {self.X.shape[0]}, Y has {self.Y.shape[0]}"
            )
        if self.X.shape[0] == 0 or self.X.shape[1] == 0 or self.Y.shape[1] == 0:
            raise ValueError("n, d, k must all be positive")
        if not np.all(np.isfinite(self.X)):
            raise ValueError("features contain NaN or Inf")
        if not np.all((self.Y == 0) | (self.Y == 1)):
            raise ValueError("labels must be binary")

    @property
    def n(self) -> int:
        return self.X.shape[0]

    @property
    def d(self) -> int:
        return self.X.shape[1]

    @property
    def k(self) -> int:
        return self.Y.shape[1]


@dataclass(frozen=True)
class GeneratorConfig:
    """Knobs of the synthetic generator.

    ``rank`` is the latent factor dimension shared by features and labels;
    ``b_loc``/``b_scale`` set the distribution of per-label threshold offsets
    (negative locations make positives rarer, dialing in imbalance);
    ``identity_embedding`` replaces the random feature map with the identity
    (requires rank == d) so features determine labels exactly at zero noise.
    """

    n: int = 2000
    d: int = 32
    k: int = 10
    rank: int = 8
    noise_scale: float = 0.5
    b_loc: float = -2.0
    b_scale: float = 0.5
    seed: int = 0
    identity_embedding: bool = False

    def __post_init__(self):
        if min(self.n, self.d, self.k, self.rank) <= 0:
            raise ValueError("n, d, k, rank must be positive")
        if self.rank > self.d:
            raise ValueError("rank must not exceed the feature dimension")
        if self.noise_scale < 0:
            raise ValueError("noise scale must be non-negative")
        if self.identity_embedding and self.rank != self.d:
            raise ValueError("identity embedding requires rank == d")


@dataclass
class SyntheticAux:
    """Generator internals kept for oracle checks; never persisted."""

    factors: np.ndarray
    label_weights: np.ndarray
    label_offsets: np.ndarray
    embedding: np.ndarray


def generate_synthetic(cfg: GeneratorConfig) -> tuple[FeatureDataset, SyntheticAux]:
    """Sample a dataset; same config (including seed) gives identical bytes."""
    rng = rngs.stream(cfg.seed, "datagen")
    u = rng.standard_normal((cfg.n, cfg.rank))
    W = rng.standard_normal((cfg.k, cfg.rank))
    b = cfg.b_loc + cfg.b_scale * rng.standard_normal(cfg.k)
    logits = u @ W.T + b
    Y = (logits > 0.0).astype(np.uint8)
    if cfg.identity_embedding:
        A = np.eye(cfg.d)
    else:
        A = rng.standard_normal((cfg.d, cfg.rank))
    X = u @ A.T
    if cfg.noise_scale > 0:
        X = X + cfg.noise_scale * rng.standard_normal((cfg.n, cfg.d))
    metadata = {"generator": "synthetic-latent-factor", **asdict(cfg)}
    ds = FeatureDataset(X=X.astype(np.float32), Y=Y, metadata=metadata)
    aux = SyntheticAux(factors=u, label_weights=W, label_offsets=b, embedding=A)
    return ds, aux


# --------------------------------------------------------------------------
# Binary persistence


def save_dataset(ds: FeatureDataset, path) -> None:
    checkpoint.save(path, "dataset", {"X": ds.X, "Y": ds.Y}, {}, ds.metadata)


def load_dataset(path) -> FeatureDataset:
    arrays, _, metadata = checkpoint.load(path, "dataset")
    return FeatureDataset(**arrays, metadata=metadata)
