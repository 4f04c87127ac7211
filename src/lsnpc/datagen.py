"""Synthetic correlated multilabel data and the dataset file format.

The generator draws a low-rank latent factor per instance, produces labels by
thresholding random linear label prototypes of that factor, and emits features
as a random linear embedding of the same factor plus Gaussian noise.  Shared
factors make labels correlated, and the threshold offsets control imbalance;
labels stay recoverable from features up to the injected feature noise.

Datasets persist in a fixed little-endian binary layout so that identical
configs reproduce byte-identical files:

    magic 'LSDS' | version u8 | n u32 | d u32 | k u32 | meta_len u32 |
    metadata utf-8 | X float32 row-major | Y bit-packed rows (flattened)

The metadata is sorted "key=value" lines joined by newlines, each value a
``checkpoint.text`` that ``checkpoint.literal`` parses back, so a load
followed by a save reproduces the file byte for byte.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass, field

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

_MAGIC = b"LSDS"
_VERSION = 1


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
    metadata = {
        "generator": "synthetic-latent-factor",
        "n": cfg.n,
        "d": cfg.d,
        "k": cfg.k,
        "rank": cfg.rank,
        "noise_scale": cfg.noise_scale,
        "b_loc": cfg.b_loc,
        "b_scale": cfg.b_scale,
        "seed": cfg.seed,
        "identity_embedding": cfg.identity_embedding,
    }
    ds = FeatureDataset(X=X.astype(np.float32), Y=Y, metadata=metadata)
    aux = SyntheticAux(factors=u, label_weights=W, label_offsets=b, embedding=A)
    return ds, aux


# --------------------------------------------------------------------------
# Binary persistence

_HEADER = 21  # magic, version, then n, d, k and the metadata length as u32


def save_dataset(ds: FeatureDataset, path) -> None:
    lines = [f"{key}={checkpoint.text(ds.metadata[key])}" for key in sorted(ds.metadata)]
    meta = "\n".join(lines).encode("utf-8")
    header = _MAGIC + bytes([_VERSION]) + struct.pack("<4I", ds.n, ds.d, ds.k, len(meta))
    packed = np.packbits(ds.Y.reshape(-1))
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(meta)
        fh.write(np.ascontiguousarray(ds.X, dtype="<f4").tobytes())
        fh.write(packed.tobytes())


def load_dataset(path) -> FeatureDataset:
    with open(path, "rb") as fh:
        blob = fh.read()
    if not _MAGIC.startswith(blob[:4]):
        raise ValueError(f"not a dataset file: bad magic {blob[:4]!r}")
    if len(blob) < _HEADER:
        raise ValueError(f"truncated dataset file: the header needs {_HEADER} bytes, "
                         f"found {len(blob)}")
    if blob[4] != _VERSION:
        raise ValueError(f"unsupported dataset format version {blob[4]}")
    n, d, k, meta_len = struct.unpack("<4I", blob[5:_HEADER])
    x_at = _HEADER + meta_len
    y_at = x_at + 4 * n * d
    size = y_at + math.ceil(n * k / 8)
    if len(blob) < size:
        raise ValueError(f"truncated dataset file: expected {size} bytes, found {len(blob)}")
    if len(blob) > size:
        raise ValueError(f"oversized dataset file: expected {size} bytes, found {len(blob)}")
    meta = {}
    for line in str(blob[_HEADER:x_at], "utf-8").splitlines():
        key, _, raw = line.partition("=")
        meta[key] = checkpoint.literal(raw)
    X = np.frombuffer(blob, dtype="<f4", count=n * d, offset=x_at).reshape(n, d)
    Y = np.unpackbits(np.frombuffer(blob, dtype=np.uint8, offset=y_at), count=n * k)
    return FeatureDataset(X=X.copy(), Y=Y.reshape(n, k), metadata=meta)
