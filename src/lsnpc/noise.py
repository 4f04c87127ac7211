"""Class-dependent label noise: transition matrices, corruption, splits.

Symmetric noise flips a positive label uniformly to any other label with
probability nr; pairflip noise flips it to the next label (cyclically).  The
multilabel lift applies the k-class transition row independently to every
positive label of an instance: a flipped positive clears its own bit and sets
the target bit, merging when the target is already positive.  Negative labels
are never flipped directly; they only change by receiving a moved positive.

Corruption derives one RNG stream per row (seed xor row index) so that any
row partition, processed in any order, reproduces the same corrupted matrix.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import rngs
from .datagen import FeatureDataset

__all__ = [
    "TransitionMatrix",
    "SplitSpec",
    "SplitResult",
    "build_transition_matrix",
    "corrupt_labels",
    "split_dataset",
    "save_transition",
]

KINDS = ("sym", "pair")


@dataclass(frozen=True)
class TransitionMatrix:
    """Row-stochastic k x k matrix; rows[i][j] = p(observed j | true i)."""

    k: int
    kind: str
    nr: float
    rows: np.ndarray

    def __post_init__(self):
        rows = np.asarray(self.rows, dtype=np.float64)
        if rows.shape != (self.k, self.k):
            raise ValueError(f"rows must be {self.k}x{self.k}, got {rows.shape}")
        if not np.all(rows >= 0.0):
            raise ValueError("transition probabilities must be non-negative")
        sums = rows.sum(axis=1)
        if np.any(np.abs(sums - 1.0) > 1e-12):
            raise ValueError("every row must sum to 1 within 1e-12")
        object.__setattr__(self, "rows", rows)


@dataclass(frozen=True)
class SplitSpec:
    """Fractions of the dataset given to each role; they must sum to 1.

    Sizes use floor rounding for every split except test, which absorbs the
    remainder.
    """

    train: float
    validation: float
    test: float
    clean: float
    seed: int = 0

    def __post_init__(self):
        total = self.train + self.validation + self.test + self.clean
        if abs(total - 1.0) > 1e-9:
            raise ValueError(f"split fractions must sum to 1, got {total}")
        for name in ("train", "validation", "test"):
            if getattr(self, name) <= 0.0:
                raise ValueError(f"{name} fraction must be positive")
        if self.clean < 0.0:
            raise ValueError("clean fraction must be non-negative")

    def sizes(self, n: int) -> dict[str, int]:
        sizes = {name: int(n * getattr(self, name) + 1e-9)
                 for name in ("train", "validation", "clean")}
        sizes["test"] = n - sum(sizes.values())
        # split_dataset makes a FeatureDataset of each, which needs a row
        if min(sizes.values()) < 1:
            raise ValueError(f"degenerate split sizes for n={n}: {sizes}")
        return sizes


@dataclass
class SplitResult:
    """Named splits plus the index sets they came from."""

    splits: dict[str, FeatureDataset]
    indices: dict[str, np.ndarray]
    true_labels: dict[str, np.ndarray] = field(default_factory=dict)


def build_transition_matrix(kind: str, k: int, nr: float) -> TransitionMatrix:
    """Construct the symmetric or pairflip transition matrix."""
    kind = kind.lower()
    if kind not in KINDS:
        raise ValueError(f"unknown noise kind {kind!r}; expected one of {KINDS}")
    if k < 2:
        raise ValueError(f"need at least 2 labels, got k={k}")
    if not 0.0 <= nr < 1.0:
        raise ValueError(f"noise rate must lie in [0, 1), got {nr}")
    rows = np.zeros((k, k), dtype=np.float64)
    if kind == "sym":
        rows[:] = nr / (k - 1)
        np.fill_diagonal(rows, 1.0 - nr)
    else:
        np.fill_diagonal(rows, 1.0 - nr)
        for i in range(k):
            rows[i, (i + 1) % k] += nr
    return TransitionMatrix(k=k, kind=kind, nr=nr, rows=rows)


def corrupt_labels(Y: np.ndarray, T: TransitionMatrix, seed: int) -> np.ndarray:
    """Apply per-positive-label transition noise to a binary label matrix.

    Every row uses its own stream seeded by ``seed ^ row_index``: parallel
    implementations that partition rows reproduce this output exactly.  For
    each originally positive label (ascending order) one target is drawn from
    its transition row; moves clear all sources first, then set all targets,
    so two positives landing on one label merge.
    """
    Y = np.asarray(Y)
    if not np.all((Y == 0) | (Y == 1)):
        raise ValueError("labels must be binary")
    if Y.shape[1] != T.k:
        raise ValueError(f"label count {Y.shape[1]} does not match k={T.k}")
    out = Y.astype(np.uint8).copy()
    rows, cols = np.nonzero(Y)
    # One uniform per positive from its row's stream, in ascending label order:
    # the draw Generator.choice(k, p=T.rows[i]) makes before it returns
    # searchsorted(cdf_i, u, side="right").
    u = np.empty(rows.size)
    row_ids, starts, counts = np.unique(rows, return_index=True, return_counts=True)
    for row_index, start, count in zip(row_ids.tolist(), starts.tolist(), counts.tolist()):
        grow = np.random.Generator(np.random.PCG64(int(seed) ^ row_index))
        u[start : start + count] = grow.random(count)
    cdfs = T.rows.cumsum(axis=1)
    cdfs /= cdfs[:, -1:]
    targets = np.empty_like(cols)
    for i in range(T.k):
        source = cols == i
        targets[source] = np.searchsorted(cdfs[i], u[source], side="right")
    moved = targets != cols
    out[rows[moved], cols[moved]] = 0
    out[rows[moved], targets[moved]] = 1
    return out


def split_dataset(
    ds: FeatureDataset,
    spec: SplitSpec,
    transition: TransitionMatrix | None = None,
) -> SplitResult:
    """Partition a dataset into train/validation/clean/test subsets.

    The permutation is drawn from the spec's seed and cut, in order, into
    train, validation, clean and test blocks of ``spec.sizes``: the clean
    subset is a block of its own, sized by ``SplitSpec.clean``.  When a
    transition matrix is supplied, train and validation labels are corrupted
    while clean and test labels stay true.
    """
    n = ds.n
    sizes = spec.sizes(n)
    perm = rngs.stream(spec.seed, "split").permutation(n)
    edges = np.cumsum(
        [sizes["train"], sizes["validation"], sizes["clean"], sizes["test"]]
    )
    index_of = {
        "train": perm[: edges[0]],
        "validation": perm[edges[0] : edges[1]],
        "clean": perm[edges[1] : edges[2]],
        "test": perm[edges[2] : edges[3]],
    }
    splits: dict[str, FeatureDataset] = {}
    true_labels: dict[str, np.ndarray] = {}
    for name, idx in index_of.items():
        X = ds.X[idx].copy()
        Y = ds.Y[idx].copy()
        true_labels[name] = Y.copy()
        if transition is not None and name in ("train", "validation"):
            Y = corrupt_labels(
                Y, transition, rngs.spawn_seed(spec.seed, "corrupt", name)
            )
        meta = dict(ds.metadata)
        meta["split"] = name
        splits[name] = FeatureDataset(X=X, Y=Y, metadata=meta)
    return SplitResult(splits=splits, indices=index_of, true_labels=true_labels)


def save_transition(T: TransitionMatrix, path) -> None:
    """Serialize as plain text: header line 'k kind nr', then k rows."""
    lines = [f"{T.k} {T.kind} {T.nr!r}"]
    for row in T.rows:
        lines.append(" ".join(repr(float(v)) for v in row))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
