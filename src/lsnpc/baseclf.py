"""Sigmoid-output MLP classifier trained with BCE on corrupted labels.

This is the pre-trained predictor the post-processor corrects.  It exposes
per-label predictive probabilities and Bernoulli label-vector sampling; the
two downstream consumers are the unsupervised loss (which trains on sampled
label vectors) and the correction chain.

BCE is computed from logits as softplus(l) - y*l, which equals
-[y log sigmoid(l) + (1-y) log(1-sigmoid(l))] without intermediate
saturation.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.special import expit

from . import checkpoint, rngs
from .autodiff import ComputeGraph, Tensor
from .distributions import EPS_P
from .evaluation import micro_f1
from .layers import Mlp, cosine_lr, make_optimizer

__all__ = [
    "BaseTrainConfig",
    "BaseClassifier",
    "TrainingDiverged",
    "train_base",
    "predict_probs",
    "sample_predictions",
    "save_base",
    "load_base",
]


class TrainingDiverged(RuntimeError):
    """Loss became non-finite; message carries the epoch index."""


@dataclass(frozen=True)
class BaseTrainConfig:
    lr: float = 1e-3
    epochs: int = 50
    batch_size: int = 32
    optimizer: str = "adamw"
    weight_decay: float = 0.01
    hidden: tuple[int, ...] = (64, 64)
    shuffle: bool = True
    seed: int = 0

    def __post_init__(self):
        if self.lr <= 0:
            raise ValueError("learning rate must be positive")
        if self.batch_size < 1:
            raise ValueError("batch size must be >= 1")
        if self.epochs < 0:
            raise ValueError("epochs must be >= 0")


@dataclass
class BaseClassifier:
    net: Mlp
    d: int
    k: int
    hidden: tuple[int, ...]
    metadata: dict = field(default_factory=dict)
    history: dict = field(default_factory=dict)

    def params_arrays(self) -> dict[str, np.ndarray]:
        return {name: p.data.copy() for name, p in self.net.params.items()}

    def load_arrays(self, arrays: dict[str, np.ndarray]) -> None:
        if set(arrays) != set(self.net.params):
            raise ValueError("parameter names do not match this architecture")
        for name, value in arrays.items():
            p = self.net.params[name]
            if p.data.shape != value.shape:
                raise ValueError(f"shape mismatch for {name}")
            p.data = value.astype(np.float64).copy()


def _new_classifier(d: int, k: int, hidden: tuple[int, ...], seed: int) -> BaseClassifier:
    rng = rngs.stream(seed, "base", "init")
    net = Mlp("clf", d, tuple(hidden), k, rng, zero_init_head=True)
    return BaseClassifier(net=net, d=d, k=k, hidden=tuple(hidden))


def _bce(logits: Tensor, y: Tensor) -> Tensor:
    return (logits.softplus() - y * logits).mean()


def train_base(X, Y, cfg: BaseTrainConfig, validation=None) -> BaseClassifier:
    """Fit on corrupted labels; keep the epoch with best validation micro-F1.

    ``validation`` is an optional (X_val, Y_val) pair; without it the final
    epoch's parameters are kept.  Validation labels are corrupted in the
    intended pipeline, so selection never sees clean labels.
    """
    X = np.asarray(X, dtype=np.float64)
    Y = np.asarray(Y, dtype=np.float64)
    if X.ndim != 2 or Y.ndim != 2 or X.shape[0] != Y.shape[0]:
        raise ValueError(f"inconsistent shapes {X.shape} and {Y.shape}")
    n, d = X.shape
    k = Y.shape[1]
    h = _new_classifier(d, k, cfg.hidden, cfg.seed)
    graph = ComputeGraph(lambda b: _bce(h.net(b["X"]), b["Y"]), h.net.params)
    opt = make_optimizer(cfg.optimizer, h.net.params, cfg.lr, cfg.weight_decay)
    shuffle_rng = rngs.stream(cfg.seed, "base", "shuffle")

    best_f1 = -1.0
    best_arrays = None
    losses: list[float] = []
    val_scores: list[float] = []
    for epoch in range(cfg.epochs):
        order = shuffle_rng.permutation(n) if cfg.shuffle else np.arange(n)
        lr_scale = cosine_lr(1.0, epoch)
        epoch_loss = 0.0
        n_batches = 0
        for start in range(0, n, cfg.batch_size):
            idx = order[start : start + cfg.batch_size]
            opt.zero_grad()
            loss = graph.eval({"X": X[idx], "Y": Y[idx]})
            if not np.isfinite(loss.data):
                raise TrainingDiverged(f"non-finite loss at epoch {epoch}")
            graph.backward()
            opt.step(lr_scale=lr_scale)
            epoch_loss += loss.item()
            n_batches += 1
        losses.append(epoch_loss / max(n_batches, 1))
        if validation is not None:
            X_val, Y_val = validation
            preds = (predict_probs(h, X_val) > 0.5).astype(np.uint8)
            score = micro_f1(Y_val, preds)
            val_scores.append(score)
            if score > best_f1:
                best_f1 = score
                best_arrays = h.params_arrays()
    if best_arrays is not None:
        h.load_arrays(best_arrays)
    h.history = {"train_loss": losses, "val_micro_f1": val_scores}
    h.metadata = {
        "epochs": cfg.epochs,
        "seed": cfg.seed,
        "val_micro_f1": best_f1 if best_f1 >= 0 else float("nan"),
    }
    return h


def predict_probs(h: BaseClassifier, X) -> np.ndarray:
    """Per-label probabilities in (EPS_P, 1-EPS_P); pure in (params, X)."""
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[1] != h.d:
        raise ValueError(f"expected (n, {h.d}) features, got {X.shape}")
    logits = h.net(X)
    return np.clip(expit(logits.data), EPS_P, 1.0 - EPS_P)


def sample_predictions(P, S: int, rng: np.random.Generator) -> np.ndarray:
    """S independent Bernoulli(P) binary vectors, shape (S, *P.shape)."""
    if S < 1:
        raise ValueError("need at least one sample")
    P = np.asarray(P, dtype=np.float64)
    return (rng.random((S, *P.shape)) < P).astype(np.uint8)


def save_base(h: BaseClassifier, path) -> None:
    meta = {
        "kind": "base",
        "d": str(h.d),
        "k": str(h.k),
        "hidden": ",".join(str(w) for w in h.hidden),
        **{key: repr(value) for key, value in h.metadata.items()},
    }
    checkpoint.save_params(path, h.params_arrays(), meta)


def load_base(path) -> BaseClassifier:
    arrays, meta = checkpoint.load_params(path)
    if meta.get("kind") != "base":
        raise ValueError("checkpoint does not hold a base classifier")
    hidden = tuple(int(w) for w in meta["hidden"].split(",") if w)
    h = _new_classifier(int(meta["d"]), int(meta["k"]), hidden, seed=0)
    h.load_arrays(arrays)
    h.metadata = {k: v for k, v in meta.items() if k not in {"kind", "d", "k", "hidden"}}
    return h
