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
from typing import get_type_hints

import numpy as np
from scipy.special import expit

from . import checkpoint, rngs
from .autodiff import ComputeGraph, NonFiniteLoss, Tensor
from .distributions import EPS_P
from .evaluation import micro_f1
from .layers import Mlp, check_optimizer, cosine_lr, make_optimizer

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
        check_optimizer(self.optimizer)


@dataclass
class BaseClassifier:
    net: Mlp
    d: int
    k: int
    hidden: tuple[int, ...]
    metadata: dict = field(default_factory=dict)
    history: dict = field(default_factory=dict)


# The BaseClassifier fields a checkpoint needs to rebuild the network.
_ARCH = ("d", "k", "hidden")


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
    h = _new_classifier(X.shape[1], Y.shape[1], cfg.hidden, cfg.seed)
    score = None
    if validation is not None:
        X_val, Y_val = validation
        score = lambda: micro_f1(Y_val, (predict_probs(h, X_val) > 0.5).astype(np.uint8))
    sweep = ("train", X.shape[0], rngs.stream(cfg.seed, "base", "shuffle"),
             lambda idx: _bce(h.net(X[idx]), Tensor(Y[idx])))
    losses, scores, _, best = _fit(h.net.params, cfg, [sweep], score)
    h.history = {"train_loss": losses["train"], "val_micro_f1": scores}
    h.metadata = {"epochs": cfg.epochs, "seed": cfg.seed, "val_micro_f1": best}
    return h


def _fit(params: dict[str, Tensor], cfg, sweeps, score=None):
    """The epoch schedule shared by the base and latent-shift trainers.

    ``cfg`` supplies optimizer, lr, weight_decay, epochs, batch_size and
    shuffle.  Each epoch runs every sweep ``(name, rows, shuffle_rng,
    batch_loss)`` in order: ``batch_loss`` maps a batch of row indices to a
    loss Tensor, and every batch takes one cosine-scaled optimizer step.
    ``score()`` then rates the epoch's parameters, and the best-rated epoch
    is restored at the end (ties keep the earlier one).  Returns the mean
    loss per epoch of each sweep by name, the scores, the best epoch (-1
    without ``score``) and its score (NaN without ``score``).
    """
    opt = make_optimizer(cfg.optimizer, params, cfg.lr, cfg.weight_decay)
    losses: dict[str, list[float]] = {name: [] for name, *_ in sweeps}
    scores: list[float] = []
    best_epoch, best, best_arrays = -1, float("nan"), None
    for epoch in range(cfg.epochs):
        lr_scale = cosine_lr(1.0, epoch)
        for name, n, shuffle_rng, batch_loss in sweeps:
            order = shuffle_rng.permutation(n) if cfg.shuffle else np.arange(n)
            total, n_batches = 0.0, 0
            for start in range(0, n, cfg.batch_size):
                try:
                    loss = batch_loss(order[start : start + cfg.batch_size])
                    if not np.isfinite(loss.data):
                        raise NonFiniteLoss(f"non-finite loss (first bad op: {loss.nonfinite_op})")
                except NonFiniteLoss as err:
                    raise TrainingDiverged(f"epoch {epoch} ({name} sweep): {err}") from err
                graph = ComputeGraph(lambda bound: loss, params)
                graph.eval()
                opt.zero_grad()
                graph.backward()
                opt.step(lr_scale=lr_scale)
                total += loss.item()
                n_batches += 1
            losses[name].append(total / max(n_batches, 1))
        if score is not None:
            scores.append(score())
            if best_epoch < 0 or scores[-1] > best:
                best_epoch, best = epoch, scores[-1]
                best_arrays = checkpoint.snapshot(params)
    if best_arrays is not None:
        checkpoint.restore(params, best_arrays)
    return losses, scores, best_epoch, best


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
        **{name: checkpoint.field_text(getattr(h, name)) for name in _ARCH},
        **{key: checkpoint.text(value) for key, value in h.metadata.items()},
    }
    checkpoint.save_params(path, checkpoint.snapshot(h.net.params), meta)


def load_base(path) -> BaseClassifier:
    arrays, meta = checkpoint.load_params(path)
    if meta.get("kind") != "base":
        raise ValueError("checkpoint does not hold a base classifier")
    types = get_type_hints(BaseClassifier)
    h = _new_classifier(*(checkpoint.field_value(types[f], meta[f]) for f in _ARCH), seed=0)
    checkpoint.restore(h.net.params, arrays)
    h.metadata = {
        k: checkpoint.literal(v) for k, v in meta.items() if k not in {"kind", *_ARCH}
    }
    return h
