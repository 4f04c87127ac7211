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
from .autodiff import Tensor
from .distributions import EPS_P
from .layers import Mlp, TrainConfig, TrainingDiverged, check_widths, fit

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


@dataclass(frozen=True)
class BaseTrainConfig(TrainConfig):
    hidden: tuple[int, ...] = (64, 64)

    def __post_init__(self):
        super().__post_init__()
        check_widths("hidden", self.hidden)


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


def train_base(X, Y, cfg: BaseTrainConfig, score=None) -> BaseClassifier:
    """Fit on corrupted labels; keep the epoch that ``score`` rates best.

    ``score(h) -> float`` rates the classifier after each epoch; the pipeline
    scores micro-F1 on the corrupted validation split, so selection never
    sees clean labels.  Without it the final epoch's parameters are kept.
    """
    X = np.asarray(X, dtype=np.float64)
    Y = np.asarray(Y, dtype=np.float64)
    if X.ndim != 2 or Y.ndim != 2 or X.shape[0] != Y.shape[0]:
        raise ValueError(f"inconsistent shapes {X.shape} and {Y.shape}")
    h = _new_classifier(X.shape[1], Y.shape[1], cfg.hidden, cfg.seed)
    sweep = ("train", X.shape[0], rngs.stream(cfg.seed, "base", "shuffle"),
             lambda idx: _bce(h.net(Tensor(X[idx])), Tensor(Y[idx])))
    losses, scores, _, best = fit(h.net.params, cfg, [sweep],
                                  None if score is None else lambda: score(h))
    h.history = {"train_loss": losses["train"], "val_micro_f1": scores}
    h.metadata = {"epochs": cfg.epochs, "seed": cfg.seed, "val_micro_f1": best}
    return h


def predict_probs(h: BaseClassifier, X) -> np.ndarray:
    """Per-label probabilities in (EPS_P, 1-EPS_P); pure in (params, X).

    Runs the network on arrays, so it builds no tape; the result is written
    into the logits' array.
    """
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[1] != h.d:
        raise ValueError(f"expected (n, {h.d}) features, got {X.shape}")
    logits = h.net(X)
    return np.clip(expit(logits, out=logits), EPS_P, 1.0 - EPS_P, out=logits)


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
