"""MLP building blocks, the optimizers, and the epoch loop that drives them.

Every multilayer perceptron here follows one recipe: hidden layers are
affine, then layer normalization (a deliberate stand-in for batch
normalization: no running statistics, no train/eval mode, no batch order
sensitivity), then GELU; the output head is affine only and zero-initialized,
so fresh models start at their symmetric point (probabilities 0.5, latent
means 0).  Each layer is one :func:`autodiff.dense` call: a single tape node
when the input is a Tensor, and plain arrays, with no tape, when it is an
array.

Hidden weights draw from a caller-supplied stream: models built from the same
seed are bit-identical.

:func:`fit` is the one training loop: the base classifier and the
latent-shift model hand it their parameters, a :class:`TrainConfig` and
their loss sweeps, plus an optional score that picks the epoch to keep.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import checkpoint
from .autodiff import NonFiniteLoss, Tensor, backward, dense

# ``fit`` stays out of ``__all__``: call tracers wrap the names listed there,
# and a span around the loop would stand between each trainer and its steps.
__all__ = ["Mlp", "AdamW", "Sgd", "make_optimizer", "cosine_lr", "TrainConfig",
           "TrainingDiverged"]


class Mlp:
    """A named stack of linear layers with layer norm and GELU on hidden outputs.

    Parameters live in ``self.params`` keyed ``{prefix}.W{i}`` etc. so several
    networks can share one flat parameter dict for the optimizer and the
    checkpoint writer.
    """

    def __init__(
        self,
        prefix: str,
        in_dim: int,
        hidden: tuple[int, ...],
        out_dim: int,
        rng: np.random.Generator,
        zero_init_head: bool = True,
    ):
        self.prefix = prefix
        self.params: dict[str, Tensor] = {}
        self._layers: list[tuple[Tensor, Tensor, tuple[Tensor, Tensor] | None]] = []
        dims = [in_dim, *hidden, out_dim]
        self.n_layers = len(dims) - 1
        for i, (fan_in, fan_out) in enumerate(zip(dims[:-1], dims[1:])):
            last = i == self.n_layers - 1
            if last and zero_init_head:
                W = np.zeros((fan_in, fan_out))
            else:
                W = rng.standard_normal((fan_in, fan_out)) * math.sqrt(2.0 / fan_in)
            W = self._add(f"W{i}", W)
            b = self._add(f"b{i}", np.zeros(fan_out))
            ln = None
            if not last:
                ln = (self._add(f"ln{i}.g", np.ones(fan_out)),
                      self._add(f"ln{i}.b", np.zeros(fan_out)))
            self._layers.append((W, b, ln))

    def _add(self, key: str, value: np.ndarray) -> Tensor:
        name = f"{self.prefix}.{key}"
        self.params[name] = Tensor(value, requires_grad=True, name=name)
        return self.params[name]

    def __call__(self, x, gelu_out: bool = False):
        """Output-head values; ``gelu_out`` applies GELU to them in the head's layer.

        An array ``x`` gives an array and builds no Tensor; a Tensor gives the
        head's tape node (see :func:`autodiff.dense`).
        """
        h = x
        for W, b, ln in self._layers:
            h = dense(h, W, b, ln, gelu=ln is not None or gelu_out)
        return h


def cosine_lr(epoch: int) -> float:
    """The learning-rate scale of ``epoch``: cosine-annealed from 1, restarting every 10 epochs."""
    return 0.5 * (1.0 + math.cos(math.pi * (epoch % 10) / 10))


@dataclass
class _Optimizer:
    params: dict[str, Tensor]
    lr: float = 1e-3

    def zero_grad(self) -> None:
        for p in self.params.values():
            p.grad = None


@dataclass
class AdamW(_Optimizer):
    """Adaptive moments with decoupled weight decay.

    Weight decay applies only to weight matrices (names containing '.W'), not
    to biases or layer-norm parameters.  ``lr_scale`` lets a scheduler rescale
    the step without touching the moment state.
    """

    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    weight_decay: float = 0.01
    _m: dict[str, np.ndarray] = field(default_factory=dict)
    _v: dict[str, np.ndarray] = field(default_factory=dict)
    _t: int = 0

    def step(self, lr_scale: float = 1.0) -> None:
        self._t += 1
        lr = self.lr * lr_scale
        bc1 = 1.0 - self.beta1**self._t
        bc2 = 1.0 - self.beta2**self._t
        for name in sorted(self.params):
            p = self.params[name]
            g = p.grad
            if g is None:
                continue
            m = self._m.get(name)
            if m is None:
                m = np.zeros_like(p.data)
                self._m[name] = m
                self._v[name] = np.zeros_like(p.data)
            v = self._v[name]
            m *= self.beta1
            m += (1.0 - self.beta1) * g
            v *= self.beta2
            v += (1.0 - self.beta2) * np.square(g)
            update = (m / bc1) / (np.sqrt(v / bc2) + self.eps)
            if self.weight_decay and ".W" in name:
                update = update + self.weight_decay * p.data
            p.data -= lr * update


@dataclass
class Sgd(_Optimizer):
    """Plain gradient descent, used to mirror the update rule literally."""

    def step(self, lr_scale: float = 1.0) -> None:
        for name in sorted(self.params):
            p = self.params[name]
            if p.grad is not None:
                p.data -= self.lr * lr_scale * p.grad


OPTIMIZERS = ("adamw", "sgd")


def check_optimizer(kind: str) -> str:
    """``kind`` in lower case, after checking that it names one of OPTIMIZERS."""
    if kind.lower() not in OPTIMIZERS:
        raise ValueError(f"unknown optimizer {kind!r}; expected one of {OPTIMIZERS}")
    return kind.lower()


def check_widths(name: str, widths) -> None:
    """Rejects a layer width below 1 in ``widths``, one int or a tuple of them."""
    if min(np.atleast_1d(widths), default=1) < 1:
        raise ValueError(f"{name} needs layer widths >= 1, got {widths}")


def make_optimizer(kind: str, params: dict[str, Tensor], lr: float, weight_decay: float):
    if check_optimizer(kind) == "adamw":
        return AdamW(params=params, lr=lr, weight_decay=weight_decay)
    return Sgd(params=params, lr=lr)


@dataclass(frozen=True)
class TrainConfig:
    """The schedule that :func:`fit` runs; each trainer extends it."""

    lr: float = 1e-3
    epochs: int = 50
    batch_size: int = 32
    optimizer: str = "adamw"
    weight_decay: float = 0.01
    seed: int = 0

    def __post_init__(self):
        if self.lr <= 0:
            raise ValueError("learning rate must be positive")
        if self.batch_size < 1:
            raise ValueError("batch size must be >= 1")
        if self.epochs < 0:
            raise ValueError("epochs must be >= 0")
        check_optimizer(self.optimizer)


class TrainingDiverged(RuntimeError):
    """Loss became non-finite; message carries the epoch index."""


def fit(params: dict[str, Tensor], cfg: TrainConfig, sweeps, score=None):
    """Train ``params`` for ``cfg.epochs`` epochs; keep the best-scored one.

    Each epoch runs every sweep ``(name, rows, shuffle_rng, batch_loss)`` in
    order, over a permutation of its rows drawn from ``shuffle_rng``:
    ``batch_loss`` maps a batch of row indices to a loss Tensor, and every
    batch takes one cosine-scaled optimizer step.  ``score()`` then
    rates the epoch's parameters, and the best-rated epoch is restored at the
    end (ties keep the earlier one).  Returns the mean loss per epoch of each
    sweep by name, the scores, the best epoch (-1 without ``score``) and its
    score (NaN without ``score``).
    """
    opt = make_optimizer(cfg.optimizer, params, cfg.lr, cfg.weight_decay)
    losses: dict[str, list[float]] = {name: [] for name, *_ in sweeps}
    scores: list[float] = []
    best_epoch, best, best_arrays = -1, float("nan"), None
    for epoch in range(cfg.epochs):
        lr_scale = cosine_lr(epoch)
        for name, n, shuffle_rng, batch_loss in sweeps:
            order = shuffle_rng.permutation(n)
            total, n_batches = 0.0, 0
            for start in range(0, n, cfg.batch_size):
                try:
                    loss = batch_loss(order[start : start + cfg.batch_size])
                    if not np.isfinite(loss.data):
                        raise NonFiniteLoss(f"non-finite loss (first bad op: {loss.nonfinite_op})")
                except NonFiniteLoss as err:
                    raise TrainingDiverged(f"epoch {epoch} ({name} sweep): {err}") from err
                opt.zero_grad()
                backward(loss, params)
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
