"""MLP building blocks, the AdamW optimizer, and the epoch loop that drives it.

Every multilayer perceptron here follows one recipe: hidden layers are
affine, then layer normalization (a deliberate stand-in for batch
normalization: no running statistics, no train/eval mode, no batch order
sensitivity), then GELU (the tanh form of Hendrycks & Gimpel, 2016, within
4.7e-4 of exact GELU); the output head is affine only and zero-initialized,
so fresh models start at their symmetric point (probabilities 0.5, latent
means 0).  Each layer is one :func:`autodiff.dense` call: a single tape node
when the input is a Tensor, and plain arrays, with no tape, when it is an
array.

Hidden weights draw from a caller-supplied stream: models built from the same
seed are bit-identical.

:func:`fit` is the one training loop: the base classifier and the
latent-shift model hand it their parameters, a :class:`TrainConfig` and
their loss sweeps, plus an optional score that picks the epoch to keep.  It
records the first step of each batch shape on the tape and replays the
record on the later ones.

:class:`AdamW` owns its parameters' storage: it moves them into one
contiguous arena and updates that arena as a whole.  Code that sets a
parameter writes into its array (``p.data[...] = value``, as
:func:`checkpoint.restore` does) rather than binding a new one, so a
recorded step, which reads the parameters through those arrays, sees it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import checkpoint
from .autodiff import NonFiniteLoss, Tensor, dense, record

# ``fit`` stays out of ``__all__``: call tracers wrap the names listed there,
# and a span around the loop would stand between each trainer and its steps.
__all__ = ["Mlp", "AdamW", "make_optimizer", "cosine_lr", "TrainConfig",
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


# The moment decay rates and the denominator's epsilon of every AdamW.
ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8


class AdamW:
    """Adaptive moments with decoupled weight decay (Loshchilov & Hutter, 2019).

    AdamW owns its parameters' storage: construction copies every parameter
    into one contiguous float64 arena, weight matrices (names containing
    '.W') first, and binds each parameter's ``data`` to its view of the
    arena.  So each step copies the gradients into one buffer and runs
    about a dozen whole-arena numpy operations: the per-element operations
    of the textbook per-parameter loop in the same order, so every bit is
    the same.  Weight decay applies to the weight prefix only, not to
    biases or layer-norm parameters.  Code that writes a parameter
    afterwards writes into its array (``p.data[...] = ...``); binding a new
    array would detach it from the optimizer.  ``step`` raises a
    ``ValueError`` naming the first parameter, in arena order, that has no
    gradient.  ``lr_scale`` lets a scheduler rescale the step without
    touching the moment state.
    """

    def __init__(self, params: dict[str, Tensor], lr: float = 1e-3, weight_decay: float = 0.01):
        self.params = params
        self.lr, self.weight_decay = lr, weight_decay
        order = sorted(params, key=lambda name: ".W" not in name)
        sizes = [params[name].size for name in order]
        self._n_decayed = sum(size for name, size in zip(order, sizes) if ".W" in name)
        self._arena = np.empty(sum(sizes))
        self._grad = np.empty_like(self._arena)
        self._update = np.empty_like(self._arena)
        self._m = np.zeros_like(self._arena)
        self._v = np.zeros_like(self._arena)
        self._t = 0
        self._slots = []
        start = 0
        for name, size in zip(order, sizes):
            p = params[name]
            view = self._arena[start : start + size].reshape(p.shape)
            view[...] = p.data
            p.data = view
            self._slots.append((name, p, self._grad[start : start + size].reshape(p.shape)))
            start += size

    def zero_grad(self) -> None:
        for p in self.params.values():
            p.grad = None

    def step(self, lr_scale: float = 1.0) -> None:
        for name, p, g in self._slots:
            if p.grad is None:
                raise ValueError(f"AdamW.step: parameter {name} has no gradient")
            g[...] = p.grad
        self._t += 1
        lr = self.lr * lr_scale
        bc1 = 1.0 - ADAM_BETA1**self._t
        bc2 = 1.0 - ADAM_BETA2**self._t
        g, m, v, update, data = self._grad, self._m, self._v, self._update, self._arena
        # m += (1 - beta1) g;  v += (1 - beta2) g^2;  data -= lr update, with
        # update = (m / bc1) / (sqrt(v / bc2) + eps) + weight_decay data on weights
        np.multiply(1.0 - ADAM_BETA1, g, out=update)
        m *= ADAM_BETA1
        m += update
        v *= ADAM_BETA2
        np.square(g, out=g)
        g *= 1.0 - ADAM_BETA2
        v += g
        np.divide(m, bc1, out=update)
        root = np.divide(v, bc2, out=g)
        np.sqrt(root, out=root)
        root += ADAM_EPS
        update /= root
        if self.weight_decay:
            n = self._n_decayed
            update[:n] += np.multiply(self.weight_decay, data[:n], out=root[:n])
        update *= lr
        data -= update


OPTIMIZERS = ("adamw",)


def check_optimizer(kind: str) -> None:
    """Rejects a ``kind`` that names none of OPTIMIZERS in any case."""
    if kind.lower() not in OPTIMIZERS:
        raise ValueError(f"unknown optimizer {kind!r}; expected one of {OPTIMIZERS}")


def check_widths(name: str, widths) -> None:
    """Rejects a layer width below 1 in ``widths``, one int or a tuple of them."""
    if min(np.atleast_1d(widths), default=1) < 1:
        raise ValueError(f"{name} needs layer widths >= 1, got {widths}")


def make_optimizer(kind: str, params: dict[str, Tensor], lr: float, weight_decay: float):
    check_optimizer(kind)
    return AdamW(params=params, lr=lr, weight_decay=weight_decay)


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

    Each epoch runs every sweep ``(name, rows, shuffle_rng, inputs, loss)``
    in order, over a permutation of its rows drawn from ``shuffle_rng``.
    ``inputs`` maps a batch of row indices to the step's named float64
    arrays, drawing whatever the step draws; ``loss`` maps those arrays to a
    loss Tensor that reads every per-step value from them (the contract of
    :func:`autodiff.record`).  Every batch takes one cosine-scaled optimizer
    step.  The first step of each (sweep, input shapes) key runs ``loss`` on
    the tape and records it; every later step of that key replays the
    record on its own inputs, and runs on the tape again if a replayed value
    is not finite, so a diverging step raises the tape's error.  ``score()``
    then rates the epoch's parameters, and the best-rated epoch is restored
    at the end (ties keep the earlier one).  Returns the mean loss per epoch
    of each sweep by name, the scores, the best epoch (-1 without
    ``score``) and its score (NaN without ``score``).
    """
    opt = make_optimizer(cfg.optimizer, params, cfg.lr, cfg.weight_decay)
    plans = {}  # per (sweep, input shapes); they read params through AdamW's arena
    losses: dict[str, list[float]] = {name: [] for name, *_ in sweeps}
    scores: list[float] = []
    best_epoch, best, best_arrays = -1, float("nan"), None
    for epoch in range(cfg.epochs):
        lr_scale = cosine_lr(epoch)
        for name, n, shuffle_rng, inputs, loss_of in sweeps:
            order = shuffle_rng.permutation(n)
            total, n_batches = 0.0, 0
            for start in range(0, n, cfg.batch_size):
                try:
                    batch = inputs(order[start : start + cfg.batch_size])
                    key = (name, *((k, v.shape) for k, v in batch.items()))
                    plan = plans.get(key)
                    loss = None if plan is None else plan.run(batch)
                    if loss is None:
                        plans[key], loss = record(loss_of, batch, params)
                except NonFiniteLoss as err:
                    raise TrainingDiverged(f"epoch {epoch} ({name} sweep): {err}") from err
                opt.step(lr_scale=lr_scale)
                total += loss
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
