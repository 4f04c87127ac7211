"""MLP building blocks and the optimizer shared by all trained components.

Every multilayer perceptron here follows one recipe: hidden layers are
affine, then layer normalization (a deliberate stand-in for batch
normalization: no running statistics, no train/eval mode, no batch order
sensitivity), then GELU; the output head is affine only and zero-initialized,
so fresh models start at their symmetric point (probabilities 0.5, latent
means 0).  Each layer is a single tape node (:func:`autodiff.dense`).

Hidden weights draw from a caller-supplied stream: models built from the same
seed are bit-identical.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .autodiff import Tensor, dense

__all__ = ["Mlp", "AdamW", "Sgd", "make_optimizer", "cosine_lr", "flatten_params"]


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

    def __call__(self, x, gelu_out: bool = False) -> Tensor:
        """Output-head values; ``gelu_out`` applies GELU to them in the head's node."""
        h = x if isinstance(x, Tensor) else Tensor(x)
        for W, b, ln in self._layers:
            h = dense(h, W, b, ln, gelu=ln is not None or gelu_out)
        return h


def flatten_params(*networks: Mlp) -> dict[str, Tensor]:
    merged: dict[str, Tensor] = {}
    for net in networks:
        overlap = merged.keys() & net.params.keys()
        if overlap:
            raise ValueError(f"duplicate parameter names: {sorted(overlap)}")
        merged.update(net.params)
    return merged


def cosine_lr(base_lr: float, epoch: int, cycle: int = 10) -> float:
    """Cosine-annealed learning rate restarting every ``cycle`` epochs."""
    position = epoch % cycle
    return 0.5 * base_lr * (1.0 + math.cos(math.pi * position / cycle))


@dataclass
class AdamW:
    """Adaptive moments with decoupled weight decay.

    Weight decay applies only to weight matrices (names containing '.W'), not
    to biases or layer-norm parameters.  ``lr_scale`` lets a scheduler rescale
    the step without touching the moment state.
    """

    params: dict[str, Tensor]
    lr: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    weight_decay: float = 0.01
    _m: dict[str, np.ndarray] = field(default_factory=dict)
    _v: dict[str, np.ndarray] = field(default_factory=dict)
    _t: int = 0

    def zero_grad(self) -> None:
        for p in self.params.values():
            p.grad = None

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
class Sgd:
    """Plain gradient descent, used to mirror the update rule literally."""

    params: dict[str, Tensor]
    lr: float = 1e-3

    def zero_grad(self) -> None:
        for p in self.params.values():
            p.grad = None

    def step(self, lr_scale: float = 1.0) -> None:
        for name in sorted(self.params):
            p = self.params[name]
            if p.grad is not None:
                p.data -= self.lr * lr_scale * p.grad


def make_optimizer(kind: str, params: dict[str, Tensor], lr: float, weight_decay: float):
    kind = kind.lower()
    if kind == "adamw":
        return AdamW(params=params, lr=lr, weight_decay=weight_decay)
    if kind == "sgd":
        return Sgd(params=params, lr=lr)
    raise ValueError(f"unknown optimizer {kind!r}; expected 'adamw' or 'sgd'")
