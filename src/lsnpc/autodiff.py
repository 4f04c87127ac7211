"""Dense float64 tensors with reverse-mode automatic differentiation.

Small by design: exactly the primitives needed for MLP encoders/decoders and
the variational losses (matmul, broadcasting elementwise arithmetic, GELU,
sigmoid, softplus, log, exp, sqrt, square, lgamma, clamp, reductions,
concatenation), plus fused ops that each run a whole primitive chain as a
single node with a hand-written backward pass, bit-identical to the chain:

- :func:`dense`, one MLP layer (affine, layer norm, GELU);
- the Normal, Student (fixed or learned nu) and Bernoulli log densities of
  :mod:`lsnpc.distributions` (``logpdf_normal``, ``logpdf_student``,
  ``logpmf_bernoulli`` nodes), built with :func:`fused`.

No GPU, no higher-order derivatives.

The programming model is a dynamic tape: every operation produces a
:class:`Tensor` that records its parents and a backward rule.  A
:class:`ComputeGraph` wraps a python callable of named tensors; evaluating it
retains the tape so gradients can be replayed in reverse topological order
with deterministic accumulation.  Both passes run under
``np.errstate(all="ignore")``: a non-finite value does not warn but marks
its node (``nonfinite_op`` names the first op that made one).
"""

from __future__ import annotations

import math
from typing import Callable, Iterable, Mapping

import numpy as np
from scipy import special as _sp

__all__ = [
    "Tensor",
    "ComputeGraph",
    "grad_check",
    "concat",
    "NonFiniteLoss",
]

_SQRT2 = math.sqrt(2.0)
_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)
_LN_EPS = 1e-5


class NonFiniteLoss(RuntimeError):
    """A loss left the finite range; the message names the first bad op."""


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum a broadcasted gradient back down to ``shape``."""
    if grad.shape == shape:
        return grad
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(
        i for i, (g, s) in enumerate(zip(grad.shape, shape)) if s == 1 and g != 1
    )
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return np.reshape(grad, shape)


class Tensor:
    """A float64 array plus an optional gradient buffer of identical shape.

    Tensors are immutable after construction except for the gradient buffer.
    ``requires_grad`` marks optimizable leaves; interior nodes inherit the
    flag from their parents so backward can skip dead branches.
    """

    __slots__ = (
        "data",
        "grad",
        "requires_grad",
        "name",
        "nonfinite_op",
        "_op",
        "_parents",
        "_bwd",
    )

    # Make numpy defer mixed ndarray-Tensor arithmetic to the reflected
    # Tensor operators instead of building object arrays.
    __array_ufunc__ = None

    def __init__(
        self,
        data,
        requires_grad: bool = False,
        name: str | None = None,
        _op: str = "leaf",
        _parents: tuple["Tensor", ...] = (),
        _bwd: Callable | None = None,
    ):
        self.data = data = np.asarray(data, dtype=np.float64)
        self.grad: np.ndarray | None = None
        self.name = name
        self._op = _op
        self._parents = _parents
        self._bwd = _bwd
        requires_grad = bool(requires_grad)
        nonfinite_op = None
        for p in _parents:
            requires_grad = requires_grad or p.requires_grad
            if nonfinite_op is None:
                nonfinite_op = p.nonfinite_op
        self.requires_grad = requires_grad
        if nonfinite_op is None:
            # A finite sum implies finite elements, so only a non-finite sum
            # (a nan or inf, or finite values whose sum overflows) needs the
            # element-wise test.  Ops whose values can overflow build their
            # node inside np.errstate; a leaf silences the overflow here.
            if _parents:
                total = data.sum()
            else:
                with np.errstate(over="ignore", invalid="ignore"):
                    total = data.sum()
            if not math.isfinite(total) and not np.all(np.isfinite(data)):
                nonfinite_op = self._label()
        self.nonfinite_op: str | None = nonfinite_op

    def _label(self) -> str:
        return self._op if self.name is None else f"{self._op}({self.name})"

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        return float(self.data)

    def zero_grad(self) -> None:
        self.grad = None

    # ---- construction helpers -------------------------------------------

    @staticmethod
    def _lift(value) -> "Tensor":
        if isinstance(value, Tensor):
            return value
        return Tensor(value)

    def _binary(self, other, op: str, forward, grad_a, grad_b) -> "Tensor":
        """``forward(a, b)`` as a node; ``grad_a``/``grad_b`` map (g, a, b) to
        the unreduced gradient of each operand, computed only for operands
        that require one."""
        other = Tensor._lift(other)

        def bwd(g, a, b):
            return (
                _unbroadcast(grad_a(g, a, b), a.shape) if self.requires_grad else None,
                _unbroadcast(grad_b(g, a, b), b.shape) if other.requires_grad else None,
            )

        with np.errstate(all="ignore"):
            try:
                data = forward(self.data, other.data)
            except ValueError:
                raise ValueError(
                    f"{op}: operands {self._label()} {self.shape} and "
                    f"{other._label()} {other.shape} do not broadcast"
                ) from None
            return Tensor(data, _op=op, _parents=(self, other), _bwd=bwd)

    # ---- arithmetic ------------------------------------------------------

    def __add__(self, other):
        return self._binary(other, "add", np.add, lambda g, a, b: g, lambda g, a, b: g)

    __radd__ = __add__

    def __sub__(self, other):
        return self._binary(other, "sub", np.subtract, lambda g, a, b: g, lambda g, a, b: -g)

    def __rsub__(self, other):
        return Tensor._lift(other).__sub__(self)

    def __mul__(self, other):
        return self._binary(
            other, "mul", np.multiply, lambda g, a, b: g * b, lambda g, a, b: g * a
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        return self._binary(
            other,
            "div",
            np.divide,
            lambda g, a, b: g / b,
            lambda g, a, b: -g * a / (b * b),
        )

    def __rtruediv__(self, other):
        return Tensor._lift(other).__truediv__(self)

    def __neg__(self):
        return self._unary("neg", np.negative, lambda g, a: (-g,))

    def __matmul__(self, other):
        other = Tensor._lift(other)
        _check_matmul(self, other)
        with np.errstate(all="ignore"):
            return Tensor(
                self.data @ other.data,
                _op="matmul",
                _parents=(self, other),
                _bwd=lambda g, a, b: (
                    g @ b.T if self.requires_grad else None,
                    a.T @ g if other.requires_grad else None,
                ),
            )

    # ---- unary math ------------------------------------------------------

    def _unary(self, op: str, forward, bwd) -> "Tensor":
        with np.errstate(all="ignore"):
            return Tensor(forward(self.data), _op=op, _parents=(self,), _bwd=bwd)

    def square(self):
        return self._unary("square", np.square, lambda g, a: (2.0 * a * g,))

    def sqrt(self):
        return self._unary(
            "sqrt", np.sqrt, lambda g, a: (0.5 * g / np.sqrt(a),)
        )

    def exp(self):
        return self._unary("exp", np.exp, lambda g, a: (np.exp(a) * g,))

    def log(self):
        return self._unary("log", np.log, lambda g, a: (g / a,))

    def sigmoid(self):
        # Values in [0, 1]: the finiteness sum cannot overflow.
        s = _sp.expit(self.data)
        return Tensor(
            s, _op="sigmoid", _parents=(self,), _bwd=lambda g, a: (s * (1.0 - s) * g,)
        )

    def softplus(self):
        return self._unary(
            "softplus",
            lambda a: np.logaddexp(0.0, a),
            lambda g, a: (_sp.expit(a) * g,),
        )

    def gelu(self):
        return self._unary(
            "gelu",
            lambda a: 0.5 * a * (1.0 + _sp.erf(a / _SQRT2)),
            lambda g, a: (
                (
                    0.5 * (1.0 + _sp.erf(a / _SQRT2))
                    + a * _INV_SQRT_2PI * np.exp(-0.5 * a * a)
                )
                * g,
            ),
        )

    def lgamma(self):
        return self._unary(
            "lgamma", _sp.gammaln, lambda g, a: (_sp.psi(a) * g,)
        )

    def clamp(self, lo: float, hi: float):
        return self._unary(
            "clamp",
            lambda a: np.clip(a, lo, hi),
            lambda g, a: (((a > lo) & (a < hi)) * g,),
        )

    # ---- reductions ------------------------------------------------------

    def _reduce_bwd(self, grad, axis, keepdims):
        if axis is None:
            return np.broadcast_to(grad, self.shape)
        if not keepdims:
            axes = axis if isinstance(axis, tuple) else (axis,)
            axes = tuple(a % self.data.ndim for a in axes)
            shape = tuple(
                1 if i in axes else s for i, s in enumerate(self.shape)
            )
            grad = np.reshape(grad, shape)
        return np.broadcast_to(grad, self.shape)

    def sum(self, axis=None, keepdims: bool = False):
        with np.errstate(all="ignore"):
            return Tensor(
                np.sum(self.data, axis=axis, keepdims=keepdims),
                _op="sum",
                _parents=(self,),
                _bwd=lambda g, a: (self._reduce_bwd(g, axis, keepdims),),
            )

    def mean(self, axis=None, keepdims: bool = False):
        count = self.size if axis is None else np.prod(
            [self.shape[a] for a in (axis if isinstance(axis, tuple) else (axis,))]
        )
        with np.errstate(all="ignore"):
            return Tensor(
                np.mean(self.data, axis=axis, keepdims=keepdims),
                _op="mean",
                _parents=(self,),
                _bwd=lambda g, a: (self._reduce_bwd(g, axis, keepdims) / count,),
            )

    def __repr__(self):
        tag = self.name or self._op
        return f"Tensor({tag}, shape={self.shape})"


def _check_matmul(a: Tensor, b: Tensor) -> None:
    if a.data.ndim != 2 or b.data.ndim != 2:
        raise ValueError(f"matmul: expects 2-d operands, got {a.shape} @ {b.shape}")
    if a.shape[1] != b.shape[0]:
        raise ValueError(
            f"matmul: inner dimensions differ for {a._label()} {a.shape} "
            f"@ {b._label()} {b.shape}"
        )


def dense(
    x: Tensor,
    W: Tensor,
    b: Tensor,
    ln: tuple[Tensor, Tensor] | None = None,
    gelu: bool = False,
) -> Tensor:
    """One MLP layer as one tape node: ``x @ W + b``, then layer norm with
    ``ln = (gain, shift)`` if given, then GELU if ``gelu``.

    Both passes repeat the primitive chain (matmul, add, mean, sub, square,
    mean, add, sqrt, div, mul, add, gelu) expression by expression and in the
    same order, keeping the forward intermediates for the backward pass.
    Inside the layer every value feeds at most two consumers, and a sum of
    two floats does not depend on order, so values and gradients are
    bit-identical to that chain.  The node is labelled ``dense(<W's name>)``,
    so a non-finite output names its layer.
    """
    _check_matmul(x, W)
    parents = (x, W, b) if ln is None else (x, W, b, *ln)
    n = W.shape[1]
    with np.errstate(all="ignore"):
        o = x.data @ W.data + b.data
        if ln is not None:
            centered = o - np.mean(o, axis=-1, keepdims=True)
            var = np.mean(np.square(centered), axis=-1, keepdims=True)
            std = np.sqrt(var + _LN_EPS)
            normed = centered / std
            o = normed * ln[0].data + ln[1].data
        if gelu:
            erf1 = 1.0 + _sp.erf(o / _SQRT2)
            out = 0.5 * o * erf1
        else:
            out = o
        node = Tensor(out, name=W.name, _op="dense", _parents=parents)

    def bwd(g, xd, Wd, _b, *gain_shift):
        if gelu:
            g = (0.5 * erf1 + o * _INV_SQRT_2PI * np.exp(-0.5 * o * o)) * g
        ln_grads = ()
        if ln is not None:
            ln_grads = ((g * normed).sum(axis=0), g.sum(axis=0))
            g = g * gain_shift[0]
            g_var = 0.5 * (-g * centered / (std * std)).sum(axis=1, keepdims=True) / std
            g = g / std + 2.0 * centered * (g_var / n)
            g = g + (-g).sum(axis=1, keepdims=True) / n
        g_x = g @ Wd.T if x.requires_grad else None
        return (g_x, xd.T @ g, g.sum(axis=0), *ln_grads)

    node._bwd = bwd
    # An overflow inside layer norm can leave the output finite (x / inf
    # is 0); it is still a non-finite value of this layer.
    if ln is not None and node.nonfinite_op is None:
        if not np.all(np.isfinite(var)):
            node.nonfinite_op = node._label()
    return node


def fused(op: str, out: np.ndarray, operands, grads) -> Tensor:
    """``out`` as one tape node over the Tensor entries of ``operands``.

    ``operands`` lists every use of an input in the order in which the
    primitive chain adds that use's gradient, so an input the chain uses
    twice is listed twice; plain arrays are constants and drop out.
    ``grads(g)`` returns one thunk per entry, giving that use's gradient;
    a thunk runs only when its operand requires a gradient.  Like every op,
    call it inside ``np.errstate(all="ignore")``.
    """
    keep = [i for i, t in enumerate(operands) if isinstance(t, Tensor)]

    def bwd(g, *_):
        thunks = grads(g)
        return tuple(thunks[i]() if operands[i].requires_grad else None for i in keep)

    return Tensor(out, _op=op, _parents=tuple(operands[i] for i in keep), _bwd=bwd)


def concat(tensors: Iterable[Tensor], axis: int = -1) -> Tensor:
    """Concatenate tensors along ``axis``; gradient splits back."""
    tensors = tuple(Tensor._lift(t) for t in tensors)
    sizes = [t.shape[axis] for t in tensors]
    splits = np.cumsum(sizes)[:-1]

    def bwd(g, *arrays):
        return tuple(np.ascontiguousarray(p) for p in np.split(g, splits, axis=axis))

    with np.errstate(all="ignore"):
        return Tensor(
            np.concatenate([t.data for t in tensors], axis=axis),
            _op="concat",
            _parents=tensors,
            _bwd=bwd,
        )


def _toposort(root: Tensor) -> list[Tensor]:
    """Iterative DFS topological order (parents before children)."""
    order: list[Tensor] = []
    seen: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for parent in node._parents:
            if id(parent) not in seen and parent.requires_grad:
                stack.append((parent, False))
    return order


class ComputeGraph:
    """A differentiable function of named input tensors.

    ``fn`` receives a dict mapping names to Tensors (the bound parameters
    plus whatever ``eval`` supplies) and returns the output Tensor.
    Evaluation retains the dynamic tape; ``backward`` replays it.  A graph
    instance must not be evaluated concurrently from several threads;
    distinct instances are independent.
    """

    def __init__(self, fn: Callable[[dict], Tensor], params: Mapping[str, Tensor] | None = None):
        self.fn = fn
        self.params: dict[str, Tensor] = dict(params or {})
        for name, p in self.params.items():
            p.requires_grad = True
            if p.name is None:
                p.name = name
        self.output: Tensor | None = None
        self._order: list[Tensor] | None = None

    def eval(self, inputs: Mapping[str, object] | None = None) -> Tensor:
        bound: dict[str, Tensor] = dict(self.params)
        for name, value in (inputs or {}).items():
            t = value if isinstance(value, Tensor) else Tensor(value, name=name)
            bound[name] = t
        out = self.fn(bound)
        if not isinstance(out, Tensor):
            out = Tensor(out)
        self.output = out
        self._order = None
        return out

    def nodes(self) -> list[Tensor]:
        """Topologically ordered node list of the last evaluation."""
        if self.output is None:
            raise RuntimeError("graph has not been evaluated")
        if self._order is None:
            self._order = _toposort(self.output)
        return self._order

    def backward(self, seed_grad=None) -> dict[str, np.ndarray]:
        if self.output is None:
            raise RuntimeError("backward called before forward evaluation")
        out = self.output
        if seed_grad is None:
            seed = np.ones_like(out.data)
        else:
            seed = np.asarray(
                seed_grad.data if isinstance(seed_grad, Tensor) else seed_grad,
                dtype=np.float64,
            )
            if seed.shape != out.data.shape:
                raise ValueError(
                    f"seed gradient shape {seed.shape} does not match output "
                    f"shape {out.data.shape}"
                )
        grads: dict[int, np.ndarray] = {id(out): seed}
        with np.errstate(all="ignore"):
            for node in reversed(self.nodes()):
                g = grads.get(id(node))
                if g is None or node._bwd is None:
                    continue
                parent_grads = node._bwd(g, *(p.data for p in node._parents))
                for parent, pg in zip(node._parents, parent_grads):
                    if pg is None or not parent.requires_grad:
                        continue
                    key = id(parent)
                    if key in grads:
                        grads[key] = grads[key] + pg
                    else:
                        grads[key] = pg
        result: dict[str, np.ndarray] = {}
        for name, p in self.params.items():
            g = grads.get(id(p))
            if g is None:
                g = np.zeros_like(p.data)
            p.grad = g if p.grad is None else p.grad + g
            result[name] = g
        return result


def grad_check(
    graph: ComputeGraph,
    inputs: Mapping[str, object] | None = None,
    step: float = 1e-5,
    sample: int | None = None,
) -> float:
    """Max relative error between analytic and central-difference gradients.

    The graph output must be scalar.  For parameters with more elements than
    ``sample``, a deterministic evenly spaced subset of coordinates is probed
    (pass ``sample=None`` to probe every coordinate).  The error metric is
    |analytic - numeric| / max(1, |numeric|), maximized over probed entries.
    """
    if step <= 0:
        raise ValueError("step must be positive")
    out = graph.eval(inputs)
    if out.data.size != 1:
        raise ValueError(f"grad_check requires scalar output, got shape {out.shape}")
    for p in graph.params.values():
        p.zero_grad()
    graph.backward()
    analytic = {name: p.grad.copy() for name, p in graph.params.items()}
    worst = 0.0
    for name, p in graph.params.items():
        flat = p.data.reshape(-1)
        n = flat.size
        if sample is not None and n > sample:
            idx = np.linspace(0, n - 1, sample).astype(int)
        else:
            idx = np.arange(n)
        for i in idx:
            keep = flat[i]
            flat[i] = keep + step
            hi = float(graph.eval(inputs).data)
            flat[i] = keep - step
            lo = float(graph.eval(inputs).data)
            flat[i] = keep
            numeric = (hi - lo) / (2.0 * step)
            err = abs(analytic[name].reshape(-1)[i] - numeric) / max(
                1.0, abs(numeric)
            )
            worst = max(worst, err)
    graph.eval(inputs)
    return worst
