"""Dense float64 tensors with reverse-mode automatic differentiation.

Small by design: exactly the primitives needed for MLP encoders/decoders and
the variational losses (matmul, broadcasting elementwise arithmetic, GELU,
sigmoid, softplus, log, sqrt, square, lgamma, clamp, reductions,
concatenation), plus fused ops that each run a whole primitive chain as a
single node with a hand-written backward pass, bit-identical to the chain:

- :func:`dense`, one MLP layer (affine, layer norm, GELU);
- the Normal, Student (fixed or learned nu) and Bernoulli log densities of
  :mod:`lsnpc.distributions` (``logpdf_normal``, ``logpdf_student``,
  ``logpmf_bernoulli`` nodes), built with :func:`fused`.

GELU is the tanh form of Hendrycks & Gimpel ("Gaussian Error Linear Units",
2016), 0.5 x (1 + tanh(sqrt(2/pi) (x + 0.044715 x^3))), within 4.7e-4 of the
exact x Phi(x), in :meth:`Tensor.gelu` and :func:`dense` alike.

No GPU, no higher-order derivatives.

The tape records; a plan replays; one reverse pass serves both.  Every
operation produces a :class:`Tensor` that stores its operands, its forward
(a function of the operands' arrays that returns the value and the context
its backward rule reads), that context and its backward rule;
:func:`detached` adds a leaf computed from operands, which no gradient
passes.  The forward maps built on :func:`dense` and :func:`concat` (the
MLPs of :mod:`lsnpc.layers`, the model maps of :mod:`lsnpc.model`) work in
two modes with one body: given plain arrays they return arrays and build no
Tensor, for inference that never runs a backward pass; given a Tensor they
build the tape node.  Both modes give the same bits.  :func:`backward` runs
the stored rules of a built output's tape in reverse topological order with
deterministic accumulation.  A :class:`ComputeGraph` wraps a python callable
of named tensors so that it can be evaluated again (:func:`grad_check`), and
calls :func:`backward` with the node order it caches.

:func:`record` runs one training step's loss on the tape and keeps it as a
:class:`Plan`: the forwards and backward rules of the step's nodes, bound to
the step's named input arrays, the parameters' arrays and the constants.
:meth:`Plan.run` replays that step on another step's inputs of the same
shapes: every forward in the order the tape made it, then the same reverse
pass as :func:`backward` over the same rules, building no Tensor or node
order.
The same functions run in the same order on the same values, so a replayed
step gives the taped step's bits.  The tape, the plan and every op run
under ``np.errstate(all="ignore")``: a non-finite value does not warn but
marks its node (``nonfinite_op`` names the first op that made one), and a
plan that meets one stops, so that the step runs on the tape again.
"""

from __future__ import annotations

import math
from contextvars import ContextVar
from functools import partial
from typing import Callable, Iterable, Mapping

import numpy as np
from scipy import special as _sp

__all__ = [
    "Tensor",
    "ComputeGraph",
    "backward",
    "grad_check",
    "concat",
    "NonFiniteLoss",
]

_GELU_C = math.sqrt(2.0 / math.pi)
_GELU_A = 0.044715
_LN_EPS = 1e-5

# While ``record`` runs in this context: (Tensor, made from an ndarray) for
# every Tensor made, in the order they are made.
_LOG: ContextVar[list | None] = ContextVar("tape_log", default=None)


class NonFiniteLoss(RuntimeError):
    """A loss left the finite range; the message names the first bad op."""


def unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
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
        "_rec",
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
    ):
        log = _LOG.get()
        if log is not None:
            log.append((self, isinstance(data, np.ndarray)))
        self.data = data = np.asarray(data, dtype=np.float64)
        self.grad: np.ndarray | None = None
        self.name = name
        self._op = _op
        self._parents = _parents
        # (forward, backward rule, operands, context) of an op's node
        self._rec = None
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
                bad = _nonfinite(data)
            else:
                with np.errstate(over="ignore", invalid="ignore"):
                    bad = _nonfinite(data)
            if bad:
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

    def _binary(self, other, op: str, grad_a, grad_b) -> "Tensor":
        """``op`` of ``_FORWARD`` as a node; ``grad_a``/``grad_b`` map (g, a, b)
        to the unreduced gradient of each operand, computed only for operands
        that require one."""
        other = Tensor._lift(other)
        need_a, need_b = self.requires_grad, other.requires_grad

        def rule(_, g, a, b):
            return (
                unbroadcast(grad_a(g, a, b), a.shape) if need_a else None,
                unbroadcast(grad_b(g, a, b), b.shape) if need_b else None,
            )

        try:
            return _node(op, _FORWARD[op], rule, (self, other))
        except ValueError:
            raise ValueError(
                f"{op}: operands {self._label()} {self.shape} and "
                f"{other._label()} {other.shape} do not broadcast"
            ) from None

    # ---- arithmetic ------------------------------------------------------

    def __add__(self, other):
        return self._binary(other, "add", lambda g, a, b: g, lambda g, a, b: g)

    __radd__ = __add__

    def __sub__(self, other):
        return self._binary(other, "sub", lambda g, a, b: g, lambda g, a, b: -g)

    def __rsub__(self, other):
        return Tensor._lift(other).__sub__(self)

    def __mul__(self, other):
        return self._binary(other, "mul", lambda g, a, b: g * b, lambda g, a, b: g * a)

    __rmul__ = __mul__

    def __truediv__(self, other):
        return self._binary(
            other, "div", lambda g, a, b: g / b, lambda g, a, b: -g * a / (b * b)
        )

    def __rtruediv__(self, other):
        return Tensor._lift(other).__truediv__(self)

    def __neg__(self):
        return self._unary("neg", lambda _, g, a: (-g,))

    def __matmul__(self, other):
        other = Tensor._lift(other)
        _check_matmul(self, other)
        need_a, need_b = self.requires_grad, other.requires_grad
        return _node("matmul", _FORWARD["matmul"], lambda _, g, a, b: (
            g @ b.T if need_a else None,
            a.T @ g if need_b else None,
        ), (self, other))

    # ---- unary math ------------------------------------------------------

    def _unary(self, op: str, rule, forward=None) -> "Tensor":
        return _node(op, forward or _FORWARD[op], rule, (self,))

    def square(self):
        return self._unary("square", lambda _, g, a: (2.0 * a * g,))

    def sqrt(self):
        return self._unary("sqrt", lambda _, g, a: (0.5 * g / np.sqrt(a),))

    def log(self):
        return self._unary("log", lambda _, g, a: (g / a,))

    def sigmoid(self):
        # Values in [0, 1]: the finiteness sum cannot overflow.
        return self._unary("sigmoid", lambda s, g, a: (s * (1.0 - s) * g,))

    def softplus(self):
        return self._unary("softplus", lambda _, g, a: (_sp.expit(a) * g,))

    def gelu(self):
        return self._unary("gelu", lambda tp1, g, a: (_gelu_grad(g, a, tp1),), _gelu)

    def lgamma(self):
        return self._unary("lgamma", lambda _, g, a: (_sp.psi(a) * g,))

    def clamp(self, lo: float, hi: float):
        return self._unary(
            "clamp",
            lambda _, g, a: (((a > lo) & (a < hi)) * g,),
            _no_context(lambda a: np.clip(a, lo, hi)),
        )

    # ---- reductions ------------------------------------------------------

    def sum(self, axis=None, keepdims: bool = False):
        return self._unary(
            "sum",
            lambda _, g, a: (_reduce_grad(g, a.shape, axis, keepdims),),
            _no_context(lambda a: np.sum(a, axis=axis, keepdims=keepdims)),
        )

    def mean(self, axis=None, keepdims: bool = False):
        count = self.size if axis is None else np.prod(
            [self.shape[a] for a in (axis if isinstance(axis, tuple) else (axis,))]
        )
        return self._unary(
            "mean",
            lambda _, g, a: (_reduce_grad(g, a.shape, axis, keepdims) / count,),
            _no_context(lambda a: np.mean(a, axis=axis, keepdims=keepdims)),
        )

    def __repr__(self):
        tag = self.name or self._op
        return f"Tensor({tag}, shape={self.shape})"


def _nonfinite(a) -> bool:
    """The per-node finiteness rule: whether the array ``a`` holds a nan or an inf."""
    return not math.isfinite(np.add.reduce(a, None)) and not np.all(np.isfinite(a))


def _no_context(fn):
    """``fn`` as a forward whose backward rule reads no context."""
    return lambda *arrays: (fn(*arrays), None)


def _sigmoid(a):
    s = _sp.expit(a)
    return s, s


_FORWARD = {
    "add": _no_context(np.add),
    "sub": _no_context(np.subtract),
    "mul": _no_context(np.multiply),
    "div": _no_context(np.divide),
    "neg": _no_context(np.negative),
    "matmul": _no_context(np.matmul),
    "square": _no_context(np.square),
    "sqrt": _no_context(np.sqrt),
    "log": _no_context(np.log),
    "sigmoid": _sigmoid,
    "softplus": _no_context(lambda a: np.logaddexp(0.0, a)),
    "lgamma": _no_context(_sp.gammaln),
}


def _reduce_grad(grad, shape, axis, keepdims):
    """The gradient of a sum over ``axis`` of an array of ``shape``."""
    if axis is None:
        return np.broadcast_to(grad, shape)
    if not keepdims:
        axes = axis if isinstance(axis, tuple) else (axis,)
        axes = tuple(a % len(shape) for a in axes)
        grad = np.reshape(grad, tuple(1 if i in axes else s for i, s in enumerate(shape)))
    return np.broadcast_to(grad, shape)


def _node(op: str, forward, rule, operands, parents=None, name=None) -> Tensor:
    """One tape node over ``operands``: Tensors, arrays, scalars or None.

    ``forward(*arrays)`` takes the operands' arrays and returns the value
    and the context that the backward rule reads.  ``rule(context, g,
    *arrays)`` returns one gradient per parent, None where the parent needs
    none.  ``parents`` are the Tensor operands whose gradients ``rule``
    returns, in that order; they default to ``operands``.
    """
    with np.errstate(all="ignore"):
        out, ctx = forward(*map(_array, operands))
        node = Tensor(out, name=name, _op=op,
                      _parents=operands if parents is None else parents)
    node._rec = (forward, rule, operands, ctx)
    return node


def detached(fn: Callable, *operands) -> Tensor:
    """``fn`` of the operands' arrays as a tape leaf.

    No gradient flows through it, and like a leaf it names itself ``leaf``
    when its value is not finite.  A recorded plan computes it again from
    each step's operands, so a value derived from a step's inputs (or from a
    node, read without its gradient) never goes stale.
    """
    forward = _no_context(fn)
    with np.errstate(all="ignore"):
        leaf = Tensor(forward(*map(_array, operands))[0])
    leaf._rec = (forward, None, operands, None)
    return leaf


# Operands may be arrays or Tensors; out of ``__all__``, which tracers wrap.
def data_of(value) -> np.ndarray:
    """The float64 array of an operand: a Tensor's values, or the operand as an array."""
    return value.data if isinstance(value, Tensor) else np.asarray(value, dtype=np.float64)


def _array(value) -> np.ndarray | None:
    """The array of an operand that may be None."""
    return None if value is None else data_of(value)


def any_tensor(*values) -> bool:
    """Whether any operand is a Tensor, which puts the op on the tape."""
    return any(isinstance(v, Tensor) for v in values)


def _check_matmul(a, b) -> None:
    """Shape check of ``a @ b`` for Tensors and plain arrays alike."""
    if len(a.shape) != 2 or len(b.shape) != 2:
        raise ValueError(f"matmul: expects 2-d operands, got {a.shape} @ {b.shape}")
    if a.shape[1] != b.shape[0]:
        raise ValueError(
            f"matmul: inner dimensions differ for {_name(a)} {a.shape} "
            f"@ {_name(b)} {b.shape}"
        )


def _name(value) -> str:
    return value._label() if isinstance(value, Tensor) else "array"


def _gelu(x: np.ndarray, t=None, out=None) -> tuple[np.ndarray, np.ndarray]:
    """Tanh-form GELU into ``out`` (which may be ``x``) and 1 + tanh(.) into ``t``."""
    t = np.multiply(x, x, out=t)  # x^3 as products: ``x ** 3`` costs >10x more
    t *= _GELU_C * _GELU_A
    t += _GELU_C
    t *= x
    np.add(np.tanh(t, out=t), 1.0, out=t)
    out = np.multiply(0.5, x, out=out)
    out *= t
    return out, t


def _gelu_grad(g: np.ndarray, x: np.ndarray, tp1: np.ndarray) -> np.ndarray:
    """``g`` times gelu' = 0.5 (1 + t) + 0.5 x (1 - t^2) sqrt(2/pi) (1 + 3 a x^2),
    with x^2 taken as ((x (1 - t^2)) x) x: 0 where tanh saturates, not 0 * inf
    once x^2 overflows (|x| > 1.3e154)."""
    w = np.subtract(2.0, tp1)
    w *= tp1
    w *= x
    v = w * x
    v *= x
    v *= 3.0 * _GELU_A
    v += w
    v *= _GELU_C
    v += tp1
    v *= 0.5
    v *= g
    return v


def dense(
    x,
    W: Tensor,
    b: Tensor,
    ln: tuple[Tensor, Tensor] | None = None,
    gelu: bool = False,
):
    """One MLP layer: ``x @ W + b``, then layer norm with ``ln = (gain, shift)``
    if given, then GELU if ``gelu`` (the tanh form of Hendrycks & Gimpel, 2016,
    within 4.7e-4 of exact GELU).

    ``x`` picks the mode.  A plain array gives the output array and builds no
    Tensor; a Tensor gives one tape node, labelled ``dense(<W's name>)`` so a
    non-finite output names its layer.  Either way the parameters' arrays are
    read at the call.

    Both modes run one body, ``_dense``: the primitive chain (matmul, add,
    mean, sub, square, mean, add, sqrt, div, mul, add, gelu) expression by
    expression and in the same order, with the same ufuncs; a mean is
    ``np.add.reduce`` then a division by the count, which is what ``np.mean``
    computes.  Untaped, no backward pass needs the temporaries, so the chain
    writes them into two buffers of the output's shape; on the tape, every
    value the backward pass reads keeps an array of its own.  The backward
    pass repeats the chain's backward rules the same way, writing its
    temporaries into arrays it made, never into the incoming gradient; it
    negates the layer-norm row sums rather than their terms, which gives
    the same bits because rounding is symmetric in sign.  Inside the layer
    every value feeds at most two consumers, and a sum of two floats does
    not depend on order, so values and gradients are bit-identical to that
    chain in both modes.  Like every op, both modes run under
    ``np.errstate(all="ignore")``.
    """
    tape = isinstance(x, Tensor)
    if not tape:
        x = data_of(x)
    _check_matmul(x, W)
    params = (W, b) if ln is None else (W, b, *ln)
    if not tape:
        with np.errstate(all="ignore"):
            return _dense(False, gelu, x, *(p.data for p in params))[0]
    node = _node("dense", partial(_dense, True, gelu), partial(_dense_grad, x.requires_grad),
                 (x, *params), name=W.name)
    # An overflow inside layer norm can leave the output finite (x / inf
    # is 0); it is still a non-finite value of this layer.
    if node.nonfinite_op is None and _ln_overflow(node._rec[3]):
        node.nonfinite_op = node._label()
    return node


def _dense(keep: bool, gelu: bool, x, W, b, gain=None, shift=None):
    """The forward of :func:`dense` on arrays: the output and the context of
    its backward pass.  ``keep`` gives each value that pass reads an array
    of its own; without it the chain runs in two buffers."""
    n = W.shape[1]
    o = x @ W
    o += b
    normed = centered = std = tp1 = None
    if gain is not None:
        mean = np.add.reduce(o, axis=-1, keepdims=True)
        mean /= n
        centered = np.subtract(o, mean, out=o)
        normed = np.square(centered)
        var = np.add.reduce(normed, axis=-1, keepdims=True)
        var /= n
        std = np.sqrt(var + _LN_EPS)
        normed = np.divide(centered, std, out=normed)
        o = np.multiply(normed, gain, out=None if keep else centered)
        o += shift
    out = o
    if gelu:
        out, tp1 = _gelu(o, t=None if keep or gain is None else normed,
                         out=None if keep else o)
    return out, (o, tp1, normed, centered, std)


def _ln_overflow(ctx) -> bool:
    """Whether a dense layer's layer-norm scale left the finite range; it is
    finite exactly when the variance under it is."""
    return ctx[4] is not None and _nonfinite(ctx[4])


def _dense_grad(need_x: bool, ctx, g, x, W, _b, *gain_shift):
    o, tp1, normed, centered, std = ctx
    n = W.shape[1]
    if tp1 is not None:
        g = _gelu_grad(g, o, tp1)
    ln_grads = ()
    if std is not None:
        t = np.multiply(g, normed)
        ln_grads = (np.add.reduce(t, axis=0), np.add.reduce(g, axis=0))
        # g is the caller's array unless the GELU backward made it here
        g = np.multiply(g, gain_shift[0], out=g if tp1 is not None else None)
        t = np.multiply(g, centered, out=t)
        t /= std * std
        g_var = np.add.reduce(t, axis=1, keepdims=True)
        g_var *= -0.5
        g_var /= std
        g_var /= n
        t = np.multiply(2.0, centered, out=t)
        t *= g_var
        g /= std
        g += t
        row = np.add.reduce(g, axis=1, keepdims=True)
        row /= -n
        g += row
    g_x = g @ W.T if need_x else None
    return (g_x, x.T @ g, np.add.reduce(g, axis=0), *ln_grads)


def fused(op: str, forward, grads, operands, uses) -> Tensor:
    """One tape node that runs a whole primitive chain over ``operands``.

    ``forward(*arrays)`` returns the value and the context of the backward
    pass.  ``uses`` lists, as indices into ``operands``, every use of an
    input in the order in which the chain adds that use's gradient, so an
    input the chain uses twice is listed twice.  ``grads(need, context, g,
    *arrays)`` returns one gradient per use, computed where ``need`` is true
    (its operand is a Tensor that requires a gradient) and None elsewhere.
    Plain arrays and scalars are constants: they get no gradient.
    """
    tensors = [i for i, j in enumerate(uses) if isinstance(operands[j], Tensor)]
    need = tuple(isinstance(operands[j], Tensor) and operands[j].requires_grad for j in uses)

    def rule(ctx, g, *arrays):
        out = grads(need, ctx, g, *arrays)
        return tuple(out[i] for i in tensors)

    return _node(op, forward, rule, operands,
                 parents=tuple(operands[uses[i]] for i in tensors))


def concat(tensors: Iterable, axis: int = -1):
    """Concatenate along ``axis``: an array when every part is a plain array,
    else a tape node over the parts lifted to Tensors, whose gradient splits
    back."""
    parts = tuple(tensors)
    if not any_tensor(*parts):
        return np.concatenate([data_of(t) for t in parts], axis=axis)
    parents = tuple(Tensor._lift(t) for t in parts)
    splits = np.cumsum([p.shape[axis] for p in parents])[:-1]
    need = [p.requires_grad for p in parents]
    return _node(
        "concat",
        _no_context(lambda *arrays: np.concatenate(arrays, axis=axis)),
        lambda _, g, *arrays: tuple(np.ascontiguousarray(part) if n else None for part, n
                                    in zip(np.split(g, splits, axis=axis), need)),
        parents,
    )


def _toposort(root: Tensor) -> list[Tensor]:
    """Iterative DFS topological order (parents before children).

    A node's first pop expands it: it goes back on the stack below its
    unseen parents and is emitted when it surfaces again.  In a DAG no other
    entry of an expanded node surfaces before that, so a seen node that is
    not yet emitted is always that second pop.  Tensors hash by identity.
    """
    order: list[Tensor] = []
    seen: set[Tensor] = set()
    emitted: set[Tensor] = set()
    stack = [root]
    while stack:
        node = stack.pop()
        if node in seen:
            if node not in emitted:
                emitted.add(node)
                order.append(node)
            continue
        seen.add(node)
        stack.append(node)
        for parent in node._parents:
            if parent not in seen and parent.requires_grad:
                stack.append(parent)
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
        return backward(self.output, self.params, seed_grad, self.nodes())


def _rules(order: list[Tensor], key: Callable) -> tuple:
    """The backward rules of the nodes of ``order`` that have one, last node
    first, as :func:`_backprop` runs them: (key, rule, operand keys, parent
    keys), where ``key`` maps a node or operand to its key and a parent that
    takes no gradient has the key None."""
    return tuple((key(t), t._rec[1], tuple(map(key, t._rec[2])),
                  tuple(key(p) if p.requires_grad else None for p in t._parents))
                 for t in reversed(order) if t._rec is not None and t._rec[1] is not None)


def _backprop(rules: tuple, grads: dict, value: Callable, context: Callable) -> dict:
    """The reverse pass: each of ``rules`` whose node has a gradient in
    ``grads`` (key -> gradient, seeded with the output's) runs on
    ``context(node key)`` and ``value(operand key)`` of each operand, and
    adds its parents' gradients into ``grads``.  Returns ``grads``."""
    for k, rule, args, parents in rules:
        g = grads.get(k)
        if g is None:
            continue
        for p, pg in zip(parents, rule(context(k), g, *map(value, args))):
            if pg is not None and p is not None:
                q = grads.get(p)
                grads[p] = pg if q is None else q + pg
    return grads


def backward(output: Tensor, params: Mapping[str, Tensor], seed_grad=None,
             order: list[Tensor] | None = None) -> dict[str, np.ndarray]:
    """Reverse pass from ``output``: adds each parameter's gradient to its
    ``grad`` (zeros where none flows) and returns the gradients by name.

    ``seed_grad`` (an array) defaults to ones; ``order`` is the topological
    order of ``output``'s tape, computed here when not given.  The pass is
    a plan's, :func:`_backprop`, keyed by the nodes themselves.
    """
    seed = np.ones_like(output.data) if seed_grad is None else np.asarray(seed_grad, np.float64)
    if seed.shape != output.data.shape:
        raise ValueError(f"seed gradient shape {seed.shape} does not match output "
                         f"shape {output.data.shape}")
    rules = _rules(_toposort(output) if order is None else order, lambda a: a)
    with np.errstate(all="ignore"):
        grads = _backprop(rules, {output: seed}, _array, lambda t: t._rec[3])
    result: dict[str, np.ndarray] = {}
    for name, p in params.items():
        g = grads[p] if p in grads else np.zeros_like(p.data)
        p.grad = g if p.grad is None else p.grad + g
        result[name] = g
    return result


class Plan:
    """One training step recorded by :func:`record`, replayed by :meth:`run`.

    Values live in numbered slots: the template holds the constants and the
    arrays of Tensors made before the step (the parameters, read through
    their arrays, so writes into them such as an optimizer step or
    ``checkpoint.restore`` reach the plan), ``_plan_feeds`` binds the step's
    input arrays by name, and ``_plan_forward`` computes the rest, as
    (slot, forward, operand slots, whether layer norm's scale is checked).
    ``_plan_backward`` holds the backward rules keyed by slot, as
    :func:`_rules` lists them, and ``_plan_grads`` (parameter, slot) pairs.
    A plan holds no value of a step.
    """

    __slots__ = ("_plan_template", "_plan_feeds", "_plan_forward", "_plan_backward",
                 "_plan_grads", "_plan_out")

    def __init__(self, template, feeds, forward, backward_rules, grads, out):
        self._plan_template = template
        self._plan_feeds = feeds
        self._plan_forward = forward
        self._plan_backward = backward_rules
        self._plan_grads = grads
        self._plan_out = out

    def run(self, inputs: Mapping[str, np.ndarray]) -> float | None:
        """The recorded step on ``inputs``: the loss, with each parameter's
        gradient set in its ``grad`` (zeros where none flows); None, with no
        gradient set, as soon as an input or a replayed value is not finite
        under the per-node rule."""
        vals = list(self._plan_template)
        ctxs = [None] * len(vals)
        with np.errstate(all="ignore"):
            for key, s in self._plan_feeds:
                vals[s] = value = np.asarray(inputs[key], dtype=np.float64)
                if _nonfinite(value):
                    return None
            for s, forward, args, ln in self._plan_forward:
                out, ctx = forward(*[vals[i] for i in args])
                if type(out) is not np.ndarray:
                    out = np.asarray(out, dtype=np.float64)
                if _nonfinite(out) or (ln and _ln_overflow(ctx)):
                    return None
                vals[s], ctxs[s] = out, ctx
            seed = {self._plan_out: np.ones_like(vals[self._plan_out])}
            grads = _backprop(self._plan_backward, seed, vals.__getitem__, ctxs.__getitem__)
        for param, s in self._plan_grads:
            param.grad = grads[s] if s in grads else np.zeros_like(param.data)
        return float(vals[self._plan_out])


def record(fn: Callable[[Mapping], Tensor], inputs: Mapping[str, np.ndarray],
           params: Mapping[str, Tensor]) -> tuple[Plan, float]:
    """Run ``fn(inputs)`` on the tape and record it as a :class:`Plan`.

    ``inputs`` maps names to the step's float64 arrays, and ``fn`` must read
    every per-step value from them: an array operand or leaf that is not one
    of them raises a ``ValueError``, since a plan would replay it as a stale
    constant.  Derived values go through :func:`detached` or are computed
    into ``inputs`` beforehand.  The step's gradients come from
    :func:`backward` on the tape after ``zero_grad``, so each parameter's
    ``grad`` is set, as :meth:`Plan.run` sets it.  Returns the plan and the
    loss; a non-finite loss raises the tape's :class:`NonFiniteLoss`.
    """
    if _LOG.get() is not None:
        raise RuntimeError("record: already recording a step")
    log = []
    token = _LOG.set(log)
    try:
        out = fn(inputs)
    finally:
        _LOG.reset(token)
    if not np.isfinite(out.data):
        raise NonFiniteLoss(f"non-finite loss (first bad op: {out.nonfinite_op})")

    template: list = []
    slots: dict[int, int] = {}          # id(Tensor or operand) -> slot
    feeds: dict = {}                    # input name -> slot
    names = {}
    for key, value in inputs.items():
        if names.setdefault(id(value), key) != key:
            # a later step may pass two arrays; the plan would read one of them
            raise ValueError(f"record: inputs {names[id(value)]!r} and {key!r} are one array")

    def new(value=None) -> int:
        template.append(value)
        return len(template) - 1

    def feed(array, what: str) -> int:
        key = names.get(id(array))
        if key is None:
            raise ValueError(f"record: {what} is an array that is not one of the step's "
                             f"inputs; pass every per-step value in them")
        if key not in feeds:
            feeds[key] = new()
        return feeds[key]

    def operand(a, op: str) -> int:
        if id(a) not in slots:
            if isinstance(a, Tensor):  # made before the step: read through its array
                slots[id(a)] = new(a.data)
            elif isinstance(a, np.ndarray):
                slots[id(a)] = feed(a, f"an operand of {op}")
            else:
                slots[id(a)] = new(_array(a))
        return slots[id(a)]

    needed, stack = set(), [out]
    while stack:
        t = stack.pop()
        if id(t) not in needed:
            needed.add(id(t))
            stack.extend(a for a in (t._parents if t._rec is None else t._rec[2])
                         if isinstance(a, Tensor))
    forward, made = [], set()
    for t, from_array in log:
        if id(t) not in needed:
            continue
        if t._rec is not None:
            fwd, _, args, _ = t._rec
            s = slots[id(t)] = new()
            made.add(id(t))
            forward.append((s, fwd, tuple(operand(a, t._op) for a in args), t._op == "dense"))
        elif t._parents:
            raise ValueError(f"record: node {t._label()} has no recorded forward")
        elif from_array:
            slots[id(t)] = feed(t.data, "a leaf")
        else:
            slots[id(t)] = new(t.data)
    order = _toposort(out)
    for t in reversed(order):
        if t._rec is not None and t._rec[1] is not None and id(t) not in made:
            raise ValueError(f"record: the loss reads node {t._label()}, made before the step")
    plan = Plan(template, tuple(feeds.items()), tuple(forward),
                _rules(order, lambda a: slots[id(a)]),
                tuple((p, slots.get(id(p))) for p in params.values()), slots[id(out)])
    for p in params.values():
        p.zero_grad()
    backward(out, params, order=order)
    return plan, float(out.data)


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
        # ``flat`` writes into the array itself; a reshape of a strided view
        # would copy it and probe nothing
        flat = p.data.flat
        n = p.data.size
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
            err = abs(analytic[name].flat[i] - numeric) / max(
                1.0, abs(numeric)
            )
            worst = max(worst, err)
    graph.eval(inputs)
    return worst
