"""Probability families for the latent-shift model.

Diagonal Normal, diagonal Student (realized as independent univariate Student
components per dimension, matching the diagonal determinant and trace algebra
of the bounds), and multivariate Bernoulli: reparameterized samplers,
log-densities, and closed-form and bounded KL divergences.

Every function takes its parameters as separate ``(mean, scale, nu)``
operands, as in ``mc_kl_diag_student(mean_p, scale_p, mean_q, scale_q, nu,
n_samples, rng)`` and ``student_entropy(scale, nu)``; the Normal ones drop
``nu``, and the Bernoulli ones take probabilities.  A sampler or log density
operand is a numpy array (or scalar) or an autodiff
:class:`~lsnpc.autodiff.Tensor`.  Each log density has one body, so the
training losses and the quadrature/Monte-Carlo oracles share one formula:
with a Tensor operand its value becomes one tape node, and with plain arrays
it is returned as an array under numpy's own error state.  Inputs with a
batch dimension produce per-row values; the label/latent axis is always the
last one.  A KL pair has operands of one shape and, for Students, one ``nu``.
"""

from __future__ import annotations

import contextlib
import math

import numpy as np
from scipy import special as _sp

from .autodiff import Tensor, any_tensor, data_of, fused, unbroadcast

__all__ = [
    "EPS_P",
    "rsample_diag_normal",
    "rsample_diag_student",
    "logpdf_diag_normal",
    "logpdf_diag_student",
    "logpmf_bernoulli",
    "kl_diag_normal",
    "kl_mv_bernoulli",
    "kl_student_same_nu_upper_bound",
    "mc_kl_diag_student",
    "student_entropy",
]

EPS_P = 1e-6

_LN_2PI = math.log(2.0 * math.pi)
_LN_PI = math.log(math.pi)


def _log(a):
    return a.log() if isinstance(a, Tensor) else np.log(a)


# --------------------------------------------------------------------------
# Reparameterized samplers


def rsample_diag_normal(mean, scale, noise):
    """mean + scale * noise with externally supplied standard-normal noise.

    Differentiable in mean and scale when they are Tensors.
    """
    noise = np.asarray(noise, dtype=np.float64)
    _check_last_dim(mean, noise, "rsample_diag_normal")
    return mean + scale * noise


def rsample_diag_student(mean, scale, nu, noise, chi2):
    """Student draw mean + scale * noise * sqrt(nu / chi2).

    ``chi2`` must be chi-square(nu) distributed, supplied by the caller's
    RNG stream; a scalar or (batch, 1) array shares one draw across the
    dimensions of each sample vector (the jointly heavy-tailed multivariate
    construction), while a full (batch, m) array makes dimensions independent.
    """
    noise = np.asarray(noise, dtype=np.float64)
    chi2 = np.asarray(chi2, dtype=np.float64)
    if np.any(chi2 <= 0.0):
        raise ValueError("chi-square draws must be strictly positive")
    _check_last_dim(mean, noise, "rsample_diag_student")
    factor = noise * np.sqrt(data_of(nu) / chi2)
    return mean + scale * factor


# --------------------------------------------------------------------------
# Log densities
#
# Each body computes its value in named steps.  With plain arrays that value
# is returned as it is; the Student density then runs its steps in one buffer
# of the operands' broadcast shape that it allocates itself, never in an
# operand, with the same ufuncs in the same order, so its bits do not change.
# With a Tensor operand the value becomes one tape node, whose backward pass
# repeats the backward rules of the primitive chain those steps spell out,
# operation by operation and reduction by reduction, and keeps every
# temporary that pass reads.  A value used once inside the chain gets the same
# gradient either way; a value used twice sums two terms, and a sum of two
# floats does not depend on their order.
# Inputs shared with the rest of the tape receive their gradient terms in the
# chain's order (``autodiff.fused``), so losses and gradients are
# bit-identical to the chain.


def _errstate(tape: bool):
    """The tape marks non-finite values itself; plain arrays keep numpy's state."""
    return np.errstate(all="ignore") if tape else contextlib.nullcontext()


def logpdf_diag_normal(x, mean, scale):
    """Exact diagonal-Gaussian log density, summed over the last axis."""
    # log(scale) stays a node of its own: q(z | zhat) adds that term to the
    # scale's gradient after the term of the draw z = mean + scale * eps.
    tape = any_tensor(x, mean, scale)
    with _errstate(tape):
        log_scale = _log(scale)
        xd, md, sd, ld = map(data_of, (x, mean, scale, log_scale))
        d = xd - md
        z = d / sd
        per_dim = -0.5 * np.square(z) - ld - 0.5 * _LN_2PI
        out = np.sum(per_dim, axis=-1)
        if not tape:
            return out

        def grads(g):
            G = _sum_last_grad(g, per_dim.shape)
            g_z = 2.0 * z * unbroadcast(G * -0.5, z.shape)
            g_d = unbroadcast(g_z / sd, d.shape)
            return (
                lambda: unbroadcast(g_d, xd.shape),
                lambda: unbroadcast(-g_d, md.shape),
                lambda: unbroadcast(-g_z * d / (sd * sd), sd.shape),
                lambda: unbroadcast(-G, ld.shape),
            )

        return fused("logpdf_normal", out, (x, mean, scale, log_scale), grads)


def logpdf_diag_student(x, mean, scale, nu):
    """Product-of-univariate-Student log density, summed over the last axis.

    nu may be a python float (fixed mode) or a Tensor broadcastable against
    the last axis (learned mode).  Requires nu > 1.
    """
    if not isinstance(nu, Tensor) and np.any(np.asarray(nu) <= 1.0):
        raise ValueError("degrees of freedom must exceed 1")
    tape = any_tensor(x, mean, scale, nu)
    xd, md, sd, nd = map(data_of, (x, mean, scale, nu))
    if not tape:
        t = np.empty(np.broadcast_shapes(xd.shape, md.shape, sd.shape, nd.shape))
        np.subtract(xd, md, out=t)
        t /= sd
        return np.sum(student_logpdf_into(t, nd, sd), axis=-1)
    with np.errstate(all="ignore"):
        d = xd - md
        t = d / sd
        t2 = np.square(t)
        half, nu2, head = _student_head(nd, sd)
        r = 1.0 + t2 / nd
        log_r = np.log(r)
        per_dim = head - half * log_r
        out = np.sum(per_dim, axis=-1)

        def grads(g):
            G = _sum_last_grad(g, per_dim.shape)
            g_head = unbroadcast(G, head.shape)
            # half * log(r) has the broadcast shape of every operand, as
            # per_dim has, and t^2 / nu the shape of r.
            g_tail = -G
            g_q = unbroadcast(g_tail * half, log_r.shape) / r
            g_t = 2.0 * t * unbroadcast(g_q / nd, t2.shape)
            g_d = unbroadcast(g_t / sd, d.shape)
            uses = [
                lambda: unbroadcast(g_d, xd.shape),
                lambda: unbroadcast(-g_d, md.shape),
                lambda: unbroadcast(-g_head, sd.shape) / sd,
                lambda: unbroadcast(-g_t * d / (sd * sd), sd.shape),
            ]
            if isinstance(nu, Tensor):
                g_s = unbroadcast(g_head, nd.shape)
                g_half = _sp.psi(half) * g_s + unbroadcast(g_tail * log_r, half.shape)
                uses += [
                    lambda: _sp.psi(nu2) * -g_s / 2.0,
                    lambda: -g_s * 0.5 / nd,
                    lambda: g_half / 2.0,
                    lambda: unbroadcast(-g_q * t2 / (nd * nd), nd.shape),
                ]
            return uses

        # The chain adds the scale's log term before its t term, and a
        # learned nu's terms in the order nu / 2, log(nu), nu + 1, t^2 / nu.
        return fused("logpdf_student", out, (x, mean, scale, scale, nu, nu, nu, nu), grads)


def _student_head(nu, scale):
    """(nu + 1) / 2, nu / 2 and the log normalizer of a Student with this scale."""
    half = (nu + 1.0) / 2.0
    nu2 = nu / 2.0
    head = _sp.gammaln(half) - _sp.gammaln(nu2) - 0.5 * np.log(nu) - 0.5 * _LN_PI
    return half, nu2, head - np.log(scale)


def student_logpdf_into(t, nu, scale=1.0):
    """Per-element univariate Student log density of standardized values, in t's buffer.

    ``t`` holds (x - mean) / scale and must already have the broadcast
    shape of itself, nu and scale.  It is overwritten with
    head - half * log(1 + t^2 / nu) and returned: the ``per_dim`` steps of
    ``logpdf_diag_student``, bit for bit, with no full-size temporary.
    """
    half, _, head = _student_head(nu, scale)
    np.square(t, out=t)
    t /= nu
    np.add(1.0, t, out=t)
    np.log(t, out=t)
    np.multiply(half, t, out=t)
    return np.subtract(head, t, out=t)


def logpmf_bernoulli(y, probs):
    """Sum of per-label Bernoulli log masses; y must be binary."""
    y = np.asarray(y, dtype=np.float64)
    if not np.all((y == 0.0) | (y == 1.0)):
        raise ValueError("labels must be binary")
    tape = isinstance(probs, Tensor)
    pd = data_of(probs)
    with _errstate(tape):
        not_y = 1.0 - y
        not_p = 1.0 - pd
        per_dim = y * np.log(pd) + not_y * np.log(not_p)
        out = np.sum(per_dim, axis=-1)
        if not tape:
            return out

        def grads(g):
            G = _sum_last_grad(g, per_dim.shape)
            return (
                lambda: unbroadcast(G * y, pd.shape) / pd,
                lambda: -(unbroadcast(G * not_y, pd.shape) / not_p),
            )

        return fused("logpmf_bernoulli", out, (probs, probs), grads)


def _sum_last_grad(g, shape) -> np.ndarray:
    """The gradient of a sum over the last axis, spread back over ``shape``."""
    return np.broadcast_to(np.reshape(g, shape[:-1] + (1,)), shape)


# --------------------------------------------------------------------------
# Divergences and bounds


def kl_diag_normal(mean_p, scale_p, mean_q, scale_q) -> float:
    """Closed-form KL between diagonal Normals, KL[p || q]."""
    (mean_p, mean_q), (scale_p, scale_q) = _checked(
        "kl_diag_normal", (mean_p, mean_q), (scale_p, scale_q))
    var_ratio = np.square(scale_p / scale_q)
    terms = (
        np.log(scale_q / scale_p)
        + 0.5 * (var_ratio + np.square((mean_p - mean_q) / scale_q))
        - 0.5
    )
    return float(np.sum(terms, axis=-1))


def kl_mv_bernoulli(p, q) -> float:
    """KL between multivariate Bernoullis with independent components.

    ``p`` and ``q`` are success probabilities strictly inside (0, 1).
    Matched components contribute exactly zero, which is the amortization
    effect: many agreeing near-zero labels leave the total unchanged.
    """
    p = np.asarray(p, dtype=np.float64)
    q = np.asarray(q, dtype=np.float64)
    for probs in (p, q):
        if np.any(probs <= 0.0) or np.any(probs >= 1.0):
            raise ValueError("probabilities must lie strictly inside (0, 1)")
    if p.shape != q.shape:
        raise ValueError(f"shape mismatch: {p.shape} vs {q.shape}")
    terms = np.where(
        p == q,
        0.0,
        p * np.log(p / q) + (1.0 - p) * np.log((1.0 - p) / (1.0 - q)),
    )
    return float(np.sum(terms, axis=-1))


def kl_student_same_nu_upper_bound(mean_p, scale_p, mean_q, scale_q, nu) -> float:
    """Upper bound on KL[p || q] for diagonal Students sharing nu > 2.

    Uses the closed bound built from the diagonal determinant and trace:
    half the log determinant ratio, a digamma correction, and a log term in
    the second-argument-whitened first moment matrix (first argument's
    covariance nu/(nu-2) * scale^2 plus the squared mean difference).
    """
    if not nu > 2.0:
        raise ValueError(f"the bound requires nu > 2, got {nu}")
    (mean_p, mean_q), (scale_p, scale_q) = _checked(
        "kl_student_same_nu_upper_bound", (mean_p, mean_q), (scale_p, scale_q))
    m = mean_p.shape[-1]
    var1 = np.square(scale_p)
    var2 = np.square(scale_q)
    log_det_ratio = float(np.sum(np.log(var2) - np.log(var1)))
    trace_term = float(np.sum(var1 / var2)) / (nu - 2.0)
    mean_term = float(np.sum(np.square(mean_p - mean_q) / var2)) / nu
    half_nm = (nu + m) / 2.0
    return float(
        0.5 * log_det_ratio
        - half_nm * (_sp.psi(half_nm) - _sp.psi(nu / 2.0))
        + half_nm * math.log(1.0 + trace_term + mean_term)
    )


def mc_kl_diag_student(
    mean_p, scale_p, mean_q, scale_q, nu, n_samples: int, rng: np.random.Generator
) -> tuple[float, float]:
    """Monte-Carlo KL[p || q] between diagonal Students, with standard error.

    Draws from the first argument with per-dimension Student variates so the
    samples follow exactly the product density the log-pdf evaluates; returns
    (estimate, standard error of the mean).  The draws are scaled and shifted
    in the sampler's output, and the q density is subtracted in place from
    the p density's result; neither density writes into an operand, so the
    operands are left as they were.
    """
    (mean_p, mean_q), (scale_p, scale_q) = _checked(
        "mc_kl_diag_student", (mean_p, mean_q), (scale_p, scale_q))
    draws = rng.standard_t(df=nu, size=(int(n_samples), mean_p.shape[-1]))
    draws *= scale_p
    draws += mean_p
    log_ratio = logpdf_diag_student(draws, mean_p, scale_p, nu)
    log_ratio -= logpdf_diag_student(draws, mean_q, scale_q, nu)
    est = float(np.mean(log_ratio))
    se = float(np.std(log_ratio, ddof=1) / math.sqrt(len(log_ratio)))
    return est, se


def student_entropy(scale, nu) -> float:
    """Differential entropy of a diagonal Student (sum of univariate terms)."""
    _, (scale,) = _checked("student_entropy", (), (scale,), nu)
    half = (nu + 1.0) / 2.0
    log_norm = (
        0.5 * math.log(nu)
        + _sp.gammaln(nu / 2.0)
        + _sp.gammaln(0.5)
        - _sp.gammaln(half)
    )
    per_dim_const = log_norm + half * (_sp.psi(half) - _sp.psi(nu / 2.0))
    return float(np.sum(np.log(scale)) + scale.shape[-1] * per_dim_const)


# --------------------------------------------------------------------------
# helpers


def _check_last_dim(a, b, op: str) -> None:
    a_shape = a.shape if hasattr(a, "shape") else np.shape(a)
    b_shape = b.shape if hasattr(b, "shape") else np.shape(b)
    if a_shape[-1] != b_shape[-1]:
        raise ValueError(
            f"{op}: trailing dimensions differ ({a_shape} vs {b_shape})"
        )


def _checked(op: str, means, scales, nu=None):
    """``means`` and ``scales`` as float64 arrays; a ValueError naming ``op`` if
    their shapes differ, a scale is not positive or a given ``nu`` is not above 1."""
    means = [np.asarray(a, dtype=np.float64) for a in means]
    scales = [np.asarray(a, dtype=np.float64) for a in scales]
    shapes = [a.shape for a in means + scales]
    if len(set(shapes)) > 1:
        raise ValueError(f"{op}: operand shapes differ {shapes}")
    if any(np.any(scale <= 0.0) for scale in scales):
        raise ValueError(f"{op}: scales must be strictly positive")
    if nu is not None and not nu > 1.0:
        raise ValueError(f"{op}: degrees of freedom must exceed 1, got {nu}")
    return means, scales
