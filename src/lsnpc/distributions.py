"""Probability families for the latent-shift model.

Diagonal Normal, diagonal Student (realized as independent univariate Student
components per dimension, matching the diagonal determinant and trace algebra
of the bounds), and multivariate Bernoulli: reparameterized samplers,
log-densities, closed-form KL divergences and a Monte-Carlo Student KL.

Every function takes its parameters as separate ``(mean, scale, nu)``
operands, as in ``mc_kl_diag_student(mean_p, scale_p, mean_q, scale_q, nu,
draws)`` and ``student_entropy(scale, nu)``; the Normal ones drop
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

import math

import numpy as np
from scipy import special as _sp

from .autodiff import Tensor, any_tensor, data_of, detached, fused, unbroadcast

__all__ = [
    "EPS_P",
    "rsample_diag_normal",
    "rsample_diag_student",
    "logpdf_diag_normal",
    "logpdf_diag_student",
    "logpmf_bernoulli",
    "kl_diag_normal",
    "kl_mv_bernoulli",
    "mc_kl_diag_student",
    "student_entropy",
]

EPS_P = 1e-6

_LN_2PI = math.log(2.0 * math.pi)
_LN_PI = math.log(math.pi)


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
    """Student draw mean + scale * noise * sqrt(nu / chi2), for nu > 1.

    ``chi2`` must be chi-square(nu) distributed, supplied by the caller's
    RNG stream; a scalar or (batch, 1) array shares one draw across the
    dimensions of each sample vector (the jointly heavy-tailed multivariate
    construction), while a full (batch, m) array makes dimensions independent.
    """
    _check_nu("rsample_diag_student", nu)
    noise = np.asarray(noise, dtype=np.float64)
    if any_tensor(mean, scale, nu, chi2):
        # a leaf that a recorded plan computes again, and checks, every step
        factor = detached(_student_factor, noise, nu, chi2)
    else:
        factor = _student_factor(noise, nu, chi2)
    _check_last_dim(mean, noise, "rsample_diag_student")
    return mean + scale * factor


def _student_factor(noise, nu, chi2):
    """noise * sqrt(nu / chi2), with ``nu`` read without its gradient."""
    chi2 = np.asarray(chi2, dtype=np.float64)
    if np.any(chi2 <= 0.0):
        raise ValueError("chi-square draws must be strictly positive")
    return noise * np.sqrt(data_of(nu) / chi2)


# --------------------------------------------------------------------------
# Log densities
#
# Each density's forward is one function of its operands' arrays, computing
# its value in named steps and returning it with the context of its backward
# pass.  With plain arrays that value is returned as it is.  With a Tensor
# operand the forward becomes one tape node (which a recorded plan replays),
# whose backward pass repeats the backward rules of the primitive chain those
# steps spell out, operation by operation and reduction by reduction, and
# keeps every temporary that pass reads.  A value used once inside the chain
# gets the same gradient either way; a value used twice sums two terms, and a
# sum of two floats does not depend on their order.
# Inputs shared with the rest of the tape receive their gradient terms in the
# chain's order (``autodiff.fused``), so losses and gradients are
# bit-identical to the chain.


def logpdf_diag_normal(x, mean, scale):
    """Exact diagonal-Gaussian log density, summed over the last axis."""
    if not any_tensor(x, mean, scale):
        return _normal(*map(data_of, (x, mean, scale)), None)[0]
    # log(scale) stays a node of its own: q(z | zhat) adds that term to the
    # scale's gradient after the term of the draw z = mean + scale * eps.
    log_scale = scale.log() if isinstance(scale, Tensor) else None
    return fused("logpdf_normal", _normal, _normal_grads, (x, mean, scale, log_scale),
                 (0, 1, 2, 3))


def _normal(x, mean, scale, log_scale):
    """The Normal forward; a constant scale's log is taken here."""
    if log_scale is None:
        log_scale = np.log(scale)
    d = x - mean
    z = d / scale
    per_dim = -0.5 * np.square(z) - log_scale - 0.5 * _LN_2PI
    return np.sum(per_dim, axis=-1), (d, z, per_dim.shape)


def _normal_grads(need, ctx, g, x, mean, scale, log_scale):
    d, z, shape = ctx
    G = _sum_last_grad(g, shape)
    g_z = 2.0 * z * unbroadcast(G * -0.5, z.shape)
    g_d = unbroadcast(g_z / scale, d.shape)
    return (
        unbroadcast(g_d, x.shape) if need[0] else None,
        unbroadcast(-g_d, mean.shape) if need[1] else None,
        unbroadcast(-g_z * d / (scale * scale), scale.shape) if need[2] else None,
        unbroadcast(-G, log_scale.shape) if need[3] else None,
    )


def logpdf_diag_student(x, mean, scale, nu):
    """Product-of-univariate-Student log density, summed over the last axis.

    nu may be a python float (fixed mode) or a Tensor broadcastable against
    the last axis (learned mode).  Requires nu > 1.
    """
    _check_nu("logpdf_diag_student", nu)
    if not any_tensor(x, mean, scale, nu):
        return _student(*map(data_of, (x, mean, scale, nu)))[0]
    # The chain adds the scale's log term before its t term, and a learned
    # nu's terms in the order nu / 2, log(nu), nu + 1, t^2 / nu.
    return fused("logpdf_student", _student, _student_grads, (x, mean, scale, nu),
                 (0, 1, 2, 2, 3, 3, 3, 3))


def _student(x, mean, scale, nu):
    d = x - mean
    t = d / scale
    t2 = np.square(t)
    half, nu2, head = _student_head(nu, scale)
    r = 1.0 + t2 / nu
    log_r = np.log(r)
    per_dim = head - half * log_r
    return np.sum(per_dim, axis=-1), (d, t, t2, half, nu2, np.shape(head), r, log_r,
                                      per_dim.shape)


def _student_grads(need, ctx, g, x, mean, scale, nu):
    d, t, t2, half, nu2, head_shape, r, log_r, shape = ctx
    G = _sum_last_grad(g, shape)
    g_head = unbroadcast(G, head_shape) if need[2] or need[4] else None
    # half * log(r) has the broadcast shape of every operand, as per_dim
    # has, and t^2 / nu the shape of r.
    g_tail = -G
    g_q = unbroadcast(g_tail * half, log_r.shape) / r
    g_t = 2.0 * t * unbroadcast(g_q / nu, t2.shape)
    g_d = unbroadcast(g_t / scale, d.shape)
    out = [
        unbroadcast(g_d, x.shape) if need[0] else None,
        unbroadcast(-g_d, mean.shape) if need[1] else None,
        unbroadcast(-g_head, scale.shape) / scale if need[2] else None,
        unbroadcast(-g_t * d / (scale * scale), scale.shape) if need[3] else None,
    ]
    if need[4]:
        g_s = unbroadcast(g_head, nu.shape)
        g_half = _sp.psi(half) * g_s + unbroadcast(g_tail * log_r, half.shape)
        out += [
            _sp.psi(nu2) * -g_s / 2.0,
            -g_s * 0.5 / nu,
            g_half / 2.0,
            unbroadcast(-g_q * t2 / (nu * nu), nu.shape),
        ]
    else:
        out += [None] * 4
    return out


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
    if not isinstance(probs, Tensor):
        return _bernoulli(y, data_of(probs))[0]
    return fused("logpmf_bernoulli", _bernoulli, _bernoulli_grads, (y, probs), (1, 1))


def _bernoulli(y, p):
    """The Bernoulli forward, which checks on every call that y is binary."""
    if not np.all((y == 0.0) | (y == 1.0)):
        raise ValueError("labels must be binary")
    not_y = 1.0 - y
    not_p = 1.0 - p
    per_dim = y * np.log(p) + not_y * np.log(not_p)
    return np.sum(per_dim, axis=-1), (not_y, not_p, per_dim.shape)


def _bernoulli_grads(need, ctx, g, y, p):
    not_y, not_p, shape = ctx
    G = _sum_last_grad(g, shape)
    return (
        unbroadcast(G * y, p.shape) / p if need[0] else None,
        -(unbroadcast(G * not_y, p.shape) / not_p) if need[1] else None,
    )


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


# Draws per Monte-Carlo tile.
_MC_ROWS = 8192


def mc_kl_diag_student(mean_p, scale_p, mean_q, scale_q, nu, draws) -> tuple[float, float]:
    """Monte-Carlo KL[p || q] between diagonal Students, with standard error.

    ``draws`` is an (n, m) array of standard Student(nu) variates, as
    ``rng.standard_t(df=nu, size=(n, m))`` gives, with n at least 2; they are
    scaled and shifted to p's parameters, so the samples follow exactly the
    product density the log-pdf evaluates.  Returns (estimate, standard
    error of the mean).  The operands are rows of m values, and neither they
    nor ``draws`` are written, so one read-only block can serve many pairs.

    The draws are evaluated in tiles of ``_MC_ROWS`` rows, each read as its
    (m, rows) transpose, a free view of a Fortran-ordered block: every
    elementwise step of ``student_logpdf_into`` runs along the tile's draws,
    against operands reshaped to (m, 1), in two (m, rows) buffers.  Each
    draw's log ratio log p - log q sums its m dimensions left to right
    (``np.sum(axis=0)``) into one (n,) array, over which ``np.mean`` and
    ``np.std(ddof=1)`` run.  Memory peaks at two (n,) arrays (the log ratios
    and ``np.std``'s deviations) plus the tile buffers, besides the caller's
    ``n * m * 8`` bytes of draws.
    """
    (mean_p, mean_q), (scale_p, scale_q) = _checked(
        "mc_kl_diag_student", (mean_p, mean_q), (scale_p, scale_q), nu)
    m = mean_p.shape[-1]
    if mean_p.size != m:
        raise ValueError(f"mc_kl_diag_student: operands must be one row, got shape "
                         f"{mean_p.shape}")
    draws = np.asarray(draws, dtype=np.float64)
    if draws.ndim != 2 or draws.shape[1] != m:
        raise ValueError(f"mc_kl_diag_student: draws must be (n, {m}) for operands of "
                         f"{m} values, got shape {draws.shape}")
    n = len(draws)
    if n < 2:
        raise ValueError(f"mc_kl_diag_student: draws of shape {draws.shape} give no "
                         f"standard error; it needs at least 2 rows")
    mean_p, scale_p, mean_q, scale_q = (a.reshape(m, 1)
                                        for a in (mean_p, scale_p, mean_q, scale_q))
    log_ratio = np.empty(n)
    x_buf, t_buf = (np.empty((m, min(n, _MC_ROWS))) for _ in range(2))
    q_buf = np.empty(x_buf.shape[1])
    for lo in range(0, n, _MC_ROWS):
        hi = min(lo + _MC_ROWS, n)
        x, t = x_buf[:, :hi - lo], t_buf[:, :hi - lo]
        out, q_sums = log_ratio[lo:hi], q_buf[:hi - lo]
        np.multiply(draws[lo:hi].T, scale_p, out=x)
        x += mean_p
        for mean, scale, sums in ((mean_p, scale_p, out), (mean_q, scale_q, q_sums)):
            np.subtract(x, mean, out=t)
            t /= scale
            np.sum(student_logpdf_into(t, nu, scale), axis=0, out=sums)
        out -= q_sums
    est = float(np.mean(log_ratio))
    se = float(np.std(log_ratio, ddof=1) / math.sqrt(n))
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
    if nu is not None:
        _check_nu(op, nu)
    return means, scales


def _check_nu(op: str, nu) -> None:
    """A ValueError naming ``op`` if a fixed ``nu`` is not above 1 (NaN is not) or
    a per-row ``nu`` array has an entry of 1 or less.  A NaN entry, from a NaN
    feature row, passes, and a learned nu's Tensor is kept above 2 by its net."""
    if not isinstance(nu, Tensor) and (
            (not nu > 1.0) if np.ndim(nu) == 0 else np.any(np.asarray(nu) <= 1.0)):
        raise ValueError(f"{op}: degrees of freedom must exceed 1, got {nu}")
