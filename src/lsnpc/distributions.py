"""Probability families for the latent-shift model.

Diagonal Normal, diagonal Student (realized as independent univariate Student
components per dimension, matching the diagonal determinant and trace algebra
of the bounds), and multivariate Bernoulli: reparameterized samplers,
log-densities, and closed-form and bounded KL divergences.

The log-density and sampler cores are polymorphic: they accept either plain
numpy arrays or autodiff :class:`~lsnpc.autodiff.Tensor` operands, so the
training losses and the quadrature/Monte-Carlo oracles share one formula.
Inputs with a batch dimension produce per-row values; the label/latent axis
is always the last one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import special as _sp

from .autodiff import Tensor

__all__ = [
    "DiagNormalParams",
    "DiagStudentParams",
    "BernoulliVec",
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


def _is_tensor(*values) -> bool:
    return any(isinstance(v, Tensor) for v in values)


def _log(a):
    return a.log() if isinstance(a, Tensor) else np.log(a)


def _lgamma(a):
    return a.lgamma() if isinstance(a, Tensor) else _sp.gammaln(a)


def _sum_last(a):
    return a.sum(axis=-1) if isinstance(a, Tensor) else np.sum(a, axis=-1)


# --------------------------------------------------------------------------
# Parameter containers


@dataclass(frozen=True)
class DiagNormalParams:
    """Mean and per-dimension scale of a diagonal-covariance Normal."""

    mean: np.ndarray
    scale: np.ndarray

    def __post_init__(self):
        mean = np.asarray(self.mean, dtype=np.float64)
        scale = np.asarray(self.scale, dtype=np.float64)
        if mean.shape != scale.shape:
            raise ValueError(
                f"mean shape {mean.shape} differs from scale shape {scale.shape}"
            )
        if np.any(scale <= 0.0):
            raise ValueError("scales must be strictly positive")
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "scale", scale)

    @property
    def dim(self) -> int:
        return self.mean.shape[-1]


@dataclass(frozen=True)
class DiagStudentParams:
    """Mean, per-dimension scale, and degrees of freedom of a diagonal Student.

    nu must exceed 1 so the density is integrable in every dimension; bounds
    that involve means/variances additionally require nu > 2, checked at the
    point of use.
    """

    mean: np.ndarray
    scale: np.ndarray
    nu: float

    def __post_init__(self):
        mean = np.asarray(self.mean, dtype=np.float64)
        scale = np.asarray(self.scale, dtype=np.float64)
        if mean.shape != scale.shape:
            raise ValueError(
                f"mean shape {mean.shape} differs from scale shape {scale.shape}"
            )
        if np.any(scale <= 0.0):
            raise ValueError("scales must be strictly positive")
        if not self.nu > 1.0:
            raise ValueError(f"degrees of freedom must exceed 1, got {self.nu}")
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "scale", scale)
        object.__setattr__(self, "nu", float(self.nu))

    @property
    def dim(self) -> int:
        return self.mean.shape[-1]


@dataclass(frozen=True)
class BernoulliVec:
    """Vector of independent Bernoulli success probabilities, clamped open."""

    probs: np.ndarray

    def __post_init__(self):
        probs = np.asarray(self.probs, dtype=np.float64)
        if np.any(probs <= 0.0) or np.any(probs >= 1.0):
            raise ValueError("probabilities must lie strictly inside (0, 1)")
        object.__setattr__(self, "probs", probs)

    @property
    def dim(self) -> int:
        return self.probs.shape[-1]


# --------------------------------------------------------------------------
# Reparameterized samplers


def rsample_diag_normal(params, noise):
    """mean + scale * noise with externally supplied standard-normal noise.

    Accepts a DiagNormalParams or a (mean, scale) pair of arrays/Tensors;
    differentiable in mean and scale when they are Tensors.
    """
    mean, scale = _normal_fields(params)
    noise = np.asarray(noise, dtype=np.float64)
    _check_last_dim(mean, noise, "rsample_diag_normal")
    return mean + scale * noise


def rsample_diag_student(params, normal_noise, chi2_draw):
    """Student draw mean + scale * noise * sqrt(nu / chi2).

    ``chi2_draw`` must be chi-square(nu) distributed, supplied by the caller's
    RNG stream; a scalar or (batch, 1) array shares one draw across the
    dimensions of each sample vector (the jointly heavy-tailed multivariate
    construction), while a full (batch, m) array makes dimensions independent.
    """
    mean, scale, nu = _student_fields(params)
    normal_noise = np.asarray(normal_noise, dtype=np.float64)
    chi2 = np.asarray(chi2_draw, dtype=np.float64)
    if np.any(chi2 <= 0.0):
        raise ValueError("chi-square draws must be strictly positive")
    _check_last_dim(mean, normal_noise, "rsample_diag_student")
    nu_values = nu.data if isinstance(nu, Tensor) else np.asarray(nu, dtype=np.float64)
    factor = normal_noise * np.sqrt(nu_values / chi2)
    return mean + scale * factor


# --------------------------------------------------------------------------
# Log densities


def logpdf_diag_normal(x, params, scale=None):
    """Exact diagonal-Gaussian log density, summed over the last axis."""
    if scale is None:
        mean, scale = _normal_fields(params)
    else:
        mean = params
    z = (x - mean) / scale
    per_dim = -0.5 * z.square() if isinstance(z, Tensor) else -0.5 * np.square(z)
    per_dim = per_dim - _log(scale) - 0.5 * _LN_2PI
    return _sum_last(per_dim)


def logpdf_diag_student(x, params, scale=None, nu=None):
    """Product-of-univariate-Student log density, summed over the last axis.

    nu may be a python float (fixed mode) or a Tensor broadcastable against
    the last axis (learned mode).  Requires nu > 1.
    """
    if scale is None and nu is None:
        mean, scale, nu = _student_fields(params)
    else:
        mean = params
    if not isinstance(nu, Tensor):
        nu = np.asarray(nu, dtype=np.float64)
        if np.any(nu <= 1.0):
            raise ValueError("degrees of freedom must exceed 1")
    t = (x - mean) / scale
    t2 = t.square() if isinstance(t, Tensor) else np.square(t)
    half = (nu + 1.0) / 2.0
    per_dim = (
        _lgamma(half)
        - _lgamma(nu / 2.0)
        - 0.5 * _log(nu)
        - 0.5 * _LN_PI
        - _log(scale)
        - half * _log(1.0 + t2 / nu)
    )
    return _sum_last(per_dim)


def logpmf_bernoulli(y, probs):
    """Sum of per-label Bernoulli log masses; y must be binary."""
    y_arr = np.asarray(y, dtype=np.float64)
    if not np.all((y_arr == 0.0) | (y_arr == 1.0)):
        raise ValueError("labels must be binary")
    p = probs.probs if isinstance(probs, BernoulliVec) else probs
    per_dim = y_arr * _log(p) + (1.0 - y_arr) * _log(1.0 - p)
    return _sum_last(per_dim)


# --------------------------------------------------------------------------
# Divergences and bounds


def kl_diag_normal(p: DiagNormalParams, q: DiagNormalParams) -> float:
    """Closed-form KL between diagonal Normals, KL[p || q]."""
    mp, sp_ = _normal_fields(p)
    mq, sq = _normal_fields(q)
    _check_last_dim(mp, mq, "kl_diag_normal")
    var_ratio = np.square(sp_ / sq)
    terms = (
        np.log(sq / sp_)
        + 0.5 * (var_ratio + np.square((mp - mq) / sq))
        - 0.5
    )
    return float(np.sum(terms, axis=-1))


def kl_mv_bernoulli(p, q) -> float:
    """KL between multivariate Bernoullis with independent components.

    Matched components contribute exactly zero, which is the amortization
    effect: many agreeing near-zero labels leave the total unchanged.
    """
    pp = p.probs if isinstance(p, BernoulliVec) else np.asarray(p, dtype=np.float64)
    qq = q.probs if isinstance(q, BernoulliVec) else np.asarray(q, dtype=np.float64)
    if pp.shape != qq.shape:
        raise ValueError(f"shape mismatch: {pp.shape} vs {qq.shape}")
    matched = pp == qq
    terms = np.where(
        matched,
        0.0,
        pp * np.log(pp / qq) + (1.0 - pp) * np.log((1.0 - pp) / (1.0 - qq)),
    )
    return float(np.sum(terms, axis=-1))


def kl_student_same_nu_upper_bound(p: DiagStudentParams, q: DiagStudentParams) -> float:
    """Upper bound on KL[p || q] for diagonal Students sharing nu > 2.

    Uses the closed bound built from the diagonal determinant and trace:
    half the log determinant ratio, a digamma correction, and a log term in
    the second-argument-whitened first moment matrix (first argument's
    covariance nu/(nu-2) * scale^2 plus the squared mean difference).
    """
    if p.nu != q.nu:
        raise ValueError(f"degrees of freedom differ: {p.nu} vs {q.nu}")
    nu = p.nu
    if not nu > 2.0:
        raise ValueError(f"the bound requires nu > 2, got {nu}")
    _check_last_dim(p.mean, q.mean, "kl_student_same_nu_upper_bound")
    m = p.dim
    var1 = np.square(p.scale)
    var2 = np.square(q.scale)
    log_det_ratio = float(np.sum(np.log(var2) - np.log(var1)))
    trace_term = float(np.sum(var1 / var2)) / (nu - 2.0)
    mean_term = float(np.sum(np.square(p.mean - q.mean) / var2)) / nu
    half_nm = (nu + m) / 2.0
    return float(
        0.5 * log_det_ratio
        - half_nm * (_sp.psi(half_nm) - _sp.psi(nu / 2.0))
        + half_nm * math.log(1.0 + trace_term + mean_term)
    )


def mc_kl_diag_student(
    p: DiagStudentParams,
    q: DiagStudentParams,
    n_samples: int,
    rng: np.random.Generator,
) -> tuple[float, float]:
    """Monte-Carlo KL[p || q] between diagonal Students, with standard error.

    Draws from the first argument with per-dimension Student variates so the
    samples follow exactly the product density the log-pdf evaluates; returns
    (estimate, standard error of the mean).
    """
    m = p.dim
    draws = p.mean + p.scale * rng.standard_t(df=p.nu, size=(int(n_samples), m))
    log_ratio = logpdf_diag_student(draws, p) - logpdf_diag_student(draws, q)
    est = float(np.mean(log_ratio))
    se = float(np.std(log_ratio, ddof=1) / math.sqrt(len(log_ratio)))
    return est, se


def student_entropy(params: DiagStudentParams) -> float:
    """Differential entropy of a diagonal Student (sum of univariate terms)."""
    nu = params.nu
    half = (nu + 1.0) / 2.0
    log_norm = (
        0.5 * math.log(nu)
        + _sp.gammaln(nu / 2.0)
        + _sp.gammaln(0.5)
        - _sp.gammaln(half)
    )
    per_dim_const = log_norm + half * (_sp.psi(half) - _sp.psi(nu / 2.0))
    return float(np.sum(np.log(params.scale)) + params.dim * per_dim_const)


# --------------------------------------------------------------------------
# helpers


def _normal_fields(params):
    if isinstance(params, DiagNormalParams):
        return params.mean, params.scale
    mean, scale = params
    return mean, scale


def _student_fields(params):
    if isinstance(params, DiagStudentParams):
        return params.mean, params.scale, params.nu
    mean, scale, nu = params
    return mean, scale, nu


def _check_last_dim(a, b, op: str) -> None:
    a_shape = a.shape if hasattr(a, "shape") else np.shape(a)
    b_shape = b.shape if hasattr(b, "shape") else np.shape(b)
    if a_shape[-1] != b_shape[-1]:
        raise ValueError(
            f"{op}: trailing dimensions differ ({a_shape} vs {b_shape})"
        )
