"""Numerical verification of the model's guarantees at desk scale.

Four families of checks:

* a 2-D grid-quadrature comparison of the expected conditional KL against
  the joint KL it is claimed to bound (1-D latent models only);
* encoder-regularity constant estimation (variance-ratio constant M, mean
  Lipschitz constant L, scale floor lambda) and the resulting affine-in-
  Hamming-distance KL bound for Student proposals sharing nu > 2;
* the quadratic-in-distance bound for the Normal-proposal ablation;
* the Bernoulli-KL amortization demonstration: agreeing labels contribute
  nothing, so the total divergence is independent of the label-space size.

Empirical constants are maxima over finite samples and therefore
under-estimates of the true suprema; bound checks inflate them (default
x1.5: M and L up, lambda down) and report the raw pass rate alongside.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field, replace

import numpy as np
from scipy.special import gammaln

from . import rngs
from .distributions import (
    DiagNormalParams,
    DiagStudentParams,
    kl_diag_normal,
    kl_mv_bernoulli,
    logpdf_diag_student,
    logpmf_bernoulli,
    mc_kl_diag_student,
    student_entropy,
)
from .model import LsnpcModel, ModelConfig
from .special import digamma

__all__ = [
    "QuadratureGrid",
    "GridError",
    "Theorem1Result",
    "BoundConstants",
    "BoundCheckRow",
    "TheoryReport",
    "verify_theorem1",
    "estimate_constants",
    "theorem2_bound",
    "theorem2_check",
    "gaussian_bound_check",
    "gaussian_bound_value",
    "fit_delta_exponent",
    "amortization_demo",
    "tiny_model",
    "random_label_pairs",
]


class GridError(ValueError):
    """Quadrature grid fails a coverage or normalization requirement."""


@dataclass(frozen=True)
class QuadratureGrid:
    lo: float = -16.0
    hi: float = 16.0
    step: float = 0.02

    def __post_init__(self):
        if self.step <= 0:
            raise GridError("step must be positive")
        if self.hi <= self.lo:
            raise GridError("empty range")

    @property
    def values(self) -> np.ndarray:
        n = int(round((self.hi - self.lo) / self.step)) + 1
        return self.lo + self.step * np.arange(n)


@dataclass(frozen=True)
class Theorem1Result:
    lhs: float
    rhs: float
    proposal_entropy: float
    entropy_nonneg: bool
    holds: bool
    evidence: float
    proposal_mass: float
    generative_mass: float

    @property
    def margin(self) -> float:
        return self.rhs - self.lhs


def verify_theorem1(
    model: LsnpcModel,
    x,
    yhat,
    grid: QuadratureGrid | None = None,
    tol: float = 1e-3,
    qz_log_override: np.ndarray | None = None,
) -> Theorem1Result:
    """Quadrature comparison of E_zhat KL[q(z|zhat) || p(z|x,yhat)] vs joint KL.

    Requires a 1-D latent.  The joint posterior is p(z) p(zhat|z) p(yhat|x,zhat)
    normalized on the grid; both the proposal and the generative density must
    integrate to 1 within ``tol`` on the grid or a GridError is raised.
    ``qz_log_override`` substitutes a tabulated log density for q(z|zhat)
    inside the expected-KL integrand (it does not touch the joint KL).
    """
    if model.cfg.m != 1:
        raise ValueError("quadrature verification supports only 1-D latents")
    grid = grid or QuadratureGrid()
    g = grid.values
    G = len(g)
    dz = grid.step
    x = np.asarray(x, dtype=np.float64).reshape(1, -1)
    yhat = np.asarray(yhat, dtype=np.float64).reshape(1, -1)

    mu_t, sig_t = model.encode_xy(x, yhat)
    mu_t = float(mu_t.data[0, 0])
    sig_t = float(sig_t.data[0, 0])
    col = g.reshape(-1, 1)
    if model.cfg.proposal == "student":
        nu = float(model.cfg.nu if model.cfg.nu_mode == "fixed"
                   else model.proposal_nu(x, yhat).data[0, 0])
        sd = sig_t * math.sqrt(nu / (nu - 2.0)) if nu > 2 else sig_t * 4.0
        log_q_zhat = logpdf_diag_student(col, np.full((G, 1), mu_t),
                                         np.full((G, 1), sig_t), nu)
        entropy = student_entropy(DiagStudentParams([mu_t], [sig_t], nu))
    else:
        sd = sig_t
        z_std = (col - mu_t) / sig_t
        log_q_zhat = (-0.5 * z_std[:, 0] ** 2 - math.log(sig_t)
                      - 0.5 * math.log(2 * math.pi))
        entropy = 0.5 * math.log(2 * math.pi * math.e) + math.log(sig_t)
    if mu_t - 4 * sd < grid.lo or mu_t + 4 * sd > grid.hi:
        raise GridError(
            f"grid [{grid.lo}, {grid.hi}] misses the proposal bulk "
            f"(mean {mu_t:.3f}, sd {sd:.3f})"
        )

    mu_k, sig_k = model.encode_zhat_to_z(col)
    mu_k = mu_k.data[:, 0]
    sig_k = sig_k.data[:, 0]
    # log q(z_i | zhat_j), rows index z, columns index zhat
    log_q_z = np.subtract(g[:, None], mu_k[None, :])
    log_q_z /= sig_k
    np.square(log_q_z, out=log_q_z)
    np.multiply(-0.5, log_q_z, out=log_q_z)
    log_q_z -= np.log(sig_k)
    log_q_z -= 0.5 * math.log(2 * math.pi)

    psi_vals = model.decode_shift(col).data[:, 0]
    joint = _shift_logpdf(g[None, :] - psi_vals[:, None], model.cfg.nu0)
    log_p_z = -0.5 * np.square(g) - 0.5 * math.log(2 * math.pi)
    probs = model.decode_labels(np.tile(x, (G, 1)), col).data
    log_p_yhat = logpmf_bernoulli(np.tile(yhat, (G, 1)), probs)

    # joint = (log p(z) + log p(zhat|z)) + log p(yhat|x,zhat), built in the
    # shift table's buffer; the bracket is the generative density
    np.add(log_p_z[:, None], joint, out=joint)
    gen_mass = float(np.exp(_logsumexp(joint))) * dz * dz
    joint += log_p_yhat[None, :]
    log_evidence = float(_logsumexp(joint)) + 2.0 * math.log(dz)
    log_q_joint = log_q_zhat[None, :] + log_q_z
    q_mass = float(np.exp(_logsumexp(log_q_joint))) * dz * dz
    for name, mass in (("proposal", q_mass), ("generative", gen_mass)):
        if abs(mass - 1.0) > tol:
            raise GridError(
                f"{name} density integrates to {mass:.6f} on the grid; "
                f"refine or widen it"
            )

    log_post_z = _logsumexp(joint, axis=1) + math.log(dz) - log_evidence
    log_post = np.subtract(joint, log_evidence, out=joint)
    rhs = _kl_sum(log_q_joint, log_post, diff_out=log_post, q_out=log_q_joint)
    rhs = float(rhs) * dz * dz
    del log_q_joint

    lq = log_q_z if qz_log_override is None else np.broadcast_to(
        np.asarray(qz_log_override, dtype=np.float64).reshape(-1, 1), (G, G)
    )
    inner = _kl_sum(lq, log_post_z[:, None], diff_out=log_post, q_out=log_q_z,
                    axis=0) * dz
    w = np.exp(log_q_zhat) * dz
    lhs = float(np.sum(w * inner))

    return Theorem1Result(
        lhs=lhs,
        rhs=rhs,
        proposal_entropy=float(entropy),
        entropy_nonneg=entropy >= 0.0,
        holds=lhs <= rhs + tol,
        evidence=float(np.exp(log_evidence)),
        proposal_mass=q_mass,
        generative_mass=gen_mass,
    )


def _logsumexp(a, axis=None):
    """``scipy.special.logsumexp(a, axis)`` for real input, bit for bit.

    Runs the steps of scipy 1.17's algorithm in the same order: the maxima
    are split out of the shifted sum and counted, the result is
    log1p(s) + log(count) + max, NaN where its sign is negative, and the naive
    log(sum(exp(a))) replaces it where it is not finite.  It makes one
    full-size buffer where scipy makes several copies, and takes the naive
    pass only when some result needs it.
    """
    a = np.asarray(a, dtype=np.float64)
    axes = tuple(range(a.ndim)) if axis is None else axis
    with np.errstate(divide="ignore", invalid="ignore"):
        a_max = np.max(a, axis=axes, keepdims=True)
        ties = a == a_max
        shifted = np.subtract(a, a_max)
        np.exp(shifted, out=shifted)
        # scipy sets the tied entries to -inf before the shift; their
        # exponentials are 0 wherever the result can stay finite
        np.copyto(shifted, 0.0, where=ties)
        m = np.sum(ties, axis=axes, keepdims=True, dtype=np.float64)
        s = np.sum(shifted, axis=axes, keepdims=True)
        del ties, shifted
        s = np.where(s == 0, s, s / m)
        sign = np.sign(s + 1) * np.sign(m)
        out = np.log1p(s) + np.log(m) + a_max
        out[sign < 0] = np.nan
        bad = ~np.isfinite(out)
        if bad.any():
            with np.errstate(over="ignore"):
                naive = np.log(np.sum(np.exp(a), axis=axes, keepdims=True))
            out = np.where(bad, naive, out)
    out = np.squeeze(out, axis=axes)
    return out[()] if out.ndim == 0 else out


def _shift_logpdf(t: np.ndarray, nu0: float) -> np.ndarray:
    """``logpdf_diag_student(t[..., None], 0.0, 1.0, nu0)`` bit for bit, in t's buffer.

    Leaves out only the exact no-ops of that call (``- 0.0``, ``/ 1.0``,
    ``- log(1.0)`` and the sum over a size-1 axis).
    """
    nu = np.asarray(nu0, dtype=np.float64)
    half = (nu + 1.0) / 2.0
    const = gammaln(half) - gammaln(nu / 2.0) - 0.5 * np.log(nu) - 0.5 * math.log(math.pi)
    np.square(t, out=t)
    t /= nu
    np.add(1.0, t, out=t)
    np.log(t, out=t)
    np.multiply(half, t, out=t)
    return np.subtract(const, t, out=t)


def _kl_sum(lq, lp, diff_out, q_out, axis=None):
    """``np.sum(np.where(q > 0, q * (lq - lp), 0.0), axis)`` with q = exp(lq).

    Writes lq - lp into ``diff_out`` and q into ``q_out``, which may be
    inputs the caller no longer needs, so no full-size array is made.
    """
    diff = np.subtract(lq, lp, out=diff_out)
    q = np.exp(lq, out=q_out)
    diff *= q
    np.copyto(diff, 0.0, where=~(q > 0))
    return np.sum(diff, axis=axis)


# --------------------------------------------------------------------------
# Encoder constants and the affine bound


@dataclass(frozen=True)
class BoundConstants:
    """Empirical encoder-regularity constants with the bound coefficients.

    M bounds per-dimension variance ratios per unit Hamming distance (both
    ratio directions), L bounds the mean shift per unit distance in the
    chosen norm, lam is the smallest observed variance.  alpha, C1, C2 are
    evaluated at (nu, m).  n_regular counts the pairs whose variance ratio,
    mean shift and smaller variance are finite, with that variance at least
    the model's lambda_floor squared.
    """

    M: float
    L: float
    lam: float
    nu: float
    m: int
    norm: str = "l2"
    n_pairs: int = 0
    l_degenerate: bool = False
    n_regular: int = 0

    def inflated(self, factor: float = 1.5) -> "BoundConstants":
        return replace(self, M=self.M * factor, L=self.L * factor, lam=self.lam / factor)

    @property
    def alpha(self) -> float:
        return math.sqrt(self.nu * self.lam) / self.L

    @property
    def C1(self) -> float:
        return _c1(self.m, self.nu, self.M, self.alpha)

    @property
    def C2(self) -> float:
        return _c2(self.m, self.nu, self.M, self.alpha)


def _c1(m: int, nu: float, M: float, alpha: float) -> float:
    half_nm = (nu + m) / 2.0
    return half_nm * (
        M * math.sqrt(m) * alpha / (2.0 * (nu - 2.0))
        - digamma(half_nm)
        + digamma(nu / 2.0)
    )


def _c2(m: int, nu: float, M: float, alpha: float) -> float:
    return m * M / (2.0 * math.e) + (nu + m) * math.sqrt(m) / (2.0 * alpha)


def hamming(y0, y1) -> np.ndarray:
    return np.sum(np.abs(np.asarray(y0, dtype=np.float64)
                         - np.asarray(y1, dtype=np.float64)), axis=-1)


def estimate_constants(
    model: LsnpcModel, X_sample, pairs, norm: str = "l2"
) -> BoundConstants:
    """Empirical (M, L, lam) over row-aligned (x, y0, y1) triples.

    ``pairs`` is (Y0, Y1) with one label pair per row of X_sample; every pair
    must differ somewhere.  Maxima over a finite sample under-estimate the
    true suprema; see ``BoundConstants.inflated``.
    """
    X = np.asarray(X_sample, dtype=np.float64)
    Y0 = np.asarray(pairs[0], dtype=np.float64)
    Y1 = np.asarray(pairs[1], dtype=np.float64)
    if X.shape[0] == 0:
        raise ValueError("empty sample")
    if not X.shape[0] == Y0.shape[0] == Y1.shape[0]:
        raise ValueError("X_sample and label pairs must be row-aligned")
    delta = hamming(Y0, Y1)
    if np.any(delta < 1):
        raise ValueError("every label pair must differ in at least one position")

    mu0, sig0 = (t.data for t in model.encode_xy(X, Y0))
    mu1, sig1 = (t.data for t in model.encode_xy(X, Y1))
    var0, var1 = np.square(sig0), np.square(sig1)
    ratio = np.maximum(var1 / var0, var0 / var1)
    M = float(np.max(ratio / delta[:, None]))

    diff = mu1 - mu0
    if norm == "l2":
        shift = np.linalg.norm(diff, axis=-1)
    elif norm == "l1":
        shift = np.sum(np.abs(diff), axis=-1)
    elif norm == "linf":
        shift = np.max(np.abs(diff), axis=-1)
    else:
        raise ValueError(f"unknown norm {norm!r}")
    L = float(np.max(shift / delta))
    l_degenerate = L == 0.0
    if l_degenerate:
        warnings.warn(
            "constant encoder: mean-shift constant is zero, using machine epsilon",
            RuntimeWarning,
            stacklevel=2,
        )
        L = float(np.finfo(np.float64).eps)
    lam = float(min(var0.min(), var1.min()))
    smaller = np.minimum(var0, var1).min(axis=-1)
    regular = (
        np.all(np.isfinite(ratio), axis=-1)
        & np.isfinite(shift)
        & np.isfinite(smaller)
        & (smaller >= model.cfg.lambda_floor ** 2)
    )
    return BoundConstants(
        M=M,
        L=L,
        lam=lam,
        nu=float(model.cfg.nu),
        m=model.cfg.m,
        norm=norm,
        n_pairs=int(X.shape[0]),
        l_degenerate=l_degenerate,
        n_regular=int(np.count_nonzero(regular)),
    )


def theorem2_bound(m: int, nu: float, constants: BoundConstants, delta: float) -> float:
    """C1 + C2 * delta for proposals sharing nu > 2 at Hamming distance delta >= 1."""
    if not nu > 2.0:
        raise ValueError(f"the bound requires nu > 2, got {nu}")
    if delta < 1:
        raise ValueError("defined only for label pairs at distance >= 1")
    alpha = math.sqrt(nu * constants.lam) / constants.L
    return _c1(m, nu, constants.M, alpha) + _c2(m, nu, constants.M, alpha) * delta


@dataclass(frozen=True)
class BoundCheckRow:
    delta: float
    kl: float
    se: float
    bound: float

    @property
    def dominated(self) -> bool:
        return self.kl <= self.bound

    @property
    def margin(self) -> float:
        return self.bound - self.kl


def theorem2_check(
    model: LsnpcModel,
    X_sample,
    pairs,
    constants: BoundConstants,
    n_mc: int = 100_000,
    seed: int = 0,
) -> list[BoundCheckRow]:
    """MC KL[q(.|x,y1) || q(.|x,y0)] per pair against the affine bound."""
    if model.cfg.proposal != "student":
        raise ValueError("the affine bound addresses the Student proposal")
    X = np.asarray(X_sample, dtype=np.float64)
    Y0 = np.asarray(pairs[0], dtype=np.float64)
    Y1 = np.asarray(pairs[1], dtype=np.float64)
    delta = hamming(Y0, Y1)
    nu = float(model.cfg.nu)
    mu0, sig0 = (t.data for t in model.encode_xy(X, Y0))
    mu1, sig1 = (t.data for t in model.encode_xy(X, Y1))
    rng = rngs.stream(seed, "theory", "mc_kl")
    rows = []
    for i in range(X.shape[0]):
        p = DiagStudentParams(mu1[i], sig1[i], nu)
        q = DiagStudentParams(mu0[i], sig0[i], nu)
        kl, se = mc_kl_diag_student(p, q, n_mc, rng)
        bound = theorem2_bound(model.cfg.m, nu, constants, float(delta[i]))
        rows.append(BoundCheckRow(delta=float(delta[i]), kl=kl, se=se, bound=bound))
    return rows


# --------------------------------------------------------------------------
# Normal-proposal (ablation) bound


def gaussian_bound_value(m: int, constants: BoundConstants, delta: float) -> float:
    """(3Mm/2) delta - m/2 + (m L^2 / lam) delta^2."""
    return (
        1.5 * constants.M * m * delta
        - 0.5 * m
        + m * constants.L**2 / constants.lam * delta**2
    )


def gaussian_bound_check(
    model: LsnpcModel, X_sample, pairs, constants: BoundConstants
) -> list[BoundCheckRow]:
    """Closed-form Normal KLs per pair against the quadratic bound."""
    if model.cfg.proposal != "normal":
        raise ValueError("expects the Normal-proposal ablation model")
    X = np.asarray(X_sample, dtype=np.float64)
    Y0 = np.asarray(pairs[0], dtype=np.float64)
    Y1 = np.asarray(pairs[1], dtype=np.float64)
    delta = hamming(Y0, Y1)
    mu0, sig0 = (t.data for t in model.encode_xy(X, Y0))
    mu1, sig1 = (t.data for t in model.encode_xy(X, Y1))
    rows = []
    for i in range(X.shape[0]):
        kl = kl_diag_normal(
            DiagNormalParams(mu1[i], sig1[i]), DiagNormalParams(mu0[i], sig0[i])
        )
        bound = gaussian_bound_value(model.cfg.m, constants, float(delta[i]))
        rows.append(BoundCheckRow(delta=float(delta[i]), kl=kl, se=0.0, bound=bound))
    return rows


def fit_delta_exponent(rows: list[BoundCheckRow]) -> float:
    """Log-log slope of mean KL against distance; needs >= 2 distinct distances."""
    by_delta: dict[float, list[float]] = {}
    for row in rows:
        by_delta.setdefault(row.delta, []).append(row.kl)
    deltas = sorted(by_delta)
    if len(deltas) < 2:
        raise ValueError("need at least two distinct distances to fit a slope")
    means = np.array([np.mean(by_delta[d]) for d in deltas])
    if np.any(means <= 0):
        raise ValueError("mean KL must be positive to fit a log-log slope")
    lx = np.log(deltas)
    ly = np.log(means)
    slope = float(np.sum((lx - lx.mean()) * (ly - ly.mean())) / np.sum((lx - lx.mean()) ** 2))
    return slope


# --------------------------------------------------------------------------
# Amortization demonstration


def amortization_demo(
    k: int,
    matched_prob: float,
    pos_prob_a: float,
    pos_prob_b: float,
    n_pos: int,
) -> tuple[float, float]:
    """Total Bernoulli KL between vectors agreeing everywhere but n_pos labels.

    Returns (total KL, KL per disagreeing label).  The total depends only on
    the disagreeing labels, so it is constant in k: spreading a fixed
    disagreement over more labels dilutes the per-dimension divergence.
    """
    if k < n_pos:
        raise ValueError("k must be at least the number of disagreeing labels")
    if n_pos == 0:
        return 0.0, 0.0
    a = np.full(k, matched_prob)
    b = np.full(k, matched_prob)
    a[:n_pos] = pos_prob_a
    b[:n_pos] = pos_prob_b
    total = kl_mv_bernoulli(a, b)
    return total, total / n_pos


# --------------------------------------------------------------------------
# Instance generators and the report


def tiny_model(
    seed: int,
    d: int = 3,
    k: int = 2,
    nu: float = 4.0,
    proposal: str = "student",
) -> LsnpcModel:
    """A 1-D-latent model with randomized heads for quadrature instances.

    Default construction zero-initializes every head, which would make all
    instances identical; here heads get small random weights, scaled so the
    proposal stays well inside the default quadrature grid.
    """
    cfg = ModelConfig(
        d=d,
        k=k,
        m=1,
        nu=nu,
        nu0=nu,
        proposal=proposal,
        encoder_hidden=(16,),
        decoder_hidden=(16,),
        shift_hidden=(16,),
        embed_hidden=8,
        embed_dim=8,
    )
    model = LsnpcModel(cfg, seed=seed)
    rng = rngs.stream(seed, "theory", "heads")
    # (weight scale, bias scale, bias shift); weights are fan-in normalized.
    # Scale heads produce softplus arguments around -0.4 so proposal scales
    # land in roughly [0.3, 1.0] and nu=4 tails stay on the default grid.
    scales = {
        "theta.mu": (1.0, 0.5, 0.0),
        "theta.sigma": (0.3, 0.25, -0.8),
        "kappa.mu": (1.0, 0.5, 0.0),
        "kappa.sigma": (0.3, 0.25, -0.8),
        "psi": (0.8, 0.3, 0.0),
        "phi": (1.5, 0.8, 0.0),
    }
    for prefix, (w_scale, b_scale, b_shift) in scales.items():
        W = model.params[f"{prefix}.W0"]
        b = model.params[f"{prefix}.b0"]
        fan_in = W.data.shape[0]
        W.data = rng.standard_normal(W.data.shape) * (w_scale / math.sqrt(fan_in))
        b.data = rng.standard_normal(b.data.shape) * b_scale + b_shift
    return model


def random_label_pairs(
    k: int, n: int, rng: np.random.Generator, delta: int | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """n binary label pairs; each differs in exactly ``delta`` positions
    (random 1..k when None)."""
    Y0 = (rng.random((n, k)) < 0.5).astype(np.float64)
    Y1 = Y0.copy()
    for i in range(n):
        width = delta if delta is not None else int(rng.integers(1, k + 1))
        flip = rng.choice(k, size=width, replace=False)
        Y1[i, flip] = 1.0 - Y1[i, flip]
    return Y0, Y1


@dataclass
class TheoryReport:
    """One row per check: (name, instances, passes, worst margin)."""

    rows: list[tuple] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)

    def add(self, name: str, instances: int, passes: int, worst_margin: float) -> None:
        self.rows.append((name, instances, passes, worst_margin))

    def to_csv(self) -> str:
        lines = ["name,instances,passes,worst_margin"]
        for name, instances, passes, margin in self.rows:
            lines.append(f"{name},{instances},{passes},{margin!r}")
        return "\n".join(lines) + "\n"

    def to_text(self) -> str:
        header = ("check", "instances", "passes", "worst margin")
        table = [header]
        for name, instances, passes, margin in self.rows:
            table.append((name, str(instances), str(passes), f"{margin:.6g}"))
        widths = [max(len(row[i]) for row in table) for i in range(4)]
        lines = ["  ".join(cell.ljust(w) for cell, w in zip(row, widths)) for row in table]
        lines.extend(f"note: {note}" for note in self.notes)
        return "\n".join(lines) + "\n"
