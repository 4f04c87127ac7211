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
under-estimates of the true suprema; bound checks inflate them by
``INFLATION`` (M and L up, lambda down).
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass, replace

import numpy as np
from scipy.special import logsumexp, psi

from . import rngs
from .distributions import (
    kl_diag_normal,
    kl_mv_bernoulli,
    logpdf_diag_normal,
    logpdf_diag_student,
    logpmf_bernoulli,
    mc_kl_diag_student,
    student_entropy,
    student_logpdf_into,
)
from .model import LsnpcModel, ModelConfig

__all__ = [
    "QuadratureGrid",
    "GridError",
    "Theorem1Result",
    "BoundConstants",
    "BoundCheckRow",
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


# Largest grid-mass error of either density, and the slack of ``holds``.
THEOREM1_TOL = 1e-3

# z rows per tile of the Theorem-1 quadrature.
_TILE = 64


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
    empty_columns: int

    @property
    def margin(self) -> float:
        return self.rhs - self.lhs


def verify_theorem1(
    model: LsnpcModel,
    x,
    yhat,
    grid: QuadratureGrid | None = None,
    qz_log_override: np.ndarray | None = None,
) -> Theorem1Result:
    """Quadrature comparison of E_zhat KL[q(z|zhat) || p(z|x,yhat)] vs joint KL.

    Requires a 1-D latent.  The joint posterior is p(z) p(zhat|z) p(yhat|x,zhat)
    normalized on the grid; both the proposal and the generative density must
    integrate to 1 within ``THEOREM1_TOL`` on the grid or a GridError is raised.
    ``qz_log_override`` substitutes a tabulated log density for q(z|zhat)
    inside the expected-KL integrand (it does not touch the joint KL); it
    holds one value per grid point.

    The G x G grid (rows z, columns zhat) is visited once, in tiles of
    ``_TILE`` z rows, so memory is O(``_TILE`` * G).  Each tile adds to the
    generative mass the sum of exp(log p(z) + log p(zhat|z)), takes each
    row's logsumexp of the joint, shifted by the row's maximum, and adds to
    four per-column sums over z:
    the mass of q(z|zhat), q(z|zhat) times log q(z|zhat), q(z|zhat) times
    the joint, and the rows' logsumexps weighted by q(z|zhat).  The KLs and
    the proposal mass, sum_zhat q(zhat) sum_z q(z|zhat) dz^2, come from
    these sums, so their last bits differ from whole-table sums.  The log
    evidence is ``scipy.special.logsumexp`` of the G row logsumexps.

    ``empty_columns`` counts the zhat columns whose q(z | zhat) is 0 at every
    grid point: the lhs gives them an inner KL of 0.
    """
    if model.cfg.m != 1:
        raise ValueError("quadrature verification supports only 1-D latents")
    grid = grid or QuadratureGrid()
    g = grid.values
    G = len(g)
    if qz_log_override is not None and np.size(qz_log_override) != G:
        raise ValueError(f"qz_log_override has {np.size(qz_log_override)} values, "
                         f"but the grid has {G} points")
    dz = grid.step
    x = np.asarray(x, dtype=np.float64).reshape(1, -1)
    yhat = np.asarray(yhat, dtype=np.float64).reshape(1, -1)

    mu_t, sig_t, nu = model.proposal(x, yhat)
    mu_t = float(mu_t[0, 0])
    sig_t = float(sig_t[0, 0])
    col = g.reshape(-1, 1)
    mean_col, scale_col = np.full((G, 1), mu_t), np.full((G, 1), sig_t)
    if model.cfg.proposal == "student":
        nu = float(np.reshape(nu, -1)[0])
        sd = sig_t * math.sqrt(nu / (nu - 2.0)) if nu > 2 else sig_t * 4.0
        log_q_zhat = logpdf_diag_student(col, mean_col, scale_col, nu)
        entropy = student_entropy([sig_t], nu)
    else:
        sd = sig_t
        log_q_zhat = logpdf_diag_normal(col, mean_col, scale_col)
        entropy = 0.5 * math.log(2 * math.pi * math.e) + math.log(sig_t)
    if mu_t - 4 * sd < grid.lo or mu_t + 4 * sd > grid.hi:
        raise GridError(
            f"grid [{grid.lo}, {grid.hi}] misses the proposal bulk "
            f"(mean {mu_t:.3f}, sd {sd:.3f})"
        )

    mu_k, sig_k = model.encode_zhat_to_z(col)
    mu_k = mu_k[:, 0]
    sig_k = sig_k[:, 0]
    half_prec_k = math.sqrt(0.5) / sig_k
    log_norm_k = -np.log(sig_k) - 0.5 * math.log(2 * math.pi)
    psi_vals = model.decode_shift(col)[:, 0]
    log_p_z = -0.5 * np.square(g) - 0.5 * math.log(2 * math.pi)
    probs = model.decode_labels(np.tile(x, (G, 1)), col)
    log_p_yhat = logpmf_bernoulli(np.tile(yhat, (G, 1)), probs)

    # rows index z, columns zhat; a q(z|zhat) that underflows to 0 adds
    # exactly 0 to every sum, because log q(z|zhat) and the joint are finite
    lq_buf, joint_buf, q_buf = (np.empty((min(_TILE, G), G)) for _ in range(3))
    row = np.empty(G)  # logsumexp over zhat of the joint, one per z
    mass, q_lq, q_joint, q_row = (np.zeros(G) for _ in range(4))
    gen_mass = 0.0
    for lo in range(0, G, _TILE):
        hi = min(lo + _TILE, G)
        lq, joint, q = lq_buf[:hi - lo], joint_buf[:hi - lo], q_buf[:hi - lo]
        # log q(z_i | zhat_j) = log_norm_j - ((z_i - mu_j) * half_prec_j)^2
        np.subtract(g[lo:hi, None], mu_k[None, :], out=lq)
        lq *= half_prec_k
        np.square(lq, out=lq)
        np.subtract(log_norm_k, lq, out=lq)
        # (log p(z) + log p(zhat|z)) + log p(yhat|x,zhat); the bracket is
        # the generative density
        np.subtract(g[None, :], psi_vals[lo:hi, None], out=joint)
        student_logpdf_into(joint, model.cfg.nu0)
        joint += log_p_z[lo:hi, None]
        gen_mass += float(np.sum(np.exp(joint, out=q)))
        joint += log_p_yhat[None, :]
        top = joint.max(axis=1, keepdims=True)
        np.subtract(joint, top, out=q)
        np.exp(q, out=q)
        row[lo:hi] = np.log(q.sum(axis=1)) + top[:, 0]
        np.exp(lq, out=q)
        mass += np.sum(q, axis=0)
        q_lq += np.einsum("ij,ij->j", q, lq)
        q_joint += np.einsum("ij,ij->j", q, joint)
        q_row += row[lo:hi] @ q
    gen_mass *= dz * dz

    log_evidence = float(logsumexp(row)) + 2.0 * math.log(dz)
    q_zhat = np.exp(log_q_zhat)
    rhs = float(np.sum(q_zhat * (q_lq + (log_q_zhat + log_evidence) * mass - q_joint)))
    rhs *= dz * dz
    q_mass = float(np.sum(q_zhat * mass)) * dz * dz
    for name, total in (("proposal", q_mass), ("generative", gen_mass)):
        if abs(total - 1.0) > THEOREM1_TOL:
            raise GridError(
                f"{name} density integrates to {total:.6f} on the grid; "
                f"refine or widen it"
            )

    if qz_log_override is None:
        inner = (q_lq - q_row - (math.log(dz) - log_evidence) * mass) * dz
    else:
        lq = np.asarray(qz_log_override, dtype=np.float64).reshape(-1)
        log_post_z = row + math.log(dz) - log_evidence
        q = np.exp(lq)
        with np.errstate(invalid="ignore"):
            inner = float(np.sum(np.where(q > 0, q * (lq - log_post_z), 0.0))) * dz
    lhs = float(np.sum(q_zhat * dz * inner))

    return Theorem1Result(
        lhs=lhs,
        rhs=rhs,
        proposal_entropy=float(entropy),
        entropy_nonneg=entropy >= 0.0,
        holds=lhs <= rhs + THEOREM1_TOL,
        evidence=float(np.exp(log_evidence)),
        proposal_mass=q_mass,
        generative_mass=gen_mass,
        empty_columns=int(np.count_nonzero(mass == 0)),
    )


# --------------------------------------------------------------------------
# Encoder constants and the affine bound

# The factor by which bound checks inflate the empirical constants.
INFLATION = 1.5


@dataclass(frozen=True)
class BoundConstants:
    """Empirical encoder-regularity constants with the bound coefficients.

    M bounds per-dimension variance ratios per unit Hamming distance (both
    ratio directions), L bounds the l2 norm of the mean shift per unit
    distance, lam is the smallest observed variance.  alpha, C1, C2 are
    evaluated at (nu, m).  n_regular counts the pairs whose variance ratio,
    mean shift and smaller variance are finite, with that variance at least
    the model's lambda_floor squared.
    """

    M: float
    L: float
    lam: float
    nu: float
    m: int
    n_regular: int = 0

    def inflated(self) -> "BoundConstants":
        """M and L times ``INFLATION``, lam divided by it."""
        return replace(self, M=self.M * INFLATION, L=self.L * INFLATION,
                       lam=self.lam / INFLATION)

    @property
    def alpha(self) -> float:
        return math.sqrt(self.nu * self.lam) / self.L

    @property
    def C1(self) -> float:
        m, nu = self.m, self.nu
        half_nm = (nu + m) / 2.0
        return float(half_nm * (
            self.M * math.sqrt(m) * self.alpha / (2.0 * (nu - 2.0))
            - psi(half_nm)
            + psi(nu / 2.0)
        ))

    @property
    def C2(self) -> float:
        m, nu = self.m, self.nu
        return m * self.M / (2.0 * math.e) + (nu + m) * math.sqrt(m) / (2.0 * self.alpha)


def hamming(y0, y1) -> np.ndarray:
    return np.sum(np.abs(np.asarray(y0, dtype=np.float64)
                         - np.asarray(y1, dtype=np.float64)), axis=-1)


def _encoded_pairs(model: LsnpcModel, X_sample, pairs):
    """Hamming distances and encodings (mu0, sig0, mu1, sig1) of row-aligned
    (x, y0, y1) triples; ``pairs`` is (Y0, Y1) with one label pair per row
    of X_sample, and every pair must differ somewhere."""
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
    mu0, sig0 = model.encode_xy(X, Y0)
    mu1, sig1 = model.encode_xy(X, Y1)
    return delta, mu0, sig0, mu1, sig1


def estimate_constants(model: LsnpcModel, X_sample, pairs) -> BoundConstants:
    """Empirical (M, L, lam) over row-aligned (x, y0, y1) triples.

    ``pairs`` is (Y0, Y1) with one label pair per row of X_sample; every pair
    must differ somewhere.  Maxima over a finite sample under-estimate the
    true suprema; see ``BoundConstants.inflated``.
    """
    delta, mu0, sig0, mu1, sig1 = _encoded_pairs(model, X_sample, pairs)
    var0, var1 = np.square(sig0), np.square(sig1)
    ratio = np.maximum(var1 / var0, var0 / var1)
    M = float(np.max(ratio / delta[:, None]))

    shift = np.linalg.norm(mu1 - mu0, axis=-1)
    L = float(np.max(shift / delta))
    if L == 0.0:
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
        n_regular=int(np.count_nonzero(regular)),
    )


def theorem2_bound(constants: BoundConstants, delta: float) -> float:
    """C1 + C2 * delta for proposals sharing nu > 2 at Hamming distance delta >= 1."""
    if not constants.nu > 2.0:
        raise ValueError(f"the bound requires nu > 2, got {constants.nu}")
    if delta < 1:
        raise ValueError("defined only for label pairs at distance >= 1")
    return constants.C1 + constants.C2 * delta


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
    *,
    n_mc: int,
    seed: int,
) -> list[BoundCheckRow]:
    """MC KL[q(.|x,y1) || q(.|x,y0)] per pair against the affine bound.

    Every pair evaluates one shared block of ``n_mc`` standard Student draws
    from the stream ``rngs.stream(seed, "theory", "mc_kl")``, common random
    numbers: each pair's estimate and standard error are still unbiased, and
    pair i's depends on no other pair.  The pairs run through
    ``rngs.fan_out``, on every core this process may use, and each process
    that evaluates a pair draws the block once and keeps it, ``n_mc * m * 8``
    bytes, between calls, as ``correction`` keeps its noise.
    """
    if model.cfg.proposal != "student":
        raise ValueError("the affine bound addresses the Student proposal")
    delta, mu0, sig0, mu1, sig1 = _encoded_pairs(model, X_sample, pairs)
    nu = float(model.cfg.nu)
    units = [(mu1[i], sig1[i], mu0[i], sig0[i], nu, n_mc, seed) for i in range(len(delta))]
    with rngs.fan_out(_mc_kl_pair, units) as estimates:
        return [BoundCheckRow(delta=float(d), kl=kl, se=se,
                              bound=theorem2_bound(constants, float(d)))
                for d, (kl, se) in zip(delta, estimates)]


def _mc_kl_pair(unit) -> tuple[float, float]:
    """``theorem2_check``'s estimate for one pair, on the shared draws."""
    *operands, nu, n_mc, seed = unit
    return mc_kl_diag_student(*operands, nu, _mc_draws(seed, nu, n_mc, len(operands[0])))


@functools.lru_cache(maxsize=1)
def _mc_draws(seed: int, nu: float, n_mc: int, m: int) -> np.ndarray:
    """The read-only (n_mc, m) standard Student(nu) draws that every pair of
    ``theorem2_check`` shares, drawn from stream (seed, "theory", "mc_kl") by
    one call: the only Student sampler of the package.  The block is kept in
    Fortran order, so ``mc_kl_diag_student`` reads its tiles' transposes as
    contiguous rows."""
    draws = np.asfortranarray(
        rngs.stream(seed, "theory", "mc_kl").standard_t(df=nu, size=(n_mc, m)))
    draws.flags.writeable = False
    return draws


# --------------------------------------------------------------------------
# Normal-proposal (ablation) bound


def gaussian_bound_value(constants: BoundConstants, delta: float) -> float:
    """(3Mm/2) delta - m/2 + (m L^2 / lam) delta^2."""
    m = constants.m
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
    delta, mu0, sig0, mu1, sig1 = _encoded_pairs(model, X_sample, pairs)
    rows = []
    for i in range(len(delta)):
        kl = kl_diag_normal(mu1[i], sig1[i], mu0[i], sig0[i])
        bound = gaussian_bound_value(constants, float(delta[i]))
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


def amortization_demo(k: int) -> float:
    """Total Bernoulli KL between k-label vectors that agree everywhere but
    on two labels, at probability 0.9 against 0.5; the other labels agree at 0.01.

    The total depends only on the disagreeing labels, so it is constant in k:
    spreading a fixed disagreement over more labels dilutes the per-dimension
    divergence.
    """
    if k < 2:
        raise ValueError(f"k must be at least the 2 disagreeing labels, got {k}")
    a = np.full(k, 0.01)
    b = np.full(k, 0.01)
    a[:2], b[:2] = 0.9, 0.5
    return kl_mv_bernoulli(a, b)


# --------------------------------------------------------------------------
# Instance generators


def tiny_model(
    seed: int,
    d: int = 3,
    k: int = 2,
    nu: float = 4.0,
    proposal: str = "student",
) -> LsnpcModel:
    """A 1-D-latent model with randomized heads for quadrature instances.

    Default construction zero-initializes every output layer, which would make
    all instances identical and, through psi and phi, the posterior the product
    of the priors.  Here the one-layer heads ``theta.mu``, ``theta.sigma``,
    ``kappa.mu`` and ``kappa.sigma`` (``W0``/``b0``) and both layers of ``psi``
    and ``phi`` (hidden ``W0``/``b0``, output ``W1``/``b1``) get small random
    weights, scaled so the proposal stays well inside the default quadrature
    grid.  The output layers of psi and phi draw from a stream of their own,
    after the others.
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
    out_rng = rngs.stream(seed, "theory", "heads", "out")
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
    layers = [(prefix, 0, rng) for prefix in scales]
    layers += [(prefix, 1, out_rng) for prefix in ("psi", "phi")]
    for prefix, layer, stream in layers:
        w_scale, b_scale, b_shift = scales[prefix]
        W = model.params[f"{prefix}.W{layer}"]
        b = model.params[f"{prefix}.b{layer}"]
        fan_in = W.data.shape[0]
        W.data[...] = stream.standard_normal(W.data.shape) * (w_scale / math.sqrt(fan_in))
        b.data[...] = stream.standard_normal(b.data.shape) * b_scale + b_shift
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
