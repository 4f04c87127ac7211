"""Distribution families: samplers, densities, divergences.

Scalar reference values are closed forms (ln 2pi, the two-component
Bernoulli KL) evaluated independently here; integral checks use dense
trapezoid quadrature; Monte-Carlo checks freeze their seeds.
"""

import functools
import math
import re
import tracemalloc
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy import stats
from scipy.special import gammaln

from lsnpc import rngs
from lsnpc.autodiff import ComputeGraph, Tensor
from lsnpc.distributions import (
    _MC_ROWS,
    kl_diag_normal,
    kl_mv_bernoulli,
    logpdf_diag_normal,
    logpdf_diag_student,
    logpmf_bernoulli,
    mc_kl_diag_student,
    rsample_diag_normal,
    rsample_diag_student,
    student_entropy,
)

HALF_LN_2PI = 0.5 * math.log(2.0 * math.pi)


# ---------------------------------------------------------------------------
# reparameterized samplers


def test_normal_rsample_zero_noise_is_mean():
    np.testing.assert_array_equal(
        rsample_diag_normal(np.zeros(3), np.ones(3), np.zeros(3)), np.zeros(3)
    )


def test_normal_rsample_affine():
    np.testing.assert_allclose(
        rsample_diag_normal(np.array([1.0, 2.0]), np.ones(2), np.array([0.5, -0.5])),
        [1.5, 1.5],
    )


def test_normal_rsample_mc_mean(rng):
    mean, scale = np.array([0.7, -1.2]), np.array([2.0, 0.5])
    draws = rsample_diag_normal(mean, scale, rng.standard_normal((100_000, 2)))
    se = scale / math.sqrt(draws.shape[0])
    assert np.all(np.abs(draws.mean(axis=0) - mean) < 4 * se)


def test_normal_rsample_length_mismatch():
    with pytest.raises(ValueError):
        rsample_diag_normal(np.zeros(3), np.ones(3), np.zeros(4))


def test_student_rsample_zero_noise_is_mean():
    mean = np.array([3.0, -1.0])
    np.testing.assert_array_equal(
        rsample_diag_student(mean, np.ones(2), 4.0, np.zeros(2), 2.0), mean
    )


def test_student_rsample_variance_nu4(rng):
    # Var = nu/(nu-2) = 2 at nu=4; SE taken from the sample itself.
    nu, n = 4.0, 1_000_000
    chi2 = rng.chisquare(nu, size=(n, 1))
    draws = rsample_diag_student(np.zeros(1), np.ones(1), nu,
                                 rng.standard_normal((n, 1)), chi2)[:, 0]
    sq = draws**2
    se = sq.std(ddof=1) / math.sqrt(n)
    assert abs(sq.mean() - 2.0) < 3 * se


def test_student_rsample_normal_limit(rng):
    nu, n = 1e6, 10_000
    chi2 = rng.chisquare(nu, size=(n, 1))
    draws = rsample_diag_student(np.zeros(1), np.ones(1), nu,
                                 rng.standard_normal((n, 1)), chi2)[:, 0]
    ks = stats.kstest(draws, stats.norm.cdf).statistic
    assert ks < 0.01


def test_student_rsample_rejects_nonpositive_chi2():
    with pytest.raises(ValueError):
        rsample_diag_student(np.zeros(2), np.ones(2), 4.0, np.ones(2), 0.0)


@pytest.mark.parametrize("nu", [float("nan"), 1.0, -4.0, np.array([[4.0], [-4.0]])],
                         ids=["nan", "one", "negative", "per-row-negative"])
def test_student_density_and_sampler_reject_nu_not_above_1(nu):
    # NaN fails "nu > 1" as it fails "nu <= 1", so only the first rejects it
    with pytest.raises(ValueError, match="logpdf_diag_student: degrees of freedom must exceed 1"):
        logpdf_diag_student(np.zeros((2, 2)), np.zeros(2), np.ones(2), nu)
    with pytest.raises(ValueError, match="rsample_diag_student: degrees of freedom must exceed 1"):
        rsample_diag_student(np.zeros(2), np.ones(2), nu, np.ones(2), 3.0)


def test_a_nan_entry_of_a_per_row_nu_passes_through_as_nan():
    # a NaN feature row gives a learned nu of NaN in that row only
    nu = np.array([[4.0], [np.nan]])
    density = logpdf_diag_student(np.zeros((2, 2)), np.zeros(2), np.ones(2), nu)
    draws = rsample_diag_student(np.zeros(2), np.ones(2), nu, np.ones((2, 2)), 3.0)
    assert np.isfinite(density[0]) and np.isnan(density[1])
    assert np.all(np.isfinite(draws[0])) and np.all(np.isnan(draws[1]))


def test_rsample_gradient_wrt_mean_is_exact(rng):
    # d/dmu E[c . z] = c for both families: the reparameterized draw is
    # affine in mu, so the analytic gradient matches without MC error.
    c = rng.standard_normal(3)
    noise = rng.standard_normal((64, 3))
    chi2 = rng.chisquare(4.0, size=(64, 1))
    for student in (False, True):
        mu = Tensor(rng.standard_normal(3), requires_grad=True, name="mu")
        sig = Tensor(np.full(3, 0.8), requires_grad=True, name="sig")

        def fn(t):
            if student:
                z = rsample_diag_student(t["mu"], t["sig"], 4.0, noise, chi2)
            else:
                z = rsample_diag_normal(t["mu"], t["sig"], noise)
            return (z * c).sum(axis=-1).mean()

        g = ComputeGraph(fn, {"mu": mu, "sig": sig})
        g.eval()
        np.testing.assert_allclose(g.backward()["mu"], c, rtol=1e-12)


# ---------------------------------------------------------------------------
# log densities


def test_normal_logpdf_at_mean_unit_scale():
    assert logpdf_diag_normal(np.array([2.0]), np.array([2.0]), np.ones(1)) == pytest.approx(
        -HALF_LN_2PI, abs=1e-12
    )


def test_normal_logpdf_integrates_to_one():
    grid = np.linspace(-40.0, 40.0, 160_001)[:, None]
    lp = logpdf_diag_normal(grid, np.array([0.4]), np.array([1.7]))
    mass = np.trapezoid(np.exp(lp), dx=grid[1, 0] - grid[0, 0])
    assert abs(mass - 1.0) < 1e-6


@given(shift=st.floats(-5, 5), x=st.floats(-3, 3), mu=st.floats(-3, 3))
def test_normal_logpdf_translation_invariant(shift, x, mu):
    s = np.array([1.3])
    a = logpdf_diag_normal(np.array([x]), np.array([mu]), s)
    b = logpdf_diag_normal(np.array([x + shift]), np.array([mu + shift]), s)
    assert a == pytest.approx(b, abs=1e-9)


def test_student_logpdf_normal_limit_at_mean():
    assert logpdf_diag_student(np.zeros(1), np.zeros(1), np.ones(1), 1e6) == pytest.approx(
        -HALF_LN_2PI, abs=1e-4
    )


def test_student_logpdf_matches_scipy():
    mean, scale = np.array([0.3, -1.1]), np.array([2.3, 0.7])
    x = np.array([1.9, -2.4])
    expected = stats.t.logpdf(x, df=3.7, loc=mean, scale=scale).sum()
    assert logpdf_diag_student(x, mean, scale, 3.7) == pytest.approx(expected, abs=1e-12)


def test_student_logpdf_integrates_to_one():
    grid = np.linspace(-40.0, 40.0, 400_001)[:, None]
    mass = np.trapezoid(
        np.exp(logpdf_diag_student(grid, np.zeros(1), np.ones(1), 2.5)),
        dx=grid[1, 0] - grid[0, 0],
    )
    # Student tails put ~1e-4 mass beyond 40 scales at nu=2.5; compare against
    # the analytic mass actually inside the window instead of 1.
    inside = stats.t.cdf(40.0, df=2.5) - stats.t.cdf(-40.0, df=2.5)
    assert abs(mass - inside) < 1e-6


@given(a=st.floats(0.05, 6.0))
def test_student_logpdf_symmetric(a):
    mean, scale = np.array([0.7]), np.array([1.2])
    lhs = logpdf_diag_student(np.array([0.7 + a]), mean, scale, 3.0)
    rhs = logpdf_diag_student(np.array([0.7 - a]), mean, scale, 3.0)
    assert lhs == pytest.approx(rhs, abs=1e-12)


def test_student_logpdf_rejects_nu_at_most_one():
    with pytest.raises(ValueError):
        logpdf_diag_student(np.zeros(1), np.zeros(1), np.ones(1), 1.0)


def test_bernoulli_logpmf_uniform():
    v = np.array([0.5, 0.5])
    for y in ([0, 0], [0, 1], [1, 0], [1, 1]):
        assert logpmf_bernoulli(np.array(y), v) == pytest.approx(
            2.0 * math.log(0.5), abs=1e-12
        )


def test_bernoulli_logpmf_example():
    v = np.array([0.9, 0.1])
    expected = math.log(0.9) + math.log(0.9)
    assert logpmf_bernoulli(np.array([1, 0]), v) == pytest.approx(expected, abs=1e-9)
    assert expected == pytest.approx(-0.210721, abs=1e-6)


@pytest.mark.parametrize("k", [3, 6, 10])
def test_bernoulli_logpmf_normalizes(k, rng):
    v = rng.uniform(0.05, 0.95, size=k)
    grids = np.stack(np.meshgrid(*([np.array([0.0, 1.0])] * k), indexing="ij"))
    outcomes = grids.reshape(k, -1).T
    total = np.exp(logpmf_bernoulli(outcomes, v)).sum()
    assert total == pytest.approx(1.0, abs=1e-12)


def test_bernoulli_logpmf_rejects_nonbinary():
    with pytest.raises(ValueError):
        logpmf_bernoulli(np.array([0.5, 1.0]), np.array([0.4, 0.4]))


# ---------------------------------------------------------------------------
# log densities as single tape nodes, against the primitive chains they fuse

LN_PI = math.log(math.pi)


def _log(a):
    return a.log() if isinstance(a, Tensor) else np.log(a)


def _lgamma(a):
    return a.lgamma() if isinstance(a, Tensor) else gammaln(a)


def _square(a):
    return a.square() if isinstance(a, Tensor) else np.square(a)


def chain_normal(x, mean, scale):
    z = (x - mean) / scale
    per_dim = -0.5 * _square(z) - _log(scale) - HALF_LN_2PI
    return per_dim.sum(axis=-1)


def chain_student(x, mean, scale, nu):
    t2 = _square((x - mean) / scale)
    half = (nu + 1.0) / 2.0
    per_dim = (
        _lgamma(half)
        - _lgamma(nu / 2.0)
        - 0.5 * _log(nu)
        - 0.5 * LN_PI
        - _log(scale)
        - half * _log(1.0 + t2 / nu)
    )
    return per_dim.sum(axis=-1)


def chain_bernoulli(y, p):
    return (y * _log(p) + (1.0 - y) * _log(1.0 - p)).sum(axis=-1)


def _run_density(density, arrays, build):
    """Output and every leaf gradient of a two-draw graph around ``density``.

    ``build(t, density)`` gets the leaf Tensors by name; each draw reuses the
    leaves elsewhere too, so the order in which their gradients add up
    matters.
    """
    leaves = {k: Tensor(v.copy(), requires_grad=True, name=k) for k, v in arrays.items()}
    kept = {}

    def fn(t):
        kept["out"] = build(t, density)
        return kept["out"]

    graph = ComputeGraph(fn, leaves)
    graph.eval()
    return kept["out"].data, graph.backward()


def _assert_fused_matches_chain(fused, chain, arrays, build):
    out, grads = _run_density(fused, arrays, build)
    chain_out, chain_grads = _run_density(chain, arrays, build)
    assert np.array_equal(out, chain_out)
    assert sorted(grads) == sorted(chain_grads)
    for name in grads:
        assert np.array_equal(grads[name], chain_grads[name]), name


def _density_arrays(seed, B=5, m=4):
    rng = np.random.default_rng(seed)
    return rng, {
        "mean": rng.standard_normal((B, m)),
        "raw_scale": rng.standard_normal((B, m)),
        "raw_nu": rng.standard_normal((B, 1)),
        "w": rng.standard_normal(B),
    }


MIXES = [(True, True), (True, False), (False, True), (False, False)]
MIX_IDS = ["mean_T-scale_T", "mean_T-scale_np", "mean_np-scale_T", "mean_np-scale_np"]


def _operands(t, arrays, mean_tensor, scale_tensor):
    mean = t["mean"] if mean_tensor else arrays["mean"]
    scale = t["raw_scale"].softplus() + 0.1 if scale_tensor else np.exp(arrays["raw_scale"])
    return mean, scale


@pytest.mark.parametrize("mean_tensor,scale_tensor", MIXES, ids=MIX_IDS)
def test_normal_logpdf_node_is_bit_identical_to_chain(mean_tensor, scale_tensor):
    rng, arrays = _density_arrays(41)
    eps = rng.standard_normal((2, 5, 4))

    def build(t, density):
        mean, scale = _operands(t, arrays, mean_tensor, scale_tensor)
        total = None
        for e in eps:
            x = t["mean"] + scale * e
            row = (density(x, mean, scale) + density(x, np.zeros(4), np.ones(4))) * t["w"]
            total = row.sum() if total is None else total + row.sum()
        return total

    _assert_fused_matches_chain(logpdf_diag_normal, chain_normal, arrays, build)


@pytest.mark.parametrize("learned_nu", [False, True], ids=["nu_float", "nu_tensor"])
@pytest.mark.parametrize("mean_tensor,scale_tensor", MIXES, ids=MIX_IDS)
def test_student_logpdf_node_is_bit_identical_to_chain(mean_tensor, scale_tensor, learned_nu):
    rng, arrays = _density_arrays(43)
    eps = rng.standard_normal((2, 5, 4))

    def build(t, density):
        mean, scale = _operands(t, arrays, mean_tensor, scale_tensor)
        nu = t["raw_nu"].softplus() + 2.0 if learned_nu else 3.5
        total = None
        for e in eps:
            x = t["mean"] + scale * e
            row = (density(x, mean, scale, nu) + density(x, mean, np.ones(4), 2.01)) * t["w"]
            total = row.sum() if total is None else total + row.sum()
        return total

    _assert_fused_matches_chain(logpdf_diag_student, chain_student, arrays, build)


def test_bernoulli_logpmf_node_is_bit_identical_to_chain():
    rng, arrays = _density_arrays(47)
    y = (rng.random((5, 4)) < 0.5).astype(float)

    def build(t, density):
        p = t["mean"].sigmoid().clamp(1e-6, 1.0 - 1e-6)
        return ((density(y, p) + density(1.0 - y, p)) * t["w"]).sum()

    _assert_fused_matches_chain(logpmf_bernoulli, chain_bernoulli, arrays, build)


@pytest.mark.parametrize("learned_nu", [False, True], ids=["nu_float", "nu_array"])
def test_log_densities_on_arrays_equal_the_chain(learned_nu):
    # With no Tensor operand each density returns its value as an array,
    # bit for bit the primitive chain evaluated by numpy, and writes into
    # none of its operands (x has the broadcast shape of all of them).
    rng, arrays = _density_arrays(53)
    mean, scale = arrays["mean"], np.exp(arrays["raw_scale"])
    x = mean + scale * rng.standard_normal(mean.shape)
    nu = np.logaddexp(0.0, arrays["raw_nu"]) + 2.0 if learned_nu else 3.5
    y = (rng.random(mean.shape) < 0.5).astype(float)
    p = 1.0 / (1.0 + np.exp(-mean))
    operands = (x, mean, scale, nu, y, p)
    before = [np.copy(a) for a in operands]
    pairs = [
        (logpdf_diag_normal(x, mean, scale), chain_normal(x, mean, scale)),
        (logpdf_diag_normal(x, 0.0, 1.0), chain_normal(x, 0.0, 1.0)),
        (logpdf_diag_student(x, mean, scale, nu), chain_student(x, mean, scale, nu)),
        (logpmf_bernoulli(y, p), chain_bernoulli(y, p)),
    ]
    for got, want in pairs:
        assert type(got) is np.ndarray and got.shape == (5,)
        assert np.array_equal(got, want)
    for kept, now in zip(before, operands):
        assert np.array_equal(kept, now)


def test_log_densities_on_arrays_keep_numpy_warnings():
    # Only the tape silences numpy and marks the non-finite node instead.
    x, zeros = np.ones((2, 3)), np.zeros((2, 3))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(RuntimeWarning):
            logpdf_diag_normal(x, zeros, zeros)
        with pytest.raises(RuntimeWarning):
            logpdf_diag_student(x, zeros, zeros, 3.0)
        with pytest.raises(RuntimeWarning):
            logpmf_bernoulli(x, zeros)
        assert logpdf_diag_normal(Tensor(x), zeros, zeros).nonfinite_op == "logpdf_normal"
        assert logpdf_diag_student(Tensor(x), zeros, zeros, 3.0).nonfinite_op == "logpdf_student"
        assert logpmf_bernoulli(x, Tensor(zeros)).nonfinite_op == "logpmf_bernoulli"


def test_log_densities_are_one_tape_node_each():
    mean = Tensor(np.zeros((2, 3)), requires_grad=True)
    scale = Tensor(np.ones((2, 3)), requires_grad=True)
    x = Tensor(np.full((2, 3), 0.5), requires_grad=True)
    assert logpdf_diag_normal(x, mean, scale)._op == "logpdf_normal"
    assert logpdf_diag_student(x, mean, scale, 3.0)._op == "logpdf_student"
    assert logpmf_bernoulli(np.ones((2, 3)), x)._op == "logpmf_bernoulli"


# ---------------------------------------------------------------------------
# KL divergences


# Each KL and entropy function called with the given (mean, scale) and nu,
# beside a standard pair that passes its checks.
KL_CALLS = {
    "kl_diag_normal": lambda mean, scale, nu: kl_diag_normal(
        mean, scale, np.zeros(2), np.ones(2)),
    "mc_kl_diag_student": lambda mean, scale, nu: mc_kl_diag_student(
        np.zeros(2), np.ones(2), mean, scale, nu,
        np.random.default_rng(0).standard_t(df=nu, size=(10, 2)))[0],
    "student_entropy": lambda mean, scale, nu: student_entropy(scale, nu),
}


@pytest.mark.parametrize("op", sorted(KL_CALLS))
def test_kl_and_entropy_operands_are_checked(op):
    call = KL_CALLS[op]
    assert math.isfinite(call(np.zeros(2), [1.0, 2.0], 4.0))
    with pytest.raises(ValueError, match=rf"{op}: scales must be strictly positive"):
        call(np.zeros(2), np.array([1.0, 0.0]), 4.0)
    if op != "student_entropy":  # which takes no mean
        for mean, scale in ((np.zeros(3), np.ones(2)), (np.zeros(2), np.ones((1, 2)))):
            with pytest.raises(ValueError, match=rf"{op}: operand shapes differ"):
                call(mean, scale, 4.0)
    if op in ("mc_kl_diag_student", "student_entropy"):
        with pytest.raises(ValueError, match="exceed 1"):
            call(np.zeros(2), np.ones(2), 1.0)


def test_kl_normal_identity():
    mean, scale = np.array([0.3, 1.0]), np.array([0.5, 2.0])
    assert kl_diag_normal(mean, scale, mean, scale) == 0.0


def test_kl_normal_unit_shift_is_half():
    got = kl_diag_normal(np.array([0.0]), np.array([1.0]), np.array([1.0]), np.array([1.0]))
    assert got == pytest.approx(0.5, abs=1e-12)


def test_kl_normal_matches_quadrature():
    p = (np.array([0.2]), np.array([0.8]))
    q = (np.array([-0.9]), np.array([1.4]))
    grid = np.linspace(-30.0, 30.0, 120_001)[:, None]
    lp = logpdf_diag_normal(grid, *p)
    lq = logpdf_diag_normal(grid, *q)
    quad = np.trapezoid(np.exp(lp) * (lp - lq), dx=grid[1, 0] - grid[0, 0])
    assert kl_diag_normal(*p, *q) == pytest.approx(quad, abs=1e-8)


def test_kl_normal_nonnegative_on_random_pairs(rng):
    for _ in range(1000):
        m = int(rng.integers(1, 5))
        p = (rng.normal(size=m), rng.uniform(0.1, 3.0, size=m))
        q = (rng.normal(size=m), rng.uniform(0.1, 3.0, size=m))
        assert kl_diag_normal(*p, *q) >= -1e-9


def test_kl_bernoulli_rejects_probabilities_outside_the_open_interval():
    for bad in (0.0, 1.0):
        with pytest.raises(ValueError, match="strictly inside"):
            kl_mv_bernoulli(np.array([0.5, bad]), np.array([0.5, 0.5]))
        with pytest.raises(ValueError, match="strictly inside"):
            kl_mv_bernoulli(np.array([0.5, 0.5]), np.array([bad, 0.5]))
    with pytest.raises(ValueError, match="shape mismatch"):
        kl_mv_bernoulli(np.array([0.5, 0.5]), np.array([0.5]))


def test_kl_bernoulli_identity():
    v = np.array([0.2, 0.7])
    assert kl_mv_bernoulli(v, v) == 0.0


def test_kl_bernoulli_two_component_value():
    # Independent evaluation of the defining sum for p=[.9,.1], q=[.5,.5]:
    # .9 ln(.9/.5) + .1 ln(.1/.5), twice (the second component mirrors it).
    expected = 2.0 * (0.9 * math.log(1.8) + 0.1 * math.log(0.2))
    got = kl_mv_bernoulli(np.array([0.9, 0.1]), np.array([0.5, 0.5]))
    assert got == pytest.approx(expected, abs=1e-12)
    assert expected == pytest.approx(0.7361284143369943, abs=1e-15)


@pytest.mark.xfail(
    reason="the widely quoted 0.736966 rounds the two-component KL wrong; "
    "the defining sum 2*(0.9 ln 1.8 + 0.1 ln 0.2) evaluates to 0.7361284",
    strict=True,
)
def test_kl_bernoulli_quoted_constant():
    got = kl_mv_bernoulli(np.array([0.9, 0.1]), np.array([0.5, 0.5]))
    assert got == pytest.approx(0.736966, abs=1e-6)


@given(extra=st.integers(1, 50), prob=st.floats(0.01, 0.99))
def test_kl_bernoulli_matched_components_free(extra, prob):
    base_p = np.array([0.9, 0.1])
    base_q = np.array([0.5, 0.5])
    pad = np.full(extra, prob)
    small = kl_mv_bernoulli(base_p, base_q)
    big = kl_mv_bernoulli(np.concatenate([base_p, pad]), np.concatenate([base_q, pad]))
    assert big == pytest.approx(small, abs=1e-12)


# ---------------------------------------------------------------------------
# Monte-Carlo Student KL


def _random_student_pair(rng, m):
    # Moderate parameter regime (scale ratios < 2, mean gaps ~ one scale):
    # the regime encoder heads actually produce.
    p = (rng.normal(0, 0.5, m), rng.uniform(0.6, 1.1, m))
    q = (rng.normal(0, 0.5, m), rng.uniform(0.6, 1.1, m))
    return p, q


def _student_kl_by_quadrature(mean_p, scale_p, mean_q, scale_q, nu, points=2001):
    """Sum over dimensions of the 1-D KL[t_nu(mean_p, scale_p) || t_nu(mean_q, scale_q)].

    With t standard Student and u = (mean_p - mean_q + scale_p t) / scale_q,
    each term is log(scale_q / scale_p) + (nu + 1)/2 E[log(1 + u^2/nu) -
    log(1 + t^2/nu)]; the expectation is a midpoint rule in
    theta = arctan(t / sqrt(nu)), where t's density times dt is
    Gamma((nu+1)/2) / (sqrt(pi) Gamma(nu/2)) cos(theta)^(nu-1) dtheta.
    """
    step = math.pi / points
    theta = (np.arange(points) + 0.5) * step - math.pi / 2
    t = math.sqrt(nu) * np.tan(theta)
    weight = (math.exp(gammaln((nu + 1) / 2) - gammaln(nu / 2)) / math.sqrt(math.pi)
              * np.cos(theta) ** (nu - 1) * step)
    u = (mean_p - mean_q + scale_p * t[:, None]) / scale_q
    inner = weight @ (np.log1p(np.square(u) / nu) - np.log1p(np.square(t[:, None]) / nu))
    return float(np.sum(np.log(scale_q / scale_p) + (nu + 1) / 2 * inner))


def test_student_kl_quadrature_matches_mpmath():
    nu, (mean_p, scale_p, mean_q, scale_q) = 4.0, (0.3, 0.7, -0.4, 1.1)

    def log_density(x, mean, scale):
        return (mpmath.loggamma((nu + 1) / 2) - mpmath.loggamma(nu / 2)
                - mpmath.log(mpmath.sqrt(nu * mpmath.pi) * scale)
                - (nu + 1) / 2 * mpmath.log(1 + ((x - mean) / scale) ** 2 / nu))

    def integrand(x):
        lp = log_density(x, mean_p, scale_p)
        return mpmath.exp(lp) * (lp - log_density(x, mean_q, scale_q))

    exact = mpmath.quad(integrand, [-mpmath.inf, mean_p, mpmath.inf])
    got = _student_kl_by_quadrature(*(np.array([v]) for v in (mean_p, scale_p, mean_q, scale_q)),
                                    nu)
    assert got == pytest.approx(float(exact), rel=1e-9)
    same = (np.array([0.2, -1.0]), np.array([0.8, 1.3]))
    assert _student_kl_by_quadrature(*same, *same, nu) == pytest.approx(0.0, abs=1e-15)


def test_student_kl_quadrature_matches_the_dense_trapezoid():
    # Mean gap 3 in each of 4 unit-scale dimensions at nu = 4.
    m, nu = 4, 4.0
    x = np.linspace(-300.0, 300.0, 1_200_001)[:, None]
    lp = logpdf_diag_student(x, np.zeros(1), np.ones(1), nu)
    lq = logpdf_diag_student(x, np.full(1, 3.0), np.ones(1), nu)
    trapezoid = m * float(np.trapezoid(np.exp(lp) * (lp - lq), dx=x[1, 0] - x[0, 0]))
    got = _student_kl_by_quadrature(np.zeros(m), np.ones(m), np.full(m, 3.0), np.ones(m), nu)
    assert got == pytest.approx(trapezoid, rel=1e-9)
    assert got == pytest.approx(8.8835, abs=1e-4)


def test_mc_kl_is_within_4_se_of_the_per_dimension_quadrature(rng):
    # The pairs of one width share one block of draws, as theory's pairs do.
    for m in (1, 2, 4):
        draws = rngs.stream(m, "test", "mc_kl").standard_t(df=4.0, size=(20_000, m))
        for i in range(12):
            p, q = _random_student_pair(rng, m)
            est, se = mc_kl_diag_student(*p, *q, 4.0, draws)
            exact = _student_kl_by_quadrature(*p, *q, 4.0)
            assert abs(est - exact) <= 4 * se, (m, i, est, se, exact)


def test_mc_kl_near_the_normal_limit_matches_the_normal_kl():
    # At nu = 1e6 the Students are Normals up to O(1 / nu).  The three pairs
    # share one block, and swapping p's and q's transforms moves every
    # estimate many standard errors away.
    draws = rngs.stream(11, "test", "mc_kl").standard_t(df=1e6, size=(100_000, 4))
    pairs = [_pinned_pair(),
             tuple(map(np.array, ([0.0] * 4, [1.0] * 4, [0.5, -0.5, 0.2, 0.0],
                                  [1.2, 0.8, 1.0, 1.5]))),
             tuple(map(np.array, ([1.0, 2.0, -1.0, 0.0], [0.5, 0.5, 2.0, 1.0],
                                  [1.5, 1.0, -1.0, 0.5], [0.7, 0.6, 1.5, 1.1])))]
    for mean_p, scale_p, mean_q, scale_q in pairs:
        est, se = mc_kl_diag_student(mean_p, scale_p, mean_q, scale_q, 1e6, draws)
        exact = kl_diag_normal(mean_p, scale_p, mean_q, scale_q)
        assert abs(est - exact) <= 4 * se, (est, se, exact)


# (estimate, se) of mc_kl_diag_student for fixed parameters and one stream,
# recorded from the out-of-place chain (fresh draws and temporaries); the
# in-place estimator must reproduce them bit for bit.
PINNED_MC_KL = {
    4.0: (3, (1.5971825622396765, 0.024017578598423916)),
    2.5: (4, (1.3892372794564671, 0.022132317011494956)),
}


def _pinned_pair():
    """(mean_p, scale_p, mean_q, scale_q) of the pinned estimates."""
    return tuple(map(np.array, ([0.3, -1.2, 0.0, 2.5], [0.7, 1.3, 0.5, 2.0],
                                [-0.4, 0.1, 0.8, 2.0], [1.1, 0.9, 0.6, 1.5])))


@pytest.mark.parametrize("nu", sorted(PINNED_MC_KL))
def test_mc_kl_is_pinned_and_leaves_its_parameters_intact(nu):
    operands = _pinned_pair()
    before = [a.copy() for a in operands]
    seed, want = PINNED_MC_KL[nu]
    draws = rngs.stream(seed, "test", "mc_kl").standard_t(df=nu, size=(5000, 4))
    got = mc_kl_diag_student(*operands, nu, draws)
    assert repr(got) == repr(want)
    for kept, now in zip(before, operands):
        assert np.array_equal(kept, now)


def test_mc_kl_leaves_its_draws_as_they_were_and_reads_a_read_only_block():
    draws = np.random.default_rng(2).standard_t(df=4.0, size=(20_000, 4))
    kept = draws.copy()
    got = mc_kl_diag_student(*_pinned_pair(), 4.0, draws)
    assert np.array_equal(draws, kept)
    draws.flags.writeable = False
    assert mc_kl_diag_student(*_pinned_pair(), 4.0, draws) == got
    assert np.array_equal(draws, kept)


def test_mc_kl_peak_memory_stays_within_its_row_array_and_tile_buffers():
    # The (n,) log ratios and np.std's (n,) deviations, plus the scaled draw
    # tile, the density buffer and the row sums: about 0.6 draw arrays at
    # this size, besides the caller's draws.  The full-size estimator peaked
    # at 2.5 draw arrays.
    n, m = 100_000, 4
    operands = _pinned_pair()
    draws = rngs.stream(5, "test", "mc_kl").standard_t(df=4.0, size=(n, m))
    tracemalloc.start()
    try:
        mc_kl_diag_student(*operands, 4.0, draws)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2 * n * 8 + 3 * _MC_ROWS * m * 8


def _mc_kl_reference(mean_p, scale_p, mean_q, scale_q, nu, draws):
    """The estimator untiled and out of place: the whole block scaled and
    shifted to p, each dimension's log densities by ``logpdf_diag_student``,
    and each draw's m values summed left to right."""
    x = draws * scale_p + mean_p

    def log_density(mean, scale):
        return functools.reduce(np.add, (
            logpdf_diag_student(x[:, [j]], mean[[j]], scale[[j]], nu) for j in range(len(mean))))

    log_ratio = log_density(mean_p, scale_p) - log_density(mean_q, scale_q)
    return (float(np.mean(log_ratio)),
            float(np.std(log_ratio, ddof=1) / math.sqrt(len(log_ratio))))


# Ragged tiles (n below, at and above one tile and between tiles), and widths
# on both sides of 8, from which np.sum(axis=-1) would sum pairwise.
@pytest.mark.parametrize("nu", [2.5, 4.0])
@pytest.mark.parametrize("n", [2, 10, 255, 256, 8192, 8193, 20_000])
@pytest.mark.parametrize("m", [1, 3, 4, 7, 8, 9])
def test_mc_kl_tiles_equal_one_full_size_draw_bit_for_bit(m, n, nu):
    g = np.random.default_rng([m, n])
    operands = (g.normal(size=m), g.uniform(0.3, 2.0, m),
                g.normal(size=m), g.uniform(0.3, 2.0, m))
    draws = np.random.default_rng(7).standard_t(df=nu, size=(n, m))
    got = mc_kl_diag_student(*operands, nu, draws)
    want = _mc_kl_reference(*operands, nu, draws)
    assert repr(got) == repr(want)


@pytest.mark.parametrize("m", [1, 4, 9])
def test_mc_kl_has_the_same_bits_on_c_and_fortran_ordered_draws(m):
    g = np.random.default_rng([m, 3])
    operands = (g.normal(size=m), g.uniform(0.3, 2.0, m),
                g.normal(size=m), g.uniform(0.3, 2.0, m))
    draws = g.standard_t(df=4.0, size=(20_000, m))
    got = mc_kl_diag_student(*operands, 4.0, np.asfortranarray(draws))
    assert repr(got) == repr(mc_kl_diag_student(*operands, 4.0, np.ascontiguousarray(draws)))


@pytest.mark.parametrize("n", [0, 1])
def test_mc_kl_needs_two_draws_for_its_standard_error(n):
    draws = np.random.default_rng(0).standard_t(df=4.0, size=(n, 4))
    with pytest.raises(ValueError, match=rf"shape \({n}, 4\) .*at least 2 rows"):
        mc_kl_diag_student(*_pinned_pair(), 4.0, draws)


@pytest.mark.parametrize("shape", [(10,), (10, 3), (10, 5), (2, 10, 4), (4, 10)])
def test_mc_kl_rejects_draws_of_another_width_or_rank(shape):
    draws = np.random.default_rng(0).standard_t(df=4.0, size=shape)
    want = re.escape(f"draws must be (n, 4) for operands of 4 values, got shape {shape}")
    with pytest.raises(ValueError, match=want):
        mc_kl_diag_student(*_pinned_pair(), 4.0, draws)


def test_mc_kl_operands_are_one_row():
    mean_p, scale_p, mean_q, scale_q = (np.tile(a, (2, 1)) for a in _pinned_pair())
    draws = np.random.default_rng(0).standard_t(df=4.0, size=(300, 4))
    with pytest.raises(ValueError, match=r"operands must be one row, got shape \(2, 4\)"):
        mc_kl_diag_student(mean_p, scale_p, mean_q, scale_q, 4.0, draws[:10])
    one_row = [a[:1] for a in (mean_p, scale_p, mean_q, scale_q)]
    assert (mc_kl_diag_student(*one_row, 4.0, draws)
            == mc_kl_diag_student(*_pinned_pair(), 4.0, draws))


# Canary for the numpy behaviour that mc_kl_diag_student's per-draw sums rely on.
@pytest.mark.parametrize("m", range(1, 17))
def test_numpy_canary_axis_0_sums_of_a_row_strided_view_are_the_left_row_fold(m):
    g = np.random.default_rng(m)
    buf = g.standard_normal((m, 1500)) * 10.0 ** g.uniform(-8.0, 8.0, (m, 1500))
    a = buf[:, :1000]  # a short last tile's view of its tile buffer
    fold = a[0].copy()
    for row in a[1:]:
        fold += row
    out = np.empty(1000)
    np.sum(a, axis=0, out=out)
    assert np.array_equal(out, fold), (
        f"numpy canary: np.sum(axis=0) over {m} strided rows is no longer the left "
        f"fold of the rows")


# Canary for the numpy behaviour that logpdf_diag_student's row sums rely on to
# match the left fold above: for rows shorter than 8, so the pinned estimates
# (recorded from np.sum(axis=-1) row sums) keep their bits.
@pytest.mark.parametrize("m", range(1, 8))
def test_numpy_canary_short_row_sums_are_the_left_column_fold(m):
    g = np.random.default_rng(m)
    a = g.standard_normal((1000, m)) * 10.0 ** g.uniform(-8.0, 8.0, (1000, m))
    fold = a[:, 0].copy()
    for j in range(1, m):
        fold += a[:, j]
    assert np.array_equal(np.sum(a, axis=-1), fold), (
        f"numpy canary: np.sum(axis=-1) over a last axis of {m} is no longer the "
        f"left fold of the columns")


def test_student_entropy_matches_scipy():
    scale = np.array([1.0, 3.0])
    expected = sum(stats.t.entropy(df=4.0, scale=s) for s in scale)
    assert student_entropy(scale, 4.0) == pytest.approx(expected, abs=1e-10)
