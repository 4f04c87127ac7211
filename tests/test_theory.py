"""Quadrature verification of the posterior-KL inequality, encoder-constant
estimation, both distance bounds, and the label-KL amortization demo."""

import dataclasses
import functools
import math
import tracemalloc
import types
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import logsumexp
from scipy.stats import t as student_t

from lsnpc import rngs, theory
from lsnpc.autodiff import Tensor
from lsnpc.config import load_config
from lsnpc.distributions import (
    kl_diag_normal,
    logpdf_diag_normal,
    logpdf_diag_student,
    logpmf_bernoulli,
    mc_kl_diag_student,
    student_logpdf_into,
)
from lsnpc.evaluation import Report
from lsnpc.experiment import _theorem1_instance
from lsnpc.model import LsnpcModel, ModelConfig, unsupervised_loss
from lsnpc.theory import (
    Theorem1Result,
    BoundCheckRow,
    BoundConstants,
    GridError,
    QuadratureGrid,
    amortization_demo,
    estimate_constants,
    fit_delta_exponent,
    gaussian_bound_check,
    gaussian_bound_value,
    hamming,
    random_label_pairs,
    theorem2_bound,
    theorem2_check,
    tiny_model,
    verify_theorem1,
)


CONFIGS = Path(__file__).resolve().parents[1] / "configs"


def _instance(seed, k=2):
    model = tiny_model(seed, k=k)
    rng = np.random.default_rng(seed + 10_000)
    x = rng.standard_normal(model.cfg.d)
    yhat = (rng.random(model.cfg.k) < 0.5).astype(float)
    return model, x, yhat


# ---------------------------------------------------------------------------
# grid plumbing


def test_grid_validation():
    with pytest.raises(GridError, match="step"):
        QuadratureGrid(step=0.0)
    with pytest.raises(GridError, match="empty"):
        QuadratureGrid(lo=1.0, hi=-1.0)
    g = QuadratureGrid(lo=-1.0, hi=1.0, step=0.5)
    np.testing.assert_allclose(g.values, [-1.0, -0.5, 0.0, 0.5, 1.0])


def test_narrow_grid_raises_grid_error():
    model, x, yhat = _instance(0)
    with pytest.raises(GridError):
        verify_theorem1(model, x, yhat, grid=QuadratureGrid(lo=-1.5, hi=1.5, step=0.02))


def test_requires_one_dimensional_latent():
    model = LsnpcModel(ModelConfig(d=3, k=2, m=2, nu=4.0, nu0=4.0), seed=0)
    with pytest.raises(ValueError, match="1-D"):
        verify_theorem1(model, np.zeros(3), np.zeros(2))


# ---------------------------------------------------------------------------
# the expected conditional KL is dominated by the joint KL


def test_inequality_holds_on_random_instances():
    for seed in range(12):
        model, x, yhat = _instance(seed)
        result = verify_theorem1(model, x, yhat)
        assert result.proposal_mass == pytest.approx(1.0, abs=1e-3)
        assert result.generative_mass == pytest.approx(1.0, abs=1e-3)
        if result.entropy_nonneg:
            assert result.holds, (
                f"seed {seed}: lhs {result.lhs:.6f} > rhs {result.rhs:.6f}"
            )
        assert result.margin == pytest.approx(result.rhs - result.lhs)


def test_normal_proposal_instances_also_hold():
    for seed in range(4):
        model, x, yhat = _instance(seed + 100)
        model = tiny_model(seed + 100, proposal="normal")
        result = verify_theorem1(model, x, yhat)
        if result.entropy_nonneg:
            assert result.holds


def test_override_with_exact_posterior_zeroes_the_lhs():
    model, x, yhat = _instance(3)
    grid = QuadratureGrid()
    g = grid.values
    dz = grid.step
    col = g.reshape(-1, 1)
    # tabulate the true posterior marginal over z with independent pieces:
    # p(z) p(zhat | z) p(yhat | x, zhat), marginalized over the zhat axis
    psi = model.decode_shift(col)[:, 0]
    log_shift = student_t.logpdf(g[None, :] - psi[:, None], model.cfg.nu0)
    log_pz = -0.5 * np.square(g) - 0.5 * math.log(2 * math.pi)
    probs = model.decode_labels(np.tile(x.reshape(1, -1), (len(g), 1)), col)
    yh = yhat.reshape(1, -1)
    log_rec = np.sum(yh * np.log(probs) + (1 - yh) * np.log(1 - probs), axis=-1)
    joint = log_pz[:, None] + log_shift + log_rec[None, :]
    log_evidence = logsumexp(joint) + 2.0 * math.log(dz)
    log_post_z = logsumexp(joint, axis=1) + math.log(dz) - log_evidence

    result = verify_theorem1(model, x, yhat, grid=grid, qz_log_override=log_post_z)
    assert abs(result.lhs) < 1e-12
    assert result.holds


@pytest.mark.parametrize("n_values,grid", [(10, QuadratureGrid()),
                                           (1601, QuadratureGrid(-16.0, 16.0, 0.04))])
def test_override_of_the_wrong_length_is_rejected_on_entry(n_values, grid, monkeypatch):
    model, x, yhat = _instance(3)
    points = len(grid.values)

    def no_quadrature(*args):
        raise AssertionError("the quadrature ran")

    monkeypatch.setattr(model, "proposal", no_quadrature)
    with pytest.raises(ValueError, match=rf"has {n_values} values, but the grid has "
                                         rf"{points} points"):
        verify_theorem1(model, x, yhat, grid=grid, qz_log_override=np.zeros(n_values))


def test_negative_entropy_is_reported_not_failed():
    model, x, yhat = _instance(5)
    # pin the proposal scale near 0.1: Student(4) entropy 1.68 + ln(0.1) < 0
    head = model.params["theta.sigma.W0"]
    head.data = np.zeros_like(head.data)
    model.params["theta.sigma.b0"].data[:] = math.log(math.expm1(0.099))
    result = verify_theorem1(model, x, yhat)
    assert result.proposal_entropy < 0.0
    assert not result.entropy_nonneg


def test_evidence_is_a_probability_mass():
    model, x, yhat = _instance(7)
    result = verify_theorem1(model, x, yhat)
    assert 0.0 < result.evidence < 1.0


@pytest.mark.parametrize("param", ["psi.b1", "phi.b1", "kappa.mu.b0"])
def test_a_nan_from_the_model_fails_the_instance(param):
    # the shift, the label probabilities and the mean of q(z | zhat)
    model, x, yhat = _instance(7)
    model.params[param].data[...] = np.nan
    result = verify_theorem1(model, x, yhat)
    assert math.isnan(result.lhs) and math.isnan(result.rhs)
    assert not result.holds


@pytest.mark.parametrize("nu0", [2.01, 4.0, 30.0])
def test_shift_table_equals_student_logpdf_bit_for_bit(nu0):
    g = QuadratureGrid(lo=-4.0, hi=4.0, step=0.01).values
    psi = np.sin(3.0 * g) * 1.7
    t = g[None, :] - psi[:, None]
    # The tape's value is the out-of-place chain.
    want = logpdf_diag_student(Tensor(t[:, :, None]), 0.0, 1.0, nu0).data
    assert np.array_equal(student_logpdf_into(t.copy(), nu0), want)


def _ini_instance(s, proposal="student"):
    """Instance s of verify_all's expected-vs-joint-kl check, with either proposal."""
    model = tiny_model(seed=s, proposal=proposal)
    rng = rngs.stream(s, "theory", "inputs")
    x = rng.standard_normal(model.cfg.d)
    yhat = (rng.random(model.cfg.k) < 0.5).astype(np.float64)
    return model, x, yhat


# Instance 0 of verify_all's expected-vs-joint-kl check, as the tiled
# quadrature gives it.  test_theorem1_matches_the_out_of_place_oracle holds
# these values within 1e-12 of scipy.special.logsumexp and masked sums over
# out-of-place grid tables; the pins hold every bit of the tiled sums.
PINNED_THEOREM1 = {
    "student": Theorem1Result(
        lhs=0.7325306688707087, rhs=1.7208118647475579,
        proposal_entropy=1.065891113766942, entropy_nonneg=True, holds=True,
        evidence=0.07565057147445284, proposal_mass=0.999991633060013,
        generative_mass=0.9999107708693704, empty_columns=0,
    ),
    "normal": Theorem1Result(
        lhs=0.7025791586205518, rhs=1.9038920021602566,
        proposal_entropy=0.8030696300929483, entropy_nonneg=True, holds=True,
        evidence=0.07565057147445284, proposal_mass=1.0,
        generative_mass=0.9999107708693704, empty_columns=0,
    ),
}


@pytest.mark.parametrize("proposal", sorted(PINNED_THEOREM1))
def test_theorem1_result_is_pinned(proposal):
    assert verify_theorem1(*_ini_instance(0, proposal)) == PINNED_THEOREM1[proposal]


@pytest.mark.parametrize("seed", range(5))
def test_tiny_model_shift_and_label_heads_vary_over_the_grid(seed):
    # Zero psi and phi output layers would make the shift 0 and every label
    # probability 0.5 at every latent value.
    model = tiny_model(seed)
    col = QuadratureGrid().values.reshape(-1, 1)
    x = np.random.default_rng(seed).standard_normal(model.cfg.d)
    assert np.ptp(model.decode_shift(col)) > 0.1
    probs = model.decode_labels(np.tile(x, (len(col), 1)), col)
    assert np.all(np.ptp(probs, axis=0) > 0.1)


def test_no_two_theory_ini_instances_share_an_evidence_value():
    instances = load_config(CONFIGS / "theory.ini").theory.instances
    with rngs.fan_out(_theorem1_instance, range(instances)) as results:
        evidence = [res.evidence for res in results]
    assert len(set(evidence)) == instances == 50


@pytest.mark.parametrize("instance,empty", [(0, 0), (43, 477)])
def test_theorem1_counts_the_zhat_columns_whose_q_is_zero_on_the_grid(instance, empty):
    # theory.ini's instance 43 has 477 columns at the grid's edges where every
    # q(z | zhat) underflows to 0; the lhs gives them an inner KL of 0
    assert _theorem1_instance(instance).empty_columns == empty


def _grid_tables(model, x, yhat, grid):
    """verify_theorem1's log tables, built out of place: the generative
    log p(z) + log p(zhat|z), log q(z|zhat) and the joint, rows indexing z
    and columns zhat; and the proposal's log q(zhat)."""
    g = grid.values
    G = len(g)
    col = g.reshape(-1, 1)
    mu_t, sig_t, nu = model.proposal(x.reshape(1, -1), yhat.reshape(1, -1))
    mean_col, scale_col = np.full((G, 1), mu_t[0, 0]), np.full((G, 1), sig_t[0, 0])
    if model.cfg.proposal == "student":
        log_q_zhat = logpdf_diag_student(col, mean_col, scale_col, float(np.reshape(nu, -1)[0]))
    else:
        log_q_zhat = logpdf_diag_normal(col, mean_col, scale_col)
    mu_k, sig_k = model.encode_zhat_to_z(col)
    log_q_z = (-0.5 * np.square((g[:, None] - mu_k[None, :, 0]) / sig_k[:, 0])
               - np.log(sig_k[:, 0]) - 0.5 * math.log(2 * math.pi))
    psi = model.decode_shift(col)[:, 0]
    log_p_z = -0.5 * np.square(g) - 0.5 * math.log(2 * math.pi)
    generative = log_p_z[:, None] + student_logpdf_into(g[None, :] - psi[:, None],
                                                        model.cfg.nu0)
    probs = model.decode_labels(np.tile(x.reshape(1, -1), (G, 1)), col)
    joint = generative + logpmf_bernoulli(np.tile(yhat.reshape(1, -1), (G, 1)), probs)[None, :]
    return generative, log_q_z, joint, log_q_zhat


def _masked_kl_terms(log_q, log_p):
    """q * (log q - log p) with q = exp(log_q), and 0 where q is 0."""
    q = np.exp(log_q)
    with np.errstate(invalid="ignore"):
        return np.where(q > 0, q * (log_q - log_p), 0.0)


def _oracle(model, x, yhat, grid):
    """verify_theorem1's lhs, rhs, evidence and masses from full out-of-place
    tables, scipy's logsumexp and np.where-masked sums."""
    dz = grid.step
    generative, log_q_z, joint, log_q_zhat = _grid_tables(model, x, yhat, grid)
    log_evidence = float(logsumexp(joint)) + 2.0 * math.log(dz)
    log_q_joint = log_q_zhat[None, :] + log_q_z
    rhs = float(np.sum(_masked_kl_terms(log_q_joint, joint - log_evidence))) * dz * dz
    log_post_z = logsumexp(joint, axis=1) + math.log(dz) - log_evidence
    inner = np.sum(_masked_kl_terms(log_q_z, log_post_z[:, None]), axis=0) * dz
    return {"lhs": float(np.sum(np.exp(log_q_zhat) * dz * inner)), "rhs": rhs,
            "evidence": math.exp(log_evidence),
            "proposal_mass": float(np.sum(np.exp(log_q_joint))) * dz * dz,
            "generative_mass": float(np.sum(np.exp(generative))) * dz * dz}


@pytest.mark.parametrize("proposal", ["student", "normal"])
def test_masses_are_out_of_place_sums_of_exp_within_1e_14(proposal):
    model, x, yhat = _ini_instance(0, proposal)
    grid = QuadratureGrid()
    generative, log_q_z, _, log_q_zhat = _grid_tables(model, x, yhat, grid)
    dz = grid.step
    result = verify_theorem1(model, x, yhat, grid=grid)
    want = float(np.sum(np.exp(generative))) * dz * dz
    assert result.generative_mass == pytest.approx(want, rel=1e-14, abs=0)
    want = float(np.sum(np.exp(log_q_zhat[None, :] + log_q_z))) * dz * dz
    assert result.proposal_mass == pytest.approx(want, rel=1e-14, abs=0)


@pytest.mark.parametrize("proposal", ["student", "normal"])
@pytest.mark.parametrize("instance", range(12))
def test_theorem1_matches_the_out_of_place_oracle(instance, proposal):
    model, x, yhat = _ini_instance(instance, proposal)
    result = verify_theorem1(model, x, yhat)
    want = _oracle(model, x, yhat, QuadratureGrid())
    assert {name: getattr(result, name) for name in want} == pytest.approx(
        want, rel=1e-12, abs=0)


@pytest.mark.parametrize("tile", [1, 7, 64, 1601, 4096])
@pytest.mark.parametrize("instance", [0, 43])
def test_theorem1_does_not_depend_on_the_tile_height(instance, tile, monkeypatch):
    # the default grid has 1601 = 25 * 64 + 1 points: a one-row last tile at
    # 64 rows, one tile at 1601 and a tile taller than the grid at 4096
    model, x, yhat = _ini_instance(instance)
    want = verify_theorem1(model, x, yhat)
    monkeypatch.setattr(theory, "_TILE", tile)
    got = verify_theorem1(model, x, yhat)
    for name in ("lhs", "rhs", "evidence", "proposal_mass", "generative_mass"):
        assert getattr(got, name) == pytest.approx(getattr(want, name), rel=1e-13, abs=0)
    assert (got.holds, got.empty_columns) == (want.holds, want.empty_columns)


def test_one_quadrature_holds_no_grid_sized_table():
    # one float64 table of the default 1601 x 1601 grid takes 20.5 MB
    model, x, yhat = _ini_instance(0)
    verify_theorem1(model, x, yhat)  # first-call set-up is not the quadrature's
    tracemalloc.start()
    try:
        verify_theorem1(model, x, yhat)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20


@pytest.mark.parametrize("instance", [0, 3, 43])
def test_theorem1_gap_is_the_expected_log_ratio_of_zhat_posteriors(instance):
    # rhs - lhs = E_q(z, zhat)[log q(zhat) - log p(zhat | z, x, yhat)], since
    # p(z, zhat | x, yhat) = p(z | x, yhat) p(zhat | z, x, yhat); instance 43
    # has 477 zhat columns whose q(z | zhat) is 0 on the grid
    model, x, yhat = _ini_instance(instance)
    grid = QuadratureGrid()
    dz = grid.step
    _, log_q_z, joint, log_q_zhat = _grid_tables(model, x, yhat, grid)
    log_p_zhat = joint - logsumexp(joint, axis=1, keepdims=True) - math.log(dz)
    q_joint = np.exp(log_q_zhat[None, :] + log_q_z)
    want = float(np.sum(q_joint * (log_q_zhat[None, :] - log_p_zhat))) * dz * dz
    result = verify_theorem1(model, x, yhat, grid=grid)
    assert result.rhs - result.lhs == pytest.approx(want, rel=1e-12, abs=1e-14)


@pytest.mark.parametrize("proposal", ["student", "normal"])
@pytest.mark.parametrize("instance", [0, 3])
def test_elbo_mean_is_the_log_evidence_less_the_joint_kl(instance, proposal):
    # At beta = 1, E_q[ELBO] = log p(yhat | x) - KL[q(z, zhat) || p(z, zhat | x, yhat)]:
    # the training loss's Monte-Carlo mean against the quadrature's log
    # evidence less its rhs, within 4 standard errors
    model, x, yhat = _ini_instance(instance, proposal)
    model.cfg = dataclasses.replace(model.cfg, beta=1.0)
    result = verify_theorem1(model, x, yhat)
    rng = rngs.stream(instance, "test", "elbo")
    means, elbo = [], []
    for _ in range(20):  # 200 000 tiled rows, 10 000 per call to bound the tape's memory
        loss, detail = unsupervised_loss(model, np.tile(x, (10_000, 1)),
                                         np.tile(yhat, (10_000, 1)), rng=rng, collect=True)
        means.append(-float(loss.data))
        t = detail["terms"]
        elbo.append((t["rec"] + t["lp_shift"] + t["lp_z"] - t["lq_zhat"] - t["lq_z"])[0])
    elbo = np.concatenate(elbo)
    se = float(np.std(elbo, ddof=1)) / math.sqrt(len(elbo))
    z = (float(np.mean(means)) - (math.log(result.evidence) - result.rhs)) / se
    assert abs(z) <= 4.0, z


def test_grid_errors_name_the_density_that_misses_mass():
    model, x, yhat = _instance(0)
    with pytest.raises(GridError, match="generative density integrates to 0.998670"):
        verify_theorem1(model, x, yhat, grid=QuadratureGrid(lo=-8.0, hi=8.0, step=0.02))
    # a proposal scale of 2: its bulk fits the grid, its Student tails do not
    model.params["theta.sigma.W0"].data[...] = 0.0
    model.params["theta.sigma.b0"].data[:] = math.log(math.expm1(2.0))
    with pytest.raises(GridError, match="proposal density integrates to 0.998551"):
        verify_theorem1(model, x, yhat)


def test_override_with_zero_density_gives_the_masked_lhs_without_warning():
    model, x, yhat = _instance(3)
    grid = QuadratureGrid()
    G, dz = len(grid.values), grid.step
    _, _, joint, log_q_zhat = _grid_tables(model, x, yhat, grid)
    log_evidence = float(logsumexp(joint)) + 2.0 * math.log(dz)
    log_post_z = logsumexp(joint, axis=1) + math.log(dz) - log_evidence
    override = log_post_z.copy()
    override[:200] = -np.inf  # zero density on the lowest 200 grid points
    override[-200:] = -np.inf

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        result = verify_theorem1(model, x, yhat, grid=grid, qz_log_override=override)
    q = np.exp(override)
    with np.errstate(invalid="ignore"):
        terms = np.where(q > 0, q * (override - log_post_z), 0.0)
    # every column of the expected KL's G x G table is this one
    inner = np.sum(np.repeat(terms[:, None], G, axis=1), axis=0) * dz
    want = float(np.sum(np.exp(log_q_zhat) * dz * inner))
    assert math.isfinite(result.lhs)
    # want is 0, as the override is the posterior on its support; the
    # quadrature's row logsumexps round differently from scipy's
    assert result.lhs == pytest.approx(want, rel=1e-12, abs=1e-15)


# ---------------------------------------------------------------------------
# encoder constants


def _perturbed_pairs(seed, n=200, k=6):
    model = tiny_model(seed, k=k)
    rng = np.random.default_rng(seed + 20_000)
    X = rng.standard_normal((n, model.cfg.d))
    pairs = random_label_pairs(k, n, rng)
    return model, X, pairs


def test_constants_respect_scale_floor():
    model, X, pairs = _perturbed_pairs(1)
    constants = estimate_constants(model, X, pairs)
    assert constants.lam >= model.cfg.lambda_floor**2
    assert constants.M > 0.0
    assert constants.L > 0.0
    assert constants.n_regular == X.shape[0]


def test_non_finite_pair_is_not_counted_regular():
    model, X, pairs = _perturbed_pairs(1)
    X = X.copy()
    X[4] = np.nan
    constants = estimate_constants(model, X, pairs)
    assert constants.n_regular == X.shape[0] - 1
    assert constants.inflated().n_regular == X.shape[0] - 1


def test_constant_encoder_degenerates_with_warning():
    model = LsnpcModel(
        ModelConfig(d=3, k=4, m=1, nu=4.0, nu0=4.0, encoder_hidden=(8,),
                    embed_hidden=4, embed_dim=4), seed=0
    )  # zero-initialized heads: the mean never moves with the labels
    rng = np.random.default_rng(2)
    X = rng.standard_normal((50, 3))
    pairs = random_label_pairs(4, 50, rng)
    with pytest.warns(RuntimeWarning, match="constant encoder"):
        constants = estimate_constants(model, X, pairs)
    assert constants.L == np.finfo(np.float64).eps


def test_constants_stable_across_disjoint_samples():
    model = tiny_model(9, k=6)
    rng = np.random.default_rng(30_000)
    estimates = []
    for _ in range(2):
        X = rng.standard_normal((500, model.cfg.d))
        pairs = random_label_pairs(6, 500, rng)
        estimates.append(estimate_constants(model, X, pairs))
    a, b = estimates
    assert max(a.M / b.M, b.M / a.M) < 2.0
    assert max(a.L / b.L, b.L / a.L) < 2.0


def test_estimate_constants_validation():
    model = tiny_model(0, k=4)
    rng = np.random.default_rng(3)
    X = rng.standard_normal((5, model.cfg.d))
    Y = (rng.random((5, 4)) < 0.5).astype(float)
    with pytest.raises(ValueError, match="empty"):
        estimate_constants(model, X[:0], (Y[:0], Y[:0]))
    with pytest.raises(ValueError, match="row-aligned"):
        estimate_constants(model, X, (Y, Y[:3]))
    with pytest.raises(ValueError, match="differ"):
        estimate_constants(model, X, (Y, Y))


@pytest.mark.parametrize("proposal", ["student", "normal"])
def test_bound_checks_validate_pairs_like_estimate_constants(proposal):
    model = tiny_model(0, k=4, proposal=proposal)
    check = (functools.partial(theorem2_check, n_mc=1000, seed=0) if proposal == "student"
             else gaussian_bound_check)
    constants = BoundConstants(M=1.0, L=1.0, lam=1.0, nu=4.0, m=1)
    rng = np.random.default_rng(3)
    X = rng.standard_normal((5, model.cfg.d))
    Y = (rng.random((5, 4)) < 0.5).astype(float)
    with pytest.raises(ValueError, match="empty"):
        check(model, X[:0], (Y[:0], Y[:0]), constants)
    with pytest.raises(ValueError, match="row-aligned"):
        check(model, X, (Y, Y[:3]), constants)
    with pytest.raises(ValueError, match="differ"):
        check(model, X, (Y, Y), constants)


def test_inflation_moves_every_constant_the_safe_way():
    constants = BoundConstants(M=2.0, L=0.5, lam=0.04, nu=4.0, m=1)
    up = constants.inflated()
    assert theory.INFLATION == 1.5
    assert up.M == 3.0 and up.L == 0.75 and up.lam == pytest.approx(0.04 / 1.5)
    # inflating constants can only raise the bound
    assert theorem2_bound(up, 2.0) >= theorem2_bound(constants, 2.0)


# ---------------------------------------------------------------------------
# the affine Student bound


def test_bound_is_affine_with_slope_c2():
    constants = BoundConstants(M=1.5, L=0.4, lam=0.09, nu=4.0, m=3)
    b1 = theorem2_bound(constants, 1.0)
    b2 = theorem2_bound(constants, 2.0)
    b5 = theorem2_bound(constants, 5.0)
    assert b2 - b1 == pytest.approx(constants.C2, rel=1e-12)
    assert (b5 - b1) / 4.0 == pytest.approx(constants.C2, rel=1e-12)
    assert b1 - constants.C2 == pytest.approx(constants.C1, rel=1e-12)
    assert constants.C2 > 0.0


def test_bound_validation():
    constants = BoundConstants(M=1.0, L=1.0, lam=1.0, nu=4.0, m=1)
    with pytest.raises(ValueError, match="nu > 2"):
        theorem2_bound(dataclasses.replace(constants, nu=2.0), 1.0)
    with pytest.raises(ValueError, match="distance"):
        theorem2_bound(constants, 0.5)


def test_affine_bound_dominates_mc_kl_on_tiny_instances():
    model, X, pairs = _perturbed_pairs(4, n=20)
    constants = estimate_constants(model, X, pairs).inflated()
    rows = theorem2_check(model, X, pairs, constants, n_mc=20_000, seed=0)
    assert len(rows) == 20
    for row in rows:
        assert row.se > 0.0
        assert row.dominated, f"KL {row.kl:.4f} exceeds bound {row.bound:.4f}"
        assert row.margin == pytest.approx(row.bound - row.kl)


@pytest.mark.parametrize("workers", [1, 2])
def test_every_pair_evaluates_the_one_shared_block_of_draws(monkeypatch, workers):
    """Pair i's estimate is its own KL on the (n_mc, m) block that stream
    (seed, "theory", "mc_kl") draws: it needs none of the other pairs, so a
    check of the first three pairs returns the first three rows of the whole
    check, on any worker count."""
    monkeypatch.setattr(rngs, "cores", lambda: workers)
    model, X, (Y0, Y1) = _perturbed_pairs(4, n=5)
    # BLAS may round a row's encoding differently in a batch of another
    # size, so rows are encoded one at a time, as in any batch
    encode = model.encode_xy
    monkeypatch.setattr(model, "encode_xy", lambda X, Y: tuple(map(np.concatenate, zip(
        *(encode(X[i:i + 1], Y[i:i + 1]) for i in range(len(X)))))))
    constants = estimate_constants(model, X, (Y0, Y1)).inflated()
    rows = theorem2_check(model, X, (Y0, Y1), constants, n_mc=3000, seed=7)
    mu0, sig0 = model.encode_xy(X, Y0)
    mu1, sig1 = model.encode_xy(X, Y1)
    draws = rngs.stream(7, "theory", "mc_kl").standard_t(df=4.0, size=(3000, model.cfg.m))
    for i, row in enumerate(rows):
        assert (row.kl, row.se) == mc_kl_diag_student(mu1[i], sig1[i], mu0[i], sig0[i],
                                                      4.0, draws)
    first = theorem2_check(model, X[:3], (Y0[:3], Y1[:3]), constants, n_mc=3000, seed=7)
    assert first == rows[:3]


def test_the_shared_draws_are_cached_read_only_and_keyed_by_seed_and_nu():
    draws = theory._mc_draws(7, 4.0, 3000, 2)
    assert theory._mc_draws(7, 4.0, 3000, 2) is draws
    assert draws.shape == (3000, 2) and not draws.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        draws[0, 0] = 0.0
    kept = draws.copy()
    for other in (theory._mc_draws(8, 4.0, 3000, 2), theory._mc_draws(7, 5.0, 3000, 2)):
        assert not np.array_equal(other, kept)


def test_the_shared_draws_are_the_stream_draws_in_fortran_order():
    draws = theory._mc_draws(3, 4.0, 3000, 4)
    assert draws.flags.f_contiguous and not draws.flags.writeable
    want = rngs.stream(3, "theory", "mc_kl").standard_t(df=4.0, size=(3000, 4))
    assert np.array_equal(draws, want)


def test_affine_check_rejects_normal_models():
    model = tiny_model(0, proposal="normal")
    constants = BoundConstants(M=1.0, L=1.0, lam=1.0, nu=4.0, m=1)
    with pytest.raises(ValueError, match="Student"):
        theorem2_check(model, np.zeros((1, 3)), (np.ones((1, 2)), np.zeros((1, 2))),
                       constants, n_mc=1000, seed=0)


# ---------------------------------------------------------------------------
# the quadratic Normal bound


def test_identical_labels_give_zero_normal_kl():
    model = tiny_model(6, proposal="normal", k=4)
    x = np.random.default_rng(7).standard_normal((1, 3))
    y = np.array([[1.0, 0.0, 1.0, 0.0]])
    mu, sig = model.encode_xy(x, y)
    assert kl_diag_normal(mu[0], sig[0], mu[0], sig[0]) == 0.0


def test_quadratic_bound_dominates_closed_form_kl():
    model = tiny_model(8, proposal="normal", k=6)
    rng = np.random.default_rng(40_000)
    X = rng.standard_normal((200, model.cfg.d))
    pairs = random_label_pairs(6, 200, rng)
    constants = estimate_constants(model, X, pairs).inflated()
    rows = gaussian_bound_check(model, X, pairs, constants)
    assert len(rows) == 200
    assert all(row.dominated for row in rows)
    assert all(row.se == 0.0 for row in rows)  # closed form, no MC error


def test_quadratic_check_rejects_student_models():
    model = tiny_model(0)
    constants = BoundConstants(M=1.0, L=1.0, lam=1.0, nu=4.0, m=1)
    with pytest.raises(ValueError, match="Normal"):
        gaussian_bound_check(model, np.zeros((1, 3)),
                             (np.ones((1, 2)), np.zeros((1, 2))), constants)


def test_gaussian_bound_value_worked_example():
    constants = BoundConstants(M=2.0, L=0.5, lam=0.25, nu=4.0, m=2)
    # (3*2*2/2)*3 - 2/2 + 2*0.25/0.25*9 = 18 - 1 + 18
    assert gaussian_bound_value(constants, 3.0) == pytest.approx(35.0)


class _StubEncoder:
    """A Normal-proposal model whose encodings of (x, y) are given per label
    row: ``table`` maps ``y.tobytes()`` to the rows' (means, scales)."""

    def __init__(self, m, table):
        self.cfg = types.SimpleNamespace(proposal="normal", m=m, nu=4.0, lambda_floor=1e-3)
        self.table = table

    def encode_xy(self, X, Y):
        return self.table[np.asarray(Y, dtype=np.float64).tobytes()]


@st.composite
def _stub_encodings(draw):
    """A stub encoder and label pairs at Hamming distances 1..k, with
    arbitrary finite means and positive scales."""
    m, k, n = draw(st.integers(1, 4)), draw(st.integers(1, 5)), draw(st.integers(1, 6))
    Y0 = np.array(draw(st.lists(st.lists(st.sampled_from([0.0, 1.0]), min_size=k,
                                         max_size=k), min_size=n, max_size=n)))
    Y1 = Y0.copy()
    for row in Y1:
        flip = draw(st.lists(st.integers(0, k - 1), min_size=1, max_size=k, unique=True))
        row[flip] = 1.0 - row[flip]
    means = st.floats(-1e6, 1e6)
    scales = st.floats(1e-3, 1e3)

    def encodings():
        return tuple(np.array(draw(st.lists(st.lists(values, min_size=m, max_size=m),
                                            min_size=n, max_size=n)))
                     for values in (means, scales))

    return _StubEncoder(m, {Y0.tobytes(): encodings(), Y1.tobytes(): encodings()}), Y0, Y1


@settings(max_examples=200, deadline=None)
@given(case=_stub_encodings())
def test_normal_bound_exceeds_every_kl_by_m_over_2_on_its_own_sample(case):
    # M, L and lam come from the same pairs the row checks, so each KL is at
    # most (m M delta + L^2 delta^2 / lam) / 2, and M delta >= 1 leaves at
    # least m/2 below the bound: the row holds for any finite encoder.
    model, Y0, Y1 = case
    X = np.zeros((len(Y0), 1))
    with warnings.catch_warnings():  # equal means: L falls back to machine epsilon
        warnings.simplefilter("ignore", RuntimeWarning)
        raw = estimate_constants(model, X, (Y0, Y1))
    half_m = model.cfg.m / 2
    for constants in (raw, raw.inflated()):
        for row in gaussian_bound_check(model, X, (Y0, Y1), constants):
            assert row.margin >= half_m - 1e-9 * max(abs(row.bound), half_m), row


def test_kl_growth_exponent_is_at_most_quadratic():
    model = tiny_model(8, proposal="normal", k=6)
    rng = np.random.default_rng(50_000)
    rows = []
    for delta in (1, 2, 3):
        X = rng.standard_normal((60, model.cfg.d))
        pairs = random_label_pairs(6, 60, rng, delta=delta)
        constants = estimate_constants(model, X, pairs)
        rows.extend(gaussian_bound_check(model, X, pairs, constants))
    assert fit_delta_exponent(rows) <= 2.3


def test_fit_delta_exponent_recovers_exact_powers():
    rows = [BoundCheckRow(delta=d, kl=0.7 * d**2, se=0.0, bound=0.0)
            for d in (1.0, 2.0, 4.0)]
    assert fit_delta_exponent(rows) == pytest.approx(2.0, abs=1e-12)
    with pytest.raises(ValueError, match="distinct"):
        fit_delta_exponent(rows[:1])
    zero = [BoundCheckRow(delta=1.0, kl=0.0, se=0.0, bound=0.0),
            BoundCheckRow(delta=2.0, kl=0.1, se=0.0, bound=0.0)]
    with pytest.raises(ValueError, match="positive"):
        fit_delta_exponent(zero)


# ---------------------------------------------------------------------------
# amortization of the Bernoulli KL


def test_amortization_total_is_constant_in_label_count():
    totals = [amortization_demo(k) for k in (2, 20, 80, 320)]
    assert totals[0] == totals[1] == totals[2] == totals[3]  # matched labels add exact zeros
    expected = 2.0 * (0.9 * math.log(0.9 / 0.5) + 0.1 * math.log(0.1 / 0.5))
    assert totals[0] == pytest.approx(expected, abs=1e-12)


def test_amortization_edge_cases():
    for k in (0, 1):
        with pytest.raises(ValueError, match=f"at least the 2 disagreeing labels, got {k}"):
            amortization_demo(k)


# ---------------------------------------------------------------------------
# helpers and reporting


def test_random_label_pairs_have_requested_distance():
    rng = np.random.default_rng(9)
    Y0, Y1 = random_label_pairs(8, 50, rng, delta=3)
    np.testing.assert_array_equal(hamming(Y0, Y1), 3.0)
    Y0, Y1 = random_label_pairs(8, 200, rng)
    d = hamming(Y0, Y1)
    assert np.all((d >= 1) & (d <= 8))


def theory_table():
    return Report(("name", "instances", "passes", "worst_margin"),
                  ("check", "instances", "passes", "worst margin"), ("", "", "", ".6g"))


def test_theory_report_rendering():
    report = theory_table()
    report.add("posterior-kl", 50, 50, 0.123456)
    report.add("affine-bound", 200, 200, 1.5)
    report.notes.append("entropy negative on 3 instances")
    csv = report.to_csv()
    assert csv.splitlines()[0] == "name,instances,passes,worst_margin"
    assert "posterior-kl,50,50,0.123456" in csv
    assert report.to_text() == (
        "check         instances  passes  worst margin\n"
        "posterior-kl  50         50      0.123456    \n"
        "affine-bound  200        200     1.5         \n"
        "note: entropy negative on 3 instances\n"
    )


def test_lookup_finds_a_theory_row_by_its_leading_values():
    report = theory_table()
    report.add("posterior-kl", 50, 49, 0.123456)
    report.add("affine-bound", 200, 200, 1.5)
    assert report.lookup("affine-bound") == (200, 200, 1.5)
    assert report.lookup("posterior-kl", 50) == (49, 0.123456)
    with pytest.raises(KeyError):
        report.lookup("affine-bound", 199)
