"""Quadrature verification of the posterior-KL inequality, encoder-constant
estimation, both distance bounds, and the label-KL amortization demo."""

import math

import numpy as np
import pytest
from scipy.special import logsumexp
from scipy.stats import t as student_t

from lsnpc import rngs
from lsnpc.distributions import DiagNormalParams, kl_diag_normal, logpdf_diag_student
from lsnpc.model import LsnpcModel, ModelConfig
from lsnpc.theory import (
    Theorem1Result,
    _kl_sum,
    _logsumexp,
    _shift_logpdf,
    BoundCheckRow,
    BoundConstants,
    GridError,
    QuadratureGrid,
    TheoryReport,
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
    psi = model.decode_shift(col).data[:, 0]
    log_shift = student_t.logpdf(g[None, :] - psi[:, None], model.cfg.nu0)
    log_pz = -0.5 * np.square(g) - 0.5 * math.log(2 * math.pi)
    probs = model.decode_labels(np.tile(x.reshape(1, -1), (len(g), 1)), col).data
    yh = yhat.reshape(1, -1)
    log_rec = np.sum(yh * np.log(probs) + (1 - yh) * np.log(1 - probs), axis=-1)
    joint = log_pz[:, None] + log_shift + log_rec[None, :]
    log_evidence = logsumexp(joint) + 2.0 * math.log(dz)
    log_post_z = logsumexp(joint, axis=1) + math.log(dz) - log_evidence

    result = verify_theorem1(model, x, yhat, grid=grid, qz_log_override=log_post_z)
    assert abs(result.lhs) < 1e-12
    assert result.holds


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


def _lse_cases():
    rng = np.random.default_rng(40)
    random = rng.standard_normal((7, 9)) * 30.0
    tied = np.round(rng.standard_normal((7, 9)))
    tied[:, :3] = tied.max()
    special = rng.standard_normal((5, 6))
    special[1, 2] = np.inf
    special[2, :] = -np.inf
    special[3, 4] = np.nan
    special[4, 1:] = -np.inf
    return {"random": random, "tied": tied, "special": special,
            "all_neg_inf": np.full((3, 4), -np.inf), "nan": np.full((2, 3), np.nan)}


@pytest.mark.parametrize("case", sorted(_lse_cases()))
@pytest.mark.parametrize("axis", [None, 1])
def test_logsumexp_equals_scipy_bit_for_bit(case, axis):
    a = _lse_cases()[case]
    with np.errstate(all="ignore"):
        want = logsumexp(a, axis=axis)
    got = _logsumexp(a, axis=axis)
    assert np.shape(got) == np.shape(want)
    assert np.array_equal(got, want, equal_nan=True)


@pytest.mark.parametrize("nu0", [2.01, 4.0, 30.0])
def test_shift_table_equals_student_logpdf_bit_for_bit(nu0):
    g = QuadratureGrid(lo=-4.0, hi=4.0, step=0.01).values
    psi = np.sin(3.0 * g) * 1.7
    t = g[None, :] - psi[:, None]
    want = logpdf_diag_student(t[:, :, None], 0.0, 1.0, nu0)
    assert np.array_equal(_shift_logpdf(t.copy(), nu0), want)


@pytest.mark.parametrize("axis", [None, 0])
def test_kl_sum_equals_masked_where_sum(axis):
    rng = np.random.default_rng(41)
    lq = rng.standard_normal((6, 5)) * 3.0
    lq[1, :2] = -800.0  # exp underflows to 0
    lq[2, 3] = -np.inf
    lp = rng.standard_normal((6, 5))
    q = np.exp(lq)
    with np.errstate(invalid="ignore"):
        want = np.sum(np.where(q > 0, q * (lq - lp), 0.0), axis=axis)
        got = _kl_sum(lq.copy(), lp, diff_out=np.empty_like(lq), q_out=np.empty_like(lq),
                      axis=axis)
    assert np.array_equal(got, want)


# Instance 0 of verify_all's expected-vs-joint-kl check, computed with
# scipy.special.logsumexp and out-of-place grid tables; the quadrature must
# reproduce these values bit for bit.
PINNED_THEOREM1 = {
    "student": Theorem1Result(
        lhs=0.7199099806827963, rhs=1.7874585491006858,
        proposal_entropy=1.0659046603728801, entropy_nonneg=True, holds=True,
        evidence=0.24997775085294885, proposal_mass=0.9999916327476518,
        generative_mass=0.9999110034117963,
    ),
    "normal": Theorem1Result(
        lhs=0.6892846586225159, rhs=1.9691181811442402,
        proposal_entropy=0.8030831766988865, entropy_nonneg=True, holds=True,
        evidence=0.24997775085294885, proposal_mass=1.0000000000000007,
        generative_mass=0.9999110034117963,
    ),
}


@pytest.mark.parametrize("proposal", sorted(PINNED_THEOREM1))
def test_theorem1_result_is_pinned(proposal):
    model = tiny_model(seed=0, proposal=proposal)
    rng = rngs.stream(0, "theory", "inputs")
    x = rng.standard_normal(model.cfg.d)
    yhat = (rng.random(model.cfg.k) < 0.5).astype(np.float64)
    assert verify_theorem1(model, x, yhat) == PINNED_THEOREM1[proposal]


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
    assert constants.n_pairs == X.shape[0]
    assert constants.n_regular == X.shape[0]
    assert not constants.l_degenerate


def test_non_finite_pair_is_not_counted_regular():
    model, X, pairs = _perturbed_pairs(1)
    X = X.copy()
    X[4] = np.nan
    constants = estimate_constants(model, X, pairs)
    assert constants.n_pairs == X.shape[0]
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
    assert constants.l_degenerate
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
    with pytest.raises(ValueError, match="norm"):
        pairs = random_label_pairs(4, 5, rng)
        estimate_constants(model, X, pairs, norm="l3")


def test_inflation_moves_every_constant_the_safe_way():
    constants = BoundConstants(M=2.0, L=0.5, lam=0.04, nu=4.0, m=1)
    up = constants.inflated(1.5)
    assert up.M == 3.0 and up.L == 0.75 and up.lam == pytest.approx(0.04 / 1.5)
    # inflating constants can only raise the bound
    assert theorem2_bound(1, 4.0, up, 2.0) >= theorem2_bound(1, 4.0, constants, 2.0)


# ---------------------------------------------------------------------------
# the affine Student bound


def test_bound_is_affine_with_slope_c2():
    constants = BoundConstants(M=1.5, L=0.4, lam=0.09, nu=4.0, m=3)
    b1 = theorem2_bound(3, 4.0, constants, 1.0)
    b2 = theorem2_bound(3, 4.0, constants, 2.0)
    b5 = theorem2_bound(3, 4.0, constants, 5.0)
    assert b2 - b1 == pytest.approx(constants.C2, rel=1e-12)
    assert (b5 - b1) / 4.0 == pytest.approx(constants.C2, rel=1e-12)
    assert b1 - constants.C2 == pytest.approx(constants.C1, rel=1e-12)
    assert constants.C2 > 0.0


def test_bound_validation():
    constants = BoundConstants(M=1.0, L=1.0, lam=1.0, nu=4.0, m=1)
    with pytest.raises(ValueError, match="nu > 2"):
        theorem2_bound(1, 2.0, constants, 1.0)
    with pytest.raises(ValueError, match="distance"):
        theorem2_bound(1, 4.0, constants, 0.5)


def test_affine_bound_dominates_mc_kl_on_tiny_instances():
    model, X, pairs = _perturbed_pairs(4, n=20)
    constants = estimate_constants(model, X, pairs).inflated(1.5)
    rows = theorem2_check(model, X, pairs, constants, n_mc=20_000, seed=0)
    assert len(rows) == 20
    for row in rows:
        assert row.se > 0.0
        assert row.dominated, f"KL {row.kl:.4f} exceeds bound {row.bound:.4f}"
        assert row.margin == pytest.approx(row.bound - row.kl)


def test_affine_check_rejects_normal_models():
    model = tiny_model(0, proposal="normal")
    constants = BoundConstants(M=1.0, L=1.0, lam=1.0, nu=4.0, m=1)
    with pytest.raises(ValueError, match="Student"):
        theorem2_check(model, np.zeros((1, 3)), (np.ones((1, 2)), np.zeros((1, 2))),
                       constants)


# ---------------------------------------------------------------------------
# the quadratic Normal bound


def test_identical_labels_give_zero_normal_kl():
    model = tiny_model(6, proposal="normal", k=4)
    x = np.random.default_rng(7).standard_normal((1, 3))
    y = np.array([[1.0, 0.0, 1.0, 0.0]])
    mu, sig = (t.data for t in model.encode_xy(x, y))
    p = DiagNormalParams(mu[0], sig[0])
    assert kl_diag_normal(p, p) == 0.0


def test_quadratic_bound_dominates_closed_form_kl():
    model = tiny_model(8, proposal="normal", k=6)
    rng = np.random.default_rng(40_000)
    X = rng.standard_normal((200, model.cfg.d))
    pairs = random_label_pairs(6, 200, rng)
    constants = estimate_constants(model, X, pairs).inflated(1.5)
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
    assert gaussian_bound_value(2, constants, 3.0) == pytest.approx(35.0)


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
    totals = []
    for k in (20, 80, 320):
        total, per_label = amortization_demo(k, 0.01, 0.9, 0.5, n_pos=2)
        totals.append(total)
        assert per_label == pytest.approx(total / 2.0)
    assert totals[0] == totals[1] == totals[2]  # matched labels add exact zeros
    expected = 2.0 * (0.9 * math.log(0.9 / 0.5) + 0.1 * math.log(0.1 / 0.5))
    assert totals[0] == pytest.approx(expected, abs=1e-12)


def test_amortization_edge_cases():
    assert amortization_demo(10, 0.01, 0.9, 0.5, n_pos=0) == (0.0, 0.0)
    with pytest.raises(ValueError, match="at least"):
        amortization_demo(1, 0.01, 0.9, 0.5, n_pos=2)
    # the per-dimension divergence dilutes as k grows while the total holds
    total_small, _ = amortization_demo(20, 0.01, 0.9, 0.5, n_pos=2)
    assert total_small / 320.0 < total_small / 20.0


# ---------------------------------------------------------------------------
# helpers and reporting


def test_random_label_pairs_have_requested_distance():
    rng = np.random.default_rng(9)
    Y0, Y1 = random_label_pairs(8, 50, rng, delta=3)
    np.testing.assert_array_equal(hamming(Y0, Y1), 3.0)
    Y0, Y1 = random_label_pairs(8, 200, rng)
    d = hamming(Y0, Y1)
    assert np.all((d >= 1) & (d <= 8))


def test_theory_report_rendering():
    report = TheoryReport()
    report.add("posterior-kl", 50, 50, 0.123456)
    report.add("affine-bound", 200, 200, 1.5)
    report.notes.append("entropy negative on 3 instances")
    csv = report.to_csv()
    assert csv.splitlines()[0] == "name,instances,passes,worst_margin"
    assert "posterior-kl,50,50,0.123456" in csv
    text = report.to_text()
    assert "note: entropy negative" in text
    assert "affine-bound" in text
