"""Correction chain: exactness on a constant decoder, Monte-Carlo error decay,
agreement with 2-D quadrature at m=1, thresholding, and the KNN baseline
against an exhaustive scan."""

import hashlib
import inspect
import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal
from scipy.special import expit

from lsnpc import rngs
from lsnpc.autodiff import Tensor
from lsnpc.baseclf import BaseTrainConfig, predict_probs, sample_predictions, train_base
from lsnpc import correction
from lsnpc.correction import (
    _KNN_BLOCK,
    _sq_distances,
    CorrectionConfig,
    CorrectionResult,
    binarize,
    correct,
    knn_correct,
    load_correction,
    save_correction,
)
from lsnpc.distributions import EPS_P, rsample_diag_normal
from lsnpc.model import LsnpcModel, ModelConfig, chain

TINY = dict(d=3, k=4, m=2, embed_hidden=5, embed_dim=6, encoder_hidden=(7,),
            decoder_hidden=(6,), shift_hidden=(4,), nu=3.0, nu0=4.0)


def tiny_setup(seed=0, perturb=0.3, n=12, **overrides):
    cfg = ModelConfig(**{**TINY, **overrides})
    model = LsnpcModel(cfg, seed=seed)
    rng = np.random.default_rng(seed + 500)
    if perturb:
        for p in model.params.values():
            p.data = p.data + perturb * rng.standard_normal(p.data.shape)
    X = rng.standard_normal((n, cfg.d))
    Y = (rng.random((n, cfg.k)) < 0.5).astype(np.uint8)
    h = train_base(X, Y, BaseTrainConfig(epochs=2, hidden=(8,), seed=seed))
    return model, h, X


# ---------------------------------------------------------------------------
# configuration


def test_config_validation():
    with pytest.raises(ValueError, match="sample counts"):
        CorrectionConfig(s_y=0)
    with pytest.raises(ValueError, match="threshold"):
        CorrectionConfig(tau=1.0)
    with pytest.raises(ValueError, match="threshold"):
        CorrectionConfig(tau=0.0)
    assert CorrectionConfig(s_y=8, s_zhat=4, s_z=1).n_chains == 32


def test_correct_signature_takes_no_labels():
    names = list(inspect.signature(correct).parameters)
    assert names == ["model", "h", "X", "cfg"]


# Digests of the exact float64 bytes of probs and se.  Any change to the
# floating-point operations of the correction chain, or to their order,
# changes them.
CORRECT_PINS = {
    "student": "7431dd172cb52820d74ae13e",
    "normal": "a843eab459c604e577d14f0a",
    "learned-nu": "7dadf1287b013177743da5e8",
}
PROPOSAL_CASES = {
    "student": {},
    "normal": {"proposal": "normal"},
    "learned-nu": {"nu_mode": "learned"},
}


def _correct_digest(case):
    model, h, X = tiny_setup(seed=3, **PROPOSAL_CASES[case])
    res = correct(model, h, X, CorrectionConfig(s_y=2, s_zhat=2, s_z=2, seed=4))
    digest = hashlib.sha256(res.probs.tobytes() + res.se.tobytes())
    return digest.hexdigest()[:24]


@pytest.mark.parametrize("case", sorted(CORRECT_PINS))
def test_correct_is_pinned(case):
    assert _correct_digest(case) == CORRECT_PINS[case]


# ---------------------------------------------------------------------------
# the corrected probability is an expectation of decoder outputs


def test_constant_decoder_recovers_its_bias_exactly():
    model, h, X = tiny_setup(seed=1)
    # zero the decoder head weight and pin its bias: every chain decodes to
    # sigmoid(bias) no matter which latents were sampled
    bias = np.array([2.0, -1.0, 0.5, 0.0])
    model.params["phi.W1"].data = np.zeros_like(model.params["phi.W1"].data)
    model.params["phi.b1"].data = bias.copy()
    result = correct(model, h, X, CorrectionConfig(s_y=2, s_zhat=2, s_z=2, seed=0))
    assert_allclose(result.probs, np.broadcast_to(expit(bias), result.probs.shape),
                    rtol=0, atol=1e-15)
    assert np.all(result.se < 1e-15)  # identical chains; only summation dust remains
    assert_array_equal(result.labels, np.broadcast_to(expit(bias) > 0.5, result.probs.shape))


def test_probs_stay_inside_the_clamp_interval():
    model, h, X = tiny_setup(seed=2, perturb=2.0)
    result = correct(model, h, X, CorrectionConfig(s_y=4, s_zhat=2, s_z=1, seed=3))
    assert np.all(result.probs >= EPS_P)
    assert np.all(result.probs <= 1.0 - EPS_P)
    assert np.all(np.isfinite(result.se))


def test_correction_is_seed_deterministic():
    model, h, X = tiny_setup(seed=3)
    cfg = CorrectionConfig(s_y=3, s_zhat=2, s_z=2, seed=11)
    a = correct(model, h, X, cfg)
    b = correct(model, h, X, cfg)
    assert_array_equal(a.probs, b.probs)
    assert_array_equal(a.labels, b.labels)
    c = correct(model, h, X, CorrectionConfig(s_y=3, s_zhat=2, s_z=2, seed=12))
    assert not np.array_equal(a.probs, c.probs)


def test_feature_width_mismatch_is_rejected():
    model, h, X = tiny_setup()
    with pytest.raises(ValueError, match="features"):
        correct(model, h, np.zeros((4, 9)), CorrectionConfig())


def test_one_dimensional_features_are_rejected_with_their_shape():
    model, h, _ = tiny_setup()
    with pytest.raises(ValueError, match=r"features, got shape \(3,\)"):
        correct(model, h, np.zeros(3), CorrectionConfig())


# ---------------------------------------------------------------------------
# correct() runs the maps untaped, with the taped values


def _taped_chains(model, h, X, cfg):
    """The decoder output of every chain of ``correct`` with each map on the
    tape: the chain loop with the features lifted to a Tensor."""
    xt = Tensor(X)
    P = np.clip(expit(h.net(Tensor(X)).data), EPS_P, 1.0 - EPS_P)
    yhat_all = sample_predictions(P, cfg.s_y, rngs.stream(cfg.seed, "correct", "yhat"))
    noise_rng = rngs.stream(cfg.seed, "correct", "noise")
    n, m = X.shape[0], model.cfg.m
    chains = []
    with np.errstate(all="ignore"):
        for s in range(cfg.s_y):
            mu_t, sig_t, nu = model.proposal(xt, yhat_all[s])
            eps_zhat = noise_rng.standard_normal((cfg.s_zhat, n, m))
            eps_z = noise_rng.standard_normal((cfg.s_zhat, cfg.s_z, n, m))
            chi2_u = (None,) * cfg.s_zhat
            if model.cfg.proposal == "student":
                chi2_u = noise_rng.random((cfg.s_zhat, n, 1))
            for t in range(cfg.s_zhat):
                _, mu_k, sig_k = chain(model, mu_t, sig_t, nu, eps_zhat[t], chi2_u[t])
                for u in range(cfg.s_z):
                    z = rsample_diag_normal(mu_k, sig_k, eps_z[t, u])
                    chains.append(model.decode_labels(xt, z).data)
    return np.stack(chains)


def _assert_correct_matches_taped_chains(model, h, X, cfg):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        result = correct(model, h, X, cfg)
    stacked = _taped_chains(model, h, X, cfg)
    assert result.probs.tobytes() == stacked.mean(axis=0).tobytes()
    se = stacked.std(axis=0, ddof=1) / np.sqrt(len(stacked))
    assert result.se.tobytes() == se.tobytes()
    return result


@pytest.mark.parametrize("case", sorted(PROPOSAL_CASES))
def test_correct_equals_the_taped_chains_bit_for_bit(case):
    model, h, X = tiny_setup(seed=9, n=7, **PROPOSAL_CASES[case])
    _assert_correct_matches_taped_chains(model, h, X, CorrectionConfig(s_y=2, s_zhat=2, s_z=2))


@pytest.mark.parametrize("case", sorted(PROPOSAL_CASES))
def test_nan_feature_row_matches_the_taped_chains_without_warning(case):
    model, h, X = tiny_setup(seed=9, n=7, **PROPOSAL_CASES[case])
    X[2, 0] = np.nan
    result = _assert_correct_matches_taped_chains(model, h, X, CorrectionConfig(s_y=2, s_zhat=2))
    assert np.all(np.isnan(result.probs[2]))
    assert np.all(np.isfinite(np.delete(result.probs, 2, axis=0)))


OVERFLOWS = {
    # the gain overflows the normalized values to +-inf, and GELU(-inf) is NaN
    "layer-norm-gain": {"emb.ln0.g": 1e308},
    # q(z | zhat) at +inf location and scale: the draw of z adds +inf and -inf
    "infinite-posterior": {"kappa.mu.b0": np.inf, "kappa.sigma.b0": np.inf},
}


@pytest.mark.parametrize("overflow", sorted(OVERFLOWS))
@pytest.mark.parametrize("case", sorted(PROPOSAL_CASES))
def test_overflow_matches_the_taped_chains_without_warning(case, overflow):
    model, h, X = tiny_setup(seed=9, n=7, **PROPOSAL_CASES[case])
    for name, value in OVERFLOWS[overflow].items():
        model.params[name].data[:] = value
    result = _assert_correct_matches_taped_chains(model, h, X, CorrectionConfig(s_y=2, s_zhat=2))
    assert not np.all(np.isfinite(result.probs))


def test_correct_builds_no_tensor(monkeypatch):
    model, h, X = tiny_setup(seed=4, nu_mode="learned")
    built = []
    init = Tensor.__init__

    def counting(self, *args, **kwargs):
        built.append(1)
        init(self, *args, **kwargs)

    monkeypatch.setattr(Tensor, "__init__", counting)
    correct(model, h, X, CorrectionConfig(s_y=2, s_zhat=2, s_z=2))
    assert built == []
    Tensor(np.zeros(1))
    assert built == [1]


def test_correct_decodes_once_per_chain(monkeypatch):
    model, h, X = tiny_setup(seed=4)
    calls = []
    decode = LsnpcModel.decode_labels

    def counting(self, x, z):
        calls.append(len(x))
        return decode(self, x, z)

    monkeypatch.setattr(LsnpcModel, "decode_labels", counting)
    cfg = CorrectionConfig(s_y=3, s_zhat=2, s_z=2)
    correct(model, h, X, cfg)
    assert calls == [len(X)] * cfg.n_chains


def test_mc_error_decays_like_inverse_root_chains():
    # grow s_y so every chain draws its own label vector: chains are i.i.d.
    # and the repeated-run spread of the mean must follow S^(-1/2)
    model, h, X = tiny_setup(seed=4, n=6)
    sizes = [16, 64, 256, 1024]
    spreads = []
    for s_y in sizes:
        runs = np.stack([
            correct(model, h, X, CorrectionConfig(s_y=s_y, s_zhat=1, s_z=1, seed=r)).probs
            for r in range(8)
        ])
        spreads.append(runs.std(axis=0, ddof=1).mean())
    slope = np.polyfit(np.log(sizes), np.log(spreads), 1)[0]
    assert abs(slope + 0.5) < 0.1, f"MC error decays with slope {slope}"


def test_correction_matches_two_dimensional_quadrature():
    # m = 1 makes both latents scalar: the chain expectation is a weighted sum
    # over the four possible sampled label vectors of a double integral
    cfg = ModelConfig(d=2, k=2, m=1, nu=4.0, nu0=4.0, embed_hidden=4, embed_dim=3,
                      encoder_hidden=(5,), decoder_hidden=(4,), shift_hidden=(3,))
    model = LsnpcModel(cfg, seed=6)
    rng = np.random.default_rng(7)
    for p in model.params.values():
        p.data = p.data + 0.3 * rng.standard_normal(p.data.shape)
    X = rng.standard_normal((1, 2))
    Y = np.array([[1, 0]], dtype=np.uint8)
    h = train_base(np.repeat(X, 8, 0), np.repeat(Y, 8, 0),
                   BaseTrainConfig(epochs=5, hidden=(6,), seed=6))
    P = predict_probs(h, X)[0]

    grid = np.linspace(-12.0, 12.0, 801)
    cols = grid[:, None]
    mu_k, sig_k = model.encode_zhat_to_z(cols)
    probs_z = model.decode_labels(np.repeat(X, grid.size, 0), cols)  # (G, k)
    # E[p_j(z) | zhat] for every zhat grid point, by quadrature over z
    qz = np.exp(-0.5 * np.square((grid[None, :] - mu_k) / sig_k)) / (
        np.sqrt(2.0 * np.pi) * sig_k
    )  # (G_zhat, G_z)
    inner = np.trapezoid(qz[:, :, None] * probs_z[None, :, :], grid, axis=1)

    from scipy.stats import t as student_t
    expected = np.zeros(2)
    for yh0 in (0, 1):
        for yh1 in (0, 1):
            yhat = np.array([[yh0, yh1]], dtype=float)
            w = (P[0] if yh0 else 1 - P[0]) * (P[1] if yh1 else 1 - P[1])
            mu_t, sig_t = model.encode_xy(X, yhat)
            q_zhat = student_t.pdf(grid, cfg.nu, loc=mu_t[0, 0], scale=sig_t[0, 0])
            expected += w * np.trapezoid(q_zhat[:, None] * inner, grid, axis=0)

    result = correct(model, h, X, CorrectionConfig(s_y=25, s_zhat=20, s_z=20, seed=8))
    assert result.probs.shape == (1, 2)
    assert np.max(np.abs(result.probs[0] - expected)) <= 0.01


# ---------------------------------------------------------------------------
# thresholding


def test_binarize_is_strict_at_the_threshold():
    probs = np.array([[0.5, 0.5 + 1e-12, 0.49, 0.51]])
    assert_array_equal(binarize(probs, 0.5), [[0, 1, 0, 1]])


def test_binarize_limits_and_idempotence():
    rng = np.random.default_rng(9)
    probs = np.clip(rng.random((20, 5)), 1e-6, 1 - 1e-6)
    assert_array_equal(binarize(probs, 1e-9), 1)
    assert_array_equal(binarize(probs, 1 - 1e-9), 0)
    once = binarize(probs, 0.5)
    assert_array_equal(binarize(once, 0.5), once)
    with pytest.raises(ValueError, match="threshold"):
        binarize(probs, 0.0)


# ---------------------------------------------------------------------------
# KNN baseline


def test_knn_identity_query_returns_its_own_labels():
    rng = np.random.default_rng(10)
    T = rng.standard_normal((30, 4))
    L = (rng.random((30, 6)) < 0.5).astype(np.uint8)
    out = knn_correct(T, L, T[7:8], K=1)
    assert_array_equal(out[0], L[7])


def test_knn_matches_exhaustive_scan():
    rng = np.random.default_rng(11)
    T = rng.standard_normal((120, 5))
    L = (rng.random((120, 7)) < 0.4).astype(np.uint8)
    # the second count spans more than one distance block, and not a whole
    # number of blocks
    for n_query in (500, 2 * _KNN_BLOCK + 37):
        Q = rng.standard_normal((n_query, 5))
        for K in (1, 5, 8):
            got = knn_correct(T, L, Q, K=K)
            want = np.zeros_like(got)
            for i, q in enumerate(Q):
                order = np.argsort(np.sum(np.square(T - q), axis=1))[:K]
                votes = L[order].sum(axis=0)
                want[i] = (2 * votes >= K).astype(np.uint8)
            assert_array_equal(got, want), f"K={K}"


def _knn_by_expression(T, L, Q, K, block):
    """knn_correct with each block's distances built as one expression."""
    t2 = np.sum(np.square(T), axis=1)
    out = np.empty((len(Q), L.shape[1]), dtype=np.uint8)
    for start in range(0, len(Q), block):
        q = Q[start : start + block]
        d2 = np.sum(np.square(q), axis=1, keepdims=True) - 2.0 * q @ T.T + t2
        votes = L[np.argpartition(d2, K - 1, axis=1)[:, :K]].sum(axis=1)
        out[start : start + block] = 2 * votes >= K
    return out


def test_block_distances_equal_the_expression_bit_for_bit():
    rng = np.random.default_rng(12)
    T = 3.7 * rng.standard_normal((900, 32)) + 0.3
    t2 = np.sum(np.square(T), axis=1)
    for rows in (1, 16, 100, 256):
        q = 2.1 * rng.standard_normal((rows, 32)) - 0.5
        want = np.sum(np.square(q), axis=1, keepdims=True) - 2.0 * q @ T.T + t2
        buf = np.full((256, 900), np.nan)
        got = _sq_distances(q, T, t2, buf[:rows])
        assert np.shares_memory(got, buf)
        assert np.array_equal(got, want)


@pytest.mark.parametrize("block", [16, 64, 256])
def test_knn_labels_do_not_depend_on_the_block_buffer(monkeypatch, block):
    rng = np.random.default_rng(13)
    T = rng.standard_normal((700, 6))
    L = (rng.random((700, 5)) < 0.3).astype(np.uint8)
    Q = rng.standard_normal((block * 3 + 5, 6))
    monkeypatch.setattr(correction, "_KNN_BLOCK", block)
    assert_array_equal(knn_correct(T, L, Q, K=5), _knn_by_expression(T, L, Q, 5, block))


def test_knn_even_split_votes_positive():
    T = np.array([[0.0], [1.0]])
    L = np.array([[0], [1]], dtype=np.uint8)
    assert knn_correct(T, L, np.array([[0.4]]), K=2)[0, 0] == 1


def test_knn_default_neighborhood_is_five():
    assert inspect.signature(knn_correct).parameters["K"].default == 5


def test_knn_validation():
    T = np.zeros((4, 2))
    L = np.zeros((4, 3), dtype=np.uint8)
    with pytest.raises(ValueError, match="K="):
        knn_correct(T, L, np.zeros((1, 2)), K=5)
    with pytest.raises(ValueError, match="K must"):
        knn_correct(T, L, np.zeros((1, 2)), K=0)
    with pytest.raises(ValueError, match="dimensions"):
        knn_correct(T, L, np.zeros((1, 3)), K=2)


def test_knn_rejects_one_dimensional_queries_with_their_shape():
    with pytest.raises(ValueError, match=r"query features \(2,\)"):
        knn_correct(np.zeros((4, 2)), np.zeros((4, 3)), np.zeros(2), K=2)


@pytest.mark.parametrize("label_rows", [3, 5], ids=["fewer", "more"])
def test_knn_rejects_labels_misaligned_with_training_rows(label_rows):
    with pytest.raises(ValueError, match=rf"noisy labels \({label_rows}, 3\).*\(4, 2\)"):
        knn_correct(np.zeros((4, 2)), np.zeros((label_rows, 3)), np.zeros((1, 2)), K=2)


# ---------------------------------------------------------------------------
# persistence


def test_correction_round_trip(tmp_path):
    rng = np.random.default_rng(13)
    probs = np.clip(rng.random((9, 4)), 1e-6, 1 - 1e-6)
    result = CorrectionResult(probs=probs, labels=binarize(probs, 0.5),
                              se=np.zeros_like(probs))
    path = tmp_path / "corr.csv"
    save_correction(result, path)
    loaded_probs, loaded_labels = load_correction(path)
    assert_array_equal(loaded_probs, probs)  # repr round-trips float64 exactly
    assert_array_equal(loaded_labels, result.labels)


def test_load_correction_rejects_odd_rows(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("0.25,0.5,1\n")
    with pytest.raises(ValueError, match="malformed"):
        load_correction(path)
