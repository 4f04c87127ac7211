"""Correction chain: exactness on a constant decoder, Monte-Carlo error decay,
agreement with 2-D quadrature at m=1, thresholding, and the KNN baseline
against an exhaustive scan."""

import inspect

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal
from scipy.special import expit

from lsnpc.baseclf import BaseTrainConfig, predict_probs, train_base
from lsnpc.correction import (
    _KNN_BLOCK,
    CorrectionConfig,
    CorrectionResult,
    binarize,
    correct,
    knn_correct,
    load_correction,
    save_correction,
)
from lsnpc.distributions import EPS_P
from lsnpc.model import LsnpcModel, ModelConfig

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
    mu_k, sig_k = (t.data for t in model.encode_zhat_to_z(cols))
    probs_z = model.decode_labels(np.repeat(X, grid.size, 0), cols).data  # (G, k)
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
            mu_t, sig_t = (t.data for t in model.encode_xy(X, yhat))
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
