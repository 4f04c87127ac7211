"""Latent-shift model: forward maps, both losses against straight-line numpy
oracles with injected noise, the eta-mixture branch accounting, the trainer's
two-sweep update order, and the Gaussian-ablation limit."""

import dataclasses
import hashlib
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose, assert_array_equal
from scipy.special import erf, expit, gammaincinv

from lsnpc import rngs
from lsnpc.autodiff import ComputeGraph, Tensor
from lsnpc.baseclf import BaseTrainConfig, predict_probs, sample_predictions, train_base
from lsnpc.checkpoint import restore, snapshot
from lsnpc.correction import CorrectionConfig, correct
from lsnpc.evaluation import micro_f1
from lsnpc.layers import cosine_lr
from lsnpc.model import (
    LsnpcModel,
    LsnpcTrainConfig,
    ModelConfig,
    NonFiniteLoss,
    learned_nu,
    load_model,
    save_model,
    supervised_loss,
    train_semi_supervised,
    unsupervised_loss,
)

TINY = dict(d=3, k=4, m=2, embed_hidden=5, embed_dim=6, encoder_hidden=(7,),
            decoder_hidden=(6,), shift_hidden=(4,), nu=3.0, nu0=4.0)


def tiny_model(seed=0, perturb=0.3, **overrides):
    cfg = ModelConfig(**{**TINY, **overrides})
    model = LsnpcModel(cfg, seed=seed)
    if perturb:
        # zero-initialized heads make a fresh model degenerate; jitter every
        # parameter so forward values exercise the full computation
        rng = np.random.default_rng(seed + 1000)
        for p in model.params.values():
            p.data = p.data + perturb * rng.standard_normal(p.data.shape)
    return model


# ---------------------------------------------------------------------------
# straight-line numpy replicas (no autodiff, no lsnpc forward calls)

LN_2PI = np.log(2.0 * np.pi)


def np_gelu(a):
    return 0.5 * a * (1.0 + erf(a / np.sqrt(2.0)))


def np_mlp(arr, prefix, x, n_layers):
    h = np.asarray(x, dtype=np.float64)
    for i in range(n_layers):
        h = h @ arr[f"{prefix}.W{i}"] + arr[f"{prefix}.b{i}"]
        if i < n_layers - 1:
            c = h - h.mean(axis=-1, keepdims=True)
            v = np.square(c).mean(axis=-1, keepdims=True)
            h = c / np.sqrt(v + 1e-5) * arr[f"{prefix}.ln{i}.g"] + arr[f"{prefix}.ln{i}.b"]
            h = np_gelu(h)
    return h


def np_heads(arr, cfg, trunk_prefix, head_prefix, h_in):
    n_trunk = len(cfg.encoder_hidden)
    h = np_gelu(np_mlp(arr, trunk_prefix, h_in, n_trunk))
    mu = h @ arr[f"{head_prefix}.mu.W0"] + arr[f"{head_prefix}.mu.b0"]
    raw = h @ arr[f"{head_prefix}.sigma.W0"] + arr[f"{head_prefix}.sigma.b0"]
    sigma = np.logaddexp(0.0, raw) + cfg.lambda_floor
    return mu, sigma


def np_encode_xy(arr, cfg, x, y):
    emb = np_mlp(arr, "emb", y, 4)
    return np_heads(arr, cfg, "theta.trunk", "theta", np.concatenate([x, emb], axis=-1))


def np_ln_normal(x, mu, sigma):
    z = (x - mu) / sigma
    return np.sum(-0.5 * np.square(z) - np.log(sigma) - 0.5 * LN_2PI, axis=-1)


def np_ln_student(x, mu, sigma, nu):
    from scipy.special import gammaln
    t2 = np.square((x - mu) / sigma)
    half = (nu + 1.0) / 2.0
    per = (gammaln(half) - gammaln(nu / 2.0) - 0.5 * np.log(nu)
           - 0.5 * np.log(np.pi) - np.log(sigma) - half * np.log1p(t2 / nu))
    return np.sum(per, axis=-1)


def np_unsup_elbo(arr, cfg, x, yhat, eps_zhat, eps_z, chi2_u):
    mu_t, sig_t = np_encode_xy(arr, cfg, x, yhat)
    chi2 = 2.0 * gammaincinv(cfg.nu / 2.0, np.clip(chi2_u, 1e-12, 1.0 - 1e-12))
    zhat = mu_t + sig_t * eps_zhat * np.sqrt(cfg.nu / chi2)
    lq_zhat = np_ln_student(zhat, mu_t, sig_t, cfg.nu)
    mu_k, sig_k = np_heads(arr, cfg, "kappa.trunk", "kappa", zhat)
    z = mu_k + sig_k * eps_z
    n_phi = len(cfg.decoder_hidden) + 1
    logits = np_mlp(arr, "phi", np.concatenate([x, zhat], axis=-1), n_phi)
    p = np.clip(expit(logits), 1e-6, 1.0 - 1e-6)
    rec = np.sum(yhat * np.log(p) + (1.0 - yhat) * np.log(1.0 - p), axis=-1)
    shift = np_mlp(arr, "psi", z, len(cfg.shift_hidden) + 1)
    lp_shift = np_ln_student(zhat, shift, np.ones(cfg.m), cfg.nu0)
    lp_z = np_ln_normal(z, 0.0, np.ones(cfg.m))
    lq_z = np_ln_normal(z, mu_k, sig_k)
    return rec + (lp_shift + lp_z - lq_zhat - lq_z) * cfg.beta, zhat, z


# ---------------------------------------------------------------------------
# configuration and construction


def test_config_rejects_bad_values():
    for bad in (
        dict(d=0), dict(k=0), dict(m=0),
        dict(proposal="cauchy"), dict(nu_mode="adaptive"),
        dict(nu0=2.0), dict(nu=2.0),
        dict(beta=-0.1), dict(eta=1.5), dict(eta=-0.1),
        dict(lambda_floor=0.0), dict(sigma_bias_init=float("nan")),
    ):
        with pytest.raises(ValueError):
            ModelConfig(**{**TINY, **bad})


def test_beta_zero_and_learned_low_nu_allowed():
    ModelConfig(**{**TINY, "beta": 0.0})
    # learned mode ignores the fixed-nu floor; the network guarantees nu > 2
    ModelConfig(**{**TINY, "nu": 1.5, "nu_mode": "learned"})


def test_fresh_model_is_at_symmetric_point():
    model = LsnpcModel(ModelConfig(**TINY), seed=3)
    x = np.random.default_rng(0).standard_normal((6, 3))
    y = np.zeros((6, 4))
    y[:, 0] = 1.0
    mu, sigma = model.encode_xy(x, y)
    assert_array_equal(mu, 0.0)
    expected = np.logaddexp(0.0, model.cfg.sigma_bias_init) + model.cfg.lambda_floor
    assert_allclose(sigma, expected, rtol=0, atol=1e-15)
    z = np.random.default_rng(1).standard_normal((6, 2))
    assert_array_equal(model.decode_labels(x, z), 0.5)
    assert_array_equal(model.decode_shift(z), 0.0)


def test_zero_scale_bias_gives_log_two_scale():
    model = LsnpcModel(ModelConfig(**{**TINY, "sigma_bias_init": 0.0}), seed=0)
    x = np.zeros((2, 3))
    _, sigma = model.encode_xy(x, np.zeros((2, 4)))
    assert_allclose(sigma, np.log(2.0) + 1e-3, rtol=0, atol=1e-15)


def test_scales_respect_floor_everywhere():
    model = tiny_model(seed=5, perturb=1.0)
    rng = np.random.default_rng(2)
    x = rng.standard_normal((10_000, 3)) * 5.0
    y = (rng.random((10_000, 4)) < 0.5).astype(float)
    _, sig_t = model.encode_xy(x, y)
    assert np.all(sig_t >= model.cfg.lambda_floor)
    _, sig_k = model.encode_zhat_to_z(rng.standard_normal((10_000, 2)) * 30.0)
    assert np.all(sig_k >= model.cfg.lambda_floor)


def test_shift_identity_passes_latents_through():
    model = LsnpcModel(ModelConfig(**{**TINY, "shift_hidden": (), "shift_identity": True}), seed=0)
    z = np.random.default_rng(3).standard_normal((9, 2)) * 10.0
    assert_array_equal(model.decode_shift(z), z)
    # requesting hidden layers alongside the identity map silently drops them
    cfg = ModelConfig(**{**TINY, "shift_identity": True})
    assert cfg.shift_hidden == ()


def test_decoder_finite_for_large_latents():
    model = tiny_model(seed=1, perturb=1.0)
    rng = np.random.default_rng(4)
    z = rng.standard_normal((200, 2))
    z *= 100.0 / np.linalg.norm(z, axis=1, keepdims=True)
    probs = model.decode_labels(rng.standard_normal((200, 3)), z)
    assert np.all(np.isfinite(probs))
    assert np.all((probs > 0.0) & (probs < 1.0))


def test_same_seed_builds_identical_parameters():
    a = snapshot(LsnpcModel(ModelConfig(**TINY), seed=11).params)
    b = snapshot(LsnpcModel(ModelConfig(**TINY), seed=11).params)
    assert set(a) == set(b)
    for name in a:
        assert_array_equal(a[name], b[name])


def test_input_dimension_mismatches_are_named():
    model = tiny_model()
    with pytest.raises(ValueError, match="labels"):
        model.embed_labels(np.zeros((2, 5)))
    with pytest.raises(ValueError, match="features"):
        model.encode_xy(np.zeros((2, 9)), np.zeros((2, 4)))
    with pytest.raises(ValueError, match="latent"):
        model.encode_zhat_to_z(np.zeros((2, 7)))


def test_load_arrays_validates_names_and_shapes():
    model = tiny_model()
    arrays = snapshot(model.params)
    extra = dict(arrays)
    extra["ghost"] = np.zeros(3)
    with pytest.raises(ValueError, match="names"):
        restore(model.params, extra)
    wrong = dict(arrays)
    wrong["phi.b1"] = np.zeros(99)
    with pytest.raises(ValueError, match="shape"):
        restore(model.params, wrong)


# ---------------------------------------------------------------------------
# untaped maps: arrays in, arrays out, the taped values bit for bit

MAP_CASES = {
    "student-fixed": {},
    "student-learned": {"nu_mode": "learned"},
    "normal-fixed": {"proposal": "normal"},
    "normal-learned": {"proposal": "normal", "nu_mode": "learned"},
}


def _map_calls(model, x, y, z):
    """Each forward map, given how to pass its first operand."""
    calls = {
        "embed_labels": lambda lift: model.embed_labels(lift(y)),
        "encode_xy": lambda lift: model.encode_xy(lift(x), y),
        "encode_zhat_to_z": lambda lift: model.encode_zhat_to_z(lift(z)),
        "decode_shift": lambda lift: model.decode_shift(lift(z)),
        "decode_labels": lambda lift: model.decode_labels(lift(x), z),
        "proposal": lambda lift: model.proposal(lift(x), y),
    }
    if model.nu_net is not None:
        calls["learned_nu"] = lambda lift: learned_nu(model, lift(x), y)
    return calls


@pytest.mark.parametrize("rows", [1, 7, 200])
@pytest.mark.parametrize("case", sorted(MAP_CASES))
def test_untaped_maps_equal_the_taped_values_bit_for_bit(case, rows):
    model = tiny_model(seed=40, **MAP_CASES[case])
    rng = np.random.default_rng(41 + rows)
    x = rng.standard_normal((rows, 3)) * 2.0
    y = (rng.random((rows, 4)) < 0.5).astype(float)
    z = rng.standard_normal((rows, 2)) * 2.0
    for name, call in _map_calls(model, x, y, z).items():
        taped, untaped = call(Tensor), call(np.asarray)
        if not isinstance(taped, tuple):
            taped, untaped = (taped,), (untaped,)
        for t, u in zip(taped, untaped):
            if isinstance(t, float):  # a fixed nu is the config's number either way
                assert u == t, name
                continue
            assert isinstance(t, Tensor) and type(u) is np.ndarray, name
            assert u.shape == t.shape and u.tobytes() == t.data.tobytes(), name


@pytest.mark.parametrize("case", sorted(MAP_CASES))
def test_untaped_maps_match_the_tape_on_non_finite_values_without_warning(case):
    model = tiny_model(seed=40, **MAP_CASES[case])
    # the gains overflow the normalized values to +-inf, and GELU(-inf) is NaN
    for name in ("emb.ln0.g", "phi.ln0.g"):
        model.params[name].data[:] = 1e308
    rng = np.random.default_rng(42)
    x = rng.standard_normal((7, 3))
    x[3, 1] = np.nan
    y = (rng.random((7, 4)) < 0.5).astype(float)
    z = rng.standard_normal((7, 2))
    for name, call in _map_calls(model, x, y, z).items():
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            untaped = call(np.asarray)
        taped = call(Tensor)
        if not isinstance(taped, tuple):
            taped, untaped = (taped,), (untaped,)
        for t, u in zip(taped, untaped):
            if not isinstance(t, float):
                assert u.tobytes() == t.data.tobytes(), name
    assert np.isnan(model.encode_xy(x, y)[0]).all() and np.isnan(model.decode_labels(x, z)).any()


# ---------------------------------------------------------------------------
# gradients through forward maps


def _grad_check_scalar(model, build, inputs, tol=1e-4):
    graph = ComputeGraph(build, model.params)
    graph.eval(inputs)
    from lsnpc.autodiff import grad_check
    worst = grad_check(graph, inputs, sample=40)
    assert worst < tol, f"worst relative gradient error {worst}"


def test_encoder_gradients_match_finite_differences():
    model = tiny_model(seed=2)
    x = np.random.default_rng(5).standard_normal((3, 3))
    y = np.array([[1, 0, 0, 1], [0, 1, 0, 0], [1, 1, 1, 0]], dtype=float)

    def build(bound):
        mu, sigma = model.encode_xy(Tensor(x), y)
        return (mu.square().mean() + sigma.mean()) * 0.5

    _grad_check_scalar(model, build, {})


def test_decoder_and_shift_gradients_match_finite_differences():
    model = tiny_model(seed=4)
    rng = np.random.default_rng(6)
    x = rng.standard_normal((3, 3))
    z = rng.standard_normal((3, 2))

    def build(bound):
        probs = model.decode_labels(Tensor(x), z)
        return probs.log().mean() + model.decode_shift(Tensor(z)).square().mean()

    _grad_check_scalar(model, build, {})


# ---------------------------------------------------------------------------
# unsupervised loss


def _frozen_batch(model, B=5, seed=12345):
    rng = np.random.default_rng(seed)
    cfg = model.cfg
    x = rng.standard_normal((B, cfg.d))
    yhat = (rng.random((B, cfg.k)) < 0.4).astype(float)
    noise = {
        "eps_zhat": rng.standard_normal((1, B, cfg.m)),
        "eps_z": rng.standard_normal((1, B, cfg.m)),
        "eps_za": rng.standard_normal((1, B, cfg.m)),
        "branch_u": rng.random((1, B, 1)),
        "chi2_u": rng.random((1, B, 1)),
    }
    return x, yhat, noise


def test_unsupervised_loss_matches_straight_line_oracle():
    model = tiny_model(seed=9)
    x, yhat, noise = _frozen_batch(model)
    loss = unsupervised_loss(model, x, yhat, noise=noise)
    elbo, _, _ = np_unsup_elbo(
        snapshot(model.params), model.cfg, x, yhat,
        noise["eps_zhat"][0], noise["eps_z"][0], noise["chi2_u"][0],
    )
    assert_allclose(loss.item(), -elbo.mean(), rtol=0, atol=1e-10)


def test_unsupervised_loss_averages_over_latent_samples():
    model = tiny_model(seed=9)
    x, yhat, _ = _frozen_batch(model)
    rng = np.random.default_rng(77)
    B, m = x.shape[0], model.cfg.m
    noise = {
        "eps_zhat": rng.standard_normal((3, B, m)),
        "eps_z": rng.standard_normal((3, B, m)),
        "chi2_u": rng.random((3, B, 1)),
    }
    loss = unsupervised_loss(model, x, yhat, s_z=3, noise=noise)
    singles = [
        unsupervised_loss(model, x, yhat, noise={k: v[s : s + 1] for k, v in noise.items()}).item()
        for s in range(3)
    ]
    assert_allclose(loss.item(), np.mean(singles), rtol=1e-12)


def test_beta_zero_leaves_reconstruction_only():
    model = tiny_model(seed=9, beta=0.0)
    x, yhat, noise = _frozen_batch(model)
    loss, detail = unsupervised_loss(model, x, yhat, noise=noise, collect=True)
    assert_allclose(loss.item(), -detail["terms"]["rec"].mean(), rtol=1e-12)


def test_unsupervised_loss_is_finite_on_random_batches():
    model = tiny_model(seed=14, perturb=0.5)
    rng = np.random.default_rng(15)
    for _ in range(100):
        x = rng.standard_normal((4, 3)) * 3.0
        yhat = (rng.random((4, 4)) < 0.5).astype(float)
        assert np.isfinite(unsupervised_loss(model, x, yhat, rng=rng).item())


def test_loss_gradients_match_finite_differences():
    model = tiny_model(seed=21)
    x, yhat, noise = _frozen_batch(model, B=3)

    def build(bound):
        return unsupervised_loss(model, x, yhat, noise=noise)

    _grad_check_scalar(model, build, {})


def test_unsupervised_loss_input_validation():
    model = tiny_model()
    x, yhat, noise = _frozen_batch(model)
    with pytest.raises(ValueError, match="row mismatch"):
        unsupervised_loss(model, x[:2], yhat, noise=noise)
    with pytest.raises(ValueError, match="latent sample"):
        unsupervised_loss(model, x, yhat, s_z=0, noise=noise)
    with pytest.raises(ValueError, match="shape"):
        unsupervised_loss(model, x, yhat, noise={**noise, "eps_z": np.zeros((1, 2, 2))})
    with pytest.raises(ValueError, match="no rng"):
        unsupervised_loss(model, x, yhat, noise={})


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_non_finite_inputs_raise_with_term_breakdown():
    model = tiny_model()
    x, yhat, noise = _frozen_batch(model)
    x = x.copy()
    x[0, 0] = np.inf
    with pytest.raises(NonFiniteLoss, match="non-finite loss"):
        unsupervised_loss(model, x, yhat, noise=noise)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_non_finite_parameter_names_its_subnetwork():
    model = tiny_model()
    x, yhat, noise = _frozen_batch(model)
    model.params["phi.W0"].data[0, 0] = np.nan
    with pytest.raises(NonFiniteLoss, match=r"first bad op: dense\(phi\.W0\)"):
        unsupervised_loss(model, x, yhat, noise=noise)


def _default_size_tape_nodes(kind):
    model = LsnpcModel(ModelConfig(d=32, k=10), seed=0)
    rng = np.random.default_rng(3)
    x = rng.standard_normal((128, 32))
    y = (rng.random((128, 10)) < 0.3).astype(float)
    yhat = (rng.random((128, 10)) < 0.3).astype(float)
    if kind == "unsupervised":
        loss = unsupervised_loss(model, x, yhat, rng=rng)
    else:
        loss = supervised_loss(model, x, y, yhat, rng=rng)
    graph = ComputeGraph(lambda bound: loss, model.params)
    graph.eval({})
    return len(graph.nodes())


def test_default_size_loss_tape_stays_fused():
    # one node per Mlp layer and per log density; spelling the layers out in
    # primitives gives 180 nodes, and the densities 114
    assert _default_size_tape_nodes("unsupervised") <= 78


def test_default_size_supervised_tape_stays_fused():
    # 153 nodes with the log densities spelled out in primitives
    assert _default_size_tape_nodes("supervised") <= 105


@pytest.mark.parametrize("kind", ["unsupervised", "supervised"])
def test_non_finite_draw_message_counts_rows_over_draws(kind):
    model = tiny_model(perturb=0.0)
    rng = np.random.default_rng(5)
    B, m = 3, model.cfg.m
    x = rng.standard_normal((B, 3))
    y = (rng.random((B, 4)) < 0.5).astype(float)
    noise = {
        "eps_zhat": rng.standard_normal((2, B, m)),
        "eps_z": rng.standard_normal((2, B, m)),
        "eps_za": rng.standard_normal((2, B, m)),
        "branch_u": rng.random((2, B, 1)),
        "chi2_u": rng.random((2, B, 1)),
    }
    noise["eps_z"][1, 0, 0] = np.nan
    rec = {"unsupervised": "rec: 0 non-finite of 6",
           "supervised": "rec_hat: 0 non-finite of 6; rec_y: 1 non-finite of 6"}[kind]
    expected = (
        f"non-finite loss (first bad op: leaf); {rec}; lp_shift: 1 non-finite of 6; "
        "lp_z: 1 non-finite of 6; lq_zhat: 0 non-finite of 6; lq_z: 1 non-finite of 6"
    )
    with pytest.raises(NonFiniteLoss) as err:
        if kind == "unsupervised":
            unsupervised_loss(model, x, y, s_z=2, noise=noise)
        else:
            supervised_loss(model, x, y, y, s_z=2, noise=noise)
    assert str(err.value) == expected


# ---------------------------------------------------------------------------
# supervised loss and the eta mixture


def test_supervised_loss_matches_straight_line_oracle():
    model = tiny_model(seed=16)
    cfg = model.cfg
    x, yhat, noise = _frozen_batch(model, B=6, seed=54321)
    y = (np.random.default_rng(8).random((6, 4)) < 0.5).astype(float)
    loss = supervised_loss(model, x, y, yhat, noise=noise)

    arr = snapshot(model.params)
    elbo_hat, zhat, _ = np_unsup_elbo(
        arr, cfg, x, yhat, noise["eps_zhat"][0], noise["eps_z"][0], noise["chi2_u"][0]
    )
    # rebuild the z mixture on top of the shared zhat chain
    mu_t, sig_t = np_encode_xy(arr, cfg, x, yhat)
    lq_zhat = np_ln_student(zhat, mu_t, sig_t, cfg.nu)
    mu_k, sig_k = np_heads(arr, cfg, "kappa.trunk", "kappa", zhat)
    mu_s, sig_s = np_encode_xy(arr, cfg, x, y)
    b = (noise["branch_u"][0] < cfg.eta).astype(float)
    z = (mu_s + sig_s * noise["eps_za"][0]) * b + (mu_k + sig_k * noise["eps_z"][0]) * (1.0 - b)
    lq_z = np_ln_normal(z, mu_s, sig_s) * b[:, 0] + np_ln_normal(z, mu_k, sig_k) * (1.0 - b[:, 0])
    n_phi = len(cfg.decoder_hidden) + 1
    p_hat = np.clip(expit(np_mlp(arr, "phi", np.concatenate([x, zhat], -1), n_phi)), 1e-6, 1 - 1e-6)
    p_y = np.clip(expit(np_mlp(arr, "phi", np.concatenate([x, z], -1), n_phi)), 1e-6, 1 - 1e-6)
    rec_hat = np.sum(yhat * np.log(p_hat) + (1 - yhat) * np.log(1 - p_hat), axis=-1)
    rec_y = np.sum(y * np.log(p_y) + (1 - y) * np.log(1 - p_y), axis=-1)
    shift = np_mlp(arr, "psi", z, len(cfg.shift_hidden) + 1)
    lp_shift = np_ln_student(zhat, shift, np.ones(cfg.m), cfg.nu0)
    lp_z = np_ln_normal(z, 0.0, np.ones(cfg.m))
    elbo = rec_hat + rec_y + (lp_shift + lp_z - lq_zhat - lq_z) * cfg.beta
    assert_allclose(loss.item(), -elbo.mean(), rtol=0, atol=1e-10)


def test_eta_one_always_takes_encoded_branch():
    model = tiny_model(seed=16, eta=1.0)
    x, yhat, noise = _frozen_batch(model, B=6)
    y = (np.random.default_rng(8).random((6, 4)) < 0.5).astype(float)
    _, detail = supervised_loss(model, x, y, yhat, noise=noise, collect=True)
    assert detail["n_branch_encoded"] == detail["n_rows"] == 6


def test_eta_zero_reduces_to_unsupervised_chain_plus_clean_term():
    model = tiny_model(seed=16, eta=0.0)
    x, yhat, noise = _frozen_batch(model, B=6)
    y = (np.random.default_rng(8).random((6, 4)) < 0.5).astype(float)
    loss_s, det_s = supervised_loss(model, x, y, yhat, noise=noise, collect=True)
    loss_u, det_u = unsupervised_loss(model, x, yhat, noise=noise, collect=True)
    assert det_s["n_branch_encoded"] == 0
    # with no encoded branch, z comes from q(z | zhat): every shared term agrees
    for sup_name, unsup_name in [
        ("rec_hat", "rec"), ("lp_shift", "lp_shift"), ("lp_z", "lp_z"),
        ("lq_zhat", "lq_zhat"), ("lq_z", "lq_z"),
    ]:
        assert_allclose(det_s["terms"][sup_name], det_u["terms"][unsup_name], rtol=1e-12)
    assert_allclose(loss_s.item(), loss_u.item() - det_s["terms"]["rec_y"].mean(), rtol=1e-10)


def test_branch_counts_concentrate_at_eta():
    model = tiny_model(seed=16, eta=0.5)
    rng = np.random.default_rng(30)
    B, trials = 64, 40
    x = rng.standard_normal((B, 3))
    y = (rng.random((B, 4)) < 0.5).astype(float)
    yhat = (rng.random((B, 4)) < 0.5).astype(float)
    taken = 0
    for _ in range(trials):
        _, det = supervised_loss(model, x, y, yhat, rng=rng, collect=True)
        taken += det["n_branch_encoded"]
    n = B * trials
    se = np.sqrt(0.25 * n)
    assert abs(taken - 0.5 * n) < 4 * se


def test_shared_decoder_moves_both_reconstruction_terms():
    model = tiny_model(seed=16)
    x, yhat, noise = _frozen_batch(model, B=6)
    y = (np.random.default_rng(8).random((6, 4)) < 0.5).astype(float)
    _, before = supervised_loss(model, x, y, yhat, noise=noise, collect=True)
    model.params["phi.b1"].data = model.params["phi.b1"].data + 1.0
    _, after = supervised_loss(model, x, y, yhat, noise=noise, collect=True)
    assert np.all(np.abs(after["terms"]["rec_hat"] - before["terms"]["rec_hat"]) > 1e-6)
    assert np.all(np.abs(after["terms"]["rec_y"] - before["terms"]["rec_y"]) > 1e-6)


# ---------------------------------------------------------------------------
# Gaussian ablation and learned degrees of freedom


def test_student_loss_approaches_normal_loss_as_nu_grows():
    student = tiny_model(seed=18, nu=1e6)
    normal = tiny_model(seed=18, proposal="normal")
    x, yhat, noise = _frozen_batch(student, B=8)
    noise["chi2_u"] = np.full((1, 8, 1), 0.5)  # median chi-square: factor -> 1
    loss_s = unsupervised_loss(student, x, yhat, noise=noise)
    loss_n = unsupervised_loss(normal, x, yhat, noise=noise)
    assert abs(loss_s.item() - loss_n.item()) < 1e-3


def test_normal_proposal_consumes_noise_prefix():
    model = tiny_model(seed=18, proposal="normal")
    x, yhat, noise = _frozen_batch(model, B=4)
    without_chi2 = {k: v for k, v in noise.items() if k != "chi2_u"}
    a = unsupervised_loss(model, x, yhat, noise=noise).item()
    b = unsupervised_loss(model, x, yhat, noise=without_chi2).item()
    assert a == b


def test_learned_nu_floor_and_gradient():
    model = LsnpcModel(ModelConfig(**{**TINY, "nu_mode": "learned"}), seed=25)
    rng = np.random.default_rng(26)
    x = rng.standard_normal((5, 3))
    yhat = (rng.random((5, 4)) < 0.5).astype(float)
    # zero-initialized head: softplus(0) + 2 = 2 + ln 2
    assert_array_equal(learned_nu(model, x, yhat), 2.0 + np.log(2.0))

    for p in model.params.values():
        p.data = p.data + 0.5 * rng.standard_normal(p.data.shape)
    big_x = rng.standard_normal((10_000, 3)) * 4.0
    big_y = (rng.random((10_000, 4)) < 0.5).astype(float)
    assert np.all(learned_nu(model, big_x, big_y) > 2.0)

    graph = ComputeGraph(lambda bound: learned_nu(model, Tensor(x), yhat).mean(), model.params)
    graph.eval({})
    graph.backward()
    grads = [np.abs(model.params[n].grad).max() for n in model.params if n.startswith("nu.")]
    assert max(grads) > 0.0


def test_learned_nu_trains_in_one_epoch():
    X, _, h = _toy_training_setup()
    model = LsnpcModel(ModelConfig(**{**TINY, "nu_mode": "learned"}), seed=7)
    before = {n: p.data.copy() for n, p in model.params.items() if n.startswith("nu.")}
    # with no weight decay, a parameter moves only if it receives a gradient
    cfg = LsnpcTrainConfig(epochs=1, batch_size=8, s_y=2, weight_decay=0.0, seed=7)
    train_semi_supervised(model, h, X, None, cfg)
    for name, value in before.items():
        assert not np.array_equal(model.params[name].data, value), name


def test_learned_nu_requires_learned_mode():
    model = tiny_model()
    with pytest.raises(RuntimeError, match="fixed"):
        learned_nu(model, np.zeros((1, 3)), np.zeros((1, 4)))


def test_learned_mode_loss_runs():
    model = LsnpcModel(ModelConfig(**{**TINY, "nu_mode": "learned"}), seed=25)
    rng = np.random.default_rng(27)
    for p in model.params.values():
        p.data = p.data + 0.3 * rng.standard_normal(p.data.shape)
    x = rng.standard_normal((4, 3))
    yhat = (rng.random((4, 4)) < 0.5).astype(float)
    assert np.isfinite(unsupervised_loss(model, x, yhat, rng=rng).item())


# ---------------------------------------------------------------------------
# the ELBO really lower-bounds the log evidence (beta = 1, 2-D quadrature)


def test_elbo_lower_bounds_quadrature_evidence():
    cfg = ModelConfig(d=2, k=2, m=1, nu=4.0, nu0=6.0, beta=1.0, embed_hidden=4,
                      embed_dim=3, encoder_hidden=(5,), decoder_hidden=(4,),
                      shift_hidden=(3,))
    model = LsnpcModel(cfg, seed=31)
    rng = np.random.default_rng(32)
    for p in model.params.values():
        p.data = p.data + 0.3 * rng.standard_normal(p.data.shape)
    x = rng.standard_normal((1, 2))
    yhat = np.array([[1.0, 0.0]])

    arr = snapshot(model.params)
    grid = np.linspace(-20.0, 20.0, 1601)
    zc, zhc = np.meshgrid(grid, grid, indexing="ij")  # z runs on axis 0
    flat_z = zc.reshape(-1, 1)
    flat_zh = zhc.reshape(-1, 1)
    shift = np_mlp(arr, "psi", flat_z, len(cfg.shift_hidden) + 1)
    lp_shift = np_ln_student(flat_zh, shift, np.ones(1), cfg.nu0)
    lp_z = np_ln_normal(flat_z, 0.0, np.ones(1))
    x_rep = np.repeat(x, flat_zh.shape[0], axis=0)
    n_phi = len(cfg.decoder_hidden) + 1
    p = np.clip(expit(np_mlp(arr, "phi", np.concatenate([x_rep, flat_zh], -1), n_phi)),
                1e-6, 1 - 1e-6)
    rec = np.sum(yhat * np.log(p) + (1 - yhat) * np.log(1 - p), axis=-1)
    integrand = np.exp(lp_shift + lp_z + rec).reshape(zc.shape)
    evidence = np.trapezoid(np.trapezoid(integrand, grid, axis=1), grid, axis=0)
    log_evidence = np.log(evidence)

    S = 4000
    _, detail = unsupervised_loss(model, x, yhat, rng=np.random.default_rng(33),
                                  s_z=S, collect=True)
    t = detail["terms"]
    elbo_draws = (t["rec"] + t["lp_shift"] + t["lp_z"] - t["lq_zhat"] - t["lq_z"])[:, 0]
    se = elbo_draws.std(ddof=1) / np.sqrt(S)
    assert elbo_draws.mean() <= log_evidence + 3.0 * se


# ---------------------------------------------------------------------------
# bit-identity pins: digests of the exact float64 bytes of a loss and its
# gradients.  Any change to the floating-point operations, or to their order,
# changes them.  The learned-nu gradients pass through the lgamma backward
# and so through scipy's psi.


def _digest(arrays: dict) -> str:
    h = hashlib.sha256()
    for name in sorted(arrays):
        h.update(name.encode())
        h.update(np.ascontiguousarray(arrays[name], dtype=np.float64).tobytes())
    return h.hexdigest()[:24]


PROPOSAL_CASES = {
    "student": {},
    "normal": {"proposal": "normal"},
    "learned-nu": {"nu_mode": "learned"},
}

LOSS_PINS = {
    ("unsupervised", "student"): "9b3a0bdbe79ab3ee139aac1f",
    ("unsupervised", "normal"): "9f04e1c0ead66fa0c7ba11c5",
    ("unsupervised", "learned-nu"): "8c90bb1de1d1fd9399db1c4c",
    ("supervised", "student"): "0865d3ed2b702d28eb8c0f82",
    ("supervised", "normal"): "5bf033067383b4f78493405b",
    ("supervised", "learned-nu"): "e12f38404749f2245b83bcf2",
}


def _loss_and_gradients_digest(kind, case):
    model = tiny_model(seed=31, **PROPOSAL_CASES[case])
    rng = np.random.default_rng(32)
    B, m = 6, model.cfg.m
    x = rng.standard_normal((B, model.cfg.d))
    y = (rng.random((B, model.cfg.k)) < 0.5).astype(float)
    yhat = np.abs(y - (rng.random(y.shape) < 0.3))
    noise = {
        "eps_zhat": rng.standard_normal((2, B, m)),
        "eps_z": rng.standard_normal((2, B, m)),
        "eps_za": rng.standard_normal((2, B, m)),
        "branch_u": rng.random((2, B, 1)),
        "chi2_u": rng.random((2, B, 1)),
    }
    if kind == "unsupervised":
        loss = unsupervised_loss(model, x, yhat, s_z=2, noise=noise)
    else:
        loss = supervised_loss(model, x, y, yhat, s_z=2, noise=noise)
    graph = ComputeGraph(lambda bound: loss, model.params)
    graph.eval()
    return _digest({"loss": loss.data, **graph.backward()})


@pytest.mark.parametrize("kind,case", sorted(LOSS_PINS))
def test_loss_and_gradients_are_pinned(kind, case):
    assert _loss_and_gradients_digest(kind, case) == LOSS_PINS[(kind, case)]


# ---------------------------------------------------------------------------
# trainer


def _toy_training_setup(n=16, seed=7):
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((n, 3))
    Y = (rng.random((n, 4)) < 0.5).astype(np.uint8)
    h = train_base(X, Y, BaseTrainConfig(epochs=0, hidden=(8,), seed=seed))
    return X, Y, h


def corrected_f1(h, Xv, Yv, seed):
    """The pipeline's selection score: micro-F1 of the corrected labels."""
    return lambda model: micro_f1(Yv, correct(model, h, Xv, CorrectionConfig(seed=seed)).labels)


TRAINER_PIN = "04b9612f58b34d2cab235c88"


def _trainer_digest():
    X, Y, h = _toy_training_setup(n=20, seed=8)
    cfg = LsnpcTrainConfig(epochs=2, batch_size=8, s_y=2, seed=8)
    model = train_semi_supervised(
        LsnpcModel(ModelConfig(**TINY), seed=8), h, X, (X[:6], Y[:6].astype(float)), cfg,
        score=corrected_f1(h, X[:10], Y[:10], seed=8),
    )
    hist = model.history
    return _digest({**snapshot(model.params), "unsup": hist["unsup_losses"],
                    "sup": hist["sup_losses"], "val": hist["val_scores"]})


def test_trainer_is_pinned():
    assert _trainer_digest() == TRAINER_PIN


def test_empty_clean_set_equals_unsupervised_training():
    X, Y, h = _toy_training_setup()
    cfg = LsnpcTrainConfig(epochs=2, batch_size=8, s_y=2, seed=7)
    a = train_semi_supervised(LsnpcModel(ModelConfig(**TINY), seed=7), h, X, None, cfg)
    empty = (np.zeros((0, 3)), np.zeros((0, 4)))
    b = train_semi_supervised(LsnpcModel(ModelConfig(**TINY), seed=7), h, X, empty, cfg)
    for name, value in snapshot(a.params).items():
        assert_array_equal(value, snapshot(b.params)[name])


def test_trainer_matches_manual_two_step_update():
    X, Y, h = _toy_training_setup(n=8)
    Xc, Yc = X[:4], Y[:4].astype(float)
    cfg = LsnpcTrainConfig(lr=0.05, epochs=1, batch_size=8, optimizer="sgd",
                           weight_decay=0.0, s_y=2, s_z=1, seed=7)
    trained = train_semi_supervised(
        LsnpcModel(ModelConfig(**TINY), seed=7), h, X, (Xc, Yc), cfg
    )

    # replay: one unsupervised step on the full noisy batch, then one
    # supervised step on the clean batch, each in the order of its sweep's
    # permutation, sharing the yhat stream in order
    model = LsnpcModel(ModelConfig(**TINY), seed=7)
    yhat_rng = rngs.stream(7, "lsnpc", "yhat")
    noise_rng = rngs.stream(7, "lsnpc", "noise")
    clean_noise_rng = rngs.stream(7, "lsnpc", "clean_noise")
    order = rngs.stream(7, "lsnpc", "shuffle").permutation(len(X))
    clean_order = rngs.stream(7, "lsnpc", "clean_shuffle").permutation(len(Xc))
    scale = cosine_lr(0)

    def step(loss):
        graph = ComputeGraph(lambda bound: loss, model.params)
        graph.eval({})
        graph.backward()
        for name in sorted(model.params):
            p = model.params[name]
            if p.grad is not None:
                p.data -= cfg.lr * scale * p.grad
                p.grad = None

    yh = sample_predictions(predict_probs(h, X)[order], 2, yhat_rng).reshape(16, -1)
    step(unsupervised_loss(model, np.tile(X[order], (2, 1)), yh, rng=noise_rng))
    Xc, Yc = Xc[clean_order], Yc[clean_order]
    yh_c = sample_predictions(predict_probs(h, Xc), 2, yhat_rng).reshape(8, -1)
    step(supervised_loss(model, np.tile(Xc, (2, 1)), np.tile(Yc, (2, 1)), yh_c,
                         rng=clean_noise_rng))
    for name, value in snapshot(model.params).items():
        assert_array_equal(value, snapshot(trained.params)[name])


def test_trainer_is_seed_deterministic():
    X, Y, h = _toy_training_setup()
    cfg = LsnpcTrainConfig(epochs=2, batch_size=8, s_y=2, seed=9)
    a = train_semi_supervised(LsnpcModel(ModelConfig(**TINY), seed=9), h, X, None, cfg)
    b = train_semi_supervised(LsnpcModel(ModelConfig(**TINY), seed=9), h, X, None, cfg)
    for name, value in snapshot(a.params).items():
        assert_array_equal(value, snapshot(b.params)[name])


def test_validation_restores_best_epoch():
    X, Y, h = _toy_training_setup(n=24)
    cfg = LsnpcTrainConfig(epochs=3, batch_size=8, s_y=2, seed=13)
    model = train_semi_supervised(
        LsnpcModel(ModelConfig(**TINY), seed=13), h, X, None, cfg,
        score=corrected_f1(h, X[:8], Y[:8], seed=13),
    )
    scores = model.history["val_scores"]
    assert len(scores) == 3
    assert model.history["best_epoch"] == int(np.argmax(scores))
    assert model.metadata["best_val_micro_f1"] == max(scores)


def test_training_log_tracks_sweeps():
    X, Y, h = _toy_training_setup()
    cfg = LsnpcTrainConfig(epochs=2, batch_size=8, s_y=2, seed=7)
    model = train_semi_supervised(
        LsnpcModel(ModelConfig(**TINY), seed=7), h, X, (X[:4], Y[:4].astype(float)), cfg
    )
    assert len(model.history["unsup_losses"]) == 2
    assert len(model.history["sup_losses"]) == 2
    # 9 of the 2 epochs x 4 clean rows x s_y = 2 draws took the encoded
    # branch; recorded when the clean sweep read the count from
    # supervised_loss(collect=True)
    assert model.history["branch_encoded"] == 9


# ---------------------------------------------------------------------------
# checkpointing


def test_model_checkpoint_round_trip(tmp_path):
    model = tiny_model(seed=19, perturb=0.4)
    model.metadata = {"epochs": 2, "seed": 19}
    path = tmp_path / "model.lsck"
    save_model(model, path)
    loaded = load_model(path)
    assert loaded.cfg == model.cfg
    for name, value in snapshot(model.params).items():
        assert_array_equal(value, snapshot(loaded.params)[name])
    assert loaded.metadata == {"epochs": 2, "seed": 19}


def test_checkpoint_load_then_save_is_byte_identical(tmp_path):
    X, Y, h = _toy_training_setup()
    cfg = LsnpcTrainConfig(epochs=1, batch_size=8, s_y=2, seed=3)
    model = train_semi_supervised(LsnpcModel(ModelConfig(**TINY), seed=3), h, X, None, cfg)
    assert np.isnan(model.metadata["best_val_micro_f1"])  # no validation set
    model.metadata.update(note="a=b", shape=(2, 3), inf=float("-inf"),
                          nan_pair=(float("nan"), 1), infs=[np.inf])
    first, second = tmp_path / "a.lsck", tmp_path / "b.lsck"
    save_model(model, first)
    save_model(load_model(first), second)
    assert second.read_bytes() == first.read_bytes()


def test_checkpoint_saves_numpy_scalars_as_python_scalars(tmp_path):
    model = tiny_model(seed=19, perturb=0.0)
    model.metadata = {"score": np.float64(0.5), "n": np.int64(3),
                      "nested": (np.float64(0.5), 2), "infs": [np.inf],
                      "counts": {"a": np.int64(3)}}
    first, second = tmp_path / "a.lsck", tmp_path / "b.lsck"
    save_model(model, first)
    loaded = load_model(first)
    assert loaded.metadata == {"score": 0.5, "n": 3, "nested": (0.5, 2),
                               "infs": [np.inf], "counts": {"a": 3}}
    assert type(loaded.metadata["score"]) is float and type(loaded.metadata["n"]) is int
    assert type(loaded.metadata["nested"][0]) is float
    assert type(loaded.metadata["counts"]["a"]) is int
    save_model(loaded, second)
    assert second.read_bytes() == first.read_bytes()


MODEL_CONFIG_FIELDS = {
    "d": st.integers(1, 4),
    "k": st.integers(1, 4),
    "m": st.integers(1, 3),
    "nu": st.floats(2.0, 1e6, exclude_min=True),
    "nu0": st.floats(2.0, 1e6, exclude_min=True),
    "beta": st.floats(0.0, 10.0),
    "eta": st.floats(0.0, 1.0),
    "lambda_floor": st.floats(1e-300, 1.0),
    "proposal": st.sampled_from(["student", "normal"]),
    "nu_mode": st.sampled_from(["fixed", "learned"]),
    "embed_hidden": st.integers(1, 4),
    "embed_dim": st.integers(1, 4),
    "encoder_hidden": st.lists(st.integers(1, 4), min_size=1, max_size=2).map(tuple),
    "decoder_hidden": st.lists(st.integers(1, 4), max_size=2).map(tuple),
    "shift_hidden": st.lists(st.integers(1, 4), max_size=2).map(tuple),
    "shift_identity": st.booleans(),
    "sigma_bias_init": st.floats(-5.0, 5.0),
}


def test_checkpoint_property_covers_every_config_field():
    assert set(MODEL_CONFIG_FIELDS) == {f.name for f in dataclasses.fields(ModelConfig)}


@settings(max_examples=40, deadline=None)
@given(fields=st.fixed_dictionaries(MODEL_CONFIG_FIELDS), seed=st.integers(0, 2**16))
def test_checkpoint_round_trips_every_config_field(fields, seed):
    model = LsnpcModel(ModelConfig(**fields), seed=seed)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "model.lsck"
        save_model(model, path)
        loaded = load_model(path)
    assert loaded.cfg == model.cfg
    assert snapshot(loaded.params).keys() == snapshot(model.params).keys()
    for name, value in snapshot(model.params).items():
        assert_array_equal(value, snapshot(loaded.params)[name])


def test_checkpoint_rejects_foreign_kind(tmp_path):
    X, Y, h = _toy_training_setup()
    from lsnpc.baseclf import save_base
    path = tmp_path / "base.lsck"
    save_base(h, path)
    with pytest.raises(ValueError, match="latent-shift"):
        load_model(path)


def test_checkpoint_bytes_are_seed_deterministic(tmp_path):
    X, Y, h = _toy_training_setup()
    cfg = LsnpcTrainConfig(epochs=1, batch_size=8, s_y=2, seed=3)
    paths = []
    for tag in ("a", "b"):
        model = train_semi_supervised(LsnpcModel(ModelConfig(**TINY), seed=3), h, X, None, cfg)
        path = tmp_path / f"{tag}.lsck"
        save_model(model, path)
        paths.append(path)
    assert paths[0].read_bytes() == paths[1].read_bytes()
