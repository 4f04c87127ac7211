"""Correction chain: exactness on a constant decoder, Monte-Carlo error decay,
agreement with 2-D quadrature at m=1, thresholding, and the KNN baseline
against an exhaustive scan."""

import ast
import dataclasses
import hashlib
import inspect
import os
import subprocess
import sys
import threading
import tracemalloc
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal
from scipy.special import expit

from lsnpc import config, datagen, rngs
from lsnpc.autodiff import Tensor
from lsnpc.baseclf import BaseTrainConfig, predict_probs, sample_predictions, train_base
from lsnpc import correction
from lsnpc import model as model_module
from lsnpc.correction import (
    _BATCH,
    _KNN_BLOCK,
    _KNN_CHUNK,
    _k_nearest,
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
from lsnpc.model import LsnpcModel, ModelConfig, chain, chi2_from_uniform

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


def test_correct_signature_takes_no_labels():
    names = list(inspect.signature(correct).parameters)
    assert names == ["model", "h", "X", "cfg"]


# Digests of the exact float64 bytes of probs and se.  Any change to the
# floating-point operations of the correction chain, or to their order,
# changes them.
CORRECT_PINS = {
    "student": "29032ab2c6d125984ff298da",
    "normal": "0cc79c0cb5eb51f6ee0ef79b",
    "learned-nu": "f1b9e555d192dfa866257ac3",
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
                chi2 = None if chi2_u[t] is None else chi2_from_uniform(nu, chi2_u[t])
                _, mu_k, sig_k = chain(model, mu_t, sig_t, nu, eps_zhat[t], chi2)
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


# ---------------------------------------------------------------------------
# correct() draws its noise once per key and reuses it


def _key_variants(case):
    """(model, h, X, cfg) of a key A and of keys that each change one of
    seed, n, s_y, s_zhat, s_z and the fixed nu."""
    model, h, X = tiny_setup(seed=3, **PROPOSAL_CASES[case])
    other_nu = tiny_setup(seed=3, **{**PROPOSAL_CASES[case], "nu": 5.0})[0]
    cfg = CorrectionConfig(s_y=2, s_zhat=2, s_z=2, seed=4)
    a = (model, h, X, cfg)
    return a, {
        "seed": (model, h, X, dataclasses.replace(cfg, seed=5)),
        "n": (model, h, X[:9], cfg),
        "s_y": (model, h, X, dataclasses.replace(cfg, s_y=3)),
        "s_zhat": (model, h, X, dataclasses.replace(cfg, s_zhat=3)),
        "s_z": (model, h, X, dataclasses.replace(cfg, s_z=1)),
        "nu": (other_nu, h, X, cfg),
    }


def _result_bytes(result):
    return result.probs.tobytes() + result.se.tobytes()


@pytest.mark.parametrize("change", ["seed", "n", "s_y", "s_zhat", "s_z", "nu"])
@pytest.mark.parametrize("case", sorted(PROPOSAL_CASES))
def test_reused_noise_gives_the_fresh_results(case, change):
    """Keys A, A, B, B, A in turn: each call equals the same call made right
    after the cache is cleared, and the repeats hit the cache, the last one
    too, since two keys are kept.  The draws of a Normal proposal or a
    learned nu do not depend on a fixed nu, so there a change of nu keeps
    the key."""
    a, variants = _key_variants(case)
    calls = [a, a, variants[change], variants[change], a]
    correction._noise.cache_clear()
    got = [_result_bytes(correct(*call)) for call in calls]
    info = correction._noise.cache_info()
    same_key = change == "nu" and case != "student"
    assert (info.hits, info.misses) == ((4, 1) if same_key else (3, 2))
    fresh = []
    for call in calls:
        correction._noise.cache_clear()
        fresh.append(_result_bytes(correct(*call)))
    assert got == fresh


@pytest.mark.parametrize("case", sorted(PROPOSAL_CASES))
def test_reused_noise_is_read_only(case):
    model, h, X = tiny_setup(seed=3, **PROPOSAL_CASES[case])
    correction._noise.cache_clear()
    correct(model, h, X, CorrectionConfig(s_y=2, s_zhat=2, s_z=2, seed=4))
    assert correction._noise.cache_info().currsize == 1
    fixed = model.cfg.nu if case == "student" else None
    draws = correction._noise(4, len(X), model.cfg.m, 2, 2, 2, model.cfg.proposal, fixed)
    assert correction._noise.cache_info().hits == 1
    arrays = [a for a in draws if a is not None]
    assert len(arrays) == (2 if case == "normal" else 3)
    for a in arrays:
        with pytest.raises(ValueError, match="read-only"):
            a[(0,) * a.ndim] = 0.0
        with pytest.raises(ValueError, match="read-only"):
            a += 1.0


class _CountingGenerator:
    """A Generator that notes each draw made from it in ``draws``."""

    def __init__(self, gen, tags, draws):
        self._gen, self._tags, self._draws = gen, tags, draws

    def __getattr__(self, name):
        method = getattr(self._gen, name)

        def counted(*args, **kwargs):
            self._draws.append(self._tags)
            return method(*args, **kwargs)

        return counted


@pytest.mark.parametrize("case", sorted(PROPOSAL_CASES))
def test_same_key_call_draws_and_transforms_nothing_again(monkeypatch, case):
    model, h, X = tiny_setup(seed=3, **PROPOSAL_CASES[case])
    cfg = CorrectionConfig(s_y=2, s_zhat=3, s_z=2, seed=4)
    streams, draws, inverses = [], [], []
    stream, gammaincinv = rngs.stream, model_module.gammaincinv

    def counting_stream(seed, *tags):
        streams.append(tags)
        return _CountingGenerator(stream(seed, *tags), tags, draws)

    def counting_gammaincinv(*args):
        inverses.append(1)
        return gammaincinv(*args)

    monkeypatch.setattr(rngs, "stream", counting_stream)
    monkeypatch.setattr(model_module, "gammaincinv", counting_gammaincinv)
    correction._noise.cache_clear()
    counts = []
    for _ in range(2):
        streams.clear(), draws.clear(), inverses.clear()
        correct(model, h, X, cfg)
        counts.append((list(streams), draws.count(("correct", "noise")), len(inverses)))
    # per yhat group: eps_zhat, eps_z and, for a Student proposal, the uniforms
    noise_draws = 2 * (2 if case == "normal" else 3)
    # fixed nu: one transform of every group's uniforms; learned nu: one per zhat draw
    transforms = {"student": 1, "normal": 0, "learned-nu": 2 * 3}[case]
    assert counts[0] == ([("correct", "yhat"), ("correct", "noise")], noise_draws, transforms)
    assert counts[1] == ([("correct", "yhat")], 0, transforms - (case == "student"))


def _draw_bytes(cfg, n, m):
    """The bytes of one key's draws for a Student proposal with a fixed nu."""
    return 8 * (cfg.s_y * cfg.s_zhat * (1 + cfg.s_z) * n * m + cfg.s_y * cfg.s_zhat * n)


def test_retained_noise_is_one_keys_draws():
    """Each batch size keeps one key's draws, and of two keys at most: a
    300-row call holds the keys of 200 and 100 rows, and a 250-row call then
    reuses the first and replaces the second with the key of 50 rows."""
    model, h, X = tiny_setup(seed=3, n=300, m=8)
    cfg = CorrectionConfig(s_y=2, s_zhat=2, s_z=2, seed=4)
    correct(model, h, X[:200], cfg)  # first-call allocations outside the trace
    correction._noise.cache_clear()
    tracemalloc.start()
    try:
        correct(model, h, X, cfg)
        correct(model, h, X[:250], cfg)
        retained = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    info = correction._noise.cache_info()
    assert (info.hits, info.misses, info.currsize) == (1, 3, 2)
    kept = _draw_bytes(cfg, 200, 8) + _draw_bytes(cfg, 50, 8)
    assert kept <= retained <= kept + 2**14 < _draw_bytes(cfg, 200, 8) + _draw_bytes(cfg, 100, 8)


def test_large_call_holds_one_batch_of_memory():
    """A 20 000-row call keeps at most two batch keys' draws after it
    returns, and beyond its result it peaks as high as a 200-row call."""
    model, h, X = tiny_setup(seed=3, n=20_000, m=8)
    cfg = CorrectionConfig(s_y=4, s_zhat=2, s_z=2, seed=4)
    correct(model, h, X[:_BATCH], cfg)  # first-call allocations outside the trace
    peaks = []
    tracemalloc.start()
    try:
        for rows in (_BATCH, len(X)):
            correction._noise.cache_clear()
            tracemalloc.reset_peak()
            result = correct(model, h, X[:rows], cfg)
            held = result.probs.nbytes + result.labels.nbytes + result.se.nbytes
            peaks.append(tracemalloc.get_traced_memory()[1] - held)
            del result
        retained = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    # a 20 000-row key's draws would take 100 times one batch's
    assert _draw_bytes(cfg, _BATCH, 8) <= peaks[0]
    assert retained <= 2 * _draw_bytes(cfg, _BATCH, 8) + 2**14
    assert peaks[1] <= 2 * peaks[0]


@pytest.mark.parametrize("case", sorted(PROPOSAL_CASES))
def test_correct_is_the_concatenation_of_its_batches(case):
    model, h, X = tiny_setup(seed=5, n=2 * _BATCH + 7, **PROPOSAL_CASES[case])
    cfg = CorrectionConfig(s_y=2, s_zhat=2, s_z=2, seed=4)
    whole = correct(model, h, X, cfg)
    parts = [correct(model, h, X[i : i + _BATCH], cfg) for i in range(0, len(X), _BATCH)]
    assert [len(p.probs) for p in parts] == [_BATCH, _BATCH, 7]
    for name in ("probs", "labels", "se"):
        joined = np.concatenate([getattr(p, name) for p in parts])
        assert getattr(whole, name).dtype == joined.dtype
        assert getattr(whole, name).tobytes() == joined.tobytes()


def test_batches_do_not_call_correct_again(monkeypatch):
    """Call tracers wrap ``correction.correct``; a call that re-entered it per
    batch would count each batch as a call of its own."""
    model, h, X = tiny_setup(seed=5, n=2 * _BATCH + 7)
    calls = []
    inner = correction.correct

    def counting(*args):
        calls.append(1)
        return inner(*args)

    monkeypatch.setattr(correction, "correct", counting)
    correction.correct(model, h, X, CorrectionConfig(s_y=2, s_zhat=2, s_z=2))
    assert calls == [1]


def test_zero_row_call_gives_empty_arrays():
    model, h, X = tiny_setup(seed=5)
    result = correct(model, h, X[:0], CorrectionConfig(s_y=2, s_zhat=2, s_z=2))
    for name in ("probs", "labels", "se"):
        assert getattr(result, name).shape == (0, model.cfg.k)


def test_repeated_ragged_calls_hit_the_cache():
    """330 rows run as batches of 200 and 130: the cache keeps both keys, so
    a repeated call draws nothing again."""
    model, h, X = tiny_setup(seed=5, n=330)
    cfg = CorrectionConfig(s_y=2, s_zhat=2, s_z=2, seed=4)
    correction._noise.cache_clear()
    counts = []
    for _ in range(3):
        correct(model, h, X, cfg)
        info = correction._noise.cache_info()
        counts.append((info.hits, info.misses))
    assert counts == [(0, 2), (2, 2), (4, 2)]


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
    assert calls == [len(X)] * (3 * 2 * 2)


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


def _ties_at_k(rows, K):
    """The rows whose K-th and (K+1)-th smallest values are equal, or that
    hold a NaN: the rows the two-stage selection leaves to argpartition."""
    nan = np.isnan(rows).any(axis=1)
    if K == rows.shape[1]:
        return np.flatnonzero(nan)
    ordered = np.sort(rows, axis=1)
    return np.flatnonzero((ordered[:, K - 1] == ordered[:, K]) | nan)


def _assert_selects_as_argpartition(rows, K):
    """``_k_nearest`` picks argpartition's K columns in every row, so any
    labels get argpartition's votes; returns the rows that fell back."""
    nearest, fallback = _k_nearest(rows, K)
    want = np.argpartition(rows, K - 1, axis=1)[:, :K]
    assert_array_equal(np.sort(nearest, axis=1), np.sort(want, axis=1))
    L = np.random.default_rng(21).random((rows.shape[1], 16)) < 0.5
    assert_array_equal(L[nearest].sum(axis=1), L[want].sum(axis=1))
    return fallback


def _crafted_distance_rows(K, n):
    """Rows of n distances in [1, 2), each changed to hold one case."""
    W = _KNN_CHUNK
    rng = np.random.default_rng(20 + K)
    rows = rng.uniform(1.0, 2.0, (11, n))
    small = np.linspace(0.1, 0.5, K)
    rows[1, rng.permutation(K)] = small  # all K nearest in the first chunk
    rows[2, n - 1 - rng.permutation(K)] = small  # all in the ragged last chunk
    spread = np.arange(K) * W + 1  # one nearest per chunk ...
    rows[3, spread] = small
    rows[3, K * W + 5] = small[-1]  # ... and a tie at the K-th in the next chunk
    rows[4, spread] = small
    rows[4, spread[-1] + 1] = small[-1]  # a tie at the K-th in the same chunk
    rows[5, 1:K + 1] = small
    rows[5, 0] = np.nan  # a NaN in the chunk of the nearest
    rows[6, rng.random(n) < 0.5] = np.inf
    rows[6, spread] = small  # half the distances +inf
    rows[7, spread] = -np.inf  # K at -inf: no tie
    rows[8, np.append(spread, K * W + 5)] = -np.inf  # K + 1 at -inf: a tie
    rows[9] = np.nan
    rows[10, n - 1] = 0.05  # the nearest in the last column
    return rows


@pytest.mark.parametrize("K", [1, 2, 5])
def test_k_nearest_on_crafted_rows(K):
    rows = _crafted_distance_rows(K, 20 * _KNN_CHUNK + 37)
    fallback = _assert_selects_as_argpartition(rows, K)
    assert_array_equal(fallback, _ties_at_k(rows, K))
    assert_array_equal(fallback, [3, 4, 5, 8, 9])


@pytest.mark.parametrize("K, n", [(5, 20 * _KNN_CHUNK), (5, 19 * _KNN_CHUNK + 1),
                                  (5, 19 * _KNN_CHUNK), (1, 2), (1, 3 * _KNN_CHUNK + 1),
                                  (3 * _KNN_CHUNK + 5, 3 * _KNN_CHUNK + 5)])
def test_k_nearest_at_edge_sizes(K, n):
    """Training sets of exactly 4 K chunks, of a one-column last chunk, of
    fewer than 4 K chunks (the block falls back whole), of one chunk, and
    K = n."""
    rng = np.random.default_rng(22)
    rows = rng.uniform(1.0, 2.0, (_KNN_BLOCK, n))
    if K < n:
        ordered = np.sort(rows[::2], axis=1)
        rows[::2, 0] = ordered[:, K - 1]  # a tie at the K-th in every other row
        rows[1, -1] = 0.5
    rows[3, n // 2] = np.nan
    fallback = _assert_selects_as_argpartition(rows, K)
    chunks = -(-n // _KNN_CHUNK)
    want = _ties_at_k(rows, K) if chunks >= 4 * K else np.arange(len(rows))
    assert_array_equal(fallback, want)


def test_knn_falls_back_on_tied_rows_only():
    """None of the rows of benchmark-like data fall back, and on copied
    training rows every row that ties at the K-th distance does."""
    cfg = config.load_config(Path(__file__).resolve().parents[1] / "configs" / "default.ini")
    ds, _ = datagen.generate_synthetic(config.override(cfg, n=3300).generator_config(1))
    T, Q = ds.X[:3000], ds.X[3000:]
    tied_T, _, tied_Q = _tied_knn_inputs(300, n_base=900)
    for K in (1, 5):
        d2 = _sq_distances(Q, T, np.sum(np.square(T), axis=1), np.empty((len(Q), len(T))))
        assert len(_assert_selects_as_argpartition(d2, K)) == 0
        t2 = np.sum(np.square(tied_T), axis=1)
        d2 = _sq_distances(tied_Q, tied_T, t2, np.empty((len(tied_Q), len(tied_T))))
        fallback = _assert_selects_as_argpartition(d2, K)
        assert len(fallback) > 0.9 * len(d2)
        assert_array_equal(fallback, _ties_at_k(d2, K))


@pytest.mark.parametrize("K, n_train", [(1, 8 * _KNN_CHUNK + 37), (5, 20 * _KNN_CHUNK + 37),
                                        (5, 19 * _KNN_CHUNK), (200, 200)])
def test_knn_selection_cases_match_the_expression(monkeypatch, K, n_train):
    """Copied training rows tie at the K-th distance beside untied queries,
    and query rows with NaN or infinite features give non-finite distances,
    with two block threads under the caller's error state."""
    monkeypatch.setattr(rngs, "cores", lambda: 2)
    rng = np.random.default_rng(23)
    T = rng.standard_normal((n_train, 6))
    T[n_train // 2 :: 7] = T[: len(T[n_train // 2 :: 7])]
    L = (rng.random((n_train, 5)) < 0.5).astype(np.uint8)
    Q = rng.standard_normal((_KNN_BLOCK + 40, 6))
    Q[::9] = T[: len(Q[::9])] + 1e-3
    Q[5, 2], Q[6, 0], Q[7, 4] = np.nan, np.inf, -np.inf
    with np.errstate(all="ignore"):
        got = knn_correct(T, L, Q, K=K)
        want = _knn_by_expression(T, L, Q, K, _KNN_BLOCK)
    assert_array_equal(got, want)


def test_block_distances_equal_the_expression_bit_for_bit():
    rng = np.random.default_rng(12)
    T = 3.7 * rng.standard_normal((900, 32)) + 0.3
    t2 = np.sum(np.square(T), axis=1)
    for rows in (1, 16, 37, 64, 100, 256):
        q = 2.1 * rng.standard_normal((rows, 32)) - 0.5
        want = np.sum(np.square(q), axis=1, keepdims=True) - 2.0 * q @ T.T + t2
        buf = np.full((256, 900), np.nan)
        got = _sq_distances(q, T, t2, buf[:rows])
        assert np.shares_memory(got, buf)
        assert np.array_equal(got, want)


def test_small_blocks_keep_the_distance_bits_of_large_ones(monkeypatch):
    """On benchmark-like features, the rows of 64-row and ragged blocks have
    the bits of the same rows of one 256-row block, so the votes are those
    of 256-row blocks."""
    cfg = config.load_config(Path(__file__).resolve().parents[1] / "configs" / "default.ini")
    ds, _ = datagen.generate_synthetic(config.override(cfg, n=3300).generator_config(1))
    T, L, Q = ds.X[:3000], ds.Y[:3000], ds.X[3000:]
    t2 = np.sum(np.square(T), axis=1)
    whole = _sq_distances(Q[:256], T, t2, np.empty((256, len(T))))
    for start, rows in [(0, 64), (64, 64), (128, 64), (192, 64), (200, 37), (250, 6)]:
        q = Q[start : start + rows]
        assert np.array_equal(_sq_distances(q, T, t2, np.empty((rows, len(T)))),
                              whole[start : start + rows]), (start, rows)
    got = [knn_correct(T, L, Q, K=K) for K in (1, 5)]
    monkeypatch.setattr(correction, "_KNN_BLOCK", 256)
    assert_array_equal(got, [knn_correct(T, L, Q, K=K) for K in (1, 5)])


@pytest.mark.parametrize("block", [16, 64, 256])
def test_knn_labels_do_not_depend_on_the_block_buffer(monkeypatch, block):
    rng = np.random.default_rng(13)
    T = rng.standard_normal((700, 6))
    L = (rng.random((700, 5)) < 0.3).astype(np.uint8)
    Q = rng.standard_normal((block * 3 + 5, 6))
    monkeypatch.setattr(correction, "_KNN_BLOCK", block)
    assert_array_equal(knn_correct(T, L, Q, K=5), _knn_by_expression(T, L, Q, 5, block))


def _tied_knn_inputs(n_query, seed=14, n_base=200):
    """Every training row three times, each copy with its own labels: a
    query's K-th and (K+1)-th neighbours are often copies of one row, so they
    tie exactly and the selection decides which copies vote."""
    rng = np.random.default_rng(seed)
    base = 1.7 * rng.standard_normal((n_base, 6)) + 0.2
    T = np.concatenate([base, base[::-1], base])
    L = (rng.random((len(T), 5)) < 0.5).astype(np.uint8)
    Q = 1.7 * rng.standard_normal((n_query, 6))
    return T, L, Q


THREAD_CASES = [(n, K) for n in (1, _KNN_BLOCK - 1, _KNN_BLOCK, _KNN_BLOCK + 1, 3 * _KNN_BLOCK + 5)
                for K in (1, 5)]


def _thread_count_mismatches():
    """The (query count, K, cores) cases whose labels differ from the serial
    expression at block ``_KNN_BLOCK``.  Up to four threads, more than this
    machine may have cores, switching as often as the interpreter allows."""
    bad = []
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for n_query, K in THREAD_CASES:
            T, L, Q = _tied_knn_inputs(n_query)
            want = _knn_by_expression(T, L, Q, K, _KNN_BLOCK)
            for count in (1, 2, 3, 4):
                with mock.patch.object(rngs, "cores", lambda: count):
                    if not np.array_equal(knn_correct(T, L, Q, K=K), want):
                        bad.append((n_query, K, count))
    finally:
        sys.setswitchinterval(interval)
    return bad


def test_knn_thread_inputs_tie_at_the_kth_distance():
    T, _, Q = _tied_knn_inputs(3 * _KNN_BLOCK + 5)
    d2 = _sq_distances(Q, T, np.sum(np.square(T), axis=1), np.empty((len(Q), len(T))))
    d2.sort(axis=1)
    for K in (1, 5):
        assert np.mean(d2[:, K - 1] == d2[:, K]) > 0.9


def test_knn_labels_do_not_depend_on_the_thread_count():
    assert _thread_count_mismatches() == []


@pytest.mark.parametrize("count", [1, 2, 3])
def test_knn_threads_keep_the_block_boundaries(monkeypatch, count):
    """A row's distance bits can depend on its block's row count, so every
    thread count computes the same ``_KNN_BLOCK``-row blocks at the same
    offsets."""
    T, L, Q = _tied_knn_inputs(3 * _KNN_BLOCK + 5)
    blocks = []

    def recording(q, *args):
        offset = q.__array_interface__["data"][0] - Q.__array_interface__["data"][0]
        blocks.append((offset // Q.strides[0], len(q)))
        return _sq_distances(q, *args)

    monkeypatch.setattr(correction, "_sq_distances", recording)
    monkeypatch.setattr(rngs, "cores", lambda: count)
    knn_correct(T, L, Q, K=5)
    B = _KNN_BLOCK
    assert sorted(blocks) == [(0, B), (B, B), (2 * B, B), (3 * B, 5)]


def _blas_thread_counts():
    return tuple(getter() for _, getter in rngs._openblas())


def _in_fresh_process(code, **env_vars):
    """What ``code`` prints in a fresh interpreter that imports this file,
    with the variables OpenBLAS reads its thread count from unset, so that
    BLAS starts on every core, and then ``env_vars`` set."""
    blas_vars = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")
    env = {k: v for k, v in os.environ.items() if k not in blas_vars} | env_vars
    here = Path(__file__).resolve().parent
    env["PYTHONPATH"] = os.pathsep.join([str(here.parent / "src"), str(here)])
    run = subprocess.run([sys.executable, "-c", code], env=env, cwd=here,
                         capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    return ast.literal_eval(run.stdout.strip())


@pytest.mark.parametrize("blas_threads", ["1", None], ids=["one", "unset"])
def test_knn_thread_count_with_blas_threads(blas_threads):
    """The same check in a fresh process, with BLAS on one thread (as the
    benchmark sets it) or on every core."""
    env = {} if blas_threads is None else {"OPENBLAS_NUM_THREADS": blas_threads}
    code = ("from test_correction import _blas_thread_counts as b, "
            "_thread_count_mismatches as m; print(repr((b(), m())))")
    counts, mismatches = _in_fresh_process(code, **env)
    assert counts
    if blas_threads == "1":
        assert max(counts) == 1
    elif rngs.cores() > 1:
        assert min(counts) > 1
    assert mismatches == []


def _blas_threads_around_knn():
    """On two threads: the OpenBLAS thread counts before a ``knn_correct``
    call, in each of its blocks, after it and after a call whose second
    block raises, and whether its labels equal the serial expression."""
    T, L, Q = _tied_knn_inputs(3 * _KNN_BLOCK + 5)
    inside = []

    def recording(*args):
        inside.append(_blas_thread_counts())
        if len(inside) == 6:
            raise RuntimeError("block failed")
        return _sq_distances(*args)

    before = _blas_thread_counts()
    with mock.patch.object(rngs, "cores", lambda: 2), \
            mock.patch.object(correction, "_sq_distances", recording):
        same = np.array_equal(knn_correct(T, L, Q, K=5),
                              _knn_by_expression(T, L, Q, 5, _KNN_BLOCK))
        after = _blas_thread_counts()
        try:
            knn_correct(T, L, Q, K=5)
        except RuntimeError:
            pass
        after_raise = _blas_thread_counts()
    return before, sorted(set(inside)), after, after_raise, same


def test_knn_threads_run_blas_on_one_thread_and_restore_it():
    code = "from test_correction import _blas_threads_around_knn as f; print(repr(f()))"
    before, inside, after, after_raise, same = _in_fresh_process(code)
    assert before and (max(before) > 1 or os.cpu_count() == 1)
    assert inside == [(1,) * len(before)]
    assert after == after_raise == before
    assert same


@pytest.mark.parametrize("count", [1, 2])
def test_knn_peak_memory_is_two_blocks_per_thread(monkeypatch, count):
    """A block of distances and a block's selection arrays per thread, both
    where the two stages run (32 chunks) and where every block falls back
    whole to argpartition (16 chunks, fewer than 4 K)."""
    rng = np.random.default_rng(15)
    monkeypatch.setattr(rngs, "cores", lambda: count)
    for n_train in (4000, 2000):
        T = rng.standard_normal((n_train, 32))
        L = (rng.random((n_train, 5)) < 0.3).astype(np.uint8)
        Q = rng.standard_normal((300, 32))
        tracemalloc.start()
        try:
            knn_correct(T, L, Q, K=5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # a fixed budget of two 64-row blocks, so a larger block exceeds it;
        # the margin covers the float64 labels, t2, the result and the votes
        assert peak <= count * 2 * 64 * n_train * 8 + 2**19, n_train


def _record_threads(monkeypatch, barrier=None, fail_at=None):
    """Patches _sq_distances to note the calling thread, to wait at
    ``barrier`` and to raise on its ``fail_at``-th call."""
    seen = []

    def recording(*args):
        seen.append(threading.current_thread())
        if len(seen) == fail_at:
            raise RuntimeError("block failed")
        if barrier is not None:
            barrier.wait()
        return _sq_distances(*args)

    monkeypatch.setattr(correction, "_sq_distances", recording)
    return seen


def test_knn_threads_end_with_the_call(monkeypatch):
    rng = np.random.default_rng(16)
    T = rng.standard_normal((500, 4))
    L = (rng.random((500, 3)) < 0.5).astype(np.uint8)
    Q = rng.standard_normal((2 * _KNN_BLOCK, 4))
    monkeypatch.setattr(rngs, "cores", lambda: 3)
    before = threading.active_count()
    # A thread that the call did not join could still end before the checks
    # below; a long switch interval keeps this thread running until they ran.
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1.0)
    try:
        # the two blocks must be computed at once, so on two threads
        seen = _record_threads(monkeypatch, barrier=threading.Barrier(2, timeout=30))
        knn_correct(T, L, Q, K=3)
        alive = [t.is_alive() for t in seen]
        count = threading.active_count()
        # one thread per block, capped by the block count, none of them this one
        assert len(set(seen)) == 2 and threading.current_thread() not in seen
        assert alive == [False, False] and count == before

        seen = _record_threads(monkeypatch, fail_at=2)
        with pytest.raises(RuntimeError, match="block failed"):
            knn_correct(T, L, Q, K=3)
        alive = [t.is_alive() for t in seen]
        count = threading.active_count()
        assert alive == [False, False] and count == before
    finally:
        sys.setswitchinterval(interval)


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


@pytest.mark.parametrize("bad", [np.nan, 2.0, 0.5])
def test_knn_rejects_labels_that_are_not_zero_or_one(monkeypatch, bad):
    seen = _record_threads(monkeypatch)
    monkeypatch.setattr(rngs, "cores", lambda: 2)
    L = np.zeros((600, 3))
    L[[4, 9], [0, 2]] = bad
    with pytest.raises(ValueError, match="2 of their 1800 entries"):
        knn_correct(np.zeros((600, 2)), L, np.zeros((2 * _KNN_BLOCK, 2)), K=2)
    assert seen == []


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
