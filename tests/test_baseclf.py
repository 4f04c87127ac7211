"""The noisy base classifier: training, prediction, label sampling."""

import hashlib

import numpy as np
import pytest
from scipy.optimize import minimize
from scipy.special import expit

from lsnpc.baseclf import (
    BaseTrainConfig,
    TrainingDiverged,
    load_base,
    predict_probs,
    sample_predictions,
    save_base,
    train_base,
    _new_classifier,
)
from lsnpc.evaluation import micro_f1
from lsnpc.layers import Mlp
from lsnpc import rngs


def separable_toy(n=200, d=4, k=2, seed=0):
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((n, d))
    W = rng.standard_normal((d, k)) * 2.0
    Y = (X @ W > 0.0).astype(np.uint8)
    return X, Y


def logistic_oracle_f1(X, Y):
    """Independent check that the toy problem is linearly solvable."""
    n, d = X.shape
    k = Y.shape[1]
    Xb = np.hstack([X, np.ones((n, 1))])

    def nll(w, y):
        z = Xb @ w
        return np.logaddexp(0.0, z).sum() - y @ z

    preds = np.zeros_like(Y)
    for j in range(k):
        res = minimize(nll, np.zeros(d + 1), args=(Y[:, j].astype(float),), method="BFGS")
        preds[:, j] = (expit(Xb @ res.x) > 0.5).astype(np.uint8)
    return micro_f1(Y, preds)


def test_separable_toy_reaches_095():
    X, Y = separable_toy()
    assert logistic_oracle_f1(X, Y) >= 0.95
    h = train_base(X, Y, BaseTrainConfig(epochs=50, seed=0))
    pred = (predict_probs(h, X) > 0.5).astype(np.uint8)
    assert micro_f1(Y, pred) >= 0.95


def test_zero_epochs_predicts_half():
    X, Y = separable_toy(n=50)
    h = train_base(X, Y, BaseTrainConfig(epochs=0, seed=0))
    probs = predict_probs(h, X)
    np.testing.assert_allclose(probs, 0.5, atol=1e-6)


def test_same_seed_identical_checkpoints(tmp_path):
    X, Y = separable_toy(n=80)
    cfg = BaseTrainConfig(epochs=5, seed=3)
    pa, pb = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
    save_base(train_base(X, Y, cfg), pa)
    save_base(train_base(X, Y, cfg), pb)
    assert pa.read_bytes() == pb.read_bytes()


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_divergence_reports_epoch():
    X, Y = separable_toy(n=40)
    X = X * 1e308  # overflows the first matmul
    with pytest.raises(TrainingDiverged, match="epoch 0"):
        train_base(X, Y, BaseTrainConfig(epochs=1, seed=0))


def test_training_loss_trend():
    # Optimizer noise allowed: compare across 5-epoch windows, not pointwise.
    X, Y = separable_toy(n=150, seed=2)
    h = train_base(X, Y, BaseTrainConfig(epochs=20, seed=2))
    losses = h.history["train_loss"]
    for i in range(len(losses) - 5):
        assert losses[i + 5] <= losses[i] + 1e-6


def test_checkpoint_selected_by_validation_f1():
    X, Y = separable_toy(n=150, seed=4)
    Xv, Yv = separable_toy(n=60, seed=5)
    h = train_base(X, Y, BaseTrainConfig(epochs=12, seed=4), validation=(Xv, Yv))
    assert h.metadata["val_micro_f1"] == max(h.history["val_micro_f1"])


# Digest of the exact float64 bytes of the parameters and the history after
# two epochs with validation.  Any change to the floating-point operations of
# training, or to their order, changes it.
TRAIN_PIN = "87fd2b768decc9486ac4bf79"


def _train_digest():
    X, Y = separable_toy(n=70, seed=5)
    Xv, Yv = separable_toy(n=30, seed=6)
    h = train_base(X, Y, BaseTrainConfig(epochs=2, batch_size=16, hidden=(8,), seed=5),
                   validation=(Xv, Yv))
    arrays = {**h.params_arrays(), "loss": h.history["train_loss"],
              "val": h.history["val_micro_f1"]}
    digest = hashlib.sha256()
    for name in sorted(arrays):
        digest.update(name.encode() + np.asarray(arrays[name], dtype=np.float64).tobytes())
    return digest.hexdigest()[:24]


def test_training_is_pinned():
    assert _train_digest() == TRAIN_PIN


def test_predict_probs_zero_weights_half():
    h = _new_classifier(d=3, k=2, hidden=(4,), seed=0)
    for p in h.net.params.values():
        p.data[:] = 0.0
    probs = predict_probs(h, np.random.default_rng(0).standard_normal((10, 3)))
    np.testing.assert_array_equal(probs, 0.5)


def test_predict_probs_clamped_open(rng):
    X, Y = separable_toy(n=100)
    h = train_base(X, Y, BaseTrainConfig(epochs=30, seed=1))
    probs = predict_probs(h, X * 50.0)
    assert probs.min() >= 1e-6
    assert probs.max() <= 1.0 - 1e-6


def test_predict_probs_dim_mismatch():
    X, Y = separable_toy()
    h = train_base(X, Y, BaseTrainConfig(epochs=1, seed=0))
    with pytest.raises(ValueError):
        predict_probs(h, np.zeros((3, 7)))


def test_predict_probs_monotone_positive_network():
    # Single linear layer with positive weights: raising any feature can
    # only raise every sigmoid output.
    h = _new_classifier(d=2, k=2, hidden=(), seed=0)
    h.net.params["clf.W0"].data = np.array([[0.5, 1.5], [2.0, 0.2]])
    h.net.params["clf.b0"].data = np.array([0.1, -0.3])
    x = np.array([[0.3, -0.8]])
    base = predict_probs(h, x)
    for j in range(2):
        bumped = x.copy()
        bumped[0, j] += 0.7
        assert np.all(predict_probs(h, bumped) >= base)


def test_sample_predictions_saturated():
    P = np.full(4, 1.0 - 1e-6)
    out = sample_predictions(P, 1000, rngs.stream(0, "t"))
    assert out.shape == (1000, 4)
    assert out.sum() >= 1000 * 4 - 5


def test_sample_predictions_mean_matches(rng):
    P = np.array([0.1, 0.5, 0.9])
    out = sample_predictions(P, 100_000, rng)
    se = np.sqrt(P * (1 - P) / 100_000)
    assert np.all(np.abs(out.mean(axis=0) - P) < 3 * se)


def test_sample_predictions_deterministic():
    P = np.array([0.3, 0.7])
    a = sample_predictions(P, 1, rngs.stream(5, "s"))
    b = sample_predictions(P, 1, rngs.stream(5, "s"))
    np.testing.assert_array_equal(a, b)


def test_base_checkpoint_load_then_save_is_byte_identical(tmp_path):
    X, Y = separable_toy(n=40)
    h = train_base(X, Y, BaseTrainConfig(epochs=1, seed=7, hidden=(8,)))
    assert np.isnan(h.metadata["val_micro_f1"])  # no validation set
    first, second = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
    save_base(h, first)
    loaded = load_base(first)
    assert (loaded.metadata["epochs"], loaded.metadata["seed"]) == (1, 7)
    save_base(loaded, second)
    assert second.read_bytes() == first.read_bytes()


def test_base_checkpoint_round_trip(tmp_path):
    X, Y = separable_toy(n=60)
    h = train_base(X, Y, BaseTrainConfig(epochs=3, seed=7, hidden=(8, 8)))
    path = tmp_path / "h.ckpt"
    save_base(h, path)
    loaded = load_base(path)
    assert loaded.d == h.d and loaded.k == h.k and loaded.hidden == h.hidden
    np.testing.assert_array_equal(
        predict_probs(loaded, X[:5]), predict_probs(h, X[:5])
    )


def test_base_checkpoint_saves_numpy_scalars_as_python_scalars(tmp_path):
    X, Y = separable_toy(n=40)
    h = train_base(X, Y, BaseTrainConfig(epochs=0, seed=7, hidden=(8,)))
    h.metadata = {"score": np.float64(0.5), "n": np.int64(3)}
    first, second = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
    save_base(h, first)
    loaded = load_base(first)
    assert loaded.metadata == {"score": 0.5, "n": 3}
    assert type(loaded.metadata["score"]) is float and type(loaded.metadata["n"]) is int
    save_base(loaded, second)
    assert second.read_bytes() == first.read_bytes()
