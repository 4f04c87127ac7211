"""The shared epoch loop: its schedule checks and its best-epoch selection."""

import numpy as np
import pytest
from numpy.testing import assert_array_equal

from lsnpc.autodiff import Tensor
from lsnpc.checkpoint import snapshot
from lsnpc.layers import TrainConfig, TrainingDiverged, fit


def _problem(seed=0):
    """Two parameters pulled toward fixed targets by a squared loss."""
    rng = np.random.default_rng(seed)
    params = {"a.W0": Tensor(rng.standard_normal((3, 2)), requires_grad=True, name="a.W0"),
              "a.b0": Tensor(rng.standard_normal(2), requires_grad=True, name="a.b0")}
    target = rng.standard_normal((6, 2))
    X = rng.standard_normal((6, 3))

    def batch_loss(idx):
        out = Tensor(X[idx]) @ params["a.W0"] + params["a.b0"]
        return (out - target[idx]).square().mean()

    return params, [("train", 6, np.random.default_rng(seed + 1), batch_loss)]


def test_fit_restores_the_best_scored_epoch_and_ties_keep_the_earlier():
    params, sweeps = _problem()
    # Best is epoch 1; epoch 3 ties it and must not replace it; the last is worst.
    scripted = iter([0.2, 0.7, 0.5, 0.7, 0.1])
    seen = []

    def score():
        seen.append(snapshot(params))
        return next(scripted)

    cfg = TrainConfig(lr=0.05, epochs=5, batch_size=4)
    losses, scores, best_epoch, best = fit(params, cfg, sweeps, score)
    assert scores == [0.2, 0.7, 0.5, 0.7, 0.1]
    assert (best_epoch, best) == (1, 0.7)
    assert len(losses["train"]) == 5
    # the epochs differ, so the restore is visible
    assert not np.array_equal(seen[1]["a.W0"], seen[3]["a.W0"])
    assert not np.array_equal(seen[1]["a.W0"], seen[4]["a.W0"])
    for name, value in snapshot(params).items():
        assert_array_equal(value, seen[1][name])


def test_fit_without_a_score_keeps_the_last_epoch():
    cfg = TrainConfig(lr=0.05, epochs=3, batch_size=4)
    params, sweeps = _problem()
    _, scores, best_epoch, best = fit(params, cfg, sweeps)
    assert scores == [] and best_epoch == -1 and np.isnan(best)
    # the same run, scored so that every epoch beats the one before it
    rising, sweeps = _problem()
    epochs = iter(range(3))
    assert fit(rising, cfg, sweeps, lambda: next(epochs))[2] == 2
    for name, value in snapshot(params).items():
        assert_array_equal(value, rising[name].data)


def test_fit_names_the_epoch_and_sweep_of_a_non_finite_loss():
    params, _ = _problem()
    sweeps = [("noisy", 4, np.random.default_rng(0),
               lambda idx: params["a.b0"].sum() * np.inf)]
    with pytest.raises(TrainingDiverged, match=r"epoch 0 \(noisy sweep\)"):
        fit(params, TrainConfig(epochs=2), sweeps)


@pytest.mark.parametrize("field, value, match", [
    ("lr", 0.0, "learning rate"),
    ("batch_size", 0, "batch size"),
    ("epochs", -1, "epochs"),
    ("optimizer", "adam", "unknown optimizer"),
])
def test_train_config_checks(field, value, match):
    with pytest.raises(ValueError, match=match):
        TrainConfig(**{field: value})
