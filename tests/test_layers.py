"""The shared epoch loop (its schedule checks and its best-epoch selection)
and AdamW, against the per-parameter loop it replaces."""

import numpy as np
import pytest
from numpy.testing import assert_array_equal

from lsnpc.autodiff import Tensor, backward
from lsnpc.checkpoint import restore, snapshot
from lsnpc.layers import AdamW, Mlp, TrainConfig, TrainingDiverged, cosine_lr, fit


def _problem(seed=0):
    """Two parameters pulled toward fixed targets by a squared loss."""
    rng = np.random.default_rng(seed)
    params = {"a.W0": Tensor(rng.standard_normal((3, 2)), requires_grad=True, name="a.W0"),
              "a.b0": Tensor(rng.standard_normal(2), requires_grad=True, name="a.b0")}
    target = rng.standard_normal((6, 2))
    X = rng.standard_normal((6, 3))

    def batch_loss(batch):
        out = Tensor(batch["x"]) @ params["a.W0"] + params["a.b0"]
        return (out - batch["target"]).square().mean()

    return params, [("train", 6, np.random.default_rng(seed + 1),
                     lambda idx: {"x": X[idx], "target": target[idx]}, batch_loss)]


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
    sweeps = [("noisy", 4, np.random.default_rng(0), lambda idx: {},
               lambda batch: params["a.b0"].sum() * np.inf)]
    with pytest.raises(TrainingDiverged, match=r"epoch 0 \(noisy sweep\)"):
        fit(params, TrainConfig(epochs=2), sweeps)
    # finite through epoch 0, whose steps are recorded and replayed; the
    # score then makes the inputs of epoch 1's replayed steps infinite
    scale = [1.0]
    sweeps = [("noisy", 8, np.random.default_rng(0), lambda idx: {"s": np.full(1, scale[0])},
               lambda batch: (params["a.b0"].sum() * Tensor(batch["s"])).sum())]

    def score():
        scale[0] = np.inf
        return 0.0

    with pytest.raises(TrainingDiverged) as err:
        fit(params, TrainConfig(epochs=3, batch_size=2), sweeps, score)
    assert str(err.value) == "epoch 1 (noisy sweep): non-finite loss (first bad op: leaf)"


@pytest.mark.parametrize("field, value, match", [
    ("lr", 0.0, "learning rate"),
    ("batch_size", 0, "batch size"),
    ("epochs", -1, "epochs"),
    ("optimizer", "adam", "unknown optimizer"),
])
def test_train_config_checks(field, value, match):
    with pytest.raises(ValueError, match=match):
        TrainConfig(**{field: value})


# ---------------------------------------------------------------------------
# AdamW


class PerParameterAdamW:
    """The textbook per-parameter AdamW loop: the oracle of the arena AdamW."""

    def __init__(self, params, lr, weight_decay, beta1=0.9, beta2=0.999, eps=1e-8):
        self.params, self.lr, self.weight_decay = params, lr, weight_decay
        self.beta1, self.beta2, self.eps = beta1, beta2, eps
        self.m = {name: np.zeros_like(p.data) for name, p in params.items()}
        self.v = {name: np.zeros_like(p.data) for name, p in params.items()}
        self.t = 0

    def step(self, lr_scale):
        self.t += 1
        lr = self.lr * lr_scale
        bc1 = 1.0 - self.beta1**self.t
        bc2 = 1.0 - self.beta2**self.t
        for name in sorted(self.params):
            p, g, m, v = self.params[name], self.params[name].grad, self.m[name], self.v[name]
            m *= self.beta1
            m += (1.0 - self.beta1) * g
            v *= self.beta2
            v += (1.0 - self.beta2) * np.square(g)
            update = (m / bc1) / (np.sqrt(v / bc2) + self.eps)
            if self.weight_decay and ".W" in name:
                update = update + self.weight_decay * p.data
            p.data -= lr * update


def _mixed_mlp():
    """An Mlp with weights, biases and layer-norm gains and shifts, plus a batch."""
    rng = np.random.default_rng(40)
    net = Mlp("net", 6, (16, 9), 4, rng, zero_init_head=False)
    return net, rng.standard_normal((12, 6)), rng.standard_normal((12, 4))


def test_adamw_gives_the_per_parameter_loop_bit_for_bit():
    net, x, target = _mixed_mlp()
    twin, _, _ = _mixed_mlp()
    assert {name.rsplit(".", 1)[-1][0] for name in net.params} == {"W", "b", "g"}
    opt = AdamW(params=net.params, lr=0.01, weight_decay=0.05)
    oracle = PerParameterAdamW(twin.params, lr=0.01, weight_decay=0.05)
    for step in range(36):
        for model, optimizer in ((net, opt), (twin, oracle)):
            for p in model.params.values():
                p.grad = None
            rows = np.arange(step % 3, 12, 2)
            loss = (model(Tensor(x[rows])) - target[rows]).square().mean()
            backward(loss, model.params)
            optimizer.step(lr_scale=cosine_lr(step // 3))
        for name, p in net.params.items():
            assert p.data.tobytes() == twin.params[name].data.tobytes(), (step, name)


def test_adamw_decays_weight_matrices_only():
    net, _, _ = _mixed_mlp()
    before = snapshot(net.params)
    opt = AdamW(params=net.params, lr=0.1, weight_decay=0.5)
    for p in net.params.values():
        p.grad = np.zeros(p.shape)
    opt.step()
    for name, p in net.params.items():
        expected = before[name] - 0.1 * (0.5 * before[name]) if ".W" in name else before[name]
        assert_array_equal(p.data, expected, err_msg=name)


def test_adamw_names_a_parameter_without_a_gradient():
    params, _ = _problem()
    opt = AdamW(params=params)
    params["a.W0"].grad = np.ones((3, 2))
    with pytest.raises(ValueError, match="a.b0 has no gradient"):
        opt.step()


def test_restore_writes_into_the_optimizers_arrays():
    net, _, _ = _mixed_mlp()
    saved = {name: value + 1.0 for name, value in snapshot(net.params).items()}
    AdamW(params=net.params)
    bound = {name: p.data for name, p in net.params.items()}
    restore(net.params, saved)
    for name, p in net.params.items():
        assert p.data is bound[name]
        assert_array_equal(p.data, saved[name])
    with pytest.raises(ValueError, match="names"):
        restore(net.params, {**saved, "net.extra": np.zeros(1)})
    with pytest.raises(ValueError, match="shape mismatch for net.b0"):
        restore(net.params, {**saved, "net.b0": np.zeros(3)})
    for name, p in net.params.items():
        assert p.data is bound[name]
