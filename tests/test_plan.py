"""Recorded training steps: a plan replays its taped step bit for bit.

``fit`` records the first step of each (sweep, input shapes) key on the tape
and replays later steps from the record.  These tests hold each replayed
step's loss, parameter gradients and updated parameters to a taped run of
the same step, byte for byte; check that a step whose values leave the
finite range, or whose labels are not binary, raises the tape's own error
even when it is a replayed step; and count the Tensors that training builds.
"""

import numpy as np
import pytest

from lsnpc import autodiff, checkpoint, layers
from lsnpc.autodiff import Tensor, backward, detached, record
from lsnpc.baseclf import BaseTrainConfig, _bce, _new_classifier, train_base
from lsnpc.layers import AdamW, TrainingDiverged
from lsnpc.model import (
    LsnpcModel,
    LsnpcTrainConfig,
    ModelConfig,
    _elbo,
    _step_inputs,
    supervised_loss,
    train_semi_supervised,
    unsupervised_loss,
)

TINY = dict(d=3, k=4, m=2, embed_hidden=5, embed_dim=6, encoder_hidden=(7,),
            decoder_hidden=(6,), shift_hidden=(4,), nu=3.0, nu0=4.0)
DEFAULT = dict(d=32, k=10)
PROPOSALS = {"student": {}, "normal": {"proposal": "normal"}, "learned-nu": {"nu_mode": "learned"}}
STEPS = 36


def _model(widths, proposal, seed=5):
    model = LsnpcModel(ModelConfig(**widths, **PROPOSALS[proposal]), seed=seed)
    # zero-initialized heads give many exact zeros; jitter every parameter
    rng = np.random.default_rng(seed + 1000)
    for p in model.params.values():
        p.data[...] += 0.1 * rng.standard_normal(p.shape)
    return model


def _batches(cfg, rows, seed=6):
    """Fresh rows every step, so a value captured at the record goes stale."""
    rng = np.random.default_rng(seed)
    for _ in range(STEPS):
        x = rng.standard_normal((rows, cfg.d))
        y = (rng.random((rows, cfg.k)) < 0.4).astype(float)
        yhat = np.abs(y - (rng.random(y.shape) < 0.2))
        yield x, y, yhat


def _assert_same_step(loss, tape_loss, plan_params, tape_params):
    assert np.float64(loss).tobytes() == tape_loss.data.tobytes()
    for name, p in tape_params.items():
        assert plan_params[name].grad.tobytes() == p.grad.tobytes(), name


@pytest.mark.parametrize("widths", [TINY, DEFAULT], ids=["tiny", "default"])
@pytest.mark.parametrize("proposal", sorted(PROPOSALS))
@pytest.mark.parametrize("kind", ["unsupervised", "supervised"])
def test_replayed_loss_steps_equal_the_tape_byte_for_byte(kind, proposal, widths):
    tape, plan_model = _model(widths, proposal), _model(widths, proposal)
    tape_opt, plan_opt = AdamW(tape.params, lr=5e-3), AdamW(plan_model.params, lr=5e-3)
    tape_rng, plan_rng = np.random.default_rng(7), np.random.default_rng(7)
    clean = kind == "supervised"
    plan, records = None, 0
    for x, y, yhat in _batches(tape.cfg, rows=24):
        if clean:
            tape_loss = supervised_loss(tape, x, y, yhat, rng=tape_rng, s_z=2)
        else:
            tape_loss = unsupervised_loss(tape, x, yhat, rng=tape_rng, s_z=2)
        tape_opt.zero_grad()
        backward(tape_loss, tape.params)

        inputs = _step_inputs(plan_model, x, y if clean else None, yhat, plan_rng, 2, None)
        loss = None if plan is None else plan.run(inputs)
        if loss is None:
            records += 1
            plan, loss = record(lambda b: _elbo(plan_model, b, 2)[0], inputs,
                                plan_model.params)
        _assert_same_step(loss, tape_loss, plan_model.params, tape.params)
        tape_opt.step()
        plan_opt.step()
        for name, p in tape.params.items():
            assert plan_model.params[name].data.tobytes() == p.data.tobytes(), name
    assert records == 1


def test_replayed_base_classifier_steps_equal_the_tape_byte_for_byte():
    tape, replayed = (_new_classifier(8, 5, (16, 16), seed=3).net for _ in range(2))
    tape_opt, plan_opt = AdamW(tape.params, lr=1e-2), AdamW(replayed.params, lr=1e-2)
    rng = np.random.default_rng(4)
    plan = None
    for _ in range(STEPS):
        x = rng.standard_normal((12, 8))
        y = (rng.random((12, 5)) < 0.5).astype(float)
        tape_loss = _bce(tape(Tensor(x)), Tensor(y))
        tape_opt.zero_grad()
        backward(tape_loss, tape.params)
        inputs = {"x": x, "y": y}
        loss = None if plan is None else plan.run(inputs)
        if loss is None:
            plan, loss = record(lambda b: _bce(replayed(Tensor(b["x"])), Tensor(b["y"])),
                                inputs, replayed.params)
        _assert_same_step(loss, tape_loss, replayed.params, tape.params)
        tape_opt.step()
        plan_opt.step()
        for name, p in tape.params.items():
            assert replayed.params[name].data.tobytes() == p.data.tobytes(), name


def test_record_rejects_an_array_that_is_not_a_step_input():
    w = Tensor(np.ones(3), requires_grad=True, name="w")
    target = np.arange(3.0)
    with pytest.raises(ValueError, match="not one of the step's inputs"):
        record(lambda b: (w * Tensor(b["x"]) - target).sum(), {"x": np.ones(3)}, {"w": w})
    # scalars are constants, and the same values through the inputs record
    plan, loss = record(lambda b: ((w * Tensor(b["x"]) - b["t"]) * 2.0).sum(),
                        {"x": np.ones(3), "t": target}, {"w": w})
    assert loss == 0.0 and w.grad.tolist() == [2.0, 2.0, 2.0]
    assert plan.run({"x": np.full(3, 2.0), "t": target}) == 6.0
    assert w.grad.tolist() == [4.0, 4.0, 4.0]
    # one array under two names could be two arrays on a later step
    with pytest.raises(ValueError, match="'x' and 't' are one array"):
        record(lambda b: (w * Tensor(b["x"]) - b["t"]).sum(), {"x": target, "t": target},
               {"w": w})
    # a node made before the step would need its gradient from a plan that
    # cannot replay it; read without its gradient, it is a constant
    before = w * 2.0
    with pytest.raises(ValueError, match=r"reads node mul, made before the step"):
        record(lambda b: (before * Tensor(b["x"])).sum(), {"x": np.ones(3)}, {"w": w})
    plan, loss = record(lambda b: (w * detached(np.multiply, before, b["x"])).sum(),
                        {"x": np.ones(3)}, {"w": w})
    assert loss == 6.0 and plan.run({"x": np.full(3, 2.0)}) == 12.0
    assert w.grad.tolist() == [4.0, 4.0, 4.0]


def test_backward_adds_into_grad_while_record_and_run_set_it():
    w = Tensor(np.array([1.0, 2.0]), requires_grad=True, name="w")
    off = Tensor(np.array([5.0]), requires_grad=True, name="off")  # not on the tape
    params = {"w": w, "off": off}
    x = np.array([3.0, 4.0])
    loss = (w * Tensor(x)).sum()
    backward(loss, params)
    backward(loss, params)
    assert w.grad.tolist() == [6.0, 8.0] and off.grad.tolist() == [0.0]
    # the grads left by backward are stale to the recorded step and its replays
    plan, _ = record(lambda b: (w * Tensor(b["x"])).sum(), {"x": x}, params)
    assert w.grad.tolist() == [3.0, 4.0] and off.grad.tolist() == [0.0]
    w.grad, off.grad = np.full(2, 100.0), np.full(1, 100.0)
    assert plan.run({"x": np.array([-1.0, 0.5])}) == 0.0
    assert w.grad.tolist() == [-1.0, 0.5] and off.grad.tolist() == [0.0]


# ---------------------------------------------------------------------------
# through fit: keys, restores, and a forced tape run to compare against


def _toy(n, d=3, k=4, seed=8):
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((n, d))
    Y = (rng.random((n, k)) < 0.5).astype(float)
    return X, Y, train_base(X, Y, BaseTrainConfig(epochs=0, hidden=(8,), seed=seed))


@pytest.fixture
def records(monkeypatch):
    """The number of steps that ``fit`` recorded on the tape."""
    count = []

    def counted(*args):
        count.append(1)
        return record(*args)

    monkeypatch.setattr(layers, "record", counted)
    return count


def _taped(monkeypatch, run):
    """``run()`` with every step recorded on the tape: no plan replays."""
    with monkeypatch.context() as m:
        m.setattr(autodiff.Plan, "run", lambda self, inputs: None)
        return run()


def test_a_ragged_last_batch_records_its_own_plan(records, monkeypatch):
    X, _, h = _toy(1400)  # 43 batches of 32 rows and one of 24
    cfg = LsnpcTrainConfig(epochs=2, batch_size=32, s_y=1, seed=9)

    def run():
        return train_semi_supervised(LsnpcModel(ModelConfig(**TINY), seed=9), h, X, None, cfg)

    replayed = run()
    assert len(records) == 2
    taped = _taped(monkeypatch, run)
    assert len(records) == 2 + 2 * 44
    for name, value in checkpoint.snapshot(taped.params).items():
        assert replayed.params[name].data.tobytes() == value.tobytes(), name


def test_restores_and_a_warm_start_need_no_new_record(records, monkeypatch):
    X, Y, h = _toy(40)
    cfg = LsnpcTrainConfig(epochs=4, batch_size=16, s_y=2, seed=10)
    warm = train_semi_supervised(LsnpcModel(ModelConfig(**TINY), seed=10), h, X, None, cfg)

    def run():
        # the semi-supervised arm's warm start: another model's parameters
        model = LsnpcModel(ModelConfig(**TINY), seed=11)
        checkpoint.restore(model.params, checkpoint.snapshot(warm.params))
        first = []

        def score(m):
            # after epoch 1, go back to the parameters of epoch 0
            if len(first) == 1:
                checkpoint.restore(m.params, first[0])
            first.append(checkpoint.snapshot(m.params))
            return float(len(first) % 2)

        return train_semi_supervised(model, h, X, (X[:10], Y[:10]), cfg, score=score)

    del records[:]
    replayed = run()
    # keys: 16 and 8 noisy rows, 10 clean rows, each tiled twice
    assert len(records) == 3
    taped = _taped(monkeypatch, run)
    assert replayed.history == taped.history
    for name, value in checkpoint.snapshot(taped.params).items():
        assert replayed.params[name].data.tobytes() == value.tobytes(), name


# ---------------------------------------------------------------------------
# checks that the tape makes on a step's inputs still run on replayed steps


def _spoil_after_epoch_0(array, index, value):
    """A score that writes ``value`` into ``array`` once epoch 0 is scored."""
    def score(_):
        array[index] = value
        return 0.0
    return score


def _error_text(run, monkeypatch, error):
    with pytest.raises(error) as replayed:
        run()
    with pytest.raises(error) as taped:
        _taped(monkeypatch, run)
    assert str(replayed.value) == str(taped.value)
    return str(replayed.value)


def test_base_trainer_names_a_nan_feature_row_met_on_a_replayed_step(monkeypatch):
    def run():
        X, Y, _ = _toy(24, seed=12)
        cfg = BaseTrainConfig(epochs=3, batch_size=8, hidden=(8,), seed=12)
        return train_base(X, Y, cfg, score=_spoil_after_epoch_0(X, (5, 1), np.nan))

    # the NaN row's batch leaf is the first bad value
    assert _error_text(run, monkeypatch, TrainingDiverged) == (
        "epoch 1 (train sweep): non-finite loss (first bad op: leaf)")


def test_base_trainer_takes_a_non_binary_label_on_a_replayed_step_as_the_tape_does(
        monkeypatch):
    def run():
        X, Y, _ = _toy(24, seed=12)
        cfg = BaseTrainConfig(epochs=3, batch_size=8, hidden=(8,), seed=12)
        return train_base(X, Y, cfg, score=_spoil_after_epoch_0(Y, (5, 1), 0.5))

    replayed, taped = run(), _taped(monkeypatch, run)
    for name, value in checkpoint.snapshot(taped.net.params).items():
        assert replayed.net.params[name].data.tobytes() == value.tobytes(), name


def _lsnpc_run(spoil):
    def run():
        X, Y, h = _toy(24, seed=13)
        clean = (X[:8].copy(), Y[:8].copy())
        cfg = LsnpcTrainConfig(epochs=3, batch_size=8, s_y=2, seed=13)
        target = {"feature": (X, (5, 1), np.nan), "label": (clean[1], (3, 2), 0.5)}[spoil]
        return train_semi_supervised(LsnpcModel(ModelConfig(**TINY), seed=13), h, X, clean,
                                     cfg, score=_spoil_after_epoch_0(*target))
    return run


def test_lsnpc_trainer_names_a_nan_feature_row_met_on_a_replayed_step(monkeypatch):
    text = _error_text(_lsnpc_run("feature"), monkeypatch, TrainingDiverged)
    assert text.startswith("epoch 1 (noisy sweep): non-finite loss (first bad op: leaf); "
                           "rec: ")
    assert "lp_shift: " in text and "lq_z: " in text


def test_lsnpc_trainer_rejects_a_non_binary_label_met_on_a_replayed_step(monkeypatch):
    assert _error_text(_lsnpc_run("label"), monkeypatch, ValueError) == "labels must be binary"


# ---------------------------------------------------------------------------
# the replay builds no Tensor


@pytest.fixture
def tensors_per_step(monkeypatch):
    """Tensors built since the step before, one count per optimizer step."""
    made, counts = [0], []
    init, step = Tensor.__init__, AdamW.step

    def counting_init(self, *args, **kwargs):
        made[0] += 1
        init(self, *args, **kwargs)

    def counting_step(self, *args, **kwargs):
        counts.append(made[0])
        made[0] = 0
        step(self, *args, **kwargs)

    monkeypatch.setattr(Tensor, "__init__", counting_init)
    monkeypatch.setattr(AdamW, "step", counting_step)
    return counts


def _first_of_each_key(keys):
    return [keys.index(key) == i for i, key in enumerate(keys)]


def test_only_the_first_step_of_each_key_builds_tensors(tensors_per_step):
    X, Y, h = _toy(20)
    cfg = LsnpcTrainConfig(epochs=3, batch_size=8, s_y=2, seed=14)
    score = lambda m: 0.0  # noqa: E731
    train_semi_supervised(LsnpcModel(ModelConfig(**TINY), seed=14), h, X,
                          (X[:6], Y[:6]), cfg, score=score)
    keys = [("noisy", 8), ("noisy", 8), ("noisy", 4), ("clean", 6)] * 3
    assert [n > 0 for n in tensors_per_step] == _first_of_each_key(keys)

    del tensors_per_step[:]
    train_base(X, Y, BaseTrainConfig(epochs=3, batch_size=8, hidden=(8,), seed=14))
    keys = [8, 8, 4] * 3
    assert [n > 0 for n in tensors_per_step] == _first_of_each_key(keys)
