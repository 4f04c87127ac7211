"""Metrics against brute-force counting, pinned worked examples, and report
serialization."""

import numpy as np
import pytest
from hypothesis import given, strategies as st
from numpy.testing import assert_array_equal

from lsnpc.evaluation import (
    Report,
    RunMetrics,
    build_report,
    label_counts,
    macro_f1,
    micro_f1,
)


# ---------------------------------------------------------------------------
# pinned worked examples


def test_perfect_prediction_scores_one():
    Y = np.array([[1, 0, 1], [0, 1, 0]])
    assert micro_f1(Y, Y) == 1.0
    assert macro_f1(Y, Y) == 1.0


def test_micro_pools_counts_over_cells():
    # TP = 2, FP = 1, FN = 0 -> 2*2 / (2*2 + 1 + 0) = 0.8
    truth = np.array([[1, 0], [0, 1]])
    pred = np.array([[1, 1], [0, 1]])
    assert micro_f1(truth, pred) == pytest.approx(0.8)


def test_macro_averages_per_label():
    # label 0: tp=1 fp=1 fn=0 -> 2/3; label 1: tp=1 fp=0 fn=0 -> 1
    truth = np.array([[1, 0], [0, 1]])
    pred = np.array([[1, 1], [0, 1]])
    assert macro_f1(truth, pred) == pytest.approx((2.0 / 3.0 + 1.0) / 2.0)


def test_all_zero_prediction_scores_zero():
    truth = np.array([[1, 1], [1, 0]])
    pred = np.zeros_like(truth)
    assert micro_f1(truth, pred) == 0.0
    # label 1 has a miss, label 0 has misses: no vacuous credit anywhere
    assert macro_f1(truth, pred) == 0.0


def test_empty_everything_is_zero_micro():
    Y = np.zeros((3, 2), dtype=int)
    assert micro_f1(Y, Y) == 0.0


def test_vacuous_label_conventions():
    # second label never occurs and is never predicted
    truth = np.array([[1, 0], [1, 0]])
    pred = np.array([[1, 0], [1, 0]])
    assert macro_f1(truth, pred) == 1.0


def test_label_counts_worked_example():
    truth = np.array([[1, 0, 1], [1, 1, 0], [0, 1, 0]])
    pred = np.array([[1, 1, 0], [0, 1, 0], [0, 1, 1]])
    tp, fp, fn = label_counts(truth, pred)
    assert_array_equal(tp, [1, 2, 0])
    assert_array_equal(fp, [0, 1, 1])
    assert_array_equal(fn, [1, 0, 1])


def test_inputs_validated():
    with pytest.raises(ValueError, match="shape"):
        micro_f1(np.zeros((2, 3)), np.zeros((3, 2)))
    with pytest.raises(ValueError, match="binary"):
        micro_f1(np.full((2, 2), 0.5), np.zeros((2, 2)))


# ---------------------------------------------------------------------------
# brute-force counting oracle


def _brute_force(truth, pred):
    n, k = truth.shape
    per_label = []
    tp_all = fp_all = fn_all = 0
    for j in range(k):
        tp = fp = fn = 0
        for i in range(n):
            if truth[i, j] == 1 and pred[i, j] == 1:
                tp += 1
            elif truth[i, j] == 0 and pred[i, j] == 1:
                fp += 1
            elif truth[i, j] == 1 and pred[i, j] == 0:
                fn += 1
        tp_all, fp_all, fn_all = tp_all + tp, fp_all + fp, fn_all + fn
        per_label.append(1.0 if tp + fp + fn == 0 else 2 * tp / (2 * tp + fp + fn))
    micro = 0.0 if tp_all + fp_all + fn_all == 0 else 2 * tp_all / (2 * tp_all + fp_all + fn_all)
    return micro, float(np.mean(per_label))


def test_metrics_match_brute_force_on_thousand_cases():
    rng = np.random.default_rng(42)
    for _ in range(1000):
        n = int(rng.integers(1, 9))
        k = int(rng.integers(1, 9))
        density = rng.random()
        truth = (rng.random((n, k)) < density).astype(int)
        pred = (rng.random((n, k)) < density).astype(int)
        micro, macro = _brute_force(truth, pred)
        assert micro_f1(truth, pred) == pytest.approx(micro, abs=1e-12)
        assert macro_f1(truth, pred) == pytest.approx(macro, abs=1e-12)


@given(st.integers(0, 2**30 - 1))
def test_metrics_bounded_and_row_permutation_invariant(seed):
    rng = np.random.default_rng(seed)
    n, k = int(rng.integers(1, 12)), int(rng.integers(1, 8))
    truth = (rng.random((n, k)) < 0.5).astype(int)
    pred = (rng.random((n, k)) < 0.5).astype(int)
    mi, ma = micro_f1(truth, pred), macro_f1(truth, pred)
    assert 0.0 <= mi <= 1.0 and 0.0 <= ma <= 1.0
    perm = rng.permutation(n)
    assert micro_f1(truth[perm], pred[perm]) == pytest.approx(mi, abs=1e-12)
    assert macro_f1(truth[perm], pred[perm]) == pytest.approx(ma, abs=1e-12)


@given(st.integers(0, 2**30 - 1))
def test_micro_is_label_permutation_invariant(seed):
    rng = np.random.default_rng(seed)
    n, k = int(rng.integers(1, 10)), int(rng.integers(2, 8))
    truth = (rng.random((n, k)) < 0.5).astype(int)
    pred = (rng.random((n, k)) < 0.5).astype(int)
    perm = rng.permutation(k)
    assert micro_f1(truth[:, perm], pred[:, perm]) == pytest.approx(
        micro_f1(truth, pred), abs=1e-12
    )
    assert macro_f1(truth[:, perm], pred[:, perm]) == pytest.approx(
        macro_f1(truth, pred), abs=1e-12
    )


# ---------------------------------------------------------------------------
# aggregation and serialization


def _run(seed, micro, macro=0.5, method="lsnpc"):
    return RunMetrics(setting="sym", nr=0.3, method=method, seed=seed,
                      micro_f1=micro, macro_f1=macro)


def test_build_report_single_run_has_zero_std():
    report = build_report([_run(1, 0.75)])
    mean, std, n = report.lookup("sym", 0.3, "lsnpc", "micro_f1")
    assert (mean, std, n) == (75.0, 0.0, 1)


def test_build_report_mean_and_sample_std():
    report = build_report([_run(1, 0.70), _run(2, 0.80)])
    mean, std, n = report.lookup("sym", 0.3, "lsnpc", "micro_f1")
    assert mean == pytest.approx(75.0)
    # sample std of {70, 80} with the n-1 denominator
    assert std == pytest.approx(np.sqrt(50.0))
    assert n == 2


def test_build_report_groups_methods_separately():
    report = build_report([_run(1, 0.7), _run(1, 0.6, method="baseline")])
    assert report.lookup("sym", 0.3, "baseline", "micro_f1")[0] == pytest.approx(60.0)
    with pytest.raises(KeyError):
        report.lookup("sym", 0.3, "knn", "micro_f1")
    with pytest.raises(ValueError, match="at least one"):
        build_report([])


def test_report_csv_round_trip():
    report = build_report(
        [_run(s, 0.7 + 0.01 * s) for s in range(1, 6)]
        + [_run(s, 0.6 + 0.02 * s, method="baseline") for s in range(1, 6)]
    )
    lines = report.to_csv().splitlines()
    assert lines[0] == "setting,nr,method,metric,mean,std,n_seeds"
    assert len(lines) == 1 + len(report.rows)
    for line, row in zip(lines[1:], report.rows):
        setting, nr, method, metric, mean, std, n = line.split(",")
        # floats are written through str, so they parse back to the same values
        assert (setting, float(nr), method, metric, float(mean), float(std), int(n)) == row


def test_report_csv_writes_a_numpy_float_as_a_python_float():
    # under numpy 2, repr(np.float64(0.5)) is "np.float64(0.5)"; str gives "0.5"
    value = 0.1 + 0.2
    written = [Report(("name", "value"), ("name", "value"), ("", ".2f"), rows=[("a", v)]).to_csv()
               for v in (np.float64(value), value)]
    assert written[0] == written[1] == "name,value\na,0.30000000000000004\n"


def test_report_text_is_aligned():
    report = build_report([_run(1, 0.7), _run(1, 0.6, macro=0.45, method="baseline")])
    assert report.to_text() == (
        "setting  nr   method    metric    mean   std   seeds\n"
        "sym      0.3  baseline  micro_f1  60.00  0.00  1    \n"
        "sym      0.3  baseline  macro_f1  45.00  0.00  1    \n"
        "sym      0.3  lsnpc     micro_f1  70.00  0.00  1    \n"
        "sym      0.3  lsnpc     macro_f1  50.00  0.00  1    \n"
    )
