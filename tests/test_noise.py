"""Transition-matrix construction, label corruption, dataset splitting."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from lsnpc.datagen import FeatureDataset
from lsnpc.noise import (
    SplitSpec,
    TransitionMatrix,
    build_transition_matrix,
    corrupt_labels,
    load_transition,
    save_transition,
    split_dataset,
)


def toy_dataset(n=100, d=3, k=4, seed=0):
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((n, d)).astype(np.float32)
    Y = (rng.random((n, k)) < 0.3).astype(np.uint8)
    return FeatureDataset(X=X, Y=Y, metadata={"origin": "toy"})


# ---------------------------------------------------------------------------
# transition matrices


def test_sym_matrix_k4():
    T = build_transition_matrix("sym", 4, 0.3)
    np.testing.assert_allclose(np.diag(T.rows), 0.7)
    off = T.rows[~np.eye(4, dtype=bool)]
    np.testing.assert_allclose(off, 0.1)


@pytest.mark.parametrize("kind", ["sym", "pair"])
def test_zero_rate_is_identity(kind):
    T = build_transition_matrix(kind, 5, 0.0)
    np.testing.assert_array_equal(T.rows, np.eye(5))


def test_pair_matrix_k3():
    T = build_transition_matrix("pair", 3, 0.4)
    expected = np.array([[0.6, 0.4, 0.0], [0.0, 0.6, 0.4], [0.4, 0.0, 0.6]])
    np.testing.assert_allclose(T.rows, expected)


def test_negative_or_nan_probabilities_rejected():
    with pytest.raises(ValueError, match="non-negative"):
        TransitionMatrix(k=2, kind="sym", nr=0.5, rows=[[1.5, -0.5], [0.0, 1.0]])
    with pytest.raises(ValueError, match="non-negative"):
        TransitionMatrix(k=2, kind="sym", nr=0.5, rows=[[np.nan, 1.0], [0.0, 1.0]])


def test_rate_bounds_enforced():
    with pytest.raises(ValueError):
        build_transition_matrix("sym", 4, 1.0)
    with pytest.raises(ValueError):
        build_transition_matrix("sym", 4, -0.1)
    with pytest.raises(ValueError):
        build_transition_matrix("flip", 4, 0.2)
    with pytest.raises(ValueError):
        build_transition_matrix("sym", 1, 0.2)


@given(
    kind=st.sampled_from(["sym", "pair"]),
    k=st.integers(2, 12),
    nr=st.floats(0.0, 0.99),
)
def test_rows_stochastic_and_diagonal(kind, k, nr):
    T = build_transition_matrix(kind, k, nr)
    np.testing.assert_allclose(T.rows.sum(axis=1), 1.0, atol=1e-12)
    np.testing.assert_allclose(np.diag(T.rows), 1.0 - nr, atol=1e-12)
    assert np.all(T.rows >= 0.0)


# ---------------------------------------------------------------------------
# corruption


def test_identity_transition_is_noop():
    ds = toy_dataset()
    T = build_transition_matrix("sym", 4, 0.0)
    np.testing.assert_array_equal(corrupt_labels(ds.Y, T, seed=3), ds.Y)


def test_all_zero_rows_unchanged():
    Y = np.zeros((50, 4), dtype=np.uint8)
    T = build_transition_matrix("sym", 4, 0.5)
    np.testing.assert_array_equal(corrupt_labels(Y, T, seed=3), Y)


def test_corruption_deterministic():
    ds = toy_dataset()
    T = build_transition_matrix("pair", 4, 0.4)
    a = corrupt_labels(ds.Y, T, seed=11)
    b = corrupt_labels(ds.Y, T, seed=11)
    np.testing.assert_array_equal(a, b)
    c = corrupt_labels(ds.Y, T, seed=12)
    assert not np.array_equal(a, c)


def _choice_reference(Y, T, seed):
    """Per-positive Generator.choice draws, one stream per row."""
    out = Y.astype(np.uint8).copy()
    labels = np.arange(T.k)
    for row_index in range(Y.shape[0]):
        positives = np.flatnonzero(Y[row_index])
        if positives.size == 0:
            continue
        grow = np.random.Generator(np.random.PCG64(int(seed) ^ int(row_index)))
        targets = [int(grow.choice(labels, p=T.rows[i])) for i in positives]
        moves = [(int(i), j) for i, j in zip(positives, targets) if j != int(i)]
        for i, _ in moves:
            out[row_index, i] = 0
        for _, j in moves:
            out[row_index, j] = 1
    return out


@pytest.mark.parametrize("kind,nr", [("sym", 0.3), ("pair", 0.4), ("sym", 0.5)])
def test_corruption_equals_choice_reference(kind, nr):
    rng = np.random.default_rng(50)
    Y = (rng.random((1500, 7)) < 0.35).astype(np.uint8)
    T = build_transition_matrix(kind, 7, nr)
    np.testing.assert_array_equal(corrupt_labels(Y, T, seed=21), _choice_reference(Y, T, 21))


def test_flip_frequencies_match_transition_rows():
    # One positive per instance isolates the per-label flip distribution;
    # empirical target frequencies must sit within 3 sigma of each binomial.
    n, k, nr = 100_000, 4, 0.3
    T = build_transition_matrix("sym", k, nr)
    for source in range(k):
        Y = np.zeros((n, k), dtype=np.uint8)
        Y[:, source] = 1
        got = corrupt_labels(Y, T, seed=source)
        freq = got.mean(axis=0)
        for j in range(k):
            p = T.rows[source, j]
            sigma = np.sqrt(p * (1 - p) / n)
            assert abs(freq[j] - p) < 3 * sigma, (source, j)


def test_positive_count_never_increases():
    ds = toy_dataset(n=400)
    T = build_transition_matrix("sym", 4, 0.5)
    got = corrupt_labels(ds.Y, T, seed=5)
    assert np.all(got.sum(axis=1) <= ds.Y.sum(axis=1))


def test_corrupt_rejects_nonbinary():
    T = build_transition_matrix("sym", 4, 0.3)
    with pytest.raises(ValueError):
        corrupt_labels(np.full((2, 4), 0.5), T, seed=0)


def test_transition_round_trips(tmp_path):
    T = build_transition_matrix("pair", 5, 0.35)
    path = tmp_path / "T.csv"
    save_transition(T, path)
    loaded = load_transition(path)
    assert (loaded.k, loaded.kind, loaded.nr) == (T.k, T.kind, T.nr)
    np.testing.assert_array_equal(loaded.rows, T.rows)


def test_transition_text_header(tmp_path):
    T = build_transition_matrix("sym", 3, 0.2)
    path = tmp_path / "T.csv"
    save_transition(T, path)
    first = path.read_text().splitlines()[0].split()
    assert first[0] == "3" and first[1] == "sym" and float(first[2]) == 0.2


# ---------------------------------------------------------------------------
# splitting


def test_split_sizes_with_default_clean():
    ds = toy_dataset(n=100)
    spec = SplitSpec(train=0.6, validation=0.2, test=0.2, clean=None, seed=0)
    sp = split_dataset(ds, spec)
    sizes = {name: part.n for name, part in sp.splits.items()}
    assert sizes == {"train": 60, "validation": 10, "clean": 10, "test": 20}


def test_split_partition_properties():
    ds = toy_dataset(n=97)
    spec = SplitSpec(train=0.7, validation=0.1, test=0.165, clean=0.035, seed=4)
    sp = split_dataset(ds, spec)
    all_idx = np.concatenate(list(sp.indices.values()))
    assert len(all_idx) == 97
    assert len(np.unique(all_idx)) == 97


def test_split_deterministic():
    ds = toy_dataset()
    spec = SplitSpec(train=0.6, validation=0.2, test=0.2, seed=9)
    a = split_dataset(ds, spec)
    b = split_dataset(ds, spec)
    for name in a.indices:
        np.testing.assert_array_equal(a.indices[name], b.indices[name])


def test_split_corrupts_train_and_validation_only():
    ds = toy_dataset(n=200)
    T = build_transition_matrix("sym", 4, 0.5)
    spec = SplitSpec(train=0.5, validation=0.2, test=0.2, clean=0.1, seed=2)
    sp = split_dataset(ds, spec, T)
    assert not np.array_equal(sp.splits["train"].Y, sp.true_labels["train"])
    assert not np.array_equal(sp.splits["validation"].Y, sp.true_labels["validation"])
    np.testing.assert_array_equal(sp.splits["clean"].Y, sp.true_labels["clean"])
    np.testing.assert_array_equal(sp.splits["test"].Y, sp.true_labels["test"])


def test_split_fractions_must_sum_to_one():
    with pytest.raises(ValueError):
        SplitSpec(train=0.5, validation=0.2, test=0.2, clean=0.2, seed=0)


def test_split_features_untouched():
    ds = toy_dataset(n=120)
    T = build_transition_matrix("pair", 4, 0.4)
    spec = SplitSpec(train=0.6, validation=0.2, test=0.2, seed=1)
    sp = split_dataset(ds, spec, T)
    for name, idx in sp.indices.items():
        np.testing.assert_array_equal(sp.splits[name].X, ds.X[idx])
