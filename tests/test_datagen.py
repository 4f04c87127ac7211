"""Synthetic data generation and dataset persistence."""

import dataclasses
import json
import math
import struct

import numpy as np
import pytest

from lsnpc.baseclf import BaseTrainConfig, load_base, predict_probs, save_base, train_base
from lsnpc.correction import binarize
from lsnpc.datagen import (
    FeatureDataset,
    GeneratorConfig,
    generate_synthetic,
    load_dataset,
    save_dataset,
)
from lsnpc.evaluation import micro_f1


def test_noiseless_identity_embedding_recovers_labels():
    # rank == d, identity feature map, zero noise: x IS the latent factor,
    # so the generator's own thresholds are a perfect classifier.
    cfg = GeneratorConfig(
        n=500, d=8, k=4, rank=8, noise_scale=0.0, identity_embedding=True, seed=3
    )
    ds, aux = generate_synthetic(cfg)
    logits = ds.X.astype(np.float64) @ aux.label_weights.T + aux.label_offsets
    oracle = (logits > 0.0).astype(np.uint8)
    assert micro_f1(ds.Y, oracle) == 1.0


def test_default_config_has_correlated_label_pair():
    ds, _ = generate_synthetic(GeneratorConfig(seed=1))
    Y = ds.Y.astype(np.float64)
    corr = np.corrcoef(Y.T)
    off = corr[~np.eye(ds.k, dtype=bool)]
    assert np.nanmax(np.abs(off)) > 0.2


def test_zero_offset_label_cardinality():
    cfg = GeneratorConfig(n=4000, b_loc=0.0, b_scale=0.0, seed=2)
    ds, _ = generate_synthetic(cfg)
    mean_cardinality = ds.Y.sum(axis=1).mean()
    assert 1.0 <= mean_cardinality <= cfg.k / 2


def test_default_config_imbalanced():
    ds, _ = generate_synthetic(GeneratorConfig(seed=1))
    prevalence = ds.Y.mean(axis=0)
    assert prevalence.mean() < 0.25
    assert prevalence.min() > 0.0


def test_generator_rejects_degenerate_configs():
    with pytest.raises(ValueError):
        GeneratorConfig(rank=64, d=32)
    with pytest.raises(ValueError):
        GeneratorConfig(noise_scale=-1.0)
    with pytest.raises(ValueError):
        GeneratorConfig(identity_embedding=True, rank=4, d=8)
    with pytest.raises(ValueError):
        GeneratorConfig(n=0)


def test_generation_deterministic(tmp_path):
    cfg = GeneratorConfig(n=300, seed=17)
    a, _ = generate_synthetic(cfg)
    b, _ = generate_synthetic(cfg)
    pa, pb = tmp_path / "a.bin", tmp_path / "b.bin"
    save_dataset(a, pa)
    save_dataset(b, pb)
    assert pa.read_bytes() == pb.read_bytes()


def test_saved_metadata_is_the_generator_name_and_every_config_field(tmp_path):
    cfg = GeneratorConfig(n=50, seed=3)
    ds, _ = generate_synthetic(cfg)
    path = tmp_path / "ds.bin"
    save_dataset(ds, path)
    assert load_dataset(path).metadata == {
        "generator": "synthetic-latent-factor", **dataclasses.asdict(cfg)} == {
        "generator": "synthetic-latent-factor", "n": 50, "d": 32, "k": 10, "rank": 8,
        "noise_scale": 0.5, "b_loc": -2.0, "b_scale": 0.5, "seed": 3,
        "identity_embedding": False}


def test_default_dataset_learnable():
    # Calibration floor for the benchmark: a plain MLP on clean labels.
    ds, _ = generate_synthetic(GeneratorConfig(seed=1))
    cfg = BaseTrainConfig(epochs=30, seed=1)
    h = train_base(ds.X[:1400], ds.Y[:1400], cfg)
    pred = binarize(predict_probs(h, ds.X[1400:]), 0.5)
    assert micro_f1(ds.Y[1400:], pred) >= 0.85


# ---------------------------------------------------------------------------
# persistence


def test_round_trip_identity(tmp_path, rng):
    X = rng.standard_normal((37, 5)).astype(np.float32)
    Y = (rng.random((37, 3)) < 0.4).astype(np.uint8)
    ds = FeatureDataset(X=X, Y=Y, metadata={"tag": "roundtrip", "n": 37})
    path = tmp_path / "ds.bin"
    save_dataset(ds, path)
    loaded = load_dataset(path)
    np.testing.assert_array_equal(loaded.X, ds.X)
    np.testing.assert_array_equal(loaded.Y, ds.Y)
    assert loaded.metadata == ds.metadata

    second = tmp_path / "ds2.bin"
    save_dataset(loaded, second)
    assert path.read_bytes() == second.read_bytes()


def test_corrupted_magic_rejected(tmp_path):
    ds, _ = generate_synthetic(GeneratorConfig(n=20, seed=0))
    path = tmp_path / "ds.bin"
    save_dataset(ds, path)
    blob = bytearray(path.read_bytes())
    blob[0] ^= 0xFF
    path.write_bytes(bytes(blob))
    with pytest.raises(ValueError, match="magic"):
        load_dataset(path)


def test_truncated_file_rejected(tmp_path):
    ds, _ = generate_synthetic(GeneratorConfig(n=20, seed=0))
    path = tmp_path / "ds.bin"
    save_dataset(ds, path)
    path.write_bytes(path.read_bytes()[:-3])
    with pytest.raises(ValueError, match="truncated"):
        load_dataset(path)


def test_numpy_and_nonfinite_metadata_round_trip_as_values(tmp_path):
    ds = FeatureDataset(X=np.ones((3, 2)), Y=np.eye(3, 2), metadata={
        "f": np.float64(0.5), "i": np.int64(7), "nan": float("nan"),
        "inf": float("inf"), "ninf": -np.inf, "pair": (1, "b"), "word": "inf",
        "nested": (np.float64(0.5), 2), "nan_pair": (float("nan"), 1), "infs": [np.inf],
        "counts": {"a": np.int64(3)},
    })
    path, again = tmp_path / "ds.bin", tmp_path / "again.bin"
    save_dataset(ds, path)
    loaded = load_dataset(path)
    meta = loaded.metadata
    assert meta["f"] == 0.5 and type(meta["f"]) is float
    assert meta["i"] == 7 and type(meta["i"]) is int
    assert math.isnan(meta["nan"])
    assert meta["inf"] == math.inf and meta["ninf"] == -math.inf
    # a tuple is stored as a JSON list, and metadata declares no types
    assert meta["pair"] == [1, "b"] and meta["word"] == "inf"
    assert meta["nested"] == [0.5, 2] and type(meta["nested"][0]) is float
    assert math.isnan(meta["nan_pair"][0]) and meta["nan_pair"][1] == 1
    assert meta["infs"] == [math.inf]
    assert meta["counts"] == {"a": 3} and type(meta["counts"]["a"]) is int
    save_dataset(loaded, again)
    assert again.read_bytes() == path.read_bytes()


def test_every_proper_prefix_is_rejected_as_truncated(tmp_path):
    # every cut: inside the magic, the header, a multi-byte metadata
    # character, the features and the packed labels
    ds = FeatureDataset(X=np.ones((3, 2)), Y=np.eye(3, 2), metadata={"name": "größe"})
    path = tmp_path / "ds.bin"
    save_dataset(ds, path)
    blob = path.read_bytes()
    for n in range(len(blob)):
        path.write_bytes(blob[:n])
        with pytest.raises(ValueError, match="truncated checkpoint"):
            load_dataset(path)


def test_label_payload_is_ceil_nk_over_8_bytes(tmp_path):
    # n * k = 265 bits: the last byte is partly filled
    n, d, k = 53, 7, 5
    ds, _ = generate_synthetic(GeneratorConfig(n=n, d=d, k=k, rank=4, seed=5))
    path = tmp_path / "ds.bin"
    save_dataset(ds, path)
    blob = path.read_bytes()
    labels = np.packbits(ds.Y).tobytes()
    assert len(labels) == math.ceil(n * k / 8) == 34
    # magic, version, header length, header, then X's and Y's payloads
    (header_len,) = struct.unpack("<I", blob[5:9])
    header = json.loads(blob[9 : 9 + header_len])
    assert header["arrays"] == [["X", 1, [n, d]], ["Y", 2, [n, k]]]  # Y sorts last
    assert blob.endswith(labels)
    assert len(blob) == 9 + header_len + 4 * n * d + len(labels)


def test_loading_as_the_wrong_kind_names_both_kinds(tmp_path):
    ds, _ = generate_synthetic(GeneratorConfig(n=20, seed=0))
    data, base = tmp_path / "ds.bin", tmp_path / "base.ckpt"
    save_dataset(ds, data)
    save_base(train_base(ds.X, ds.Y, BaseTrainConfig(epochs=1, hidden=(4,))), base)
    with pytest.raises(ValueError, match="holds a 'base' artifact, not a 'dataset' one"):
        load_dataset(base)
    with pytest.raises(ValueError, match="holds a 'dataset' artifact, not a 'base' one"):
        load_base(data)


def test_a_version_1_lsds_file_is_rejected_by_its_magic(tmp_path):
    # the layout before the shared container: magic, version 1, n, d, k and
    # the metadata length as u32, metadata, float32 X, bit-packed Y
    meta = b"n=1"
    path = tmp_path / "old.bin"
    path.write_bytes(b"LSDS\x01" + struct.pack("<4I", 1, 1, 1, len(meta)) + meta
                     + struct.pack("<f", 0.5) + b"\x80")
    with pytest.raises(ValueError, match="bad magic b'LSDS'"):
        load_dataset(path)


def test_dataset_validation():
    with pytest.raises(ValueError):
        FeatureDataset(X=np.array([[np.nan]]), Y=np.array([[1]]))
    with pytest.raises(ValueError):
        FeatureDataset(X=np.ones((2, 2)), Y=np.array([[2, 0], [0, 1]]))
    with pytest.raises(ValueError):
        FeatureDataset(X=np.ones((2, 2)), Y=np.ones((3, 2)))
