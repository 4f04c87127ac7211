"""Checkpoint wire format: round trips, corruption detection, and the
digest-equality contract."""

import numpy as np
import pytest
from numpy.testing import assert_array_equal

from lsnpc.checkpoint import (
    MAGIC,
    VERSION,
    deserialize_params,
    file_digest,
    load,
    load_params,
    save,
    save_params,
    serialize_params,
)


def sample_params(seed=0):
    rng = np.random.default_rng(seed)
    return {
        "net.W0": rng.standard_normal((4, 3)),
        "net.b0": rng.standard_normal(3),
        "scalarish": np.array(2.5),
    }


def test_round_trip_preserves_arrays_and_meta(tmp_path):
    params = sample_params()
    meta = {"kind": "test", "epochs": "7"}
    path = tmp_path / "ck.lsck"
    save_params(path, params, meta)
    loaded, loaded_meta = load_params(path)
    assert loaded_meta == meta
    assert set(loaded) == set(params)
    for name in params:
        assert_array_equal(loaded[name], params[name])
        assert loaded[name].dtype == np.float64


def test_serialization_is_insertion_order_independent():
    params = sample_params()
    reversed_params = dict(reversed(list(params.items())))
    meta = {"b": "2", "a": "1"}
    assert serialize_params(params, meta) == serialize_params(reversed_params, meta)


def test_digest_equality_means_byte_equality(tmp_path):
    params = sample_params()
    meta = {"kind": "test"}
    save_params(tmp_path / "a.lsck", params, meta)
    save_params(tmp_path / "b.lsck", params, meta)
    assert file_digest(tmp_path / "a.lsck") == file_digest(tmp_path / "b.lsck")
    assert (tmp_path / "a.lsck").read_bytes() == (tmp_path / "b.lsck").read_bytes()
    assert (tmp_path / "a.lsck").read_bytes() == serialize_params(params, meta)

    bumped = {name: arr.copy() for name, arr in params.items()}
    bumped["net.b0"][0] += 1e-15
    assert serialize_params(bumped, meta) != serialize_params(params, meta)


def test_bad_magic_is_rejected():
    blob = serialize_params(sample_params(), {})
    with pytest.raises(ValueError, match="magic"):
        deserialize_params(b"XXXX" + blob[4:])


def test_unknown_version_is_rejected():
    blob = serialize_params(sample_params(), {})
    assert blob[:4] == MAGIC and blob[4] == VERSION
    for version in (VERSION - 1, VERSION + 1):  # no reader is kept for version 1
        with pytest.raises(ValueError, match=f"unsupported checkpoint version {version}"):
            deserialize_params(blob[:4] + bytes([version]) + blob[5:])


def test_trailing_bytes_are_rejected():
    blob = serialize_params(sample_params(), {})
    with pytest.raises(ValueError, match="trailing"):
        deserialize_params(blob + b"\x00")


def test_every_proper_prefix_is_rejected_as_truncated():
    # every cut: inside the header, the metadata, a name, a shape, the values
    blob = serialize_params(sample_params(), {"kind": "test", "epochs": "7"})
    for n in range(len(blob)):
        with pytest.raises(ValueError, match="truncated checkpoint"):
            deserialize_params(blob[:n])


def test_empty_params_and_meta_round_trip():
    blob = serialize_params({}, {})
    params, meta = deserialize_params(blob)
    assert params == {} and meta == {}


def test_meta_values_containing_equals_survive():
    blob = serialize_params({}, {"expr": "a=b=c"})
    _, meta = deserialize_params(blob)
    assert meta["expr"] == "a=b=c"


# ---------------------------------------------------------------------------
# array types and the artifact header


def typed_arrays(seed=0):
    rng = np.random.default_rng(seed)
    return {
        "features": rng.standard_normal((5, 3)).astype(np.float32),
        "labels": (rng.random((5, 3)) < 0.5).astype(np.uint8),
        "params": rng.standard_normal(4),
        "one_bit": np.ones((1, 1), dtype=np.uint8),
    }


def test_each_array_type_round_trips_bit_for_bit_with_its_dtype():
    arrays = typed_arrays()
    loaded, _ = deserialize_params(serialize_params(arrays, {}))
    assert set(loaded) == set(arrays)
    for name, value in arrays.items():
        assert loaded[name].dtype == value.dtype and loaded[name].flags.writeable
        assert loaded[name].tobytes() == value.tobytes()


def test_unstorable_arrays_are_rejected_when_saved():
    with pytest.raises(ValueError, match="dtype int64"):
        serialize_params({"a": np.arange(3)}, {})
    with pytest.raises(ValueError, match="only 0 and 1"):
        serialize_params({"a": np.array([0, 2], dtype=np.uint8)}, {})


def test_unknown_array_type_is_rejected():
    blob = serialize_params({"a": np.zeros(2)}, {})
    at = blob.index(b"\x01\x00a") + 3  # name length, name, then the type byte
    assert blob[at] == 0
    with pytest.raises(ValueError, match="unknown array type 3 for a"):
        deserialize_params(blob[:at] + b"\x03" + blob[at + 1 :])


def test_artifact_header_round_trips_values_and_bytes(tmp_path):
    fields = {"d": 3, "hidden": (4, 2), "nu": np.float64(2.5)}
    metadata = {"seed": np.int64(7), "nan": float("nan"), "inf": -np.inf, "word": "inf",
                "nested": ((np.float64(0.5), 2), [np.inf]), "counts": {"a": np.int64(3)}}
    first, second = tmp_path / "a.bin", tmp_path / "b.bin"
    save(first, "test", typed_arrays(), fields, metadata)
    assert b"\ncfg.hidden=(4, 2)\n" in first.read_bytes()
    arrays, got_fields, got_meta = load(first, "test", ("d", "hidden", "nu"))
    assert got_fields == {"d": 3, "hidden": (4, 2), "nu": 2.5}
    assert type(got_fields["nu"]) is float and type(got_meta["seed"]) is int
    nan = got_meta.pop("nan")
    assert nan != nan
    assert got_meta == {"seed": 7, "inf": -np.inf, "word": "inf",
                        "nested": ((0.5, 2), [np.inf]), "counts": {"a": 3}}
    for name, value in typed_arrays().items():
        assert arrays[name].tobytes() == value.tobytes()
    save(second, "test", arrays, got_fields, {**got_meta, "nan": nan})
    assert second.read_bytes() == first.read_bytes()


def test_artifact_header_rejects_unknown_lines_and_a_missing_kind(tmp_path):
    path = tmp_path / "a.bin"
    save(path, "base", {}, {"d": 1}, {})
    with pytest.raises(ValueError, match="'cfg.d' is not a header line of a 'base' artifact"):
        load(path, "base", ("k",))
    save_params(path, {}, {"kind": "'base'", "d": "1"})
    with pytest.raises(ValueError, match="'d' is not a header line"):
        load(path, "base", ("d",))
    save_params(path, {}, {})
    with pytest.raises(ValueError, match="holds a None artifact, not a 'base' one"):
        load(path, "base")
