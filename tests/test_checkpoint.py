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
    load_params,
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
    with pytest.raises(ValueError, match="version"):
        deserialize_params(blob[:4] + bytes([VERSION + 1]) + blob[5:])


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
