"""Checkpoint wire format: round trips, corruption detection, and the
digest-equality contract."""

from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_array_equal

from lsnpc import baseclf, model
from lsnpc.baseclf import load_base, save_base
from lsnpc.config import load_config
from lsnpc.datagen import load_dataset, save_dataset
from lsnpc.experiment import run_experiment
from lsnpc.model import ModelConfig, load_model, save_model
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
    types = {"d": int, "hidden": tuple[int, ...], "nu": float}
    arrays, got_fields, got_meta = load(first, "test", types)
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
        load(path, "base", {"k": int})
    save_params(path, {}, {"kind": "'base'", "d": "1"})
    with pytest.raises(ValueError, match="'d' is not a header line"):
        load(path, "base", {"d": int})
    save_params(path, {}, {})
    with pytest.raises(ValueError, match="holds a None artifact, not a 'base' one"):
        load(path, "base")


CONFIGS = Path(__file__).resolve().parents[1] / "configs"
# artifact directory of a run -> (loader, saver) of its files
CODECS = {"data": (load_dataset, save_dataset), "base": (load_base, save_base),
          "lsnpc": (load_model, save_model)}


@pytest.fixture(scope="module")
def smoke_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("smoke")
    run_experiment(load_config(CONFIGS / "smoke.ini"), out_dir=out, quiet=True)
    return out


def test_every_smoke_artifact_loads_and_resaves_byte_identically(smoke_run, tmp_path):
    paths = sorted(path for group in CODECS for path in (smoke_run / group).iterdir())
    assert {path.parent.name for path in paths} == set(CODECS)
    for path in paths:
        loader, saver = CODECS[path.parent.name]
        again = tmp_path / path.name
        saver(loader(path), again)
        assert again.read_bytes() == path.read_bytes(), path.name


def _with_header_line(src, dst, key, raw):
    arrays, header = load_params(src)
    assert key in header
    save_params(dst, arrays, {**header, key: raw})


def _no_constructor(*args, **kwargs):
    raise AssertionError("a constructor ran")


@pytest.mark.parametrize("group,key,raw,declared", [
    ("base", "cfg.hidden", "4", r"tuple\[int, \.\.\.\]"),
    ("base", "cfg.d", "'2'", "int"),
    ("lsnpc", "cfg.m", "'1'", "int"),
], ids=["base-hidden", "base-d", "lsnpc-m"])
def test_wrong_typed_header_value_is_named_before_any_constructor(
        smoke_run, tmp_path, monkeypatch, group, key, raw, declared):
    path = tmp_path / "crafted.ckpt"
    _with_header_line(sorted((smoke_run / group).iterdir())[0], path, key, raw)
    monkeypatch.setattr(baseclf, "_new_classifier", _no_constructor)
    monkeypatch.setattr(model, "LsnpcModel", _no_constructor)
    monkeypatch.setattr(ModelConfig, "__post_init__", _no_constructor)
    with pytest.raises(ValueError, match=rf"{key}={raw} is not of the field's type {declared}$"):
        CODECS[group][0](path)


def test_int_header_value_of_a_float_field_loads_as_that_float(smoke_run, tmp_path):
    src = sorted((smoke_run / "lsnpc").iterdir())[0]
    crafted, again = tmp_path / "crafted.ckpt", tmp_path / "again.ckpt"
    _with_header_line(src, crafted, "cfg.nu", "4")
    loaded = load_model(crafted)
    assert type(loaded.cfg.nu) is float and loaded.cfg == load_model(src).cfg
    save_model(loaded, again)
    assert again.read_bytes() == src.read_bytes()
