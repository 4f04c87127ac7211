"""Checkpoint wire format: round trips, corruption detection, and the
digest-equality contract."""

import json
import re
import struct
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_array_equal

from lsnpc import baseclf, model
from lsnpc.baseclf import load_base, save_base
from lsnpc.config import load_config
from lsnpc.datagen import load_dataset, save_dataset
from lsnpc.experiment import run_experiment
from lsnpc.model import ModelConfig, load_model, save_model
from lsnpc.checkpoint import MAGIC, VERSION, file_digest, load, load_params, save, save_params


def sample_params(seed=0):
    rng = np.random.default_rng(seed)
    return {
        "net.W0": rng.standard_normal((4, 3)),
        "net.b0": rng.standard_normal(3),
        "scalarish": np.array(2.5),
    }


def saved(tmp_path, arrays, header, name="ck.lsck") -> Path:
    path = tmp_path / name
    save_params(path, arrays, header)
    return path


def rewritten(path, blob: bytes) -> Path:
    path.write_bytes(blob)
    return path


def test_round_trip_preserves_arrays_and_meta(tmp_path):
    params = sample_params()
    meta = {"kind": "test", "epochs": 7}
    loaded, loaded_meta = load_params(saved(tmp_path, params, meta))
    assert loaded_meta == meta
    assert set(loaded) == set(params)
    for name in params:
        assert_array_equal(loaded[name], params[name])
        assert loaded[name].dtype == np.float64 and loaded[name].shape == params[name].shape


def test_serialization_is_insertion_order_independent(tmp_path):
    params = sample_params()
    reversed_params = dict(reversed(list(params.items())))
    meta = {"b": 2, "a": 1}
    first = saved(tmp_path, params, meta, "a.lsck")
    second = saved(tmp_path, reversed_params, dict(reversed(list(meta.items()))), "b.lsck")
    assert first.read_bytes() == second.read_bytes()


def test_digest_equality_means_byte_equality(tmp_path):
    params = sample_params()
    meta = {"kind": "test"}
    first = saved(tmp_path, params, meta, "a.lsck")
    second = saved(tmp_path, params, meta, "b.lsck")
    assert file_digest(first) == file_digest(second)
    assert first.read_bytes() == second.read_bytes()

    bumped = {name: arr.copy() for name, arr in params.items()}
    bumped["net.b0"][0] += 1e-15
    assert saved(tmp_path, bumped, meta, "c.lsck").read_bytes() != first.read_bytes()


def test_bad_magic_is_rejected(tmp_path):
    path = saved(tmp_path, sample_params(), {})
    with pytest.raises(ValueError, match="magic"):
        load_params(rewritten(path, b"XXXX" + path.read_bytes()[4:]))


def test_unknown_version_is_rejected(tmp_path):
    path = saved(tmp_path, sample_params(), {})
    blob = path.read_bytes()
    assert blob[:4] == MAGIC and blob[4] == VERSION == 3
    for version in (VERSION - 1, VERSION + 1):  # no reader is kept for version 2
        with pytest.raises(ValueError, match=f"unsupported checkpoint version {version}"):
            load_params(rewritten(path, blob[:4] + bytes([version]) + blob[5:]))


def test_trailing_bytes_are_rejected(tmp_path):
    path = saved(tmp_path, sample_params(), {})
    with pytest.raises(ValueError, match="trailing"):
        load_params(rewritten(path, path.read_bytes() + b"\x00"))


def test_every_proper_prefix_is_rejected_as_truncated(tmp_path):
    # every cut: inside the magic, the header length, the header, the values
    path = saved(tmp_path, sample_params(), {"kind": "test", "epochs": 7})
    blob = path.read_bytes()
    for n in range(len(blob)):
        with pytest.raises(ValueError, match="truncated checkpoint"):
            load_params(rewritten(path, blob[:n]))


def test_empty_params_and_meta_round_trip(tmp_path):
    params, meta = load_params(saved(tmp_path, {}, {}))
    assert params == {} and meta == {}


def test_meta_values_containing_equals_survive(tmp_path):
    # characters that a key=value line or a quoted string could trip on
    value = 'a=b=c "quoted" \\ back\nnext line'
    _, meta = load_params(saved(tmp_path, {}, {"expr": value}))
    assert meta["expr"] == value


def _with_header(blob: bytes, header: bytes) -> bytes:
    """``blob`` with its header replaced by the bytes ``header``."""
    return blob[:5] + struct.pack("<I", len(header)) + header + blob[9 + _header_len(blob):]


def _header_len(blob: bytes) -> int:
    return struct.unpack("<I", blob[5:9])[0]


def _header_of(blob: bytes) -> dict:
    return json.loads(blob[9 : 9 + _header_len(blob)])


@pytest.mark.parametrize("header,reason", [
    (b"\xff\xfe", "utf-8"),
    (b"{arrays: []}", "Expecting property name"),
    (b"[]", "not an object with an 'arrays' list"),
    (b'{"kind": "test"}', "not an object with an 'arrays' list"),
    (b'{"arrays": {}}', "not an object with an 'arrays' list"),
    (b'{"arrays": ["a"]}', r"array entry 'a' is not \[name, known type, shape\]"),
    (b'{"arrays": [["a", 0]]}', r"array entry \['a', 0\] is not"),
    (b'{"arrays": [[1, 0, [2]]]}', r"array entry \[1, 0, \[2\]\] is not"),
    (b'{"arrays": [["a", true, [2]]]}', r"array entry \['a', True, \[2\]\] is not"),
    (b'{"arrays": [["a", 0.0, [2]]]}', r"array entry \['a', 0.0, \[2\]\] is not"),
    (b'{"arrays": [["a", 0, 2]]}', r"array entry \['a', 0, 2\] is not"),
    (b'{"arrays": [["a", 0, [-1]]]}', r"array entry \['a', 0, \[-1\]\] is not"),
    (b'{"arrays": [["a", 0, [2.0]]]}', r"array entry \['a', 0, \[2.0\]\] is not"),
], ids=["not-utf8", "not-json", "not-an-object", "no-arrays", "arrays-not-a-list",
        "entry-not-a-list", "entry-too-short", "name-not-a-string", "type-a-bool",
        "type-a-float", "shape-not-a-list", "negative-dim", "float-dim"])
def test_a_malformed_header_is_named_as_such(tmp_path, header, reason):
    path = saved(tmp_path, {"a": np.zeros(2)}, {})
    with pytest.raises(ValueError, match=f"^malformed checkpoint header: .*{reason}"):
        load_params(rewritten(path, _with_header(path.read_bytes(), header)))


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


def test_each_array_type_round_trips_bit_for_bit_with_its_dtype(tmp_path):
    arrays = typed_arrays()
    loaded, _ = load_params(saved(tmp_path, arrays, {}))
    assert set(loaded) == set(arrays)
    for name, value in arrays.items():
        assert loaded[name].dtype == value.dtype and loaded[name].flags.writeable
        assert loaded[name].tobytes() == value.tobytes()


def test_unstorable_arrays_are_rejected_when_saved(tmp_path):
    with pytest.raises(ValueError, match="dtype int64"):
        saved(tmp_path, {"a": np.arange(3)}, {})
    with pytest.raises(ValueError, match="only 0 and 1"):
        saved(tmp_path, {"a": np.array([0, 2], dtype=np.uint8)}, {})


def test_unknown_array_type_is_rejected(tmp_path):
    path = saved(tmp_path, {"a": np.zeros(2)}, {})
    blob = path.read_bytes()
    header = _header_of(blob)
    assert header["arrays"] == [["a", 0, [2]]]
    header["arrays"][0][1] = 3
    bad = _with_header(blob, json.dumps(header).encode())
    with pytest.raises(ValueError, match=r"^malformed checkpoint header: array entry "
                                         r"\['a', 3, \[2\]\] is not \[name, known type, shape\]"):
        load_params(rewritten(path, bad))


def test_artifact_header_round_trips_values_and_bytes(tmp_path):
    fields = {"d": 3, "hidden": (4, 2), "nu": np.float64(2.5)}
    metadata = {"seed": np.int64(7), "nan": float("nan"), "inf": -np.inf, "word": "inf",
                "nested": ((np.float64(0.5), 2), [np.inf]), "counts": {"a": np.int64(3)}}
    first, second = tmp_path / "a.bin", tmp_path / "b.bin"
    save(first, "test", typed_arrays(), fields, metadata)
    blob = first.read_bytes()
    header = blob[9 : 9 + _header_len(blob)]
    for text in (b'"hidden":[4,2]', b'"nan":NaN', b'"inf":-Infinity',
                 b'"nested":[[0.5,2],[Infinity]]', b'"seed":7'):
        assert text in header
    types = {"d": int, "hidden": tuple[int, ...], "nu": float}
    arrays, got_fields, got_meta = load(first, "test", types)
    assert got_fields == {"d": 3, "hidden": (4, 2), "nu": 2.5}
    assert type(got_fields["nu"]) is float and type(got_meta["seed"]) is int
    nan = got_meta.pop("nan")
    assert nan != nan
    assert got_meta == {"seed": 7, "inf": -np.inf, "word": "inf",
                        "nested": [[0.5, 2], [np.inf]], "counts": {"a": 3}}
    assert type(got_meta["nested"][0][0]) is float and type(got_meta["counts"]["a"]) is int
    for name, value in typed_arrays().items():
        assert arrays[name].tobytes() == value.tobytes()
    save(second, "test", arrays, got_fields, {**got_meta, "nan": nan})
    assert second.read_bytes() == first.read_bytes()


def test_artifact_header_rejects_unknown_lines_and_a_missing_kind(tmp_path):
    path = tmp_path / "a.bin"
    save(path, "base", {}, {"d": 1}, {})
    with pytest.raises(ValueError, match="'cfg.d' is not a header line of a 'base' artifact"):
        load(path, "base", {"k": int})
    save_params(path, {}, {"kind": "base", "cfg": {}, "d": 1})
    with pytest.raises(ValueError, match="'d' is not a header line of a 'base' artifact"):
        load(path, "base", {"d": int})
    for group in ("cfg", "meta"):
        save_params(path, {}, {"kind": "base", group: [1]})
        with pytest.raises(ValueError, match="^malformed checkpoint header: cfg and meta"):
            load(path, "base", {"d": int})
    save_params(path, {}, {})
    with pytest.raises(ValueError, match="holds a None artifact, not a 'base' one"):
        load(path, "base")


JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=4), inner,
                                                                 max_size=4),
    max_leaves=12)
HEADERS = JSON | st.fixed_dictionaries(
    {"arrays": st.lists(st.lists(JSON, max_size=4) | st.tuples(
        st.text(max_size=2), st.integers(-1, 3), st.lists(st.integers(-1, 3), max_size=3)),
        max_size=3)},
    optional={"kind": st.just("base") | JSON, "cfg": st.dictionaries(
        st.sampled_from(["d", "k", "hidden", "nu", "width"]), JSON, max_size=3) | JSON,
        "meta": JSON, "other": JSON})


@settings(max_examples=200, deadline=None)
@given(header=HEADERS)
def test_any_json_header_loads_or_raises_a_value_error(tmp_path_factory, header):
    path = tmp_path_factory.mktemp("fuzz") / "crafted.ckpt"
    text = json.dumps(header).encode()
    path.write_bytes(MAGIC + struct.pack("<BI", VERSION, len(text)) + text + bytes(8))
    for read in (load_params, lambda p: load(p, "base", {"d": int, "k": int, "nu": float,
                                                         "hidden": tuple[int, ...]})):
        try:
            read(path)
        except ValueError:
            pass


def test_an_int_too_large_for_a_float_field_is_named(tmp_path):
    path = tmp_path / "a.bin"
    save(path, "test", {}, {"nu": 10**400}, {})
    with pytest.raises(ValueError, match=r"cfg\.nu=1000+ is not of the field's type float$"):
        load(path, "test", {"nu": float})


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


def _with_header_line(src, dst, name, value):
    """A copy of the artifact ``src`` whose cfg field ``name`` holds ``value``."""
    arrays, header = load_params(src)
    assert name in header["cfg"]
    header["cfg"][name] = value
    save_params(dst, arrays, header)


def _no_constructor(*args, **kwargs):
    raise AssertionError("a constructor ran")


@pytest.mark.parametrize("group,name,value,declared", [
    ("base", "hidden", 4, r"tuple\[int, \.\.\.\]"),
    ("base", "hidden", [4, "2"], r"tuple\[int, \.\.\.\]"),
    ("base", "d", "2", "int"),
    ("lsnpc", "m", "1", "int"),
    ("lsnpc", "m", 1.0, "int"),
], ids=["base-hidden", "base-hidden-item", "base-d", "lsnpc-m", "lsnpc-m-float"])
def test_wrong_typed_header_value_is_named_before_any_constructor(
        smoke_run, tmp_path, monkeypatch, group, name, value, declared):
    path = tmp_path / "crafted.ckpt"
    _with_header_line(sorted((smoke_run / group).iterdir())[0], path, name, value)
    monkeypatch.setattr(baseclf, "_new_classifier", _no_constructor)
    monkeypatch.setattr(model, "LsnpcModel", _no_constructor)
    monkeypatch.setattr(ModelConfig, "__post_init__", _no_constructor)
    with pytest.raises(ValueError, match=rf"cfg\.{name}={re.escape(repr(value))} is not of the "
                                         rf"field's type {declared}$"):
        CODECS[group][0](path)


def test_int_header_value_of_a_float_field_loads_as_that_float(smoke_run, tmp_path):
    src = sorted((smoke_run / "lsnpc").iterdir())[0]
    crafted, again = tmp_path / "crafted.ckpt", tmp_path / "again.ckpt"
    _with_header_line(src, crafted, "nu", 4)
    loaded = load_model(crafted)
    assert type(loaded.cfg.nu) is float and loaded.cfg == load_model(src).cfg
    save_model(loaded, again)
    assert again.read_bytes() == src.read_bytes()
