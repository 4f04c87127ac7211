"""The one binary container of every artifact, and its header codec.

Layout, version 2 (all integers little-endian):

    magic  b"LSNP"
    version u8
    header_len u32, header utf-8 text: sorted "key=value" lines
    count u32
    per array, sorted by name:
        name_len u16, name utf-8, type u8, ndim u8, ndim x u32 dims, payload

A payload holds float64 values (type 0), float32 values (type 1) or uint8
0/1 labels packed 8 to a byte by ``np.packbits`` (type 2).  :func:`save`
writes these header lines, each value a :func:`text` that :func:`literal`
parses back:

    kind=<kind>          'dataset' (float32 X, bit-packed Y), 'base' or
                         'lsnpc' (float64 parameters, see :func:`snapshot`)
    cfg.<field>=<value>  d, k and hidden of a base classifier, every
                         ModelConfig field of an LSNPC model, none for a dataset
    meta.<key>=<value>   the artifact's metadata

Sorted arrays and lines make saves byte-deterministic, so equal digests
imply equal files, and a load followed by a save reproduces the file.
"""

from __future__ import annotations

import ast
import hashlib
import math
import struct
import typing
from pathlib import Path

import numpy as np

MAGIC = b"LSNP"
VERSION = 2
_TYPES = (np.dtype("<f8"), np.dtype("<f4"), np.dtype(np.uint8))
_BITS = 2

__all__ = [
    "MAGIC",
    "VERSION",
    "serialize_params",
    "deserialize_params",
    "save_params",
    "load_params",
    "save",
    "load",
    "file_digest",
]


def serialize_params(params: dict[str, np.ndarray], meta: dict[str, str]) -> bytes:
    meta_bytes = "".join(f"{k}={meta[k]}\n" for k in sorted(meta)).encode("utf-8")
    chunks = [MAGIC, struct.pack("<BI", VERSION, len(meta_bytes)), meta_bytes,
              struct.pack("<I", len(params))]
    for name in sorted(params):
        arr = np.ascontiguousarray(params[name])
        if arr.dtype not in _TYPES:
            raise ValueError(f"cannot store {name} of dtype {arr.dtype}")
        code = _TYPES.index(arr.dtype)
        if code == _BITS and np.any(arr > 1):
            raise ValueError(f"{name} is stored as bits, so it must hold only 0 and 1")
        name_bytes = name.encode("utf-8")
        chunks += [struct.pack("<H", len(name_bytes)), name_bytes,
                   struct.pack(f"<BB{arr.ndim}I", code, arr.ndim, *arr.shape),
                   (np.packbits(arr) if code == _BITS else arr).tobytes()]
    return b"".join(chunks)


def deserialize_params(blob: bytes) -> tuple[dict[str, np.ndarray], dict[str, str]]:
    view = memoryview(blob)
    offset = 0

    def take(n: int, what: str) -> memoryview:
        nonlocal offset
        if offset + n > len(view):
            raise ValueError(f"truncated checkpoint: {what} needs {n} bytes at offset "
                             f"{offset}, but the file ends at {len(view)}")
        offset += n
        return view[offset - n : offset]

    magic = bytes(take(4, "magic"))
    if magic != MAGIC:
        raise ValueError(f"not a checkpoint file: bad magic {magic!r}, expected {MAGIC!r}")
    version = take(1, "version")[0]
    if version != VERSION:
        raise ValueError(f"unsupported checkpoint version {version}, expected {VERSION}")
    (meta_len,) = struct.unpack("<I", take(4, "metadata length"))
    lines = str(take(meta_len, "metadata"), "utf-8").splitlines()
    meta = dict(line.partition("=")[::2] for line in lines)
    (count,) = struct.unpack("<I", take(4, "array count"))
    params: dict[str, np.ndarray] = {}
    for _ in range(count):
        (name_len,) = struct.unpack("<H", take(2, "array name length"))
        name = str(take(name_len, "array name"), "utf-8")
        code, ndim = take(2, f"type and rank of {name}")
        if code >= len(_TYPES):
            raise ValueError(f"unknown array type {code} for {name}")
        shape = struct.unpack(f"<{ndim}I", take(4 * ndim, f"shape of {name}"))
        size, dtype = math.prod(shape), _TYPES[code]
        raw = take(-(-size // 8) if code == _BITS else dtype.itemsize * size, f"values of {name}")
        arr = np.frombuffer(raw, dtype=dtype)
        arr = np.unpackbits(arr, count=size) if code == _BITS else arr.astype(dtype.type)
        params[name] = arr.reshape(shape)
    if offset != len(blob):
        raise ValueError("trailing bytes after checkpoint payload")
    return params, meta


def _plain(value):
    """``value`` with every numpy scalar in it, nested in tuples, lists and
    dicts too, replaced by the Python scalar it holds."""
    if isinstance(value, np.generic):
        return value.item()
    if isinstance(value, (tuple, list)):
        items = [_plain(v) for v in value]
        return items if isinstance(value, list) else tuple(items)
    if isinstance(value, dict):
        return {_plain(k): _plain(v) for k, v in value.items()}
    return value


def text(value) -> str:
    """A metadata value as saved: the ``repr`` of its :func:`_plain` form, so
    that :func:`literal` parses it back."""
    return repr(_plain(value))


class _Nonfinite(ast.NodeTransformer):
    """Reads the names nan and inf, as ``repr`` writes floats, as constants."""

    def visit_Name(self, node):
        return ast.Constant(float(node.id)) if node.id in ("nan", "inf") else node


def literal(raw: str):
    """A metadata value saved by :func:`text`, parsed back.

    Python literals, with the float spellings nan, inf and -inf anywhere in
    them, come back as values; any other text comes back as the string itself.
    """
    try:
        tree = ast.parse(raw.lstrip(" \t"), mode="eval")
        return ast.literal_eval(_Nonfinite().visit(tree))
    except (ValueError, SyntaxError, TypeError):
        return raw


def snapshot(params: dict) -> dict[str, np.ndarray]:
    """Copies of the arrays behind a name -> Tensor parameter dict."""
    return {name: p.data.copy() for name, p in params.items()}


def restore(params: dict, arrays: dict[str, np.ndarray]) -> None:
    """Load ``arrays`` into a name -> Tensor parameter dict, after checking
    that the names and every shape match.  Each value is written into the
    parameter's array, so a parameter whose storage an optimizer owns stays
    bound to it."""
    if set(arrays) != set(params):
        raise ValueError("parameter names do not match this architecture")
    for name, value in arrays.items():
        p = params[name]
        if p.data.shape != value.shape:
            raise ValueError(f"shape mismatch for {name}")
        p.data[...] = value


def save_params(path, params: dict[str, np.ndarray], meta: dict[str, str]) -> None:
    Path(path).write_bytes(serialize_params(params, meta))


def load_params(path) -> tuple[dict[str, np.ndarray], dict[str, str]]:
    return deserialize_params(Path(path).read_bytes())


def save(path, kind: str, arrays: dict[str, np.ndarray], fields: dict, metadata: dict) -> None:
    """Write an artifact of ``kind``: its arrays, and each of ``fields`` and
    ``metadata`` as a ``cfg.<name>`` or ``meta.<key>`` header line."""
    header = {"kind": kind, **{f"cfg.{name}": value for name, value in fields.items()},
              **{f"meta.{key}": value for key, value in metadata.items()}}
    save_params(path, arrays, {key: text(value) for key, value in header.items()})


def _fits(value, declared) -> bool:
    """Whether a parsed header value has the ``declared`` type: a float field
    takes an int too, and a ``tuple[T, ...]`` field a tuple of T values."""
    if typing.get_origin(declared) is tuple:
        item = typing.get_args(declared)[0]
        return type(value) is tuple and all(_fits(v, item) for v in value)
    if declared is float:
        return type(value) in (int, float)
    return type(value) is declared


def load(path, kind: str,
         fields: dict | None = None) -> tuple[dict[str, np.ndarray], dict, dict]:
    """The arrays, fields and metadata of an artifact that :func:`save` wrote.

    ``fields`` maps each ``cfg.<field>`` name the kind may hold to the
    field's declared type.  A ValueError if the file is of another kind, has
    a field not named there, or has a value of another type; the last names
    the field, the value and the type, before any caller builds an object
    from them.  An int where a float is declared comes back as that float.
    """
    fields = fields or {}
    arrays, header = load_params(path)
    found = literal(header.pop("kind", "None"))
    if found != kind:
        raise ValueError(f"{path} holds a {found!r} artifact, not a {kind!r} one")
    parts: dict[str, dict] = {"cfg": {}, "meta": {}}
    for key, raw in header.items():
        group, _, name = key.partition(".")
        if group not in parts or (group == "cfg" and name not in fields):
            raise ValueError(f"{path}: {key!r} is not a header line of a {kind!r} artifact")
        value = literal(raw)
        if group == "cfg":
            declared = fields[name]
            if not _fits(value, declared):
                expected = declared.__name__ if isinstance(declared, type) else declared
                raise ValueError(f"{path}: {key}={value!r} is not of the field's type "
                                 f"{expected}")
            if declared is float:
                value = float(value)
        parts[group][name] = value
    return arrays, parts["cfg"], parts["meta"]


def file_digest(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()
