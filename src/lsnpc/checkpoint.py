"""The one binary container of every artifact.

Layout, version 3: magic b"LSNP", version u8, header length u32 (little-endian),
the header, one UTF-8 JSON object with sorted keys, then each array's payload
in the header's order.  The header of an artifact that :func:`save` writes holds

    arrays  [[name, type, shape], ...], sorted by name
    kind    'dataset' (float32 X, bit-packed Y), 'base' or 'lsnpc'
            (float64 parameters, see :func:`snapshot`)
    cfg     d, k and hidden of a base classifier, every ModelConfig field of
            an LSNPC model, nothing for a dataset
    meta    the artifact's metadata

A payload holds little-endian float64 values (type 0), float32 values
(type 1) or uint8 0/1 labels packed 8 to a byte by ``np.packbits`` (type 2).
A numpy scalar in the header is written as the Python scalar it holds, NaN
and infinities as JSON's ``NaN`` and ``Infinity``, and a tuple as a list,
which :func:`load` turns back into a tuple only for a ``tuple[T, ...]`` field.

Sorted arrays and keys make saves byte-deterministic, so equal digests imply
equal files, and a load followed by a save reproduces the file.  (``np.savez``
would not: its zip members carry the save time.)
"""

from __future__ import annotations

import hashlib
import json
import math
import struct
import sys
import typing
from pathlib import Path

import numpy as np

MAGIC = b"LSNP"
VERSION = 3
_TYPES = (np.dtype("<f8"), np.dtype("<f4"), np.dtype(np.uint8))
_BITS = 2

__all__ = ["MAGIC", "VERSION", "save_params", "load_params", "save", "load", "file_digest"]


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


def _scalar(value):
    """The Python scalar held by a numpy scalar inside a header value."""
    if isinstance(value, np.generic):
        return value.item()
    raise TypeError(f"cannot write a {type(value).__name__} into a checkpoint header")


def save_params(path, arrays: dict[str, np.ndarray], header: dict) -> None:
    """Write ``arrays`` and the JSON object ``header``, which gains the
    ``arrays`` list, as one container file."""
    entries, payloads = [], []
    for name in sorted(arrays):
        arr = np.asarray(arrays[name], order="C")  # a 0-d array keeps its shape
        if arr.dtype not in _TYPES:
            raise ValueError(f"cannot store {name} of dtype {arr.dtype}")
        code = _TYPES.index(arr.dtype)
        if code == _BITS and np.any(arr > 1):
            raise ValueError(f"{name} is stored as bits, so it must hold only 0 and 1")
        entries.append([name, code, list(arr.shape)])
        payloads.append(np.packbits(arr) if code == _BITS else arr)
    text = json.dumps({**header, "arrays": entries}, sort_keys=True, separators=(",", ":"),
                      ensure_ascii=False, default=_scalar).encode("utf-8")
    Path(path).write_bytes(b"".join([MAGIC, struct.pack("<BI", VERSION, len(text)), text,
                                     *payloads]))


def _header(raw: memoryview) -> dict:
    """The header object, once its arrays are known to be listed as [name, type, shape]."""
    try:
        header = json.loads(str(raw, "utf-8"))
    except ValueError as err:  # a UnicodeDecodeError or a JSONDecodeError
        raise ValueError(f"malformed checkpoint header: {err}") from None
    if not isinstance(header, dict) or not isinstance(header.get("arrays"), list):
        raise ValueError("malformed checkpoint header: not an object with an 'arrays' list")
    for entry in header["arrays"]:
        if not (isinstance(entry, list) and len(entry) == 3 and isinstance(entry[0], str)
                and type(entry[1]) is int and 0 <= entry[1] < len(_TYPES)
                and isinstance(entry[2], list)
                and all(type(dim) is int and dim >= 0 for dim in entry[2])):
            raise ValueError(f"malformed checkpoint header: array entry {entry!r} is not "
                             f"[name, known type, shape]")
    return header


def load_params(path) -> tuple[dict[str, np.ndarray], dict]:
    """The arrays and the header object, less its ``arrays`` list, of a file
    that :func:`save_params` wrote.  A ValueError if the file is not one."""
    blob = Path(path).read_bytes()
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
    (header_len,) = struct.unpack("<I", take(4, "header length"))
    header = _header(take(header_len, "header"))
    arrays: dict[str, np.ndarray] = {}
    for name, code, shape in header.pop("arrays"):
        size, dtype = math.prod(shape), _TYPES[code]
        raw = take(-(-size // 8) if code == _BITS else dtype.itemsize * size, f"values of {name}")
        arr = np.frombuffer(raw, dtype=dtype)
        arr = np.unpackbits(arr, count=size) if code == _BITS else arr.astype(dtype.type)
        arrays[name] = arr.reshape(shape)
    if offset != len(blob):
        raise ValueError("trailing bytes after checkpoint payload")
    return arrays, header


def save(path, kind: str, arrays: dict[str, np.ndarray], fields: dict, metadata: dict) -> None:
    """Write an artifact of ``kind``: its arrays, with ``fields`` and
    ``metadata`` as the header's ``cfg`` and ``meta`` objects."""
    save_params(path, arrays, {"kind": kind, "cfg": fields, "meta": metadata})


def _fits(value, declared) -> bool:
    """Whether a header value has the ``declared`` type: a float field takes an
    int that a float holds too, and a ``tuple[T, ...]`` field a list of Ts."""
    if typing.get_origin(declared) is tuple:
        item = typing.get_args(declared)[0]
        return type(value) is list and all(_fits(v, item) for v in value)
    if declared is float:
        return type(value) is float or (type(value) is int and abs(value) <= sys.float_info.max)
    return type(value) is declared


def load(path, kind: str,
         fields: dict | None = None) -> tuple[dict[str, np.ndarray], dict, dict]:
    """The arrays, fields and metadata of an artifact that :func:`save` wrote.

    ``fields`` maps each ``cfg`` name the kind may hold to its declared type.
    A ValueError if the file is of another kind, has a header key other than
    kind, cfg and meta, a field not in ``fields`` or a value of another type,
    which names the field, value and type before any caller builds an object.
    An int comes back as a declared float, and a list as a declared tuple.
    """
    fields = fields or {}
    arrays, header = load_params(path)
    found = header.pop("kind", None)
    if found != kind:
        raise ValueError(f"{path} holds a {found!r} artifact, not a {kind!r} one")
    cfg, meta = header.pop("cfg", {}), header.pop("meta", {})
    if header:
        raise ValueError(f"{path}: {min(header)!r} is not a header line of a {kind!r} artifact")
    if not (isinstance(cfg, dict) and isinstance(meta, dict)):
        raise ValueError(f"malformed checkpoint header: cfg and meta of {path} are not objects")
    for name, value in cfg.items():
        if name not in fields:
            raise ValueError(f"{path}: 'cfg.{name}' is not a header line of a {kind!r} artifact")
        declared = fields[name]
        if not _fits(value, declared):
            expected = declared.__name__ if isinstance(declared, type) else declared
            raise ValueError(f"{path}: cfg.{name}={value!r} is not of the field's type "
                             f"{expected}")
        if declared is float or type(value) is list:
            cfg[name] = float(value) if declared is float else tuple(value)
    return arrays, cfg, meta


def file_digest(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()
