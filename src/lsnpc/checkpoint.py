"""Binary checkpoint format, and the artifact codec shared by every saver.

Layout (all integers little-endian):

    magic  b"LSNP"
    version u8
    meta_len u32, meta utf-8 text: sorted "key=value" lines
    count u32
    per array, sorted by name:
        name_len u16, name utf-8, ndim u8, ndim x u32 dims, float64 payload

Sorting plus repr-based metadata (:func:`text`) makes saves
byte-deterministic, so equal digests imply equal checkpoints.
:func:`literal` parses a saved value back, so a load followed by a save
reproduces the file byte for byte.  Dataset files (``datagen``) keep their
own layout but write and parse their metadata with the same two functions,
and both checkpoint kinds encode their architecture fields with
:func:`field_text` / :func:`field_value` and move parameters in and out of
a model with :func:`snapshot` / :func:`restore`.
"""

from __future__ import annotations

import ast
import hashlib
import struct
from typing import get_args, get_origin

import numpy as np

MAGIC = b"LSNP"
VERSION = 1

__all__ = [
    "MAGIC",
    "VERSION",
    "serialize_params",
    "deserialize_params",
    "save_params",
    "load_params",
    "file_digest",
]


def serialize_params(params: dict[str, np.ndarray], meta: dict[str, str]) -> bytes:
    chunks = [MAGIC, struct.pack("<B", VERSION)]
    meta_text = "".join(f"{k}={meta[k]}\n" for k in sorted(meta))
    meta_bytes = meta_text.encode("utf-8")
    chunks.append(struct.pack("<I", len(meta_bytes)))
    chunks.append(meta_bytes)
    chunks.append(struct.pack("<I", len(params)))
    for name in sorted(params):
        arr = np.ascontiguousarray(params[name], dtype=np.float64)
        name_bytes = name.encode("utf-8")
        chunks.append(struct.pack("<H", len(name_bytes)))
        chunks.append(name_bytes)
        chunks.append(struct.pack("<B", arr.ndim))
        chunks.append(struct.pack(f"<{arr.ndim}I", *arr.shape))
        chunks.append(arr.astype("<f8").tobytes())
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

    if take(4, "magic") != MAGIC:
        raise ValueError("not a checkpoint file: bad magic")
    version = take(1, "version")[0]
    if version != VERSION:
        raise ValueError(f"unsupported checkpoint version {version}")
    (meta_len,) = struct.unpack("<I", take(4, "metadata length"))
    meta_text = str(take(meta_len, "metadata"), "utf-8")
    meta: dict[str, str] = {}
    for line in meta_text.splitlines():
        key, _, value = line.partition("=")
        meta[key] = value
    (count,) = struct.unpack("<I", take(4, "array count"))
    params: dict[str, np.ndarray] = {}
    for _ in range(count):
        (name_len,) = struct.unpack("<H", take(2, "array name length"))
        name = str(take(name_len, "array name"), "utf-8")
        ndim = take(1, f"rank of {name}")[0]
        shape = struct.unpack(f"<{ndim}I", take(4 * ndim, f"shape of {name}"))
        size = int(np.prod(shape)) if ndim else 1
        arr = np.frombuffer(take(8 * size, f"values of {name}"), dtype="<f8")
        params[name] = arr.reshape(shape).astype(np.float64)
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


def field_text(value) -> str:
    """A dataclass field as saved: a tuple as its comma-joined items, any
    other value as :func:`text`."""
    if isinstance(value, tuple):
        return ",".join(str(v) for v in value)
    return text(value)


def field_value(hint, raw: str):
    """A field saved by :func:`field_text`, converted by its type ``hint``
    (``tuple[T, ...]`` applies T to each item)."""
    if get_origin(hint) is tuple:
        return tuple(get_args(hint)[0](v) for v in raw.split(",") if v)
    return hint(literal(raw))


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
    blob = serialize_params(params, meta)
    with open(path, "wb") as fh:
        fh.write(blob)


def load_params(path) -> tuple[dict[str, np.ndarray], dict[str, str]]:
    with open(path, "rb") as fh:
        return deserialize_params(fh.read())


def file_digest(path) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()
