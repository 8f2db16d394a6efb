"""Self-describing binary container for float64 arrays, as a bytes codec.

Layout (all integers little-endian):

    magic   4 bytes  b"LGAR"
    u32     format version (currently 1)
    u32     header length in bytes
    bytes   header JSON (UTF-8, sorted keys)
    u32     number of arrays
    per array:
        u16   name length, then name (UTF-8)
        u8    ndim, then u32 * ndim dims
        f64   row-major little-endian data

Used for model checkpoints and fitted latent statistics.  Round trips are
bit-exact; a declared size is checked against the buffer before any allocation.

The two checks every bundle file's loader shares live here too: a declared
``format_version`` must be the one the loader writes, and a JSON record must
hold exactly its dataclass's fields.
"""

from __future__ import annotations

import json
import math
import struct
from dataclasses import fields

import numpy as np

MAGIC = b"LGAR"
FORMAT_VERSION = 1


def encode_arrays(header: dict, arrays: dict) -> bytes:
    """Container bytes of ``arrays`` (name -> float64 ndarray) with a JSON header."""
    header_bytes = json.dumps(header, sort_keys=True).encode("utf-8")
    parts = [MAGIC, struct.pack("<II", FORMAT_VERSION, len(header_bytes)), header_bytes,
             struct.pack("<I", len(arrays))]
    for name, arr in arrays.items():
        arr = np.asarray(arr)
        if arr.dtype != np.float64:
            raise TypeError(f"array {name!r} must be float64, got {arr.dtype}")
        name_bytes = name.encode("utf-8")
        parts += [struct.pack("<H", len(name_bytes)), name_bytes,
                  struct.pack(f"<B{arr.ndim}I", arr.ndim, *arr.shape),
                  np.ascontiguousarray(arr, dtype="<f8").tobytes()]
    return b"".join(parts)


def decode_arrays(raw: bytes):
    """Returns ``(header, arrays)`` from bytes made by :func:`encode_arrays`."""
    view, pos = memoryview(raw), 0  # memoryview slices copy nothing

    def take(n, what):
        nonlocal pos
        if n > len(view) - pos:
            raise ValueError(f"truncated container while reading {what}")
        pos += n
        return view[pos - n:pos]

    if take(4, "magic") != MAGIC:
        raise ValueError("not a latent-guard array container")
    version, header_len = struct.unpack("<II", take(8, "version"))
    if version != FORMAT_VERSION:
        raise ValueError(f"unsupported container version {version}")
    try:
        header = json.loads(str(take(header_len, "header"), "utf-8"))
    except RecursionError as exc:  # json raises it for deeply nested input
        raise ValueError("container header is nested too deeply") from exc
    if not isinstance(header, dict):
        raise ValueError("container header is not a JSON object")
    (n_arrays,) = struct.unpack("<I", take(4, "array count"))
    arrays = {}
    for _ in range(n_arrays):
        (name_len,) = struct.unpack("<H", take(2, "name length"))
        name = str(take(name_len, "name"), "utf-8")
        (ndim,) = struct.unpack("<B", take(1, "ndim"))
        shape = struct.unpack(f"<{ndim}I", take(4 * ndim, "shape"))
        count = math.prod(shape)  # exact; np.prod would wrap in int64
        data = take(8 * count, f"data for {name!r}")
        # copied so that every array is aligned and none pins the whole buffer
        arrays[name] = np.frombuffer(data, dtype="<f8").reshape(shape).copy()
    return header, arrays


def check_format_version(header: dict, expected: int, what: str) -> None:
    """ValueError when ``header`` declares a ``format_version`` other than
    ``expected``; a header without one reads as ``expected``."""
    version = header.get("format_version", expected)
    if type(version) is not int or version != expected:
        raise ValueError(f"{what} format_version {version!r} is not supported "
                         f"(this version reads {expected})")


def json_fields(text: str, cls, what: str, version=None) -> dict:
    """The JSON object ``text`` as keyword arguments of dataclass ``cls``;
    ValueError for a value that is not an object and for keys other than
    ``cls``'s fields.  With ``version`` set, the object may also declare
    that ``format_version``."""
    payload = json.loads(text)
    if not isinstance(payload, dict):
        raise ValueError(f"{what} must be a JSON object, got {type(payload).__name__}")
    if version is not None:
        check_format_version(payload, version, what)
        payload.pop("format_version", None)
    names = {f.name for f in fields(cls)}
    if set(payload) != names:
        raise ValueError(
            f"{what} fields do not match: missing {sorted(names - set(payload))}, "
            f"unexpected {sorted(set(payload) - names)}"
        )
    return payload
