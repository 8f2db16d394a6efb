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

Each bundle file's codec declares a table of its records' keys, field specs
and array shapes, which ``check_record`` checks.  Every JSON document, a
container header or a bundle's JSON file, is parsed by ``decode_json``.
"""

from __future__ import annotations

import json
import math
import re
import struct
import sys
from typing import Callable, NamedTuple

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


def decode_json(text, what: str):
    """The value of JSON ``text``; input that is not JSON, or is nested too
    deeply for the parser, is a ValueError naming ``what``."""
    try:
        return json.loads(text)
    except RecursionError as exc:  # json raises it for deeply nested input
        raise ValueError(f"{what} is nested too deeply") from exc
    except ValueError as exc:
        raise ValueError(f"{what} is not JSON: {exc}") from exc


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
    header = decode_json(str(take(header_len, "header"), "utf-8"), "container header")
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


class Field(NamedTuple):
    """A field spec: ``test(value)`` holds for the values ``text`` names."""
    test: Callable
    text: str
    optional: bool = False  # the key may be left out


NUMBER = Field(lambda v: isinstance(v, (int, float)) and not isinstance(v, bool), "a number")
INTEGER = Field(lambda v: isinstance(v, int) and not isinstance(v, bool), "an integer")
# an integer of any type, such as numpy's, which its reader converts
INDEX = Field(lambda v: hasattr(v, "__index__") and not isinstance(v, bool), "an integer")
COUNT = Field(lambda v: INTEGER.test(v) and v >= 0, "an integer >= 0")
POSITIVE = Field(lambda v: NUMBER.test(v) and 0 < v <= sys.float_info.max, "positive and finite")
FRACTION = Field(lambda v: NUMBER.test(v) and 0 <= v <= 1, "a number in [0, 1]")
DIGEST = Field(lambda v: isinstance(v, str) and re.fullmatch("[0-9a-f]{64}", v), "a 64-hex digest")
TEXT = Field(lambda v: isinstance(v, str), "a string")
RETIRED = Field(lambda v: True, "anything", optional=True)  # older writers' keys


def one_of(*values) -> Field:
    """Equal to one of ``values`` and of its type: neither 1.0 nor True is 1."""
    return Field(lambda v: any(type(v) is type(c) and v == c for c in values),
                 repr(values[0]) if len(values) == 1 else f"one of {values}")


def check_record(record, table, what: str, version=None, **bound) -> None:
    """ValueError, naming ``what`` and the key, unless ``record`` holds
    ``table``'s keys, optional ones aside, and no others, each meeting its
    spec: a ``Field``, a nested table, or a finite array's shape of sizes and
    names such as ``"k"``, each name bound by ``bound`` or the first size it
    meets (``bound`` fixes fields too).  No ``format_version`` reads as ``version``."""
    if not isinstance(record, dict):
        raise ValueError(f"{what} must be a JSON object, got {type(record).__name__}")
    declared = record.get("format_version", version)
    if version is not None and (type(declared) is not int or declared != version):
        raise ValueError(f"{what} format_version {declared!r} is not supported "
                         f"(this version reads {version})")
    keys = set(record) - {"format_version"} if version is not None else set(record)
    required = {key for key, spec in table.items() if not getattr(spec, "optional", False)}
    if not required <= keys <= set(table):
        raise ValueError(f"{what} fields do not match: missing {sorted(required - keys)}, "
                         f"unexpected {sorted(keys - set(table))}")
    names = dict(bound)
    for key in [key for key in table if key in record]:
        spec, value = table[key], record[key]
        if isinstance(spec, dict):
            check_record(value, spec, f"{what} {key}")
        elif isinstance(spec, Field):
            spec = one_of(bound[key]) if key in bound else spec
            if not spec.test(value):
                raise ValueError(f"{what} {key} must be {spec.text}, got {value!r}")
        else:
            shape = np.shape(value)
            for dim, n in zip(spec, shape) if len(shape) == len(spec) else ():
                if isinstance(dim, str):
                    names.setdefault(dim, n)
            expected = tuple(names.get(dim, dim) for dim in spec)
            if shape != expected:
                raise ValueError(f"{what} {key} must have shape {expected}, got {shape}")
            if not np.isfinite(value).all():
                raise ValueError(f"{what} {key} contains non-finite values")
