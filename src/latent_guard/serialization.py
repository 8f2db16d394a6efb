"""Self-describing binary container for float64 arrays.

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

Used for model checkpoints and fitted latent statistics; write/read round
trips are bit-exact.
"""

from __future__ import annotations

import json
import math
import os
import struct

import numpy as np

MAGIC = b"LGAR"
FORMAT_VERSION = 1


def write_arrays(path, header: dict, arrays: dict) -> None:
    """Writes ``arrays`` (name -> float64 ndarray) with a JSON header."""
    header_bytes = json.dumps(header, sort_keys=True).encode("utf-8")
    with open(path, "wb") as f:
        f.write(MAGIC)
        f.write(struct.pack("<II", FORMAT_VERSION, len(header_bytes)))
        f.write(header_bytes)
        f.write(struct.pack("<I", len(arrays)))
        for name, arr in arrays.items():
            arr = np.asarray(arr)
            if arr.dtype != np.float64:
                raise TypeError(f"array {name!r} must be float64, got {arr.dtype}")
            name_bytes = name.encode("utf-8")
            f.write(struct.pack("<H", len(name_bytes)))
            f.write(name_bytes)
            f.write(struct.pack("<B", arr.ndim))
            f.write(struct.pack(f"<{arr.ndim}I", *arr.shape))
            f.write(np.ascontiguousarray(arr, dtype="<f8").tobytes())


def _read_exact(f, n, what):
    # checked before reading: f.read(n) allocates n bytes up front, so a
    # corrupt size field could otherwise ask for terabytes
    if n > os.fstat(f.fileno()).st_size - f.tell():
        raise ValueError(f"truncated container while reading {what}")
    return f.read(n)


def read_arrays(path):
    """Returns ``(header, arrays)`` as written by :func:`write_arrays`."""
    with open(path, "rb") as f:
        if _read_exact(f, 4, "magic") != MAGIC:
            raise ValueError(f"{path}: not a latent-guard array container")
        version, header_len = struct.unpack("<II", _read_exact(f, 8, "version"))
        if version != FORMAT_VERSION:
            raise ValueError(f"{path}: unsupported container version {version}")
        try:
            header = json.loads(_read_exact(f, header_len, "header").decode("utf-8"))
        except RecursionError as exc:  # json raises it for deeply nested input
            raise ValueError(f"{path}: container header is nested too deeply") from exc
        if not isinstance(header, dict):
            raise ValueError(f"{path}: container header is not a JSON object")
        (n_arrays,) = struct.unpack("<I", _read_exact(f, 4, "array count"))
        arrays = {}
        for _ in range(n_arrays):
            (name_len,) = struct.unpack("<H", _read_exact(f, 2, "name length"))
            name = _read_exact(f, name_len, "name").decode("utf-8")
            (ndim,) = struct.unpack("<B", _read_exact(f, 1, "ndim"))
            shape = struct.unpack(f"<{ndim}I", _read_exact(f, 4 * ndim, "shape"))
            count = math.prod(shape)  # exact; np.prod would wrap in int64
            raw = _read_exact(f, 8 * count, f"data for {name!r}")
            arrays[name] = np.frombuffer(raw, dtype="<f8").reshape(shape).copy()
    return header, arrays
