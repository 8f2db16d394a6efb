"""Fuzzing of the two binary readers: IDX (MNIST) files and the LGAR
container decoder.

Whatever the bytes, a reader either returns arrays or raises a format
error (``IdxFormatError`` / ``ValueError``); it never allocates what a
header merely declares, so a huge declared size is a format error, not a
``MemoryError``.
"""

import gzip
import struct

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from latent_guard import serialization
from latent_guard.data import IDX_IMAGE_MAGIC, IDX_LABEL_MAGIC, _read_idx
from latent_guard.errors import IdxFormatError

U32 = st.integers(0, 2**32 - 1)
U32_MAX = 2**32 - 1

FUZZ = settings(max_examples=150, deadline=None, database=None,
                suppress_health_check=[HealthCheck.too_slow])


@pytest.fixture(scope="module")
def scratch(tmp_path_factory):
    """One file path reused by every example (function-scoped tmp_path does
    not reset between hypothesis examples)."""
    return tmp_path_factory.mktemp("fuzz") / "blob"


def idx_images_blob(n, rows, cols, seed=0):
    pixels = np.random.default_rng(seed).integers(0, 256, n * rows * cols, dtype=np.uint8)
    return struct.pack(">IIII", IDX_IMAGE_MAGIC, n, rows, cols) + pixels.tobytes()


def read_idx_images(path):
    return _read_idx(path, IDX_IMAGE_MAGIC, "image")


def lgar_blob(shapes):
    arrays = {f"a{i}": np.arange(int(np.prod(s)), dtype=np.float64).reshape(s)
              for i, s in enumerate(shapes)}
    return serialization.encode_arrays({"kind": "fuzz"}, arrays)


def lgar_one_array(dims, payload, header=b"{}"):
    """A container holding one array named "a" with the given declared dims."""
    return (serialization.MAGIC
            + struct.pack("<II", serialization.FORMAT_VERSION, len(header)) + header
            + struct.pack("<I", 1) + struct.pack("<H", 1) + b"a"
            + struct.pack("<B", len(dims)) + struct.pack(f"<{len(dims)}I", *dims)
            + payload)


# ---------------------------------------------------------------------------
# IDX
# ---------------------------------------------------------------------------

class TestIdx:
    def test_huge_declared_dims_is_format_error(self, scratch):
        # (2^32 - 1)^3 declared pixels over 100 data bytes
        scratch.write_bytes(
            struct.pack(">IIII", IDX_IMAGE_MAGIC, U32_MAX, U32_MAX, U32_MAX) + bytes(100)
        )
        with pytest.raises(IdxFormatError, match="truncated image data"):
            read_idx_images(scratch)

    @FUZZ
    @given(n=st.integers(0, 3), rows=st.integers(0, 5), cols=st.integers(0, 5),
           data=st.data(), compress=st.booleans())
    def test_truncation_at_any_offset(self, scratch, n, rows, cols, data, compress):
        blob = idx_images_blob(n, rows, cols)
        if compress:
            blob = gzip.compress(blob, mtime=0)
        cut = data.draw(st.integers(0, len(blob) - 1), label="cut")
        scratch.write_bytes(blob[:cut])
        with pytest.raises(IdxFormatError):
            read_idx_images(scratch)

    @FUZZ
    @given(dims=st.tuples(U32, U32, U32), payload=st.binary(max_size=100))
    @example(dims=(0, U32_MAX, U32_MAX), payload=b"")
    def test_arbitrary_declared_dims(self, scratch, dims, payload):
        scratch.write_bytes(struct.pack(">IIII", IDX_IMAGE_MAGIC, *dims) + payload)
        count = dims[0] * dims[1] * dims[2]
        if count <= len(payload):
            try:
                assert read_idx_images(scratch).shape == dims
            except ValueError:
                pass  # numpy rejects some zero-size shapes as "too big"
        else:
            with pytest.raises(IdxFormatError, match="truncated"):
                read_idx_images(scratch)

    @FUZZ
    @given(magic=U32.filter(lambda m: m != IDX_LABEL_MAGIC), rest=st.binary(max_size=64))
    def test_bad_magic(self, scratch, magic, rest):
        scratch.write_bytes(struct.pack(">I", magic) + rest)
        with pytest.raises(IdxFormatError):
            _read_idx(scratch, IDX_LABEL_MAGIC, "label")

    @FUZZ
    @given(blob=st.binary(max_size=200))
    def test_arbitrary_bytes_plain_or_gzip(self, scratch, blob):
        # the gzip magic sends the same garbage through the decompressor
        for content in (blob, b"\x1f\x8b" + blob):
            scratch.write_bytes(content)
            try:
                read_idx_images(scratch)
            except IdxFormatError:
                pass


# ---------------------------------------------------------------------------
# LGAR containers
# ---------------------------------------------------------------------------

class TestContainer:
    def test_huge_declared_array_is_format_error(self):
        with pytest.raises(ValueError, match="truncated container"):
            serialization.decode_arrays(lgar_one_array((100000, 100000, 100), bytes(64)))

    @FUZZ
    @given(shapes=st.lists(st.lists(st.integers(0, 3), max_size=3), min_size=1, max_size=3),
           data=st.data())
    def test_truncation_at_any_offset(self, shapes, data):
        blob = lgar_blob(shapes)
        cut = data.draw(st.integers(0, len(blob) - 1), label="cut")
        with pytest.raises(ValueError):
            serialization.decode_arrays(blob[:cut])

    @FUZZ
    @given(dims=st.lists(U32, max_size=4), payload=st.binary(max_size=96))
    @example(dims=[0, U32_MAX, U32_MAX], payload=b"")
    def test_arbitrary_declared_dims(self, dims, payload):
        blob = lgar_one_array(dims, payload)
        count = int(np.prod(dims, dtype=object)) if dims else 1
        if 8 * count <= len(payload):
            try:
                _, arrays = serialization.decode_arrays(blob)
                assert arrays["a"].shape == tuple(dims)
            except ValueError:
                pass  # numpy rejects some zero-size shapes as "too big"
        else:
            with pytest.raises(ValueError, match="truncated"):
                serialization.decode_arrays(blob)

    @FUZZ
    @given(header_len=U32, n_arrays=U32, rest=st.binary(max_size=64))
    def test_arbitrary_header_and_array_counts(self, header_len, n_arrays, rest):
        blob = (serialization.MAGIC + struct.pack("<II", 1, header_len) + b"{}"
                + struct.pack("<I", n_arrays) + rest)
        try:
            serialization.decode_arrays(blob)
        except ValueError:
            pass

    @FUZZ
    @given(magic=st.binary(min_size=4, max_size=4).filter(lambda m: m != serialization.MAGIC),
           rest=st.binary(max_size=64))
    def test_bad_magic(self, magic, rest):
        with pytest.raises(ValueError, match="not a latent-guard array container"):
            serialization.decode_arrays(magic + rest)

    @pytest.mark.parametrize("header", [b"[1, 2]", b"[" * 100000])
    def test_non_object_header_rejected(self, header):
        with pytest.raises(ValueError, match="header"):
            serialization.decode_arrays(lgar_one_array((), bytes(8), header=header))
