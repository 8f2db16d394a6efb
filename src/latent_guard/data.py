"""Dataset ingestion: IDX files and the image dataset they load into.

IDX loading follows the MNIST distribution format: big-endian magic
0x00000803 for image files (dims [count, rows, cols]) and 0x00000801 for
label files.  The pixels stay the file's bytes, uint8 in 0..255; the
autoencoder scales each chunk or batch it takes by 1/255 into [0, 1]
(``autoencoder.scaled_pixels``), so no float copy of a whole split is made.
Gzip-compressed files are detected by their leading bytes and decompressed
transparently.
"""

from __future__ import annotations

import gzip
import math
import struct
import zlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from latent_guard.errors import IdxFormatError

IDX_IMAGE_MAGIC = 0x00000803
IDX_LABEL_MAGIC = 0x00000801


@dataclass(frozen=True)
class ImageDataset:
    """Images [n, 1, H, W] and digit labels [n].

    The images are either uint8 bytes, where byte b stands for b / 255 (as
    ``load_idx`` returns them), or floats in [0, 1]; the autoencoder and the
    trainer take both."""

    images: np.ndarray
    labels: np.ndarray

    def __post_init__(self):
        if len(self.images) != len(self.labels):
            raise ValueError(
                f"{len(self.images)} images but {len(self.labels)} labels"
            )
        if len(self.images) == 0:
            raise ValueError("dataset is empty")

    def __len__(self) -> int:
        return len(self.images)


def _read_maybe_gzip(path) -> bytes:
    raw = Path(path).read_bytes()
    if raw[:2] != b"\x1f\x8b":
        return raw
    try:
        return gzip.decompress(raw)
    except (OSError, EOFError, zlib.error) as exc:
        raise IdxFormatError(f"{path}: corrupt gzip data: {exc}") from exc


def _read_idx(path, expected_magic, what):
    # the whole file is in memory, so a declared size is checked against the
    # bytes present before anything is allocated for it
    raw = _read_maybe_gzip(path)
    if len(raw) < 4:
        raise IdxFormatError(f"{path}: truncated {what} file (no magic)")
    (magic,) = struct.unpack_from(">I", raw)
    if magic != expected_magic:
        raise IdxFormatError(
            f"{path}: bad {what} magic 0x{magic:08x}, expected 0x{expected_magic:08x}"
        )
    ndim = magic & 0xFF
    offset = 4 + 4 * ndim
    if len(raw) < offset:
        raise IdxFormatError(f"{path}: truncated {what} dimension header")
    dims = struct.unpack_from(f">{ndim}I", raw, 4)
    count = math.prod(dims)  # exact; np.prod would wrap in int64
    if len(raw) - offset < count:
        raise IdxFormatError(
            f"{path}: truncated {what} data, expected {count} bytes got {len(raw) - offset}"
        )
    return np.frombuffer(raw, dtype=np.uint8, count=count, offset=offset).reshape(dims)


def load_idx(images_path, labels_path) -> ImageDataset:
    """Loads an IDX image/label file pair into a dataset.

    The images are the file's uint8 pixels [n, 1, rows, cols], a read-only
    view over the decoded file bytes: the decode holds those bytes and
    nothing else of their size."""
    raw_images = _read_idx(images_path, IDX_IMAGE_MAGIC, "image")
    raw_labels = _read_idx(labels_path, IDX_LABEL_MAGIC, "label")
    if raw_images.shape[0] != raw_labels.shape[0]:
        raise IdxFormatError(
            f"count mismatch: {raw_images.shape[0]} images vs "
            f"{raw_labels.shape[0]} labels"
        )
    return ImageDataset(images=raw_images[:, None], labels=raw_labels.astype(np.int64))


def _idx_bytes(values, what) -> np.ndarray:
    """``values`` as uint8; raises if the cast would change any value."""
    values = np.asarray(values)
    if values.dtype == np.uint8:
        return values
    # written so that NaN, for which every comparison is False, fails it too
    with np.errstate(invalid="ignore"):
        exact = (values >= 0) & (values <= 255) & (values % 1 == 0)
    if not np.all(exact):
        raise ValueError(f"IDX {what} must be integers in the range 0-255, "
                         f"got {values[~exact].flat[0].item()!r}")
    return values.astype(np.uint8)


def write_idx_images(path, images_u8) -> None:
    """Writes images [n, rows, cols] of integers 0..255 in IDX format (for
    tests/tools)."""
    images_u8 = _idx_bytes(images_u8, "pixels")
    n, rows, cols = images_u8.shape
    with open(path, "wb") as f:
        f.write(struct.pack(">IIII", IDX_IMAGE_MAGIC, n, rows, cols))
        f.write(images_u8.tobytes())


def write_idx_labels(path, labels) -> None:
    """Writes labels [n] of integers 0..255 in IDX format."""
    labels = _idx_bytes(labels, "labels")
    with open(path, "wb") as f:
        f.write(struct.pack(">II", IDX_LABEL_MAGIC, len(labels)))
        f.write(labels.tobytes())


_MNIST_FILES = {
    ("train", "images"): "train-images-idx3-ubyte",
    ("train", "labels"): "train-labels-idx1-ubyte",
    ("t10k", "images"): "t10k-images-idx3-ubyte",
    ("t10k", "labels"): "t10k-labels-idx1-ubyte",
}


def _find_mnist_file(data_dir: Path, base: str) -> Path:
    for candidate in (data_dir / base, data_dir / f"{base}.gz"):
        if candidate.exists():
            return candidate
    raise FileNotFoundError(
        f"{base}[.gz] not found in {data_dir}; expected the standard MNIST "
        "IDX file names"
    )


def load_mnist_split(data_dir, split: str) -> ImageDataset:
    """Loads the "train" or "t10k" MNIST split from a directory of IDX files."""
    if split not in ("train", "t10k"):
        raise ValueError(f"split must be 'train' or 't10k', got {split!r}")
    data_dir = Path(data_dir)
    return load_idx(
        _find_mnist_file(data_dir, _MNIST_FILES[(split, "images")]),
        _find_mnist_file(data_dir, _MNIST_FILES[(split, "labels")]),
    )

