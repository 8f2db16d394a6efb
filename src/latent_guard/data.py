"""Dataset ingestion and the synthetic-manifold test harness.

IDX loading follows the MNIST distribution format: big-endian magic
0x00000803 for image files (dims [count, rows, cols]) and 0x00000801 for
label files.  The pixels stay the file's bytes, uint8 in 0..255; the
autoencoder scales each chunk or batch it takes by 1/255 into [0, 1]
(``autoencoder.scaled_pixels``), so no float copy of a whole split is made.
Gzip-compressed files are detected by their leading bytes and decompressed
transparently.

The synthetic manifold generator reproduces the geometry behind the
reconstruction-error failure mode: training inliers occupy a bounded
region of a linear subspace or a circle, one OOD point sits exactly on the
manifold but far from the training region (zero ideal reconstruction
error), and one sits off the manifold at a fixed orthogonal offset.
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

ROLE_TRAIN = "inlier_train"
ROLE_TEST = "inlier_test"
ROLE_OOD_ON = "ood_on_manifold"
ROLE_OOD_OFF = "ood_off_manifold"

FAR_FACTOR = 100.0  # see make_manifold_set
OFF_OFFSET = 5.0


# ---------------------------------------------------------------------------
# image datasets
# ---------------------------------------------------------------------------

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


# ---------------------------------------------------------------------------
# synthetic manifolds (Figure-2-style geometry)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LinearManifold:
    """Affine-through-origin subspace spanned by orthonormal ``basis`` rows [m, d]."""

    basis: np.ndarray

    def __post_init__(self):
        basis = np.atleast_2d(np.asarray(self.basis, dtype=np.float64))
        m, d = basis.shape
        if d < 2 or m >= d:
            raise ValueError(
                f"linear manifold needs ambient dim >= 2 and subspace dim < ambient, "
                f"got basis shape {basis.shape}"
            )
        if not np.allclose(basis @ basis.T, np.eye(m), atol=1e-10):
            raise ValueError("basis rows must be orthonormal")
        object.__setattr__(self, "basis", basis)


@dataclass(frozen=True)
class CircularManifold:
    """Circle of given radius about ``center`` in the plane (d = 2)."""

    center: np.ndarray
    radius: float

    def __post_init__(self):
        center = np.asarray(self.center, dtype=np.float64)
        if center.shape != (2,):
            raise ValueError(f"circular manifold requires d = 2, got center {center.shape}")
        if self.radius <= 0:
            raise ValueError(f"radius must be positive, got {self.radius}")
        object.__setattr__(self, "center", center)


@dataclass(frozen=True)
class SyntheticManifoldSet:
    """Points [n, d] with per-point roles and the generating manifold."""

    points: np.ndarray
    roles: np.ndarray
    manifold: object

    def _role(self, role):
        return self.points[self.roles == role]

    @property
    def inlier_train(self):
        return self._role(ROLE_TRAIN)

    @property
    def inlier_test(self):
        return self._role(ROLE_TEST)

    @property
    def ood_on_manifold(self):
        return self._role(ROLE_OOD_ON)

    @property
    def ood_off_manifold(self):
        return self._role(ROLE_OOD_OFF)


def make_manifold_set(
    manifold,
    n_train: int,
    seed: int,
    n_test: int = 200,
    noise_sigma: float = 0.02,
) -> SyntheticManifoldSet:
    """Samples the Figure-2 geometry for a linear or circular manifold.

    Training/test inliers live in a bounded region of the manifold with
    isotropic Gaussian noise of ``noise_sigma`` about it (pass 0 to place
    them exactly on the manifold).  The on-manifold OOD point sits exactly
    on the manifold at ``FAR_FACTOR`` times the training region's radius
    from its centroid; the off-manifold OOD point sits at the training
    centroid's manifold projection plus ``OFF_OFFSET`` along the normal.
    """
    rng = np.random.default_rng(seed)
    if isinstance(manifold, LinearManifold):
        basis = manifold.basis
        m, d = basis.shape
        train_coeff = rng.uniform(-1.0, 1.0, size=(n_train, m))
        test_coeff = rng.uniform(-1.0, 1.0, size=(n_test, m))
        centroid = train_coeff.mean(axis=0)
        radius = np.linalg.norm(train_coeff - centroid, axis=1).max()
        far_coeff = centroid.copy()
        far_coeff[0] += FAR_FACTOR * radius
        # any unit vector orthogonal to the basis rows
        null = np.linalg.svd(basis)[2][m:]
        normal = null[0]
        on_points = np.vstack([train_coeff @ basis, test_coeff @ basis])
        far_point = far_coeff @ basis
        off_point = centroid @ basis + OFF_OFFSET * normal
    elif isinstance(manifold, CircularManifold):
        center, radius_c = manifold.center, manifold.radius
        arc_half_width = 0.1  # radians; keeps the training region tightly bounded
        train_theta = rng.uniform(-arc_half_width, arc_half_width, size=n_train)
        test_theta = rng.uniform(-arc_half_width, arc_half_width, size=n_test)
        theta = np.concatenate([train_theta, test_theta])
        on_points = center + radius_c * np.column_stack([np.cos(theta), np.sin(theta)])
        # opposite side of the circle: far along the manifold, still on it
        far_point = center + radius_c * np.array([np.cos(np.pi), np.sin(np.pi)])
        mean_theta = train_theta.mean()
        direction = np.array([np.cos(mean_theta), np.sin(mean_theta)])
        off_point = center + (radius_c + OFF_OFFSET) * direction
    else:
        raise TypeError(f"unsupported manifold spec: {type(manifold).__name__}")

    d = on_points.shape[1]
    if noise_sigma > 0:
        on_points = on_points + rng.normal(0.0, noise_sigma, size=on_points.shape)
    points = np.vstack([on_points, far_point, off_point])
    roles = np.array(
        [ROLE_TRAIN] * n_train + [ROLE_TEST] * n_test + [ROLE_OOD_ON, ROLE_OOD_OFF]
    )
    return SyntheticManifoldSet(points=points, roles=roles, manifold=manifold)


class LinearProjectionCodec:
    """Ideal "autoencoder" for a linear manifold: orthogonal projection.

    encode maps a point to its subspace coefficients, and the
    reconstruction error is the L2 norm of the orthogonal residual (zero
    exactly on the manifold).  Mirrors the Autoencoder scoring interface so
    the novelty machinery can run on it.
    """

    def __init__(self, manifold: LinearManifold):
        self.basis = manifold.basis

    def encode(self, x):
        return np.asarray(x, dtype=np.float64) @ self.basis.T

    def encode_and_reconstruction_errors(self, x, latent=None):
        """(coefficients [N,m], residual norms [N]); a 1-D point is one row.
        ``latent`` maps the whole batch's coefficients to one value per row
        and replaces them in the result, as in ``Autoencoder``."""
        x = np.atleast_2d(np.asarray(x, dtype=np.float64))
        z = self.encode(x)
        re = np.linalg.norm(x - z @ self.basis, axis=1)
        return (z if latent is None else latent(z)), re


class CircularProjectionCodec:
    """Ideal "autoencoder" for a circle: radial projection.

    Embeddings are points on the circle (direction scaled to the radius),
    so far-apart arc positions stay far apart in latent space without any
    angle-wrapping artifacts; the reconstruction error is the absolute
    radial offset, zero exactly on the circle.
    """

    def __init__(self, manifold: CircularManifold):
        self.center = manifold.center
        self.radius = manifold.radius

    def encode(self, x):
        x = np.asarray(x, dtype=np.float64)
        offset = x - self.center
        norms = np.linalg.norm(offset, axis=-1, keepdims=True)
        return self.radius * offset / norms

    def encode_and_reconstruction_errors(self, x, latent=None):
        """(circle points [N,2], radial offsets [N]); a 1-D point is one row.
        ``latent`` maps the whole batch's circle points to one value per row
        and replaces them in the result, as in ``Autoencoder``."""
        x = np.atleast_2d(np.asarray(x, dtype=np.float64))
        radial = np.linalg.norm(x - self.center, axis=1)
        z = self.encode(x)
        return (z if latent is None else latent(z)), np.abs(radial - self.radius)
