"""Frozen, seeded benchmark inputs.

``synthetic_digits`` is a private copy of the MNIST-shaped generator the
test suite uses.  It is copied rather than imported so that a later change
to the test fixture cannot change what the benchmark measures.  Every
input is a pure function of the seed passed in.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from latent_guard.data import ImageDataset, write_idx_images, write_idx_labels

# one blob center per class, spread on a ring so classes are well separated
_CENTERS = [
    (14 + 7 * np.cos(2 * np.pi * c / 10), 14 + 7 * np.sin(2 * np.pi * c / 10))
    for c in range(10)
]


def synthetic_digits(n, seed, n_classes=10):
    """Gaussian-bump images: each class is a blob at a class-specific spot."""
    rng = np.random.default_rng(seed)
    labels = rng.integers(0, n_classes, size=n)
    yy, xx = np.mgrid[0:28, 0:28]
    images = np.empty((n, 1, 28, 28))
    for i, c in enumerate(labels):
        cy, cx = _CENTERS[c]
        cy += rng.uniform(-1.5, 1.5)
        cx += rng.uniform(-1.5, 1.5)
        sigma = 2.0 + 0.3 * (c % 3)
        bump = np.exp(-((yy - cy) ** 2 + (xx - cx) ** 2) / (2 * sigma**2))
        amp = rng.uniform(0.7, 1.0)
        noise = rng.normal(0, 0.02, size=(28, 28))
        images[i, 0] = np.clip(amp * bump + noise, 0.0, 1.0)
    return ImageDataset(images=images, labels=labels)


def write_idx_dir(root: Path, train: ImageDataset, test: ImageDataset) -> None:
    """Writes both splits under the standard MNIST IDX file names."""
    root.mkdir(parents=True, exist_ok=True)
    for name, ds in (("train", train), ("t10k", test)):
        as_u8 = np.round(ds.images[:, 0] * 255.0).astype(np.uint8)
        write_idx_images(root / f"{name}-images-idx3-ubyte", as_u8)
        write_idx_labels(root / f"{name}-labels-idx1-ubyte", ds.labels)
