"""The source paper's Figure-2 geometry, as a test fixture: training inliers
fill a bounded region of a manifold, one OOD point sits on the manifold far
from that region (zero ideal reconstruction error), one sits off it.  The
codecs are ideal "autoencoders" with the scoring interface of ``Autoencoder``.
"""

from typing import NamedTuple

import numpy as np

FAR_FACTOR = 100.0  # on-manifold OOD distance from the centroid, in training radii
OFF_OFFSET = 5.0  # off-manifold OOD distance from the manifold


class ManifoldSet(NamedTuple):
    """Points [n, d] of each role; ``np.vstack`` of a set stacks them in this order."""

    inlier_train: np.ndarray
    inlier_test: np.ndarray
    ood_on_manifold: np.ndarray
    ood_off_manifold: np.ndarray


def _manifold_set(rng, on_points, far, off, n_train, noise_sigma):
    # isotropic Gaussian noise about the manifold, for the inliers only
    if noise_sigma > 0:
        on_points = on_points + rng.normal(0.0, noise_sigma, size=on_points.shape)
    return ManifoldSet(on_points[:n_train], on_points[n_train:], far[None], off[None])


def linear_set(basis, n_train, seed, n_test=200, noise_sigma=0.02):
    """Inliers with coefficients uniform in [-1, 1] on the orthonormal
    ``basis`` rows [m, d].  The far point moves the training centroid along
    the first row; the off point moves it along a normal of the span."""
    rng = np.random.default_rng(seed)
    basis = np.atleast_2d(np.asarray(basis, dtype=np.float64))
    m = len(basis)
    train = rng.uniform(-1.0, 1.0, size=(n_train, m))
    test = rng.uniform(-1.0, 1.0, size=(n_test, m))
    centroid = train.mean(axis=0)
    far = centroid.copy()
    far[0] += FAR_FACTOR * np.linalg.norm(train - centroid, axis=1).max()
    normal = np.linalg.svd(basis)[2][m]
    return _manifold_set(rng, np.vstack([train @ basis, test @ basis]), far @ basis,
                         centroid @ basis + OFF_OFFSET * normal, n_train, noise_sigma)


def circle_set(center, radius, n_train, seed, n_test=200, noise_sigma=0.02):
    """Inliers on the arc within 0.1 rad of angle 0 of a circle in the plane.
    The far point is on the opposite side of the circle; the off point lies
    radially outside the training arc's mean angle."""
    rng = np.random.default_rng(seed)
    center = np.asarray(center, dtype=np.float64)
    train = rng.uniform(-0.1, 0.1, size=n_train)
    theta = np.concatenate([train, rng.uniform(-0.1, 0.1, size=n_test)])
    on_points = center + radius * np.column_stack([np.cos(theta), np.sin(theta)])
    far = center + radius * np.array([np.cos(np.pi), np.sin(np.pi)])
    mean = train.mean()
    off = center + (radius + OFF_OFFSET) * np.array([np.cos(mean), np.sin(mean)])
    return _manifold_set(rng, on_points, far, off, n_train, noise_sigma)


class _Codec:
    def encode_and_reconstruction_errors(self, x, latent=None):
        """(embeddings [N, e], errors [N]), a 1-D point as one row; ``latent``
        maps the embeddings to one value per row, as in ``Autoencoder``."""
        x = np.atleast_2d(np.asarray(x, dtype=np.float64))
        z = self.encode(x)
        return (z if latent is None else latent(z)), self.residual(x, z)


class LinearProjectionCodec(_Codec):
    """Orthogonal projection onto the span of the ``basis`` rows: embeddings
    are the coefficients, the error is the residual's L2 norm."""

    def __init__(self, basis):
        self.basis = np.atleast_2d(np.asarray(basis, dtype=np.float64))

    def encode(self, x):
        return np.asarray(x, dtype=np.float64) @ self.basis.T

    def residual(self, x, z):
        return np.linalg.norm(x - z @ self.basis, axis=1)


class CircularProjectionCodec(_Codec):
    """Radial projection onto the circle: embeddings are the projected points
    relative to the center, so far arc positions stay far apart without
    angle wrap-around; the error is the absolute radial offset."""

    def __init__(self, center, radius):
        self.center, self.radius = np.asarray(center, dtype=np.float64), radius

    def encode(self, x):
        offset = np.asarray(x, dtype=np.float64) - self.center
        return self.radius * offset / np.linalg.norm(offset, axis=-1, keepdims=True)

    def residual(self, x, z):
        return np.abs(np.linalg.norm(x - self.center, axis=1) - self.radius)
