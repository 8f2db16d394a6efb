"""Gaussian fit of encoded training data and Mahalanobis distances.

The distance of an embedding z from the fitted distribution is

    D(z) = sqrt((z - mu)^T  C^-1  (z - mu))

with mu the mean vector and C the (unbiased, n-1 divisor) sample covariance
of the encoded training set.  C is factorized once (Cholesky, with a jitter
ladder for rank-deficient fits); distances are evaluated by triangular
solve, never by explicit inversion.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import solve_triangular

from latent_guard import serialization

# Jitter ladder: decades from 1e-12 up to (and including) 1e-3, tried after
# the unregularized factorization fails.  Rank-deficient covariances are
# routine when the bottleneck is wide relative to the number of samples or
# the L1 penalty zeroes latent units.
_JITTERS = (0.0,) + tuple(10.0 ** e for e in range(-12, -2))

STATS_VERSION = 1


@dataclass(frozen=True)
class GaussianStats:
    """Fitted latent Gaussian; immutable, safe for concurrent queries.

    ``jitter`` is the diagonal loading that made the factorization succeed
    (0.0 when none was needed); ``chol`` is the lower Cholesky factor of
    ``covariance + jitter * I``.
    """

    mean: np.ndarray
    covariance: np.ndarray
    chol: np.ndarray
    jitter: float

    @property
    def dim(self) -> int:
        return self.mean.shape[0]

    def save(self, path) -> None:
        header = {"kind": "latent-stats", "format_version": STATS_VERSION}
        serialization.write_arrays(
            path,
            header,
            {
                "mean": self.mean,
                "covariance": self.covariance,
                "chol": self.chol,
                "jitter": np.array(self.jitter),
            },
        )

    @classmethod
    def load(cls, path) -> "GaussianStats":
        header, arrays = serialization.read_arrays(path)
        if header.get("kind") != "latent-stats":
            raise ValueError(f"{path}: not a latent-stats container")
        return cls(
            mean=arrays["mean"],
            covariance=arrays["covariance"],
            chol=arrays["chol"],
            jitter=float(arrays["jitter"]),
        )


def fit_gaussian(embeddings) -> GaussianStats:
    """Fits mean and unbiased covariance to rows of ``embeddings`` [n, k].

    The covariance (plus the smallest successful jitter) must be positive
    definite; after the full ladder fails a ValueError is raised.
    """
    z = np.asarray(embeddings, dtype=np.float64)
    if z.ndim != 2:
        raise ValueError(f"embeddings must be 2-D [n, k], got shape {z.shape}")
    n, k = z.shape
    if n < 2:
        raise ValueError(f"need at least 2 embeddings to fit a covariance, got {n}")
    if not np.all(np.isfinite(z)):
        raise ValueError("embeddings contain non-finite values")
    mean = z.mean(axis=0)
    centered = z - mean
    cov = centered.T @ centered / (n - 1)
    cov = (cov + cov.T) / 2.0  # exact symmetry for the factorization
    eye = np.eye(k)
    for jitter in _JITTERS:
        try:
            chol = np.linalg.cholesky(cov + jitter * eye)
        except np.linalg.LinAlgError:
            continue
        return GaussianStats(mean=mean, covariance=cov, chol=chol, jitter=jitter)
    raise ValueError(
        f"covariance factorization failed for every jitter up to {_JITTERS[-1]:g}"
    )


def mahalanobis(stats: GaussianStats, x) -> float:
    """Distance of a single vector from the fitted Gaussian; >= 0."""
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (stats.dim,):
        raise ValueError(
            f"expected vector of dim {stats.dim}, got shape {x.shape}"
        )
    y = solve_triangular(stats.chol, x - stats.mean, lower=True)
    return float(np.sqrt(y @ y))


def mahalanobis_many(stats: GaussianStats, xs) -> np.ndarray:
    """Distances for each row of ``xs`` [n, k]."""
    xs = np.asarray(xs, dtype=np.float64)
    if xs.ndim != 2 or xs.shape[1] != stats.dim:
        raise ValueError(
            f"expected rows of dim {stats.dim}, got shape {xs.shape}"
        )
    # the subtraction makes a fresh array, so the solve may overwrite it
    y = solve_triangular(stats.chol, (xs - stats.mean).T, lower=True, overwrite_b=True)
    y *= y
    return np.sqrt(np.sum(y, axis=0))
