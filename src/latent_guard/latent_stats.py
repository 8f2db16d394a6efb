"""Gaussian fit of encoded training data and Mahalanobis distances.

The fit keeps the mean mu and the (unbiased, n-1 divisor) sample covariance
C of the encoded training set, and the r eigenpairs of C above rounding
level, lambda_i > k * eps * lambda_max, as a basis V [k, r] and variances
[r].  The distance of an embedding z is its Mahalanobis distance under
C + j I, with the eigenvalues below the cut taken as zero:

    D(z)^2 = sum_i p_i^2 / (lambda_i + j)  +  ||d - V p||^2 / j,
    d = z - mu,  p = V^T d.

The jitter j is 0 at full rank (r = k), where the residual term drops, and
1e-12 below it (dead latent units, or fewer samples than dimensions), so
the part of d off the fit's span keeps a large weight: the small-variance
directions are where novel inputs differ.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from latent_guard import serialization

JITTER = 1e-12

# largest |V^T V - I| entry a stored basis may have; the fit's eigh bases
# are within 3e-15 of orthonormal up to k = 784
BASIS_ATOL = 1e-8

# largest |V^T C V - diag(variances)| entry a stored fit may have, relative
# to its largest variance; the fit's eigenpairs are within 3e-15 of it
VARIANCE_RTOL = 1e-8

STATS_VERSION = 2

# the file's declared tables: its header, and its arrays at bottleneck size k and rank r
_HEADER = {"kind": serialization.one_of("latent-stats")}
_ARRAYS = {"mean": ("k",), "covariance": ("k", "k"), "basis": ("k", "r"), "variances": ("r",)}


@dataclass(frozen=True)
class GaussianStats:
    """Fitted latent Gaussian; immutable, safe for concurrent queries.

    ``basis`` [k, r] and ``variances`` [r] are the eigenpairs of
    ``covariance`` that the fit kept.  Construction (by the fit or from
    bundle bytes) checks the shapes and finiteness of the arrays, that every
    variance is positive, that the basis columns are orthonormal, that the
    jitter is finite, >= 0 and > 0 below full rank, and that the variances
    are the covariance's along their basis columns, so a damaged file fails
    at load and the queries trust them.  The last check reads the stored
    ``covariance``; a format that drops that array needs another witness
    for the variances.
    """

    mean: np.ndarray
    covariance: np.ndarray
    basis: np.ndarray
    variances: np.ndarray
    jitter: float

    def __post_init__(self):
        serialization.check_record({a: getattr(self, a) for a in _ARRAYS}, _ARRAYS, "latent stats")
        k, r = self.basis.shape
        if not np.all(self.variances > 0.0):
            raise ValueError("latent stats variances must be positive")
        # a scaled or skewed basis would rescale every distance
        if not np.all(np.abs(self.basis.T @ self.basis - np.eye(r)) <= BASIS_ATOL):
            raise ValueError(f"latent stats basis columns must be orthonormal "
                             f"(|V^T V - I| <= {BASIS_ATOL})")
        # below full rank the residual term divides by the jitter
        if not (np.isfinite(self.jitter) and self.jitter >= 0.0 and (self.jitter > 0.0 or r == k)):
            raise ValueError(f"latent stats jitter must be finite, >= 0 and > 0 below full "
                             f"rank, got {self.jitter} at rank {r} of {k}")
        # permuted or rescaled variances would weight each direction wrongly
        spread = self.basis.T @ self.covariance @ self.basis - np.diag(self.variances)
        if not np.all(np.abs(spread) <= VARIANCE_RTOL * self.variances.max(initial=0.0)):
            raise ValueError(f"latent stats variances must be the covariance's along the basis "
                             f"columns (|V^T C V - diag| <= {VARIANCE_RTOL} * max variance)")

    @property
    def dim(self) -> int:
        return self.mean.shape[0]

    def to_bytes(self) -> bytes:
        header = {"kind": "latent-stats", "format_version": STATS_VERSION}
        arrays = {name: getattr(self, name) for name in _ARRAYS}
        return serialization.encode_arrays(header, {**arrays, "jitter": np.array(self.jitter)})

    @classmethod
    def from_bytes(cls, raw: bytes, **bound) -> "GaussianStats":
        header, arrays = serialization.decode_arrays(raw)
        serialization.check_record(header, _HEADER, "latent stats", STATS_VERSION, **bound)
        serialization.check_record(arrays, {**_ARRAYS, "jitter": ()}, "latent stats", **bound)
        return cls(*(arrays[name] for name in _ARRAYS), jitter=float(arrays["jitter"]))


def fit_gaussian(embeddings) -> GaussianStats:
    """Fits mean and unbiased covariance to rows of ``embeddings`` [n, k]
    and keeps the covariance's eigenpairs above rounding level."""
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
    cov = (cov + cov.T) / 2.0  # exact symmetry for eigh
    variances, basis = np.linalg.eigh(cov)  # ascending
    keep = variances > k * np.finfo(np.float64).eps * variances[-1]
    return GaussianStats(mean, cov, basis[:, keep], variances[keep],
                         jitter=0.0 if keep.all() else JITTER)


def mahalanobis_many(stats: GaussianStats, xs) -> np.ndarray:
    """Distances for each row of ``xs`` [n, k]."""
    xs = np.asarray(xs, dtype=np.float64)
    if xs.ndim != 2 or xs.shape[1] != stats.dim:
        raise ValueError(
            f"expected rows of dim {stats.dim}, got shape {xs.shape}"
        )
    if not np.all(np.isfinite(xs)):
        raise ValueError("rows contain non-finite values")
    # [n, 1, k]: each product below is one call per row, so a row's distance
    # does not depend on the other rows in the call, and scoring chunk by
    # chunk equals one bulk call; one 2-D product over all rows can round a
    # row differently with the number of rows
    d = (xs - stats.mean)[:, None, :]
    p = d @ stats.basis
    d2 = (p / (stats.variances + stats.jitter)) @ p.swapaxes(-1, -2)
    if len(stats.variances) < stats.dim:
        residual = d - p @ stats.basis.T
        d2 += (residual @ residual.swapaxes(-1, -2)) / stats.jitter
    return np.sqrt(d2[:, 0, 0])
