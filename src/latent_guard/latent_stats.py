"""Gaussian fit of encoded training data and Mahalanobis distances.

The distance of an embedding z from the fitted distribution is

    D(z) = sqrt((z - mu)^T  C^-1  (z - mu))

with mu the mean vector and C the (unbiased, n-1 divisor) sample covariance
of the encoded training set.  C is factorized once (Cholesky, with a jitter
ladder for rank-deficient fits); distances are evaluated by triangular
solve, never by explicit inversion.

The fitted arrays are checked once, when a ``GaussianStats`` is built (by
the fit or from bundle bytes): their shapes, their finiteness and the
factor's positive diagonal, so a damaged file fails at load.  The solves
then skip scipy's finiteness scan of the k x k factor, which at k = 784
costs more than a 64-row solve; each query still rejects a non-finite
input row itself.
"""

from __future__ import annotations

import ctypes
from dataclasses import dataclass

import numpy as np
from scipy.linalg import cython_blas, solve_triangular

from latent_guard import serialization

# Jitter ladder: decades from 1e-12 up to (and including) 1e-3, tried after
# the unregularized factorization fails.  Rank-deficient covariances are
# routine when the bottleneck is wide relative to the number of samples or
# the L1 penalty zeroes latent units.
_JITTERS = (0.0,) + tuple(10.0 ** e for e in range(-12, -2))

STATS_VERSION = 1


def _blas_function(name, *argtypes):
    """Function ``name`` of the BLAS scipy links (Fortran calling convention),
    from the C pointers ``scipy.linalg.cython_blas`` exports.  A call through
    ctypes releases the GIL, where scipy's Python-level BLAS wrappers hold it
    for the whole call, so a solve on one inference chunk's thread would
    stall every other chunk thread."""
    capsule = cython_blas.__pyx_capi__[name]
    get_name = ctypes.PYFUNCTYPE(ctypes.c_char_p, ctypes.py_object)(
        ("PyCapsule_GetName", ctypes.pythonapi))
    get_pointer = ctypes.PYFUNCTYPE(ctypes.c_void_p, ctypes.py_object, ctypes.c_char_p)(
        ("PyCapsule_GetPointer", ctypes.pythonapi))
    return ctypes.CFUNCTYPE(None, *argtypes)(get_pointer(capsule, get_name(capsule)))


_INT_P = ctypes.POINTER(ctypes.c_int)
_DOUBLE_P = ctypes.POINTER(ctypes.c_double)
# dtrsm(side, uplo, transa, diag, m, n, alpha, a, lda, b, ldb)
_DTRSM = _blas_function("dtrsm", *[ctypes.c_char_p] * 4, _INT_P, _INT_P, _DOUBLE_P,
                        _DOUBLE_P, _INT_P, _DOUBLE_P, _INT_P)


def _solve_lower(chol, b):
    """Solves ``chol @ y = b`` for b [k, n] with BLAS trsm and returns y
    [k, n], F-ordered; it overwrites b when b is F-ordered float64.

    scipy's ``solve_triangular`` makes this same trsm call for several
    right-hand sides, but solves a single one by another path, which rounds
    differently.  Through trsm alone a row's distance does not depend on how
    many rows share the call, so scoring chunk by chunk equals one bulk
    call."""
    a = np.asfortranarray(chol.T, dtype=np.float64)  # a view of a C-ordered chol
    y = np.asfortranarray(b, dtype=np.float64)
    k, n = y.shape
    ld, cols, one = ctypes.c_int(k), ctypes.c_int(n), ctypes.c_double(1.0)
    _DTRSM(b"L", b"U", b"T", b"N", ctypes.byref(ld), ctypes.byref(cols), ctypes.byref(one),
           a.ctypes.data_as(_DOUBLE_P), ctypes.byref(ld), y.ctypes.data_as(_DOUBLE_P),
           ctypes.byref(ld))
    return y


@dataclass(frozen=True)
class GaussianStats:
    """Fitted latent Gaussian; immutable, safe for concurrent queries.

    ``jitter`` is the diagonal loading that made the factorization succeed
    (0.0 when none was needed); ``chol`` is the lower Cholesky factor of
    ``covariance + jitter * I``.  Construction checks that the three
    arrays are finite with shapes [k], [k, k] and [k, k], and that ``chol``
    has a positive diagonal, so the queries trust them.
    """

    mean: np.ndarray
    covariance: np.ndarray
    chol: np.ndarray
    jitter: float

    def __post_init__(self):
        k = self.mean.shape[-1] if self.mean.ndim else 0
        for name, shape in (("mean", (k,)), ("covariance", (k, k)), ("chol", (k, k))):
            value = getattr(self, name)
            if value.shape != shape:
                raise ValueError(
                    f"latent stats {name} must have shape {shape}, got {value.shape}"
                )
            if not np.all(np.isfinite(value)):
                raise ValueError(f"latent stats {name} contains non-finite values")
        if not np.all(np.diagonal(self.chol) > 0.0):
            raise ValueError("latent stats chol must have a positive diagonal")

    @property
    def dim(self) -> int:
        return self.mean.shape[0]

    def to_bytes(self) -> bytes:
        header = {"kind": "latent-stats", "format_version": STATS_VERSION}
        return serialization.encode_arrays(
            header,
            {
                "mean": self.mean,
                "covariance": self.covariance,
                "chol": self.chol,
                "jitter": np.array(self.jitter),
            },
        )

    @classmethod
    def from_bytes(cls, raw: bytes) -> "GaussianStats":
        header, arrays = serialization.decode_arrays(raw)
        if header.get("kind") != "latent-stats":
            raise ValueError("not a latent-stats container")
        serialization.check_format_version(header, STATS_VERSION, "latent stats")
        for key in ("mean", "covariance", "chol", "jitter"):
            if key not in arrays:
                raise ValueError(f"latent stats have no {key!r} array")
        if arrays["jitter"].shape != ():
            raise ValueError(f"latent stats jitter must be a scalar, got shape {arrays['jitter'].shape}")
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
    if not np.all(np.isfinite(x)):
        raise ValueError("vector contains non-finite values")
    y = solve_triangular(stats.chol, x - stats.mean, lower=True, check_finite=False)
    return float(np.sqrt(y @ y))


def mahalanobis_many(stats: GaussianStats, xs) -> np.ndarray:
    """Distances for each row of ``xs`` [n, k]."""
    xs = np.asarray(xs, dtype=np.float64)
    if xs.ndim != 2 or xs.shape[1] != stats.dim:
        raise ValueError(
            f"expected rows of dim {stats.dim}, got shape {xs.shape}"
        )
    if not np.all(np.isfinite(xs)):
        raise ValueError("rows contain non-finite values")
    # the subtraction makes a fresh array, so the solve may overwrite it
    y = _solve_lower(stats.chol, (xs - stats.mean).T)
    y *= y
    return np.sqrt(np.sum(y, axis=0))
