"""Gaussian fitting and Mahalanobis distance: examples and properties."""

import numpy as np
import pytest

from latent_guard import GaussianStats, fit_gaussian, mahalanobis_many, serialization
from latent_guard.latent_stats import JITTER

from helpers import mahalanobis


def _with_dead_units(rng, n, k, live):
    """[n, k] ReLU-like embeddings in which only ``live`` random units fire."""
    z = np.zeros((n, k))
    mixing = rng.standard_normal((live, live)) / np.sqrt(live)
    z[:, rng.permutation(k)[:live]] = np.maximum(rng.standard_normal((n, live)) @ mixing, 0.0)
    return 0.1 * z


def _mahalanobis_reference(a, d):
    """Distances sqrt(d_i^T a^-1 d_i) for the rows of ``d``, by a Cholesky
    solve in long double (64-bit mantissa on x86), so that the reference's
    own round-off stays far below the tolerance even when ``a`` is
    ill-conditioned."""
    a = np.array(a, dtype=np.longdouble)
    n = len(a)
    chol = np.zeros_like(a)
    for j in range(n):
        chol[j:, j] = a[j:, j] / np.sqrt(a[j, j])
        a[j + 1:, j + 1:] -= np.outer(chol[j + 1:, j], chol[j + 1:, j])
    y = np.zeros((n, len(d)), dtype=np.longdouble)
    rhs = np.asarray(d, dtype=np.longdouble).T
    for i in range(n):
        y[i] = (rhs[i] - chol[i, :i] @ y[:i]) / chol[i, i]
    return np.sqrt(np.sum(y * y, axis=0)).astype(np.float64)


class TestFit:
    def test_hand_covariance(self):
        pts = np.array([[0.0, 0.0], [2.0, 0.0], [0.0, 2.0], [2.0, 2.0]])
        stats = fit_gaussian(pts)
        np.testing.assert_allclose(stats.mean, [1.0, 1.0])
        np.testing.assert_allclose(stats.covariance, np.diag([4.0 / 3.0, 4.0 / 3.0]))
        assert stats.jitter == 0.0

    def test_degenerate_duplicate_points(self):
        pts = np.array([[1.0, 2.0], [1.0, 2.0]])
        stats = fit_gaussian(pts)
        np.testing.assert_array_equal(stats.covariance, np.zeros((2, 2)))
        assert stats.jitter > 0.0  # below full rank, so the jitter applies
        assert mahalanobis(stats, np.array([1.0, 2.0])) == 0.0

    def test_permutation_invariant(self):
        rng = np.random.default_rng(0)
        pts = rng.standard_normal((40, 3))
        a = fit_gaussian(pts)
        b = fit_gaussian(pts[rng.permutation(40)])
        np.testing.assert_allclose(a.mean, b.mean, atol=1e-12)
        np.testing.assert_allclose(a.covariance, b.covariance, atol=1e-12)

    def test_needs_two_points(self):
        with pytest.raises(ValueError, match="at least 2"):
            fit_gaussian(np.zeros((1, 4)))

    def test_covariance_symmetric(self):
        rng = np.random.default_rng(1)
        stats = fit_gaussian(rng.standard_normal((100, 6)))
        np.testing.assert_allclose(stats.covariance, stats.covariance.T, atol=1e-10)

    def test_jitter_ladder_records_smallest_working_value(self):
        # rank-1 data in 3-D: the covariance is singular, so the fit needs the jitter
        rng = np.random.default_rng(2)
        direction = np.array([1.0, 2.0, -1.0])
        pts = np.outer(rng.standard_normal(50), direction)
        stats = fit_gaussian(pts)
        assert stats.jitter > 0.0
        with pytest.raises(np.linalg.LinAlgError):
            np.linalg.cholesky(stats.covariance)

    @pytest.mark.parametrize("k", [16, 64, 784])
    def test_full_rank_fit_keeps_every_direction_without_jitter(self, k):
        stats = fit_gaussian(np.random.default_rng(k).standard_normal((2 * k, k)))
        assert stats.basis.shape == (k, k) and stats.variances.shape == (k,)
        assert stats.jitter == 0.0

    @pytest.mark.parametrize("k, live", [(16, 9), (64, 53), (784, 58)])
    def test_dead_units_fit_keeps_the_rank_with_jitter(self, k, live):
        # units that never fire are constant on the fit set, so the
        # covariance has the rank of the live ones
        z = _with_dead_units(np.random.default_rng(k), 2000, k, live)
        stats = fit_gaussian(z)
        assert np.linalg.matrix_rank(z - z.mean(axis=0)) == live
        assert stats.basis.shape == (k, live) and stats.variances.shape == (live,)
        assert stats.jitter == JITTER == 1e-12


class TestMahalanobis:
    def test_distance_at_mean_is_zero(self):
        stats = fit_gaussian(np.random.default_rng(3).standard_normal((30, 4)))
        assert mahalanobis(stats, stats.mean) == 0.0

    def test_identity_covariance_unit_step(self):
        # unit basis step from the mean = one standard deviation = distance 1
        pts = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]])
        stats = fit_gaussian(pts * np.sqrt(3.0 / 2.0))  # makes covariance I
        np.testing.assert_allclose(stats.covariance, np.eye(2), atol=1e-12)
        d = mahalanobis(stats, stats.mean + np.array([1.0, 0.0]))
        np.testing.assert_allclose(d, 1.0, rtol=1e-12)

    def test_diagonal_closed_form(self):
        # sigma = diag(4, 1), offset (2, 0) -> sqrt(4/4) = 1
        rng = np.random.default_rng(4)
        z = rng.standard_normal((200000, 2)) * np.array([2.0, 1.0])
        stats = fit_gaussian(z)
        stats_exact = GaussianStats(
            mean=np.zeros(2),
            covariance=np.diag([4.0, 1.0]),
            basis=np.eye(2),
            variances=np.array([4.0, 1.0]),
            jitter=0.0,
        )
        np.testing.assert_allclose(
            mahalanobis(stats_exact, np.array([2.0, 0.0])), 1.0, rtol=1e-12
        )
        # the fitted version agrees loosely (sampling noise only)
        np.testing.assert_allclose(
            mahalanobis(stats, stats.mean + np.array([2.0, 0.0])), 1.0, rtol=0.05
        )

    def test_dimension_mismatch(self):
        stats = fit_gaussian(np.random.default_rng(5).standard_normal((10, 3)))
        with pytest.raises(ValueError, match="dim"):
            mahalanobis(stats, np.zeros(4))
        with pytest.raises(ValueError, match="dim"):
            mahalanobis_many(stats, np.zeros((5, 4)))

    def test_many_matches_single(self):
        rng = np.random.default_rng(6)
        stats = fit_gaussian(rng.standard_normal((50, 5)))
        xs = rng.standard_normal((20, 5))
        d = mahalanobis_many(stats, xs)
        for i in range(20):
            np.testing.assert_allclose(d[i], mahalanobis(stats, xs[i]), rtol=1e-12)

    def test_many_leaves_input_unchanged(self):
        # the solve overwrites its right-hand side, which must be a copy
        rng = np.random.default_rng(10)
        stats = fit_gaussian(rng.standard_normal((50, 6)))
        xs_c = rng.standard_normal((40, 6))
        for xs in (xs_c, np.asfortranarray(xs_c)):
            before = xs.copy()
            mahalanobis_many(stats, xs)
            np.testing.assert_array_equal(xs, before)

    @pytest.mark.parametrize("k", [4, 98, 784])
    def test_each_distance_independent_of_rows_in_the_call(self, k):
        # what lets scoring compute distances chunk by chunk: a row's
        # distance is the same alone, in a short call and in a long one
        rng = np.random.default_rng(k)
        stats = fit_gaussian(rng.standard_normal((100, k)))
        xs = rng.standard_normal((70, k))
        bulk = mahalanobis_many(stats, xs)
        for start, stop in ((0, 1), (69, 70), (5, 7), (0, 64), (64, 70)):
            assert np.array_equal(mahalanobis_many(stats, xs[start:stop]), bulk[start:stop])

    def test_rank_deficient_distance_matches_long_double_solve(self):
        # LD is the Mahalanobis distance under covariance + jitter * I; at a
        # dead-unit fit that matrix has cond ~1e10, and LD must stay within
        # the accuracy limit of a backward-stable float64 solve
        rng = np.random.default_rng(14)
        k, live = 784, 58
        z = _with_dead_units(rng, 2050, k, live)
        fit, held_out = z[:2000], z[2000:]
        stats = fit_gaussian(fit)
        assert stats.variances.shape == (live,) and stats.jitter == JITTER
        # held-out inliers, the same rows with dead units firing slightly,
        # and rows far off the fit's span
        firing = held_out + 1e-3 * np.abs(rng.standard_normal(held_out.shape))
        xs = np.concatenate([held_out, firing, 0.1 * np.abs(rng.standard_normal((10, k)))])
        a = stats.covariance + stats.jitter * np.eye(k)
        reference = _mahalanobis_reference(a, xs - stats.mean)
        tolerance = max(1e-9, np.linalg.cond(a) * np.finfo(np.float64).eps)
        assert 1e8 < np.linalg.cond(a) < 1e12
        np.testing.assert_allclose(mahalanobis_many(stats, xs), reference, rtol=tolerance, atol=0)

    def test_many_matches_reference_formula_bit_for_bit(self):
        # the eigen formula of the module docstring, one row at a time, at
        # full rank (no residual term) and below it
        rng = np.random.default_rng(11)
        for n in (300, 20):
            stats = fit_gaussian(rng.standard_normal((n, 32)))
            xs = rng.standard_normal((500, 32)) * 3.0
            basis, variances, jitter = stats.basis, stats.variances, stats.jitter
            rows = []
            for x in xs:
                d = x - stats.mean
                p = d @ basis
                d2 = (p / (variances + jitter)) @ p
                if len(variances) < len(d):
                    residual = d - p @ basis.T
                    d2 += (residual @ residual) / jitter
                rows.append(np.sqrt(d2))
            np.testing.assert_array_equal(mahalanobis_many(stats, xs), rows)


class TestProperties:
    def test_affine_equivariance(self):
        rng = np.random.default_rng(7)
        z = rng.standard_normal((300, 4))
        a = rng.standard_normal((4, 4)) + 4.0 * np.eye(4)  # well-conditioned
        b = rng.standard_normal(4)
        x = rng.standard_normal(4)

        base = fit_gaussian(z)
        mapped = fit_gaussian(z @ a.T + b)
        assert base.jitter == 0.0 and mapped.jitter == 0.0
        np.testing.assert_allclose(
            mahalanobis(mapped, a @ x + b), mahalanobis(base, x), rtol=1e-8
        )

    def test_monotone_along_rays(self):
        rng = np.random.default_rng(8)
        stats = fit_gaussian(rng.standard_normal((100, 3)))
        v = rng.standard_normal(3)
        ts = np.linspace(0.0, 10.0, 25)
        dists = [mahalanobis(stats, stats.mean + t * v) for t in ts]
        assert np.all(np.diff(dists) >= 0)

    def test_mean_squared_distance_of_fit_points(self):
        # sum of squared distances under an (n-1)-divisor fit is exactly
        # k*(n-1); the mean is k*(n-1)/n
        rng = np.random.default_rng(9)
        n, k = 5000, 16
        z = rng.standard_normal((n, k))
        stats = fit_gaussian(z)
        d2 = mahalanobis_many(stats, z) ** 2
        np.testing.assert_allclose(d2.mean(), k * (n - 1) / n, rtol=0.10)

    def test_identity_covariance_reduces_to_euclidean(self):
        stats = GaussianStats(
            mean=np.array([1.0, -2.0, 0.5]),
            covariance=np.eye(3),
            basis=np.eye(3),
            variances=np.ones(3),
            jitter=0.0,
        )
        rng = np.random.default_rng(10)
        for _ in range(10):
            x = rng.standard_normal(3)
            assert mahalanobis(stats, x) == np.linalg.norm(x - stats.mean)


class TestPersistence:
    def test_round_trip_bit_exact(self):
        rng = np.random.default_rng(11)
        stats = fit_gaussian(rng.standard_normal((20, 30)))
        loaded = GaussianStats.from_bytes(stats.to_bytes())
        assert np.array_equal(stats.mean, loaded.mean)
        assert np.array_equal(stats.covariance, loaded.covariance)
        assert np.array_equal(stats.basis, loaded.basis)
        assert np.array_equal(stats.variances, loaded.variances)
        assert stats.jitter == loaded.jitter


class TestFiniteness:
    """The fitted arrays are checked once, when a GaussianStats is built;
    the queries check only their own input rows."""

    @staticmethod
    def _arrays():
        stats = fit_gaussian(np.random.default_rng(12).standard_normal((30, 4)))
        return {"mean": stats.mean, "covariance": stats.covariance, "basis": stats.basis,
                "variances": stats.variances}

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_row_rejected(self, bad):
        stats = GaussianStats(**self._arrays(), jitter=0.0)
        x = np.zeros(4)
        x[2] = bad
        with pytest.raises(ValueError, match="non-finite"):
            mahalanobis(stats, x)
        xs = np.zeros((5, 4))
        xs[3, 1] = bad
        with pytest.raises(ValueError, match="non-finite"):
            mahalanobis_many(stats, xs)

    @pytest.mark.parametrize("name", ["mean", "covariance", "basis", "variances"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_array_rejected_at_construction_and_load(self, name, bad):
        arrays = self._arrays()
        arrays[name] = arrays[name].copy()
        arrays[name].flat[-1] = bad
        with pytest.raises(ValueError, match=f"{name} contains non-finite"):
            GaussianStats(**arrays, jitter=0.0)
        raw = serialization.encode_arrays(
            {"kind": "latent-stats", "format_version": 2}, {**arrays, "jitter": np.array(0.0)})
        with pytest.raises(ValueError, match=f"{name} contains non-finite"):
            GaussianStats.from_bytes(raw)

    @pytest.mark.parametrize("name, shape", [("mean", (4, 1)), ("covariance", (4, 3)),
                                             ("basis", (3, 3)), ("variances", (3,))])
    def test_wrong_shape_rejected(self, name, shape):
        arrays = self._arrays()
        arrays[name] = np.zeros(shape)
        with pytest.raises(ValueError, match=f"{name} must have shape"):
            GaussianStats(**arrays, jitter=0.0)

    @pytest.mark.parametrize("damage", [
        lambda v: 2.0 * v, lambda v: v * (1.0 + 1e-6), lambda v: v + 0.01 * np.roll(v, 1, axis=1),
    ], ids=["scaled-by-2", "scaled-by-1+1e-6", "skewed"])
    def test_non_orthonormal_basis_rejected_at_construction_and_load(self, damage):
        # a scaled basis would scale every distance (2x here) without a word
        arrays = self._arrays()
        arrays["basis"] = damage(arrays["basis"])
        with pytest.raises(ValueError, match="basis columns must be orthonormal"):
            GaussianStats(**arrays, jitter=0.0)
        raw = serialization.encode_arrays(
            {"kind": "latent-stats", "format_version": 2}, {**arrays, "jitter": np.array(0.0)})
        with pytest.raises(ValueError, match="basis columns must be orthonormal"):
            GaussianStats.from_bytes(raw)

    @pytest.mark.parametrize("damage", [
        lambda v: v[::-1].copy(), lambda v: 2.0 * v, lambda v: v * (1.0 + 1e-6),
    ], ids=["reversed", "scaled-by-2", "scaled-by-1+1e-6"])
    def test_variances_off_their_basis_rejected_at_construction_and_load(self, damage):
        # variances moved off their columns would weight each direction wrongly
        arrays = self._arrays()
        arrays["variances"] = damage(arrays["variances"])
        with pytest.raises(ValueError, match="variances must be the covariance's"):
            GaussianStats(**arrays, jitter=0.0)
        raw = serialization.encode_arrays(
            {"kind": "latent-stats", "format_version": 2}, {**arrays, "jitter": np.array(0.0)})
        with pytest.raises(ValueError, match="variances must be the covariance's"):
            GaussianStats.from_bytes(raw)

    def test_non_positive_variance_rejected(self):
        for value in (0.0, -1.0):
            arrays = self._arrays()
            arrays["variances"] = arrays["variances"].copy()
            arrays["variances"][2] = value
            with pytest.raises(ValueError, match="variances must be positive"):
                GaussianStats(**arrays, jitter=0.0)

    @pytest.mark.parametrize("jitter", [-1e-12, np.nan, np.inf])
    def test_negative_or_non_finite_jitter_rejected(self, jitter):
        with pytest.raises(ValueError, match="jitter must be finite, >= 0 and > 0 below"):
            GaussianStats(**self._arrays(), jitter=jitter)

    def test_zero_jitter_below_full_rank_rejected_at_construction_and_load(self):
        # without the jitter the off-span residual would divide by zero
        stats = fit_gaussian(np.random.default_rng(13).standard_normal((3, 4)))
        assert stats.variances.shape == (2,)
        arrays = {"mean": stats.mean, "covariance": stats.covariance, "basis": stats.basis,
                  "variances": stats.variances}
        with pytest.raises(ValueError, match="jitter must be finite, >= 0 and > 0 below"):
            GaussianStats(**arrays, jitter=0.0)
        raw = serialization.encode_arrays({"kind": "latent-stats", "format_version": 2},
                                          {**arrays, "jitter": np.array(0.0)})
        with pytest.raises(ValueError, match="jitter must be finite, >= 0 and > 0 below"):
            GaussianStats.from_bytes(raw)

    @pytest.mark.parametrize("name", ["mean", "covariance", "basis", "variances", "jitter"])
    def test_missing_array_rejected_at_load(self, name):
        arrays = {**self._arrays(), "jitter": np.array(0.0)}
        del arrays[name]
        raw = serialization.encode_arrays({"kind": "latent-stats", "format_version": 2}, arrays)
        with pytest.raises(ValueError, match=rf"stats fields do not match: missing \['{name}'"):
            GaussianStats.from_bytes(raw)

    def test_vector_jitter_rejected_at_load(self):
        arrays = {**self._arrays(), "jitter": np.zeros(2)}
        raw = serialization.encode_arrays({"kind": "latent-stats", "format_version": 2}, arrays)
        with pytest.raises(ValueError, match=r"jitter must have shape \(\), got \(2,\)"):
            GaussianStats.from_bytes(raw)

    def test_declared_format_version_must_be_the_written_one(self):
        arrays = {**self._arrays(), "jitter": np.array(0.0)}
        # a header without the key loads as today
        GaussianStats.from_bytes(serialization.encode_arrays({"kind": "latent-stats"}, arrays))
        for version in (1, 0, "2"):
            raw = serialization.encode_arrays(
                {"kind": "latent-stats", "format_version": version}, arrays)
            with pytest.raises(ValueError, match=f"format_version {version!r}"):
                GaussianStats.from_bytes(raw)

    def test_empty_batch_gives_no_distances(self):
        stats = GaussianStats(**self._arrays(), jitter=0.0)
        assert mahalanobis_many(stats, np.empty((0, 4))).shape == (0,)
