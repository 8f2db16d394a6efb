"""Gaussian fitting and Mahalanobis distance: examples and properties."""

import numpy as np
import pytest
from scipy.linalg import solve_triangular

from latent_guard import GaussianStats, fit_gaussian, mahalanobis, mahalanobis_many


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
        assert stats.jitter > 0.0  # ladder engaged
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
        # rank-1 data in 3-D: unregularized cholesky must fail
        rng = np.random.default_rng(2)
        direction = np.array([1.0, 2.0, -1.0])
        pts = np.outer(rng.standard_normal(50), direction)
        stats = fit_gaussian(pts)
        assert stats.jitter > 0.0
        with pytest.raises(np.linalg.LinAlgError):
            np.linalg.cholesky(stats.covariance)


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
            chol=np.linalg.cholesky(np.diag([4.0, 1.0])),
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

    def test_many_matches_reference_formula_bit_for_bit(self):
        rng = np.random.default_rng(11)
        stats = fit_gaussian(rng.standard_normal((300, 32)))
        xs = rng.standard_normal((500, 32)) * 3.0
        y = solve_triangular(stats.chol, (xs - stats.mean).T, lower=True)
        np.testing.assert_array_equal(mahalanobis_many(stats, xs), np.sqrt(np.sum(y * y, axis=0)))


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
            chol=np.eye(3),
            jitter=0.0,
        )
        rng = np.random.default_rng(10)
        for _ in range(10):
            x = rng.standard_normal(3)
            assert mahalanobis(stats, x) == np.linalg.norm(x - stats.mean)


class TestPersistence:
    def test_round_trip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(11)
        stats = fit_gaussian(rng.standard_normal((20, 30)))
        path = tmp_path / "stats.lgar"
        stats.save(path)
        loaded = GaussianStats.load(path)
        assert np.array_equal(stats.mean, loaded.mean)
        assert np.array_equal(stats.covariance, loaded.covariance)
        assert np.array_equal(stats.chol, loaded.chol)
        assert stats.jitter == loaded.jitter
