"""Calibration, the three scoring modes, classification, CSV round trips."""

import io
import json
import tracemalloc

import numpy as np
import pytest

from latent_guard import (
    Autoencoder,
    NoveltyCalibration,
    calibrate,
    classify,
    fit_gaussian,
    mahalanobis_many,
    novelty_scores,
)
from latent_guard import autoencoder
from latent_guard.autoencoder import _CHUNK
from latent_guard.novelty import (
    MODE_HYBRID,
    MODE_LATENT_DISTANCE,
    MODE_RECONSTRUCTION,
    features,
    read_scores_csv,
    write_scores_csv,
)

from conftest import synthetic_digits
from manifolds import CircularProjectionCodec, LinearProjectionCodec, linear_set


@pytest.fixture(scope="module")
def manifold_setup():
    """Analytic projection codec over a 1-D manifold in the plane."""
    basis = np.array([[1.0, 0.0]])
    ms = linear_set(basis, n_train=400, seed=0, n_test=200)
    codec = LinearProjectionCodec(basis)
    stats = fit_gaussian(codec.encode(ms.inlier_train))
    return codec, stats, ms


class TestCalibration:
    def test_alpha_beta_are_reciprocal_stds(self, manifold_setup):
        codec, stats, ms = manifold_setup
        cal = calibrate(codec, stats, ms.inlier_test)
        np.testing.assert_allclose(cal.alpha, 1.0 / cal.val_dm_std, rtol=1e-12)
        np.testing.assert_allclose(cal.beta, 1.0 / cal.val_re_std, rtol=1e-12)
        assert cal.alpha > 0 and cal.beta > 0

    def test_fixed_std_examples(self):
        cal = NoveltyCalibration(alpha=0.5, beta=10.0, val_dm_std=2.0, val_re_std=0.1)
        assert cal.alpha == 1.0 / 2.0
        assert cal.beta == 1.0 / 0.1

    def test_duplicated_validation_set_identical(self, manifold_setup):
        # population-std semantics: duplicating every sample changes nothing
        codec, stats, ms = manifold_setup
        cal_once = calibrate(codec, stats, ms.inlier_test)
        doubled = np.vstack([ms.inlier_test, ms.inlier_test])
        cal_twice = calibrate(codec, stats, doubled)
        np.testing.assert_allclose(cal_once.alpha, cal_twice.alpha, rtol=1e-12)
        np.testing.assert_allclose(cal_once.beta, cal_twice.beta, rtol=1e-12)

    def test_degenerate_validation_set_rejected(self, manifold_setup):
        codec, stats, _ = manifold_setup
        same = np.tile(np.array([[0.5, 0.1]]), (10, 1))
        with pytest.raises(ValueError, match="degenerate"):
            calibrate(codec, stats, same)

    def test_too_few_validation_samples(self, manifold_setup):
        codec, stats, ms = manifold_setup
        with pytest.raises(ValueError, match="at least 2"):
            calibrate(codec, stats, np.zeros((1, 2)))
        with pytest.raises(ValueError, match="need at least 2 validation inliers, got 1"):
            calibrate(codec, stats, ms.inlier_test[:1])

    def test_two_validation_samples_calibrate(self, manifold_setup):
        codec, stats, ms = manifold_setup
        cal = calibrate(codec, stats, ms.inlier_test[:2])
        assert cal.alpha > 0 and cal.beta > 0

    def test_nonpositive_weights_rejected(self):
        with pytest.raises(ValueError, match="positive"):
            NoveltyCalibration(alpha=0.0, beta=1.0, val_dm_std=np.inf, val_re_std=1.0)

    def test_json_round_trip(self):
        cal = NoveltyCalibration(alpha=0.25, beta=4.0, val_dm_std=4.0, val_re_std=0.25)
        assert NoveltyCalibration.from_json(cal.to_json()) == cal

    def test_declared_format_version_must_be_the_written_one(self):
        cal = NoveltyCalibration(alpha=0.25, beta=4.0, val_dm_std=4.0, val_re_std=0.25)
        payload = json.loads(cal.to_json())
        del payload["format_version"]  # files without the key load as today
        assert NoveltyCalibration.from_json(json.dumps(payload)) == cal
        for version in (7, "1", True):
            with pytest.raises(ValueError, match=f"format_version {version!r}"):
                NoveltyCalibration.from_json(json.dumps({**payload, "format_version": version}))


class TestScoring:
    def test_hybrid_arithmetic(self):
        # alpha=beta=1, D=2, err=0.3 -> 2.3
        cal = NoveltyCalibration(alpha=1.0, beta=1.0, val_dm_std=1.0, val_re_std=1.0)
        from latent_guard.novelty import _combine

        assert _combine(np.array([0.3]), np.array([2.0]), MODE_HYBRID, cal)[0] == 2.3

    def test_re_mode_equals_reconstruction_error(self, manifold_setup):
        codec, stats, ms = manifold_setup
        x = ms.inlier_test[:7]
        scores = novelty_scores(codec, stats, x, MODE_RECONSTRUCTION)
        np.testing.assert_array_equal(scores, codec.encode_and_reconstruction_errors(x)[1])

    def test_ld_mode_equals_mahalanobis(self, manifold_setup):
        from latent_guard import mahalanobis_many

        codec, stats, ms = manifold_setup
        x = ms.inlier_test[:7]
        scores = novelty_scores(codec, stats, x, MODE_LATENT_DISTANCE)
        np.testing.assert_array_equal(scores, mahalanobis_many(stats, codec.encode(x)))

    def test_hybrid_requires_calibration(self, manifold_setup):
        codec, stats, ms = manifold_setup
        with pytest.raises(ValueError, match="calibration"):
            novelty_scores(codec, stats, ms.inlier_test[:2], MODE_HYBRID)

    def test_unknown_mode(self, manifold_setup):
        codec, stats, ms = manifold_setup
        with pytest.raises(ValueError, match="mode"):
            novelty_scores(codec, stats, ms.inlier_test[:2], "XX")

    def test_far_on_manifold_point_ranks_high_in_hybrid_only(self, manifold_setup):
        # the Figure-2a geometry: low reconstruction error, huge latent
        # distance; the hybrid must expose it even though RE cannot
        codec, stats, ms = manifold_setup
        cal = calibrate(codec, stats, ms.inlier_test)
        far = ms.ood_on_manifold
        far_re = novelty_scores(codec, stats, far, MODE_RECONSTRUCTION, cal)[0]
        inlier_re = novelty_scores(codec, stats, ms.inlier_test, MODE_RECONSTRUCTION, cal)
        assert far_re < np.median(inlier_re)
        far_h = novelty_scores(codec, stats, far, MODE_HYBRID, cal)[0]
        inlier_h = novelty_scores(codec, stats, ms.inlier_test, MODE_HYBRID, cal)
        assert far_h > np.percentile(inlier_h, 95)

    def test_hybrid_ranking_invariant_to_common_rescaling(self, manifold_setup):
        codec, stats, ms = manifold_setup
        cal = calibrate(codec, stats, ms.inlier_test)
        scaled = NoveltyCalibration(
            alpha=cal.alpha / 3.0,
            beta=cal.beta / 3.0,
            val_dm_std=cal.val_dm_std * 3.0,
            val_re_std=cal.val_re_std * 3.0,
        )
        x = np.vstack([ms.inlier_test, ms.ood_on_manifold, ms.ood_off_manifold])
        a = novelty_scores(codec, stats, x, MODE_HYBRID, cal)
        b = novelty_scores(codec, stats, x, MODE_HYBRID, scaled)
        np.testing.assert_array_equal(np.argsort(a), np.argsort(b))

    def test_hybrid_reduces_to_single_feature_when_other_vanishes(self):
        from latent_guard.novelty import _combine

        cal = NoveltyCalibration(alpha=0.7, beta=1.3, val_dm_std=1/0.7, val_re_std=1/1.3)
        rng = np.random.default_rng(0)
        ld = rng.uniform(0.1, 5.0, size=50)
        re = rng.uniform(0.1, 5.0, size=50)
        zero = np.zeros(50)
        # reconstruction error identically zero: H ranks exactly like LD
        h_ld = _combine(zero, ld, MODE_HYBRID, cal)
        np.testing.assert_array_equal(np.argsort(h_ld), np.argsort(ld))
        # latent distance identically zero: H ranks exactly like RE
        h_re = _combine(re, zero, MODE_HYBRID, cal)
        np.testing.assert_array_equal(np.argsort(h_re), np.argsort(re))

    def test_hybrid_monotone_in_each_feature(self):
        from latent_guard.novelty import _combine

        cal = NoveltyCalibration(alpha=2.0, beta=3.0, val_dm_std=0.5, val_re_std=1 / 3)
        base = _combine(np.array([1.0]), np.array([1.0]), MODE_HYBRID, cal)[0]
        assert _combine(np.array([1.1]), np.array([1.0]), MODE_HYBRID, cal)[0] > base
        assert _combine(np.array([1.0]), np.array([1.1]), MODE_HYBRID, cal)[0] > base

    def test_scores_finite(self, manifold_setup):
        codec, stats, ms = manifold_setup
        cal = calibrate(codec, stats, ms.inlier_test)
        for mode in (MODE_RECONSTRUCTION, MODE_LATENT_DISTANCE, MODE_HYBRID):
            s = novelty_scores(codec, stats, np.vstack(ms), mode, cal)
            assert np.all(np.isfinite(s))


CODECS = {
    "linear": (LinearProjectionCodec(np.array([[0.6, 0.8, 0.0]])), 3),
    "circular": (CircularProjectionCodec(np.array([1.0, -2.0]), 1.5), 2),
}


@pytest.mark.parametrize("name", sorted(CODECS))
class TestCodecProtocol:
    def test_single_point_equals_batch_row(self, name):
        codec, d = CODECS[name]
        batch = np.random.default_rng(1).normal(size=(6, d))
        z, re = codec.encode_and_reconstruction_errors(batch)
        z0, re0 = codec.encode_and_reconstruction_errors(batch[0])
        assert z0.shape == (1, z.shape[1]) and re0.shape == (1,)
        np.testing.assert_array_equal(z0[0], z[0])
        assert re0[0] == re[0]

    def test_features_run_on_codec(self, name):
        from latent_guard import mahalanobis_many
        from latent_guard.novelty import features

        codec, d = CODECS[name]
        rng = np.random.default_rng(2)
        stats = fit_gaussian(codec.encode(rng.normal(size=(50, d))))
        points = rng.normal(size=(9, d))
        re, ld = features(codec, stats, points)
        z, expected_re = codec.encode_and_reconstruction_errors(points)
        np.testing.assert_array_equal(re, expected_re)
        np.testing.assert_array_equal(ld, mahalanobis_many(stats, z))


# empty, one row, around one chunk, and five chunks plus a ragged tail
STREAM_ROWS = [0, 1, _CHUNK - 1, _CHUNK, _CHUNK + 1, 5 * _CHUNK + 3]


@pytest.mark.parametrize("n", STREAM_ROWS)
@pytest.mark.parametrize("name", sorted(CODECS))
def test_codec_features_equal_bulk_distances(name, n):
    codec, d = CODECS[name]
    rng = np.random.default_rng(3)
    stats = fit_gaussian(codec.encode(rng.normal(size=(50, d))))
    points = rng.normal(size=(n, d))
    re, ld = features(codec, stats, points)
    assert np.array_equal(re, codec.encode_and_reconstruction_errors(points)[1])
    assert np.array_equal(ld, mahalanobis_many(stats, codec.encode(points)))


@pytest.fixture(scope="module", params=[16, 784], ids=lambda k: f"k{k}")
def scored_model(request):
    """An untrained model and the Gaussian of its embeddings; k=784 is
    rank-deficient, as in the benchmark's score workload."""
    model = Autoencoder(request.param, seed=3)
    return model, fit_gaussian(model.encode(synthetic_digits(120, seed=4, n_classes=1).images))


class TestStreamedLatentDistance:
    """``features`` computes LD inside each inference chunk."""

    @pytest.mark.parametrize("workers", [1, 4])
    @pytest.mark.parametrize("n", STREAM_ROWS)
    def test_features_equal_bulk_distances(self, scored_model, n, workers, monkeypatch):
        model, stats = scored_model
        monkeypatch.setattr(autoencoder, "_workers", lambda: workers)
        x = np.random.default_rng(n).uniform(0.0, 1.0, (n, 1, 28, 28))
        re, ld = features(model, stats, x)
        assert np.array_equal(re, model.encode_and_reconstruction_errors(x)[1])
        assert np.array_equal(ld, mahalanobis_many(stats, model.encode(x)))

    def test_peak_memory_holds_no_embedding_matrix(self, monkeypatch):
        k = 784
        monkeypatch.setattr(autoencoder, "_workers", lambda: 1)
        model = Autoencoder(k, seed=3)
        stats = fit_gaussian(model.encode(synthetic_digits(120, seed=4, n_classes=1).images))
        rng = np.random.default_rng(5)
        peaks = {}
        for n in (_CHUNK, 10 * _CHUNK):
            x = rng.uniform(0.0, 1.0, (n, 1, 28, 28))
            tracemalloc.start()
            try:
                features(model, stats, x)
                peaks[n] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        # a held [n, k] matrix (or its centered copy) would add 8 * k bytes per row
        growth = peaks[10 * _CHUNK] - peaks[_CHUNK]
        assert growth < 10 * _CHUNK * k * 8, peaks


class TestWideBottleneck:
    def test_more_latent_dims_than_samples_still_scores(self):
        # rank-deficient latent covariance: the fit must add the jitter and
        # the whole scoring pipeline stay finite
        from conftest import synthetic_digits
        from latent_guard import Autoencoder

        ds = synthetic_digits(90, seed=33, n_classes=1)
        model = Autoencoder(512, seed=1)
        stats = fit_gaussian(model.encode(ds.images[:60]))
        assert stats.jitter > 0.0
        cal = calibrate(model, stats, ds.images[60:])
        scores = novelty_scores(model, stats, ds.images[:10], MODE_HYBRID, cal)
        assert np.all(np.isfinite(scores))


class TestClassify:
    def test_all_below_threshold(self):
        assert not classify(np.array([0.1, 0.5]), 1.0).any()

    def test_strict_inequality_at_boundary(self):
        labels = classify(np.array([1.0, 2.0, 3.0]), 2.0)
        np.testing.assert_array_equal(labels, [False, False, True])

    def test_negative_infinity_flags_everything_novel(self):
        assert classify(np.array([-5.0, 0.0, 5.0]), -np.inf).all()

    def test_positive_infinity_flags_nothing(self):
        assert not classify(np.array([-5.0, 0.0, 5.0]), np.inf).any()

    def test_nan_threshold_rejected(self):
        with pytest.raises(ValueError, match="NaN"):
            classify(np.array([1.0]), float("nan"))


class TestScoresCsv:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "scores.csv"
        ids = np.arange(4)
        is_inlier = np.array([True, True, False, False])
        re = np.array([0.1, 0.2, 0.3, 0.4])
        ld = np.array([1.0, 2.0, 3.0, 4.0])
        hybrid = re + ld
        with open(path, "w", newline="") as f:
            write_scores_csv(f, ids, is_inlier, re, ld, hybrid)
        r_ids, r_inl, r_re, r_ld, r_h = read_scores_csv(path)
        np.testing.assert_array_equal(r_ids, ids)
        np.testing.assert_array_equal(r_inl, is_inlier)
        np.testing.assert_array_equal(r_re, re)   # repr round-trips exactly
        np.testing.assert_array_equal(r_ld, ld)
        np.testing.assert_array_equal(r_h, hybrid)

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b,c\n1,2,3\n")
        with pytest.raises(ValueError, match="header"):
            read_scores_csv(path)

    def test_mismatched_columns_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="equal length"):
            write_scores_csv(io.StringIO(), [0], [True, False], [0.1], [0.2], [0.3])
