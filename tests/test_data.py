"""IDX parsing, and the Figure-2 manifold fixture the novelty tests score."""

import gzip
import struct
import tracemalloc

import numpy as np
import pytest

from latent_guard import load_idx
from latent_guard.autoencoder import scaled_pixels
from latent_guard.data import (
    load_mnist_split,
    write_idx_images,
    write_idx_labels,
)
from latent_guard.errors import IdxFormatError

from helpers import scored_set
from manifolds import CircularProjectionCodec, LinearProjectionCodec, circle_set, linear_set


def recon_error(codec, x):
    """Reconstruction error of one point through the scoring protocol."""
    return codec.encode_and_reconstruction_errors(x)[1][0]


@pytest.fixture
def idx_pair(tmp_path):
    rng = np.random.default_rng(0)
    images = rng.integers(0, 256, size=(7, 28, 28), dtype=np.uint8)
    labels = np.array([0, 1, 0, 3, 9, 0, 1], dtype=np.uint8)
    img_path = tmp_path / "imgs-idx3-ubyte"
    lbl_path = tmp_path / "lbls-idx1-ubyte"
    write_idx_images(img_path, images)
    write_idx_labels(lbl_path, labels)
    return img_path, lbl_path, images, labels


class TestIdxLoading:
    def test_minimal_single_image(self, tmp_path):
        pixels = (np.arange(784) % 256).astype(np.uint8).reshape(1, 28, 28)
        write_idx_images(tmp_path / "i", pixels)
        write_idx_labels(tmp_path / "l", [4])
        ds = load_idx(tmp_path / "i", tmp_path / "l")
        assert len(ds) == 1
        assert ds.images.shape == (1, 1, 28, 28)
        assert ds.labels[0] == 4

    def test_normalization_endpoints(self, tmp_path):
        img = np.zeros((1, 28, 28), dtype=np.uint8)
        img[0, 0, 0] = 255
        write_idx_images(tmp_path / "i", img)
        write_idx_labels(tmp_path / "l", [0])
        ds = load_idx(tmp_path / "i", tmp_path / "l")
        assert ds.images.dtype == np.uint8
        assert ds.images[0, 0, 0, 0] == 255 and ds.images[0, 0, 0, 1] == 0
        scaled = scaled_pixels(ds.images)
        assert scaled.dtype == np.float64
        assert scaled[0, 0, 0, 0] == 1.0
        assert scaled[0, 0, 0, 1] == 0.0

    def test_round_trip_bit_equal(self, idx_pair, tmp_path):
        img_path, lbl_path, images, labels = idx_pair
        ds = load_idx(img_path, lbl_path)
        assert ds.images.dtype == np.uint8 and ds.images.shape == (7, 1, 28, 28)
        assert ds.images[:, 0].tobytes() == images.tobytes()
        np.testing.assert_array_equal(ds.labels, labels)

    def test_gzip_transparent(self, idx_pair, tmp_path):
        img_path, lbl_path, images, _ = idx_pair
        gz_img = tmp_path / "imgs.gz"
        gz_lbl = tmp_path / "lbls.gz"
        gz_img.write_bytes(gzip.compress(img_path.read_bytes()))
        gz_lbl.write_bytes(gzip.compress(lbl_path.read_bytes()))
        ds = load_idx(gz_img, gz_lbl)
        assert ds.images.dtype == np.uint8 and ds.images.shape == (7, 1, 28, 28)
        assert ds.images[:, 0].tobytes() == images.tobytes()

    def test_bad_magic(self, idx_pair, tmp_path):
        img_path, lbl_path, _, _ = idx_pair
        bad = tmp_path / "bad"
        bad.write_bytes(b"\x00\x00\x09\x03" + img_path.read_bytes()[4:])
        with pytest.raises(IdxFormatError, match="magic"):
            load_idx(bad, lbl_path)
        # labels file passed as images is also a magic error
        with pytest.raises(IdxFormatError, match="magic"):
            load_idx(lbl_path, lbl_path)

    def test_truncated_data(self, idx_pair, tmp_path):
        img_path, lbl_path, _, _ = idx_pair
        cut = tmp_path / "cut"
        cut.write_bytes(img_path.read_bytes()[:-10])
        with pytest.raises(IdxFormatError, match="truncated"):
            load_idx(cut, lbl_path)

    def test_count_mismatch(self, idx_pair, tmp_path):
        img_path, _, _, _ = idx_pair
        write_idx_labels(tmp_path / "short", [1, 2, 3])
        with pytest.raises(IdxFormatError, match="mismatch"):
            load_idx(img_path, tmp_path / "short")

    def test_mnist_split_names(self, tmp_path):
        imgs = np.zeros((2, 28, 28), dtype=np.uint8)
        write_idx_images(tmp_path / "train-images-idx3-ubyte", imgs)
        write_idx_labels(tmp_path / "train-labels-idx1-ubyte", [0, 1])
        ds = load_mnist_split(tmp_path, "train")
        assert len(ds) == 2
        with pytest.raises(FileNotFoundError):
            load_mnist_split(tmp_path, "t10k")

    def test_mnist_split_accepts_gz_names(self, tmp_path):
        imgs = np.zeros((3, 28, 28), dtype=np.uint8)
        write_idx_images(tmp_path / "plain-images", imgs)
        write_idx_labels(tmp_path / "plain-labels", [0, 1, 2])
        (tmp_path / "t10k-images-idx3-ubyte.gz").write_bytes(
            gzip.compress((tmp_path / "plain-images").read_bytes())
        )
        (tmp_path / "t10k-labels-idx1-ubyte.gz").write_bytes(
            gzip.compress((tmp_path / "plain-labels").read_bytes())
        )
        ds = load_mnist_split(tmp_path, "t10k")
        assert len(ds) == 3

    def test_every_byte_value_decodes_to_the_scaled_float(self, tmp_path):
        raw = np.arange(256, dtype=np.uint8).reshape(1, 16, 16)
        write_idx_images(tmp_path / "i", raw)
        write_idx_labels(tmp_path / "l", [0])
        ds = load_idx(tmp_path / "i", tmp_path / "l")
        assert ds.images.dtype == np.uint8
        assert ds.images.tobytes() == raw.tobytes()
        # byte b scales to the float b / 255, bit for bit
        expected = np.array([b / 255.0 for b in range(256)]).reshape(1, 1, 16, 16)
        scaled = scaled_pixels(ds.images)
        assert scaled.dtype == np.float64
        np.testing.assert_array_equal(scaled.view(np.int64), expected.view(np.int64))

    def test_decode_holds_only_the_file_bytes(self, tmp_path):
        # the file's bytes and the labels; no copy of the pixels, in floats
        # or in bytes
        n = 2000
        pixels = np.random.default_rng(1).integers(0, 256, (n, 28, 28), dtype=np.uint8)
        write_idx_images(tmp_path / "i", pixels)
        write_idx_labels(tmp_path / "l", np.zeros(n))
        tracemalloc.start()
        try:
            ds = load_idx(tmp_path / "i", tmp_path / "l")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        raw_bytes = (tmp_path / "i").stat().st_size
        assert ds.images.base is not None  # a view, not a copy
        assert peak < raw_bytes + 64 * 1024, peak - raw_bytes

    @pytest.mark.parametrize("write, values", [
        (write_idx_images, np.full((1, 28, 28), 0.7)),
        (write_idx_images, np.full((1, 28, 28), 256)),
        (write_idx_images, np.full((1, 28, 28), np.nan)),
        (write_idx_labels, np.array([3, 256], dtype=np.int64)),
        (write_idx_labels, [-1]),
        (write_idx_labels, [2.5]),
    ])
    def test_writers_refuse_values_the_uint8_cast_would_change(self, tmp_path, write, values):
        with pytest.raises(ValueError, match="must be integers in the range 0-255"):
            write(tmp_path / "f", values)
        assert not (tmp_path / "f").exists()

    def test_writers_take_integral_values_of_any_dtype(self, tmp_path):
        write_idx_images(tmp_path / "i", np.full((2, 28, 28), 255.0))
        write_idx_labels(tmp_path / "l", np.array([0, 9], dtype=np.int64))
        ds = load_idx(tmp_path / "i", tmp_path / "l")
        assert np.all(ds.images == 255)
        assert ds.labels.tolist() == [0, 9]


class TestLinearManifold:
    def test_far_point_on_manifold_with_zero_residual(self):
        basis = np.array([[1.0, 0.0]])  # the x-axis
        ms = linear_set(basis, n_train=500, seed=0)
        codec = LinearProjectionCodec(basis)
        far = ms.ood_on_manifold[0]
        assert recon_error(codec, far) < 1e-12  # exactly on manifold
        centroid = ms.inlier_train.mean(axis=0)
        spread = np.linalg.norm(ms.inlier_train - centroid, axis=1).max()
        assert np.linalg.norm(far - centroid) >= 10.0 * spread

    def test_off_manifold_orthogonal_offset(self):
        basis = np.array([[1.0, 0.0]])
        ms = linear_set(basis, n_train=200, seed=1)
        off = ms.ood_off_manifold[0]
        codec = LinearProjectionCodec(basis)
        np.testing.assert_allclose(recon_error(codec, off), 5.0, rtol=1e-12)

    def test_handmade_off_point_residual(self):
        codec = LinearProjectionCodec(np.array([[1.0, 0.0]]))
        np.testing.assert_allclose(
            recon_error(codec, np.array([0.0, 5.0])), 5.0, rtol=1e-15
        )
        np.testing.assert_allclose(
            recon_error(codec, np.array([100.0, 0.0])), 0.0, atol=1e-15
        )

    def test_noise_free_inliers_sit_on_manifold(self):
        basis = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
        ms = linear_set(basis, n_train=100, seed=2, noise_sigma=0.0)
        codec = LinearProjectionCodec(basis)
        assert codec.encode_and_reconstruction_errors(ms.inlier_train)[1].max() < 1e-12


class TestCircularManifold:
    def test_noise_free_inliers_satisfy_circle_equation(self):
        ms = circle_set(np.zeros(2), 1.0, n_train=300, seed=3, noise_sigma=0.0)
        radii = np.linalg.norm(ms.inlier_train, axis=1)
        np.testing.assert_allclose(radii, 1.0, atol=1e-12)

    def test_far_point_on_circle_far_from_training_arc(self):
        ms = circle_set(np.zeros(2), 1.0, n_train=300, seed=4, noise_sigma=0.0)
        far = ms.ood_on_manifold[0]
        np.testing.assert_allclose(np.linalg.norm(far), 1.0, atol=1e-12)
        centroid = ms.inlier_train.mean(axis=0)
        spread = np.linalg.norm(ms.inlier_train - centroid, axis=1).max()
        assert np.linalg.norm(far - centroid) >= 10.0 * spread

    def test_off_point_radial_offset(self):
        center, radius = np.array([2.0, -1.0]), 1.5
        ms = circle_set(center, radius, n_train=100, seed=5)
        off = ms.ood_off_manifold[0]
        np.testing.assert_allclose(
            abs(np.linalg.norm(off - center) - radius), 5.0, rtol=1e-12
        )

    def test_codec_radial_residual(self):
        codec = CircularProjectionCodec(np.array([1.0, 0.0]), 2.0)
        # a point 0.5 outside the circle reconstructs onto it
        x = np.array([1.0 + 2.5, 0.0])
        np.testing.assert_allclose(recon_error(codec, x), 0.5, rtol=1e-12)
        # its embedding is the radial projection, relative to the center
        np.testing.assert_allclose(codec.center + codec.encode(x), [3.0, 0.0], atol=1e-12)
        # on-circle points have zero residual wherever they sit
        on = codec.center + 2.0 * np.array([np.cos(2.2), np.sin(2.2)])
        assert recon_error(codec, on) < 1e-12

    def test_far_on_circle_point_caught_by_hybrid_only(self):
        # the non-linear analog of the linear-manifold failure mode
        from latent_guard import calibrate, fit_gaussian, fpr_at_tpr
        from latent_guard.novelty import MODE_HYBRID, MODE_RECONSTRUCTION, novelty_scores

        ms = circle_set(np.zeros(2), 1.0, n_train=500, seed=21, n_test=300)
        codec = CircularProjectionCodec(np.zeros(2), 1.0)
        stats = fit_gaussian(codec.encode(ms.inlier_train))
        val = circle_set(np.zeros(2), 1.0, n_train=300, seed=22, n_test=1).inlier_train
        cal = calibrate(codec, stats, val)

        far = ms.ood_on_manifold
        far_re = novelty_scores(codec, stats, far, MODE_RECONSTRUCTION)[0]
        inlier_re = novelty_scores(codec, stats, ms.inlier_test, MODE_RECONSTRUCTION)
        assert far_re < np.median(inlier_re)

        re_scored = scored_set(inlier_re, [far_re])
        assert fpr_at_tpr(re_scored, 0.95) == 1.0  # reconstruction misses it
        far_h = novelty_scores(codec, stats, far, MODE_HYBRID, cal)[0]
        inlier_h = novelty_scores(codec, stats, ms.inlier_test, MODE_HYBRID, cal)
        h_scored = scored_set(inlier_h, [far_h])
        assert fpr_at_tpr(h_scored, 0.95) == 0.0   # hybrid catches it


class TestManifoldSetStructure:
    def test_roles_partition_points(self):
        ms = linear_set(np.array([[1.0, 0.0]]), n_train=50, seed=6, n_test=20)
        assert len(ms.inlier_train) == 50
        assert len(ms.inlier_test) == 20
        assert len(ms.ood_on_manifold) == 1
        assert len(ms.ood_off_manifold) == 1

    def test_deterministic(self):
        a = circle_set(np.zeros(2), 1.0, n_train=30, seed=7)
        b = circle_set(np.zeros(2), 1.0, n_train=30, seed=7)
        np.testing.assert_array_equal(np.vstack(a), np.vstack(b))
