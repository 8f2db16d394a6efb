"""Architecture assembly, shape contracts, determinism, checkpoints."""

import sys
import threading
import time
import tracemalloc
import types
from concurrent.futures import Future

import numpy as np
import pytest

from latent_guard import Autoencoder, autoencoder, fit_gaussian, serialization
from latent_guard.autoencoder import _CHUNK
from latent_guard.errors import ShapeError
from latent_guard.nn import (
    Conv3x3,
    Dense,
    Flatten,
    MaxPool2x2,
    ReLU,
    Reshape,
    Sigmoid,
    Upsample2x2,
    bce_loss,
)
from latent_guard.nn.losses import bce_loss_and_grad, bce_loss_per_sample, l1_penalty
from latent_guard.novelty import features

RNG = np.random.default_rng(42)
X_SINGLE = RNG.uniform(0.0, 1.0, (1, 28, 28))
X_BATCH = RNG.uniform(0.0, 1.0, (5, 1, 28, 28))


# the checkpoint keys of the unfused layer stack, in order
PARENT_KEYS = [
    f"{layer}.{key}"
    for layer in ("encoder.0", "encoder.3", "encoder.7", "decoder.0", "decoder.2", "decoder.5", "decoder.8")
    for key in ("weight", "bias")
]


def unfused_stacks(k, seed):
    """The layer-by-layer reference architecture, with no fused layer,
    drawing its parameters from the same seeded generator in the same order."""
    rng = np.random.default_rng(seed)
    encoder = [
        Conv3x3(1, 32, rng), ReLU(), MaxPool2x2(),
        Conv3x3(32, 2, rng), ReLU(), MaxPool2x2(),
        Flatten(), Dense(98, k, rng),
    ]
    decoder = [
        Dense(k, 98, rng), Reshape((7, 7, 2)),
        Conv3x3(2, 2, rng), ReLU(), Upsample2x2(),
        Conv3x3(2, 32, rng), ReLU(), Upsample2x2(),
        Conv3x3(32, 1, rng), Sigmoid(),
    ]
    return encoder, decoder


def unfused_named(of_layer, encoder, decoder):
    """Position-keyed arrays ``of_layer(layer)`` of the reference stacks,
    like the old checkpoints."""
    return {
        f"{prefix}.{i}.{key}": arr
        for prefix, stack in (("encoder", encoder), ("decoder", decoder))
        for i, layer in enumerate(stack)
        for key, arr in of_layer(layer).items()
    }


def run(stack, x, caches=None):
    """The stack's output; a training pass that appends each layer's cache
    to ``caches`` when it is given."""
    for layer in stack:
        x, cache = layer.forward(x, train=caches is not None)
        if caches is not None:
            caches.append(cache)
    return x


def analytic_param_count(k):
    conv = lambda ci, co: co * ci * 9 + co
    dense = lambda i, o: o * i + o
    return (
        conv(1, 32) + conv(32, 2) + dense(98, k)      # encoder
        + dense(k, 98) + conv(2, 2) + conv(2, 32) + conv(32, 1)  # decoder
    )


class TestBuild:
    def test_same_seed_is_bit_identical(self):
        a = Autoencoder(16, seed=7)
        b = Autoencoder(16, seed=7)
        for name, pa in a.named_parameters().items():
            assert np.array_equal(pa, b.named_parameters()[name]), name

    def test_different_seed_differs(self):
        a = Autoencoder(16, seed=7)
        b = Autoencoder(16, seed=8)
        assert not np.array_equal(
            a.named_parameters()["encoder.0.weight"],
            b.named_parameters()["encoder.0.weight"],
        )

    def test_encoder_dense_shape_k2(self):
        # 28 -> 14 -> 7 spatial trace with 2 channels: 7*7*2 = 98 inputs
        model = Autoencoder(2, seed=0)
        assert model.named_parameters()["encoder.7.weight"].shape == (2, 98)

    def test_input_sized_bottleneck_is_valid(self):
        model = Autoencoder(784, seed=0)
        z = model.encode(X_SINGLE)
        assert z.shape == (784,)
        assert model.named_parameters()["decoder.0.weight"].shape == (98, 784)

    def test_bottleneck_below_one_rejected(self):
        with pytest.raises(ValueError, match="bottleneck"):
            Autoencoder(0, seed=0)

    @pytest.mark.parametrize("k", [2, 4, 8, 16, 32, 64, 128, 256, 512, 784])
    def test_round_trip_shapes_and_range(self, k):
        model = Autoencoder(k, seed=1)
        z = model.encode(X_SINGLE)
        assert z.shape == (k,)
        recon = model.decode(z)
        assert recon.shape == (1, 28, 28)
        assert recon.min() > 0.0 and recon.max() < 1.0

    @pytest.mark.parametrize("k", [2, 16, 128])
    def test_param_count_matches_analytic_formula(self, k):
        params = Autoencoder(k, seed=0).named_parameters().values()
        assert sum(p.size for p in params) == analytic_param_count(k)

    def test_first_conv_param_count(self):
        model = Autoencoder(8, seed=0)
        p = model.named_parameters()
        assert p["encoder.0.weight"].size + p["encoder.0.bias"].size == 320


class TestEncode:
    def test_zero_input_gives_dense_bias(self):
        # biases init to zero, so every pre-activation stays zero and the
        # bottleneck equals the encoder dense bias
        model = Autoencoder(6, seed=3)
        z = model.encode(np.zeros((1, 28, 28)))
        np.testing.assert_array_equal(z, model.named_parameters()["encoder.7.bias"])

    def test_batch_rows_match_single_samples(self):
        # BLAS blocking differs across batch shapes, so agreement is to
        # rounding error, not bit-exact (bit-exactness holds per call shape)
        model = Autoencoder(16, seed=5)
        batch = model.encode(X_BATCH)
        assert batch.shape == (5, 16)
        for i in range(5):
            np.testing.assert_allclose(batch[i], model.encode(X_BATCH[i]), atol=1e-12)

    def test_finite_for_random_input(self):
        model = Autoencoder(32, seed=6)
        assert np.all(np.isfinite(model.encode(X_BATCH)))

    def test_wrong_shape_rejected(self):
        model = Autoencoder(4, seed=0)
        with pytest.raises(ShapeError):
            model.encode(np.zeros((1, 27, 28)))
        with pytest.raises(ShapeError):
            model.decode(np.zeros(5))

    def test_decode_rejects_scalar(self):
        with pytest.raises(ShapeError, match=r"expected shape \(4,\), got \(\)"):
            Autoencoder(4, seed=0).decode(np.float64(0.5))

    def test_decode_rejects_extra_axis(self):
        # a trailing axis keeps shape[1] == k, so only the rank check catches it
        with pytest.raises(ShapeError, match=r"expected shape \(4,\), got \(4, 1\)"):
            Autoencoder(4, seed=0).decode(np.zeros((2, 4, 1)))

    def test_out_of_range_values_rejected(self):
        model = Autoencoder(4, seed=0)
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            model.encode(np.full((1, 28, 28), 1.5))
        # NaN fails every comparison, so a naive "< 0 or > 1" test lets it by
        with_nan = np.full((2, 1, 28, 28), 0.5)
        with_nan[1, 0, 3, 4] = np.nan
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            model.encode(with_nan)
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            model.encode_and_reconstruction_errors(with_nan)


class TestReconstructionError:
    def test_equals_bce_of_reconstruction(self):
        model = Autoencoder(16, seed=9)
        err = model.encode_and_reconstruction_errors(X_SINGLE)[1][0]
        assert err == bce_loss(model.reconstruct(X_SINGLE), X_SINGLE)
        assert err >= 0.0

    def test_batch_matches_singles(self):
        model = Autoencoder(8, seed=10)
        errs = model.encode_and_reconstruction_errors(X_BATCH)[1]
        for i in range(5):
            np.testing.assert_allclose(
                errs[i], model.encode_and_reconstruction_errors(X_BATCH[i])[1][0], rtol=1e-12
            )

    def test_golden_value_for_seeded_untrained_model(self):
        # frozen once from this implementation's own seeded run
        model = Autoencoder(16, seed=123)
        x = np.random.default_rng(99).uniform(0.0, 1.0, (1, 28, 28))
        err = model.encode_and_reconstruction_errors(x)[1][0]
        assert err == float.fromhex("0x1.62d67617d99a3p-1")


class TestChunkedForward:
    # two full chunks, then a ragged one-row tail
    X_MULTI = np.random.default_rng(7).uniform(0.0, 1.0, (2 * _CHUNK + 1, 1, 28, 28))

    def test_multi_chunk_pass_matches_encode_and_reconstruct(self):
        model = Autoencoder(8, seed=11)
        z, errs = model.encode_and_reconstruction_errors(self.X_MULTI)
        n = len(self.X_MULTI)
        assert z.shape == (n, 8) and errs.shape == (n,)
        assert np.array_equal(z, model.encode(self.X_MULTI))
        expected = bce_loss_per_sample(model.reconstruct(self.X_MULTI), self.X_MULTI)
        np.testing.assert_allclose(errs, expected, rtol=1e-12)

    def test_empty_batch_gives_empty_outputs(self):
        model = Autoencoder(8, seed=11)
        empty = np.empty((0, 1, 28, 28))
        z, errs = model.encode_and_reconstruction_errors(empty)
        assert z.shape == (0, 8) and errs.shape == (0,)
        assert model.encode(empty).shape == (0, 8)
        assert model.decode(np.empty((0, 8))).shape == (0, 1, 28, 28)
        ld, errs = model.encode_and_reconstruction_errors(empty, latent=lambda z: z.sum(axis=1))
        assert ld.shape == (0,) and errs.shape == (0,)

    @pytest.mark.parametrize("workers", [1, 4])
    @pytest.mark.parametrize("n", [0, 1, _CHUNK - 1, _CHUNK, _CHUNK + 1, 5 * _CHUNK + 3])
    def test_threaded_pass_equals_serial_chunks(self, n, workers, monkeypatch):
        monkeypatch.setattr(autoencoder, "_workers", lambda: workers)
        model = Autoencoder(16, seed=12)
        x = np.random.default_rng(n).uniform(0.0, 1.0, (n, 1, 28, 28))
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # interleave the chunk threads finely
        try:
            z, errs = model.encode_and_reconstruction_errors(x)
        finally:
            sys.setswitchinterval(interval)
        x_nhwc = x.transpose(0, 2, 3, 1)
        z_ref, errs_ref = np.empty((n, 16)), np.empty(n)
        for i in range(0, n, _CHUNK):
            chunk = x_nhwc[i:i + _CHUNK]
            z_ref[i:i + _CHUNK] = run(model.encoder_layers, chunk)
            errs_ref[i:i + _CHUNK] = bce_loss_per_sample(
                run(model.decoder_layers, z_ref[i:i + _CHUNK]), chunk)
        assert np.array_equal(z, z_ref)
        assert np.array_equal(errs, errs_ref)
        assert np.array_equal(model.encode(x), z_ref)

    @pytest.mark.parametrize("workers", [1, 4])
    def test_rows_pass_checks_only_the_rows_it_reads(self, workers, monkeypatch):
        # a NaN in a row outside ``rows`` is never read, so it passes; in a
        # row of the last chunk it fails that chunk, on a helper thread
        # when one takes it
        monkeypatch.setattr(autoencoder, "_workers", lambda: workers)
        model = Autoencoder(8, seed=11)
        x = self.X_MULTI.copy()
        x[0, 0, 14, 14] = np.nan
        rows = np.arange(1, len(x))
        z, errs = model.encode_and_reconstruction_errors(x, rows=rows)
        z_ref, errs_ref = model.encode_and_reconstruction_errors(x[rows])
        assert np.array_equal(z, z_ref) and np.array_equal(errs, errs_ref)
        with pytest.raises(ValueError, match=r"image values must lie in \[0, 1\]"):
            model.encode_and_reconstruction_errors(x, rows=np.r_[rows, 0])

    @pytest.mark.parametrize("workers", [1, 4])
    def test_latent_reduces_each_chunk_in_place_of_embeddings(self, workers, monkeypatch):
        monkeypatch.setattr(autoencoder, "_workers", lambda: workers)
        model = Autoencoder(8, seed=11)
        chunk_rows = []

        def row_sums(z):
            chunk_rows.append(len(z))
            return z.sum(axis=1)

        sums, errs = model.encode_and_reconstruction_errors(self.X_MULTI, latent=row_sums)
        z, errs_ref = model.encode_and_reconstruction_errors(self.X_MULTI)
        assert sorted(chunk_rows) == [1, _CHUNK, _CHUNK]
        assert np.array_equal(sums, z.sum(axis=1))
        assert np.array_equal(errs, errs_ref)

    @pytest.mark.parametrize("workers, rows", [(4, _CHUNK), (4, 1), (1, 2 * _CHUNK + 1)])
    def test_one_chunk_or_one_cpu_starts_no_thread(self, workers, rows, monkeypatch):
        def no_pool(*args, **kwargs):
            raise AssertionError("a call with no chunk to share started a thread pool")

        monkeypatch.setattr(autoencoder, "_workers", lambda: workers)
        monkeypatch.setattr(autoencoder, "ThreadPoolExecutor", no_pool)
        model = Autoencoder(8, seed=11)
        z, _ = model.encode_and_reconstruction_errors(self.X_MULTI[:rows])
        assert z.shape == (rows, 8)
        model.encode(self.X_MULTI[0])

    def test_first_chunk_runs_alongside_the_others(self, monkeypatch):
        # each of the two chunks waits in the stem until the other arrives,
        # so the call returns only if no chunk runs alone first
        monkeypatch.setattr(autoencoder, "_workers", lambda: 2)
        model = Autoencoder(8, seed=11)
        barrier = threading.Barrier(2, timeout=5)
        stem_forward = model.encoder_layers[0].forward

        def stem(x, train=False):
            barrier.wait()
            return stem_forward(x, train)

        monkeypatch.setattr(model.encoder_layers[0], "forward", stem)
        assert model.encode(self.X_MULTI[:2 * _CHUNK]).shape == (2 * _CHUNK, 8)

    def test_caller_runs_chunks_no_helper_takes(self, monkeypatch):
        class IdleHelpers:
            """A pool whose helpers never start, as if the OS never ran them."""

            def __init__(self, workers):
                pass

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def submit(self, fn):
                done = Future()
                done.set_result(None)
                return done

        model = Autoencoder(8, seed=11)
        monkeypatch.setattr(autoencoder, "_workers", lambda: 1)
        expected = model.encode_and_reconstruction_errors(self.X_MULTI)
        monkeypatch.setattr(autoencoder, "_workers", lambda: 4)
        monkeypatch.setattr(autoencoder, "ThreadPoolExecutor", IdleHelpers)
        for got, want in zip(model.encode_and_reconstruction_errors(self.X_MULTI), expected):
            assert np.array_equal(got, want)

    def test_chunk_error_propagates_unchanged(self, monkeypatch):
        monkeypatch.setattr(autoencoder, "_workers", lambda: 4)
        error = RuntimeError("chunk failed")

        def fn(chunk):
            if chunk[0, 0, 0, 0] < 0:  # the marked row starts the third chunk
                raise error
            return (chunk[:, 0, 0, :],)

        x = np.zeros((5 * _CHUNK, 28, 28, 1))
        x[2 * _CHUNK] = -1.0
        with pytest.raises(RuntimeError) as info:
            autoencoder.map_chunks(lambda rows: fn(x[rows]), len(x))
        assert info.value is error

    def test_task_error_drops_items_not_started(self, monkeypatch):
        monkeypatch.setattr(autoencoder, "_workers", lambda: 2)
        failed = threading.Event()
        ran = []

        def task(i):
            ran.append(i)
            if i == 0:  # hold this thread until the other one has failed
                assert failed.wait(timeout=10)
                time.sleep(0.05)  # time for the failing thread to empty the queue
            elif i == 1:
                failed.set()
                raise RuntimeError("task failed")

        threads = threading.active_count()
        with pytest.raises(RuntimeError, match="task failed"):
            autoencoder.map_chunks(lambda rows: task(rows.start // _CHUNK), 10 * _CHUNK)
        assert sorted(ran) == [0, 1]
        assert threading.active_count() == threads

    @pytest.mark.parametrize("first_call", ["encode", "map_chunks"])
    def test_first_chunked_call_tunes_allocator_once(self, first_call, monkeypatch):
        # a library caller that never enters cli.main or train_on_rows
        mallopt = []

        class FakeLibc:
            def mallopt(self, option, value):
                mallopt.append(option)

        monkeypatch.setattr(autoencoder, "_allocator_tuned", False)
        monkeypatch.setattr(autoencoder, "ctypes", types.SimpleNamespace(CDLL=lambda name: FakeLibc()))
        monkeypatch.setattr(autoencoder, "_workers", lambda: 2)
        model = Autoencoder(8, seed=11)
        tuned_before_chunk = []
        stem_forward = model.encoder_layers[0].forward

        def stem(x, train=False):
            tuned_before_chunk.append(len(mallopt))
            return stem_forward(x, train)

        def sub_batch(chunk):
            tuned_before_chunk.append(len(mallopt))

        monkeypatch.setattr(model.encoder_layers[0], "forward", stem)

        calls = {
            "encode": lambda: model.encode(self.X_MULTI),
            "map_chunks": lambda: autoencoder.map_chunks(sub_batch, len(self.X_MULTI)),
        }
        calls[first_call]()
        assert mallopt[0] == -8  # M_ARENA_MAX, before any chunk thread exists
        tuned = list(mallopt)
        for call in calls.values():
            call()
        model.encode_and_reconstruction_errors(self.X_MULTI)
        assert mallopt == tuned and len(tuned) == 4
        assert 0 not in tuned_before_chunk


class TestUint8Pixels:
    """uint8 pixels give the bits of the same pixels as ``bytes / 255.0``
    floats: each chunk is scaled as it is taken."""

    # three full chunks and a ragged tail
    BYTES = np.random.default_rng(17).integers(0, 256, (3 * _CHUNK + 5, 1, 28, 28), dtype=np.uint8)

    @pytest.mark.parametrize("rows", [slice(None), slice(0, 1)])
    def test_encode_re_and_ld_are_byte_identical(self, rows):
        model = Autoencoder(8, seed=12)
        as_bytes = self.BYTES[rows]
        as_floats = as_bytes / 255.0
        stats = fit_gaussian(model.encode(self.BYTES / 255.0))
        assert model.encode(as_bytes).tobytes() == model.encode(as_floats).tobytes()
        for part_u8, part_f in zip(features(model, stats, as_bytes),
                                   features(model, stats, as_floats), strict=True):
            assert part_u8.tobytes() == part_f.tobytes()

    def test_single_image_is_byte_identical(self):
        model = Autoencoder(8, seed=12)
        image = self.BYTES[7, 0][None]  # [1, 28, 28]
        assert model.encode(image).shape == (8,)
        assert model.encode(image).tobytes() == model.encode(image / 255.0).tobytes()
        z_u8, re_u8 = model.encode_and_reconstruction_errors(image)
        z_f, re_f = model.encode_and_reconstruction_errors(image / 255.0)
        assert (z_u8.tobytes(), re_u8.tobytes()) == (z_f.tobytes(), re_f.tobytes())

    def test_wrong_shape_rejected(self):
        with pytest.raises(ShapeError):
            Autoencoder(4, seed=0).encode(np.zeros((1, 27, 28), dtype=np.uint8))


class TestMatchesUnfusedStack:
    """The fused stem and tail change no inference result and no checkpoint."""

    def test_encode_and_errors_are_bit_identical(self):
        model = Autoencoder(784, seed=4)
        encoder, decoder = unfused_stacks(784, 4)
        x = np.random.default_rng(8).uniform(0.0, 1.0, (20, 1, 28, 28))
        x[:, :, :5] = 0.0  # blank rows, like the margins of MNIST digits
        z_ref = run(encoder, x.transpose(0, 2, 3, 1))
        z, errs = model.encode_and_reconstruction_errors(x)
        assert np.array_equal(z, z_ref)
        assert np.array_equal(model.encode(x), z_ref)
        recon_ref = run(decoder, z_ref)
        assert np.array_equal(errs, bce_loss_per_sample(recon_ref, x.transpose(0, 2, 3, 1)))
        assert np.array_equal(model.decode(z), recon_ref.transpose(0, 3, 1, 2))

    def test_training_grads_match_to_rounding(self):
        # the tail's backward sums by phase, so gradients agree to rounding
        model = Autoencoder(8, seed=31)
        encoder, decoder = unfused_stacks(8, 31)
        x = np.random.default_rng(9).uniform(0.0, 1.0, (3, 28, 28, 1))
        recon, _, caches = model.forward_training(x)
        ref_caches = []
        ref = run(decoder, run(encoder, x, ref_caches), ref_caches)
        assert np.array_equal(recon, ref)
        d = (recon - x) / recon.size
        grads = model.backward_training(caches, d)
        layer_grads = {}
        for layer in reversed(encoder + decoder):
            d, layer_grads[layer] = layer.backward(d, ref_caches.pop())
        ref_grads = unfused_named(layer_grads.__getitem__, encoder, decoder)
        for name, grad in grads.items():
            np.testing.assert_allclose(grad, ref_grads[name], rtol=1e-12, atol=1e-15, err_msg=name)

    def test_parameter_names_keep_unfused_positions(self):
        assert list(Autoencoder(16, seed=0).named_parameters()) == PARENT_KEYS

    def test_new_checkpoint_bytes_equal_unfused_checkpoint(self):
        model = Autoencoder(784, seed=22)
        header = {"kind": "autoencoder-checkpoint", "format_version": 1,
                  "bottleneck_size": 784, "seed": 22}
        params = unfused_named(lambda layer: layer.params, *unfused_stacks(784, 22))
        assert list(params) == PARENT_KEYS
        assert model.to_bytes() == serialization.encode_arrays(header, params)


class TestTrainingHooks:
    def test_grads_shape_match_params(self):
        model = Autoencoder(8, seed=30)
        x = RNG.uniform(0.0, 1.0, (4, 28, 28, 1))
        recon, bottleneck, caches = model.forward_training(x)
        assert recon.shape == (4, 28, 28, 1)
        assert bottleneck.shape == (4, 8)
        grads = model.backward_training(caches, np.ones_like(recon) / recon.size)
        assert caches == []  # every cache was popped, so none outlives the pass
        params = model.named_parameters()
        assert set(grads) == set(params)
        for name in params:
            assert grads[name].shape == params[name].shape, name

    @staticmethod
    def training_pass(model, x):
        recon, bottleneck, caches = model.forward_training(x)
        return model.backward_training(caches, (recon - x) / recon.size, np.sign(bottleneck))

    def test_training_pass_leaves_every_layer_unchanged(self):
        model = Autoencoder(8, seed=32)
        layers = model.encoder_layers + model.decoder_layers
        before = [(dict(vars(layer)), dict(layer.params)) for layer in layers]
        values = {name: p.copy() for name, p in model.named_parameters().items()}
        self.training_pass(model, RNG.uniform(0.0, 1.0, (6, 28, 28, 1)))
        for layer, (attrs, params) in zip(layers, before, strict=True):
            assert vars(layer).keys() == attrs.keys(), type(layer).__name__
            assert all(vars(layer)[key] is value for key, value in attrs.items())
            assert layer.params.keys() == params.keys()
            assert all(layer.params[key] is arr for key, arr in params.items())
        for name, p in model.named_parameters().items():
            assert p.tobytes() == values[name].tobytes(), name

    def test_sub_batch_caches_hold_no_window_copies(self):
        # one 64-row sub-batch at k=16: the convolutions cache their padded
        # inputs, not their im2col columns, which are nine times larger
        # (12.04 MB of cache arrays; 13.95 MB with the columns)
        model = Autoencoder(16, seed=35)
        x = np.random.default_rng(36).uniform(0.0, 1.0, (_CHUNK, 28, 28, 1))
        caches = model.forward_training(x)[2]
        held = sum(a.nbytes for cache in caches
                   for a in (cache if isinstance(cache, tuple) else (cache,))
                   if isinstance(a, np.ndarray))
        assert held <= 12.1e6, held

    def test_sub_batch_peak_holds_one_32_channel_buffer_at_a_time(self):
        # one 64-row sub-batch at k=16, forward, loss and backward, as the
        # trainer runs it: 15.65 MB at its traced peak, 18.64 MB when the
        # tail's padded input, its padded input gradient and that gradient's
        # masked copy were alive at once, and dec5's input gradient padded
        # the whole sub-batch
        model = Autoencoder(16, seed=35)
        x = np.random.default_rng(36).uniform(0.0, 1.0, (_CHUNK, 28, 28, 1))

        def sub_batch():
            recon, bottleneck, caches = model.forward_training(x)
            d_recon = bce_loss_and_grad(recon, x)[1]
            d_bottleneck = l1_penalty(bottleneck, 1e-5)[1]
            return model.backward_training(caches, d_recon, d_bottleneck)

        sub_batch()  # first-call allocations stay out of the peak
        tracemalloc.start()
        try:
            sub_batch()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 16.0e6, peak

    def test_concurrent_training_passes_match_serial_ones_bit_for_bit(self):
        # more threads than most runners have cores, on one model's layers
        model = Autoencoder(8, seed=33)
        rng = np.random.default_rng(34)
        batches = [rng.uniform(0.0, 1.0, (8, 28, 28, 1)) for _ in range(4)]
        serial = [self.training_pass(model, x) for x in batches]
        barrier = threading.Barrier(len(batches))
        results = [None] * len(batches)

        def worker(i):
            barrier.wait(timeout=30)
            results[i] = self.training_pass(model, batches[i])

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # interleave the passes finely
        try:
            for _ in range(3):
                results[:] = [None] * len(batches)
                threads = [threading.Thread(target=worker, args=(i,)) for i in range(len(batches))]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=60)
                    assert not thread.is_alive()
                for got, ref in zip(results, serial, strict=True):
                    assert got.keys() == ref.keys()
                    for name, grad in ref.items():
                        assert got[name].tobytes() == grad.tobytes(), name
        finally:
            sys.setswitchinterval(interval)


class TestCheckpoint:
    def test_round_trip_is_bit_exact(self):
        model = Autoencoder(16, seed=21)
        raw = model.to_bytes()
        loaded = Autoencoder.from_bytes(raw)
        assert loaded.bottleneck_size == 16
        assert loaded.seed == 21
        for name, arr in model.named_parameters().items():
            assert np.array_equal(arr, loaded.named_parameters()[name]), name
        # byte-identical on re-save
        assert loaded.to_bytes() == raw

    def test_header_with_l1_lambda_loads_bit_identical(self):
        # checkpoint headers once carried the unused L1 weight; such files
        # must keep loading, with the parameters taken from the file
        model = Autoencoder(16, seed=21)
        for arr in model.named_parameters().values():
            arr += np.random.default_rng(3).standard_normal(arr.shape)
        header = {"kind": "autoencoder-checkpoint", "format_version": 1,
                  "bottleneck_size": 16, "l1_lambda": 1e-5, "seed": 21}
        loaded = Autoencoder.from_bytes(
            serialization.encode_arrays(header, model.named_parameters()))
        for name, arr in model.named_parameters().items():
            assert np.array_equal(arr, loaded.named_parameters()[name]), name

    def test_wrong_kind_rejected(self):
        raw = serialization.encode_arrays({"kind": "other"}, {"a": np.zeros(2)})
        with pytest.raises(ValueError, match="checkpoint"):
            Autoencoder.from_bytes(raw)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_parameter_rejected(self, bad):
        model = Autoencoder(4, seed=0)
        model.named_parameters()["decoder.8.bias"][0] = bad
        with pytest.raises(ValueError, match="decoder.8.bias contains non-finite"):
            Autoencoder.from_bytes(model.to_bytes())

    @pytest.mark.parametrize("key", ["bottleneck_size", "seed"])
    def test_missing_header_key_rejected(self, key):
        model = Autoencoder(4, seed=0)
        header = {"kind": "autoencoder-checkpoint", "format_version": 1,
                  "bottleneck_size": 4, "seed": 0}
        del header[key]
        with pytest.raises(ValueError, match=rf"checkpoint fields do not match: missing \['{key}'"):
            Autoencoder.from_bytes(serialization.encode_arrays(header, model.named_parameters()))

    @pytest.mark.parametrize("key, value", [("bottleneck_size", "4"), ("seed", None), ("seed", 1.5)])
    def test_non_integer_header_value_rejected(self, key, value):
        model = Autoencoder(4, seed=0)
        header = {"kind": "autoencoder-checkpoint", "format_version": 1,
                  "bottleneck_size": 4, "seed": 0, key: value}
        with pytest.raises(ValueError, match=f"checkpoint {key} must be an integer"):
            Autoencoder.from_bytes(serialization.encode_arrays(header, model.named_parameters()))

    @pytest.mark.parametrize("key", ["bottleneck_size", "seed"])
    def test_negative_header_value_rejected_naming_the_field(self, key):
        model = Autoencoder(4, seed=0)
        header = {"kind": "autoencoder-checkpoint", "format_version": 1,
                  "bottleneck_size": 4, "seed": 0, key: -1}
        with pytest.raises(ValueError, match=f"checkpoint {key} must be an integer >= 0, got -1"):
            Autoencoder.from_bytes(serialization.encode_arrays(header, model.named_parameters()))

    def test_declared_format_version_must_be_the_written_one(self):
        model = Autoencoder(4, seed=0)
        header = {"kind": "autoencoder-checkpoint", "bottleneck_size": 4, "seed": 0}
        # a header without the key loads as today
        Autoencoder.from_bytes(serialization.encode_arrays(header, model.named_parameters()))
        for version in (2, 1.0, None):
            raw = serialization.encode_arrays({**header, "format_version": version},
                                              model.named_parameters())
            with pytest.raises(ValueError, match=f"format_version {version!r}"):
                Autoencoder.from_bytes(raw)

    def test_header_size_checked_before_layers_are_built(self):
        # built first, a 10**9-wide bottleneck would fail to allocate
        model = Autoencoder(4, seed=0)
        header = {"kind": "autoencoder-checkpoint", "format_version": 1,
                  "bottleneck_size": 10**9, "seed": 0}
        with pytest.raises(ValueError, match="encoder.7.weight"):
            Autoencoder.from_bytes(serialization.encode_arrays(header, model.named_parameters()))

    def test_truncated_file_rejected(self):
        model = Autoencoder(4, seed=0)
        cut = model.to_bytes()[:-100]
        with pytest.raises(ValueError, match="truncated"):
            Autoencoder.from_bytes(cut)
