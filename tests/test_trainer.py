"""Split, early-stopping rule, and the training loop on tiny data."""

import dataclasses
import multiprocessing
import os
import signal
import sys
import threading
import time
import tracemalloc

import numpy as np
import pytest

from latent_guard import Autoencoder, TrainConfig, autoencoder, train
from latent_guard.autoencoder import _CHUNK
from latent_guard.nn.losses import bce_loss_and_grad, l1_penalty
from latent_guard.nn.optim import Adadelta
from latent_guard.trainer import (
    L1_LAMBDA,
    STOP_EARLY,
    STOP_MAX_EPOCHS,
    MAX_BOTTLENECK,
    EarlyStopping,
    _batch_loss_and_grads,
    _forked_helpers,
    inlier_indices,
    train_on_rows,
)

from conftest import synthetic_digits


def split_config(val_size, seed, inlier_class=0):
    return TrainConfig(inlier_class=inlier_class, bottleneck_size=4, seed=seed,
                       val_size=val_size)


class TestSplit:
    def test_exact_sizes_disjoint_union(self):
        labels = np.zeros(60, dtype=np.int64)
        train_rows, val_rows = inlier_indices(split_config(10, seed=1), labels)
        assert len(train_rows) == 50 and len(val_rows) == 10
        # every row lands in exactly one part
        assert sorted(np.concatenate([train_rows, val_rows])) == list(range(60))

    def test_deterministic(self):
        labels = synthetic_digits(40, seed=2, n_classes=3).labels
        a_train, a_val = inlier_indices(split_config(8, seed=3), labels)
        b_train, b_val = inlier_indices(split_config(8, seed=3), labels)
        np.testing.assert_array_equal(a_train, b_train)
        np.testing.assert_array_equal(a_val, b_val)

    def test_full_scale_split_sizes(self):
        # the real procedure: 60000 samples -> 50000 train / 10000 validation
        train_rows, val_rows = inlier_indices(split_config(10000, seed=0),
                                              np.zeros(60000, dtype=np.int64))
        assert len(train_rows) == 50000 and len(val_rows) == 10000

    def test_zero_val_size_rejected(self):
        with pytest.raises(ValueError, match="val_size"):
            inlier_indices(split_config(0, seed=0), np.zeros(10, dtype=np.int64))

    def test_val_size_must_leave_training_data(self):
        with pytest.raises(ValueError, match="val_size"):
            inlier_indices(split_config(10, seed=0), np.zeros(10, dtype=np.int64))

    def test_split_is_drawn_before_filtering(self):
        # the split draws from the full set, so the class filter cannot
        # change which rows land in validation: over all classes, the
        # inliers of each part make up the whole part
        labels = synthetic_digits(80, seed=6, n_classes=3).labels
        parts = [inlier_indices(split_config(20, seed=7, inlier_class=c), labels)
                 for c in range(3)]
        for c, (train_rows, val_rows) in enumerate(parts):
            assert set(labels[train_rows]) == {c} and set(labels[val_rows]) == {c}
        val_union = np.concatenate([val_rows for _, val_rows in parts])
        assert len(val_union) == 20
        train_union = np.concatenate([train_rows for train_rows, _ in parts])
        assert sorted(np.concatenate([train_union, val_union])) == list(range(80))

    @pytest.mark.parametrize("n, val_size, seed, inlier_class", [
        (57, 19, 5, 1), (600, 100, 17, 2), (60000, 10000, 0, 9),
    ])
    def test_matches_permute_then_filter_reference(self, n, val_size, seed, inlier_class):
        labels = np.random.default_rng(n).integers(0, 10, n)
        perm = np.random.default_rng(seed).permutation(n)
        expected = ([i for i in perm[val_size:] if labels[i] == inlier_class],
                    [i for i in perm[:val_size] if labels[i] == inlier_class])
        got = inlier_indices(split_config(val_size, seed, inlier_class), labels)
        for rows, reference in zip(got, expected):
            assert rows.dtype == np.intp
            assert rows.tolist() == reference

    def test_missing_class_errors(self):
        labels = np.array([1, 2] * 10)
        with pytest.raises(ValueError, match="no samples of class 0"):
            inlier_indices(split_config(5, seed=0), labels)

    @pytest.mark.parametrize("part, size", [("validation", 3), ("training", 597)])
    def test_empty_part_is_named_with_its_size(self, part, size):
        # 600 rows of two classes, with class 0 only in the other part
        config = split_config(3, seed=8)
        perm = np.random.default_rng(config.seed).permutation(600)
        labels = np.zeros(600, dtype=np.int64)
        if part == "validation":
            labels[perm[:3]] = 1
            labels[perm[3::2]] = 1
        else:
            labels[perm[3:]] = 1
        with pytest.raises(ValueError, match=(
                rf"^no samples of class 0 in the {part} part of the split \({size} rows\)$")):
            inlier_indices(config, labels)


class TestEarlyStoppingRule:
    def test_patience_trigger_example(self):
        # losses [1.0, then 1.1 x 21] with patience 20: stop at epoch 22
        stopper = EarlyStopping(patience=20)
        losses = [1.0] + [1.1] * 21
        stopped_at = None
        for epoch, loss in enumerate(losses, start=1):
            if stopper.update(epoch, loss):
                stopped_at = epoch
                break
        assert stopped_at == 22
        assert stopper.best_epoch == 1

    def test_improvement_resets_the_clock(self):
        stopper = EarlyStopping(patience=2)
        seq = [5.0, 6.0, 6.0, 4.0, 6.0, 6.0, 6.0]
        stops = [stopper.update(e, v) for e, v in enumerate(seq, start=1)]
        assert stops == [False, False, False, False, False, False, True]
        assert stopper.best_epoch == 4

    def test_strictly_lower_counts_as_improvement(self):
        stopper = EarlyStopping(patience=1)
        assert not stopper.update(1, 1.0)
        assert not stopper.update(2, 1.0)   # equal is not an improvement
        assert stopper.update(3, 1.0)


class TestTrainConfig:
    def test_patience_must_be_below_max_epochs(self):
        with pytest.raises(ValueError, match="patience"):
            TrainConfig(inlier_class=0, bottleneck_size=4, seed=0, max_epochs=20, patience=20)

    def test_patience_zero_is_refused(self):
        with pytest.raises(ValueError, match="patience"):
            TrainConfig(inlier_class=0, bottleneck_size=4, seed=0, patience=0)

    def test_class_range(self):
        with pytest.raises(ValueError, match="inlier_class"):
            TrainConfig(inlier_class=10, bottleneck_size=4, seed=0)

    def test_bottleneck_above_the_input_size_is_refused_before_any_model(self, monkeypatch):
        # k=50000 would train every epoch and then ask the fit for 18.6 GiB;
        # the config refuses it before a layer or an array exists
        def no_model(*args, **kwargs):
            raise AssertionError("a model was built")

        monkeypatch.setattr(Autoencoder, "__init__", no_model)
        assert MAX_BOTTLENECK == 784
        TrainConfig(inlier_class=0, bottleneck_size=MAX_BOTTLENECK, seed=0)
        tracemalloc.start()
        try:
            for k in (MAX_BOTTLENECK + 1, 50000):
                with pytest.raises(ValueError, match=rf"^bottleneck_size must be 1-784, got {k}$"):
                    TrainConfig(inlier_class=0, bottleneck_size=k, seed=0)
            assert tracemalloc.get_traced_memory()[1] < 1 << 20
        finally:
            tracemalloc.stop()

    def test_bottleneck_one_trains(self, tiny_train_set):
        config = TrainConfig(inlier_class=0, bottleneck_size=1, seed=5, max_epochs=2,
                             patience=1, val_size=50)
        model, record = train(config, tiny_train_set)
        assert model.bottleneck_size == 1 and len(record.epochs) == 2
        assert model.encode(tiny_train_set.images[:3]).shape == (3, 1)

    def test_numpy_integers_are_stored_as_python_ints(self):
        config = TrainConfig(inlier_class=np.uint8(3), bottleneck_size=np.int64(4),
                             seed=np.int32(5), val_size=np.intp(100))
        assert config == TrainConfig(inlier_class=3, bottleneck_size=4, seed=5, val_size=100)
        assert all(type(value) is int for value in dataclasses.asdict(config).values())

    @pytest.mark.parametrize("key, value", [
        ("seed", True), ("bottleneck_size", 4.0), ("inlier_class", "0"),
        ("batch_size", np.float64(2)), ("patience", None), ("val_size", np.bool_(True)),
    ])
    def test_non_integers_refused(self, key, value):
        fields = {"inlier_class": 0, "bottleneck_size": 4, "seed": 0, key: value}
        with pytest.raises(ValueError, match=rf"^config {key} must be an integer, got "):
            TrainConfig(**fields)


SMOKE_CONFIG = dict(
    inlier_class=0, bottleneck_size=4, seed=13,
    max_epochs=3, patience=2, batch_size=128, val_size=50,
)


@pytest.fixture(scope="module")
def run(tiny_train_set):
    config = TrainConfig(**SMOKE_CONFIG)
    return train(config, tiny_train_set), config


class TestTrainLoop:
    CONFIG = SMOKE_CONFIG

    def test_training_loss_strictly_decreases(self, run):
        (_, record), _ = run
        losses = [e.train_loss for e in record.epochs]
        assert len(losses) == 3
        assert losses[0] > losses[1] > losses[2]

    def test_stop_reason_max_epochs_when_improving(self, run):
        (_, record), _ = run
        assert record.stop_reason == STOP_MAX_EPOCHS

    def test_best_epoch_is_argmin_val_loss(self, run):
        (_, record), _ = run
        val = [e.val_loss for e in record.epochs]
        assert record.best_epoch == int(np.argmin(val)) + 1
        assert record.best_val_loss == min(val)

    def test_returned_model_is_best_snapshot(self, run, tiny_train_set):
        (model, record), config = run
        _, val_rows = inlier_indices(config, tiny_train_set.labels)
        z, errs = model.encode_and_reconstruction_errors(tiny_train_set.images[val_rows])
        recomputed = errs.mean() + L1_LAMBDA * np.abs(z).sum(axis=1).mean()
        np.testing.assert_allclose(recomputed, record.best_val_loss, rtol=1e-9)

    def test_epoch_indices_monotone(self, run):
        (_, record), _ = run
        assert [e.epoch for e in record.epochs] == [1, 2, 3]

    def test_deterministic_record(self, tiny_train_set):
        config = TrainConfig(**{**self.CONFIG, "max_epochs": 2, "patience": 1})
        _, rec_a = train(config, tiny_train_set)
        _, rec_b = train(config, tiny_train_set)
        assert [dataclasses.asdict(e) for e in rec_a.epochs] == [
            dataclasses.asdict(e) for e in rec_b.epochs
        ]
        assert rec_a.best_epoch == rec_b.best_epoch

    def test_jsonl_log_one_line_per_epoch(self, run):
        (_, record), _ = run
        lines = record.to_jsonl().strip().split("\n")
        assert len(lines) == 3
        import json

        first = json.loads(lines[0])
        assert first["epoch"] == 1 and "train_loss" in first and "val_loss" in first

    def test_restores_best_snapshot_not_final_params(self, tiny_train_set, monkeypatch):
        # script the validation losses so the best epoch is NOT the last one;
        # the returned parameters must match a run stopped at the best epoch
        import latent_guard.trainer as trainer_module

        real_objective = trainer_module._objective_forward

        def scripted(values):
            it = iter(values)

            def fake(model, images, rows):
                return next(it)

            return fake

        config_short = TrainConfig(**{**self.CONFIG, "max_epochs": 2, "patience": 1})
        monkeypatch.setattr(trainer_module, "_objective_forward", scripted([0.5, 0.3]))
        model_short, _ = train(config_short, tiny_train_set)

        config_long = TrainConfig(**{**self.CONFIG, "max_epochs": 10, "patience": 1})
        monkeypatch.setattr(
            trainer_module, "_objective_forward", scripted([0.5, 0.3, 0.9, 0.9, 0.9])
        )
        model_long, record = train(config_long, tiny_train_set)
        monkeypatch.setattr(trainer_module, "_objective_forward", real_objective)

        assert record.best_epoch == 2
        assert record.stop_reason == STOP_EARLY
        assert len(record.epochs) == 4  # stopped once 4 - 2 > patience
        for name, arr in model_long.named_parameters().items():
            assert np.array_equal(arr, model_short.named_parameters()[name]), name

    def test_non_finite_loss_aborts_with_diagnostic(self, tiny_train_set, monkeypatch):
        import latent_guard.trainer as trainer_module

        def bad_loss(prediction, target):
            return float("nan"), np.zeros_like(np.asarray(prediction))

        monkeypatch.setattr(trainer_module, "bce_loss_and_grad", bad_loss)
        config = TrainConfig(**self.CONFIG)
        with pytest.raises(FloatingPointError, match="epoch 1"):
            train(config, tiny_train_set)

    def test_diverged_weights_abort_with_diagnostic(self, tiny_train_set, monkeypatch):
        # weights that go NaN after the first step give a NaN reconstruction,
        # which must be reported as a training failure at its epoch and batch
        import latent_guard.trainer as trainer_module

        class Diverging(trainer_module.Adadelta):
            def step(self, grads):
                super().step(grads)
                for param in self.params.values():
                    param[...] = np.nan

        monkeypatch.setattr(trainer_module, "Adadelta", Diverging)
        config = TrainConfig(**{**self.CONFIG, "batch_size": 64})
        with pytest.raises(FloatingPointError, match="epoch 1, batch 1"):
            train(config, tiny_train_set)

    def test_missing_class_fails(self, tiny_train_set):
        config = TrainConfig(**{**self.CONFIG, "inlier_class": 7})
        with pytest.raises(ValueError, match="no samples"):
            train(config, tiny_train_set)

    def test_training_rows_are_not_copied(self, monkeypatch):
        # batches are gathered from the full set by index, so the peak does
        # not grow with the number of training rows
        monkeypatch.setattr(autoencoder, "_workers", lambda: 1)
        config = TrainConfig(inlier_class=0, bottleneck_size=4, seed=31, max_epochs=2,
                             patience=1, batch_size=16, val_size=300)
        peaks = []
        for n in (600, 2400):
            data = synthetic_digits(n, seed=32, n_classes=3)
            tracemalloc.start()
            try:
                train(config, data)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        extra_rows_bytes = (2400 - 600) * data.images[0].nbytes
        assert peaks[1] - peaks[0] < 0.5 * extra_rows_bytes, (peaks, extra_rows_bytes)

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_validation_rows_are_not_copied(self, dtype, monkeypatch):
        # each validation chunk gathers and converts its own rows as it is
        # taken, so the peak grows neither with the number of validation
        # rows (repeats allowed) nor with rows no pass takes; a float64 copy
        # of the 15 extra chunks of either would add 6 MB
        monkeypatch.setattr(autoencoder, "_workers", lambda: 1)
        config = TrainConfig(inlier_class=0, bottleneck_size=4, seed=37, max_epochs=2,
                             patience=1, batch_size=16, val_size=1)
        images = synthetic_digits(200, seed=38, n_classes=1).images.astype(dtype)
        padded = np.concatenate([images, np.zeros((15 * _CHUNK, *images.shape[1:]), dtype)])
        peaks = []
        for data, n_val in ((images, _CHUNK), (padded, 16 * _CHUNK)):
            tracemalloc.start()
            try:
                train_on_rows(config, data, np.arange(100, 200), np.arange(n_val) % 100)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        extra_rows_bytes = 15 * _CHUNK * 28 * 28 * 8
        assert peaks[1] - peaks[0] < 0.1 * extra_rows_bytes, (peaks, extra_rows_bytes)


def test_uint8_pixels_train_the_bytes_of_their_floats(tiny_train_set):
    # each batch and the validation pass scale the bytes as they take them,
    # so the checkpoint and the log equal a run on ``bytes / 255.0``
    config = TrainConfig(**{**SMOKE_CONFIG, "max_epochs": 2, "patience": 1})
    as_bytes = np.round(tiny_train_set.images * 255.0).astype(np.uint8)
    rows = inlier_indices(config, tiny_train_set.labels)
    runs = [train_on_rows(config, images, *rows) for images in (as_bytes, as_bytes / 255.0)]
    (model_u8, record_u8), (model_f, record_f) = runs
    assert model_u8.to_bytes() == model_f.to_bytes()
    assert record_u8.to_jsonl().encode() == record_f.to_jsonl().encode()


class TestTrainingPixels:
    """Training refuses the pixels that inference refuses, before its first
    step: the whole image array passes inference's shape and range check."""

    CONFIG = TrainConfig(**SMOKE_CONFIG)

    def assert_refused_before_any_step(self, monkeypatch, labels, images, match):
        steps = []
        monkeypatch.setattr(Adadelta, "step", lambda optimizer, grads: steps.append(grads))
        train_rows, val_rows = inlier_indices(self.CONFIG, labels)
        with pytest.raises(ValueError, match=match):
            train_on_rows(self.CONFIG, images, train_rows, val_rows)
        assert steps == []

    def test_training_rows_scaled_to_255_are_refused(self, tiny_train_set, monkeypatch):
        _, val_rows = inlier_indices(self.CONFIG, tiny_train_set.labels)
        images = tiny_train_set.images * 255.0
        images[val_rows] = tiny_train_set.images[val_rows]  # validation stays in range
        self.assert_refused_before_any_step(
            monkeypatch, tiny_train_set.labels, images,
            r"image values must lie in \[0, 1\], got range \[0\.0, 2")

    def test_nan_training_pixel_is_refused(self, tiny_train_set, monkeypatch):
        train_rows, _ = inlier_indices(self.CONFIG, tiny_train_set.labels)
        images = tiny_train_set.images.copy()
        images[train_rows[0], 0, 3, 4] = np.nan
        self.assert_refused_before_any_step(
            monkeypatch, tiny_train_set.labels, images,
            r"image values must lie in \[0, 1\], got range \[nan, nan\]")

    def test_nan_validation_pixel_is_refused(self, tiny_train_set, monkeypatch):
        _, val_rows = inlier_indices(self.CONFIG, tiny_train_set.labels)
        images = tiny_train_set.images.copy()
        images[val_rows[0], 0, 3, 4] = np.nan
        self.assert_refused_before_any_step(
            monkeypatch, tiny_train_set.labels, images,
            r"image values must lie in \[0, 1\], got range \[nan, nan\]")

    def test_32x32_images_are_refused(self, tiny_train_set, monkeypatch):
        images = np.pad(tiny_train_set.images, ((0, 0), (0, 0), (2, 2), (2, 2)))
        self.assert_refused_before_any_step(
            monkeypatch, tiny_train_set.labels, images,
            r"autoencoder input: expected shape \(1, 28, 28\), got \(1, 32, 32\)")


def whole_batch_reference(config, dataset):
    """The training loop with each batch in one forward/backward pass:
    (final model, per-epoch training losses)."""
    train_rows, _ = inlier_indices(config, dataset.labels)
    model = Autoencoder(config.bottleneck_size, config.seed)
    optimizer = Adadelta(model.named_parameters())
    x = np.ascontiguousarray(dataset.images[train_rows].transpose(0, 2, 3, 1))
    losses = []
    for epoch in range(1, config.max_epochs + 1):
        order = np.random.default_rng([config.seed, epoch]).permutation(len(x))
        total = 0.0
        for start in range(0, len(x), config.batch_size):
            batch = x[order[start:start + config.batch_size]]
            b = len(batch)
            recon, bottleneck, caches = model.forward_training(batch)
            bce, d_recon = bce_loss_and_grad(recon, batch)
            penalty, d_bottleneck = l1_penalty(bottleneck, L1_LAMBDA)
            total += (bce + penalty / b) * b
            optimizer.step(model.backward_training(caches, d_recon, d_bottleneck / b))
        losses.append(total / len(x))
    return model, losses


def params_equal(a, b):
    pa, pb = a.named_parameters(), b.named_parameters()
    return pa.keys() == pb.keys() and all(np.array_equal(pa[k], pb[k]) for k in pa)


class SubBatchLog:
    """Patches ``Autoencoder.forward_training`` to append each call's
    process id and row count to a file, which forked helpers write too;
    the sub-batch equal to ``marked`` gets a NaN reconstruction."""

    def __init__(self, monkeypatch, path, marked=None):
        self.path = path
        path.touch()
        real = Autoencoder.forward_training

        def forward_training(model, batch):
            with open(path, "a") as log:
                log.write(f"{os.getpid()} {len(batch)}\n")
            recon, bottleneck, caches = real(model, batch)
            if marked is not None and np.array_equal(batch, marked):
                recon = np.full_like(recon, np.nan)
            return recon, bottleneck, caches

        monkeypatch.setattr(Autoencoder, "forward_training", forward_training)

    def calls(self):
        """(process id, rows) of each call so far, in the order written."""
        return [tuple(map(int, line.split())) for line in self.path.read_text().splitlines()]

    def sizes(self):
        return [rows for _, rows in self.calls()]

    def helpers(self, *callers):
        """Process ids of the calls made outside this process and ``callers``."""
        return {pid for pid, _ in self.calls()} - {os.getpid(), *callers}


def exited(pid):
    """Whether process ``pid`` has ended: gone, or a zombie that an
    ancestor other than this process has yet to reap."""
    try:
        with open(f"/proc/{pid}/stat") as stat:
            return stat.read().rsplit(")", 1)[1].split()[0] in ("Z", "X")
    except FileNotFoundError:
        return True


class TestSubBatches:
    """Each batch runs as fixed _CHUNK-row sub-batches, shared between the
    caller and its forked helpers, summed in sub-batch order into one
    optimizer step."""

    # 250 images, 50 held out: 200 training rows, i.e. batches of 128 (two
    # sub-batches) and 72 (a full sub-batch and an 8-row one)
    CONFIG = dict(inlier_class=0, bottleneck_size=4, seed=21, max_epochs=2,
                  patience=1, batch_size=128, val_size=50)

    @pytest.fixture(scope="class")
    def data(self):
        return synthetic_digits(250, seed=22, n_classes=1)

    # batch 200 takes the whole set: sub-batches of 64, 64, 64 and 8 rows
    @pytest.mark.parametrize("batch_size", [128, 200])
    def test_record_and_params_do_not_depend_on_workers(self, data, batch_size, monkeypatch):
        assert _CHUNK == 64  # the splits the comments above describe
        config = TrainConfig(**{**self.CONFIG, "batch_size": batch_size})
        threads = threading.active_count()
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # interleave the sub-batch threads finely
        runs = []
        try:
            for workers in (1, 2, 4):
                monkeypatch.setattr(autoencoder, "_workers", lambda: workers)
                runs.append(train(config, data))
                assert threading.active_count() == threads
                assert multiprocessing.active_children() == []
        finally:
            sys.setswitchinterval(interval)
        (model, record), *others = runs
        for other_model, other_record in others:
            assert other_record == record
            assert params_equal(other_model, model)

    @pytest.mark.parametrize("batch_size", [50, _CHUNK])
    def test_one_sub_batch_equals_whole_batch_pass(self, data, batch_size):
        config = TrainConfig(**{**self.CONFIG, "batch_size": batch_size})
        model, record = train(config, data)
        ref_model, ref_losses = whole_batch_reference(config, data)
        assert record.best_epoch == config.max_epochs  # so model holds the final step
        assert [e.train_loss for e in record.epochs] == ref_losses
        assert params_equal(model, ref_model)

    @pytest.mark.parametrize("helpers", [0, 1])
    @pytest.mark.parametrize("rows", [2 * _CHUNK, _CHUNK + 8])
    def test_summed_sub_batch_grads_match_whole_batch(self, rows, helpers, monkeypatch):
        monkeypatch.setattr(autoencoder, "_workers", lambda: 1 + helpers)
        model = Autoencoder(16, seed=23)
        images = np.random.default_rng(rows).uniform(0.0, 1.0, (rows, 1, 28, 28))
        batch = images.transpose(0, 2, 3, 1)
        with _forked_helpers(model, images, 2) as team:
            assert len(team) == helpers
            loss, grads = _batch_loss_and_grads(model, images, np.arange(rows), "test batch",
                                                team)
        assert multiprocessing.active_children() == []

        recon, bottleneck, caches = model.forward_training(batch)
        bce, d_recon = bce_loss_and_grad(recon, batch)
        penalty, d_bottleneck = l1_penalty(bottleneck, L1_LAMBDA)
        ref = model.backward_training(caches, d_recon, d_bottleneck / rows)
        np.testing.assert_allclose(loss, bce + penalty / rows, rtol=1e-12)
        assert grads.keys() == ref.keys()
        for name, grad in grads.items():
            scale = np.abs(ref[name]).max()
            assert np.abs(grad - ref[name]).max() <= 1e-12 * scale, name

    def nan_in_sub_batch(self, monkeypatch, tmp_path, config, dataset, epoch, rows):
        """Makes the reconstruction NaN for the sub-batch that holds exactly
        training ``rows`` of ``epoch``'s shuffle; returns the ``SubBatchLog``
        of every sub-batch run, in this process or a helper."""
        train_rows, _ = inlier_indices(config, dataset.labels)
        x = dataset.images[train_rows].transpose(0, 2, 3, 1)
        order = np.random.default_rng([config.seed, epoch]).permutation(len(x))
        return SubBatchLog(monkeypatch, tmp_path / "sub_batches", marked=x[order[rows]])

    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_nan_in_second_sub_batch_names_epoch_and_batch(self, workers, monkeypatch,
                                                          tmp_path):
        # 350 images, 50 held out: batches of 128, 128 and 44 training rows;
        # the NaN is in the second sub-batch of epoch 2's batch 1, which a
        # helper runs when there is one
        data = synthetic_digits(350, seed=24, n_classes=1)
        config = TrainConfig(**self.CONFIG)
        log = self.nan_in_sub_batch(monkeypatch, tmp_path, config, data, epoch=2,
                                    rows=slice(128 + _CHUNK, 256))
        monkeypatch.setattr(autoencoder, "_workers", lambda: workers)
        threads = threading.active_count()
        with pytest.raises(FloatingPointError, match=r"epoch 2, batch 1\b"):
            train(config, data)
        assert threading.active_count() == threads
        # epoch 1 ran 2 + 2 + 1 sub-batches; epoch 2 stopped in its batch 1
        assert len(log.sizes()) == 5 + 4
        helpers = log.helpers()
        assert len(helpers) == (workers > 1)
        assert all(exited(pid) for pid in helpers)
        assert multiprocessing.active_children() == []

    def test_error_drops_sub_batches_not_started(self, data, monkeypatch, tmp_path):
        config = TrainConfig(**{**self.CONFIG, "batch_size": 5 * _CHUNK, "val_size": 10})
        # 240 training rows, one batch of four sub-batches; the second fails
        log = self.nan_in_sub_batch(monkeypatch, tmp_path, config, data, epoch=1,
                                    rows=slice(_CHUNK, 2 * _CHUNK))
        monkeypatch.setattr(autoencoder, "_workers", lambda: 1)
        with pytest.raises(FloatingPointError, match=r"epoch 1, batch 0\b"):
            train(config, data)
        assert log.sizes() == [_CHUNK, _CHUNK]


@pytest.mark.skipif(sys.platform != "linux", reason="sub-batch helpers fork on Linux only")
class TestSubBatchHelpers:
    """Training forks min(workers, sub-batches per batch) - 1 helpers per
    call; sub-batch i of a batch runs on team member i % m, and no helper
    outlives the call, however it ends."""

    # 250 images, 50 held out: one batch of 200 rows, sub-batches of 64,
    # 64, 64 and 8
    CONFIG = dict(inlier_class=0, bottleneck_size=4, seed=21, max_epochs=2,
                  patience=1, batch_size=200, val_size=50)

    @pytest.fixture(scope="class")
    def data(self):
        return synthetic_digits(250, seed=22, n_classes=1)

    @pytest.mark.parametrize("workers, shares", [
        (2, [[_CHUNK, _CHUNK], [_CHUNK, 8]]),
        (4, [[_CHUNK], [_CHUNK], [_CHUNK], [8]]),
        (8, [[_CHUNK], [_CHUNK], [_CHUNK], [8]]),
    ])
    def test_helpers_run_their_share_and_exit_after_training(self, data, workers, shares,
                                                             monkeypatch, tmp_path):
        log = SubBatchLog(monkeypatch, tmp_path / "sub_batches")
        monkeypatch.setattr(autoencoder, "_workers", lambda: workers)
        train(TrainConfig(**self.CONFIG), data)
        by_process = {}
        for pid, rows in log.calls():
            by_process.setdefault(pid, []).append(rows)
        # each of the two epochs runs the batch once; the caller takes
        # sub-batch 0, so its share comes first
        caller = by_process.pop(os.getpid())
        assert [caller] + sorted(by_process.values(), key=lambda share: (-share[0], share)) == [
            share * 2 for share in shares]
        assert all(exited(pid) for pid in by_process)
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("gate", ["beside another thread", "in a daemonic process"])
    def test_no_helper_where_a_fork_is_unsafe(self, data, gate, monkeypatch, tmp_path):
        log = SubBatchLog(monkeypatch, tmp_path / "sub_batches")
        monkeypatch.setattr(autoencoder, "_workers", lambda: 2)
        done = threading.Event()
        thread = threading.Thread(target=done.wait, args=(30,))
        if gate == "in a daemonic process":
            monkeypatch.setattr(multiprocessing.current_process(), "daemon", True)
        else:
            thread.start()
        try:
            train(TrainConfig(**self.CONFIG), data)
        finally:
            done.set()
            if thread.is_alive():
                thread.join(10)
        assert log.helpers() == set() and log.sizes() == [_CHUNK, _CHUNK, _CHUNK, 8] * 2

    def test_helper_exits_when_its_caller_is_killed(self, data, monkeypatch, tmp_path):
        log = SubBatchLog(monkeypatch, tmp_path / "sub_batches")
        monkeypatch.setattr(autoencoder, "_workers", lambda: 2)
        config = TrainConfig(**{**self.CONFIG, "max_epochs": 500, "patience": 499})
        child = multiprocessing.get_context("fork").Process(target=train, args=(config, data))
        child.start()
        caller = child.pid
        try:
            deadline = time.monotonic() + 60
            while not log.helpers(caller):
                assert child.is_alive() and time.monotonic() < deadline
                time.sleep(0.01)
            os.kill(caller, signal.SIGKILL)
            child.join(10)
            assert child.exitcode == -signal.SIGKILL
            (helper,) = log.helpers(caller)
            deadline = time.monotonic() + 5
            while not exited(helper):
                assert time.monotonic() < deadline, "the helper outlived its caller by 5 s"
                time.sleep(0.01)
        finally:
            child.kill()
            child.join()
            child.close()
            for pid in log.helpers(caller):  # none is left when the test passes
                if not exited(pid):
                    os.kill(pid, signal.SIGKILL)
        assert multiprocessing.active_children() == []
