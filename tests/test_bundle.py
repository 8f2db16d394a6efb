"""Bundle creation, digest verification, atomicity basics."""

import builtins
import errno
import io
import json

import numpy as np
import pytest

from latent_guard import Autoencoder, NoveltyCalibration, fit_gaussian
from latent_guard.bundle import ExperimentBundle, MANIFEST_FILE
from latent_guard.trainer import EpochStats, TrainConfig, TrainRecord


@pytest.fixture
def parts():
    model = Autoencoder(4, seed=2)
    stats = fit_gaussian(np.random.default_rng(0).standard_normal((30, 4)))
    cal = NoveltyCalibration(alpha=1.0, beta=2.0, val_dm_std=1.0, val_re_std=0.5)
    record = TrainRecord(
        epochs=[EpochStats(1, 0.5, 0.4), EpochStats(2, 0.4, 0.35)],
        best_epoch=2,
        stop_reason="max_epochs",
    )
    config = TrainConfig(inlier_class=0, bottleneck_size=4, seed=2,
                         max_epochs=2, patience=1, val_size=10)
    return model, stats, cal, record, config


def test_create_and_read_back(tmp_path, parts):
    bundle = ExperimentBundle.create(tmp_path / "b", *parts)
    manifest = bundle.manifest()
    assert manifest["config"]["bottleneck_size"] == 4
    assert manifest["config"]["inlier_class"] == 0
    assert manifest["train"]["best_epoch"] == 2
    assert len(manifest["files"]) == 4
    bundle.verify()  # digests match contents

    model = bundle.load_model()
    assert model.bottleneck_size == 4
    stats = bundle.load_stats()
    assert stats.dim == 4
    cal = bundle.load_calibration()
    assert cal.alpha == 1.0


def test_existing_path_rejected(tmp_path, parts):
    ExperimentBundle.create(tmp_path / "b", *parts)
    with pytest.raises(FileExistsError):
        ExperimentBundle.create(tmp_path / "b", *parts)


def test_no_temp_dirs_left_behind(tmp_path, parts):
    ExperimentBundle.create(tmp_path / "b", *parts)
    leftovers = [p for p in tmp_path.iterdir() if p.name.startswith(".tmp")]
    assert leftovers == []


def test_verify_detects_tampering(tmp_path, parts):
    bundle = ExperimentBundle.create(tmp_path / "b", *parts)
    (bundle.path / "calibration.json").write_text("{}")
    with pytest.raises(ValueError, match="digest mismatch"):
        bundle.verify()


def test_train_log_is_jsonl(tmp_path, parts):
    bundle = ExperimentBundle.create(tmp_path / "b", *parts)
    lines = (bundle.path / "train_log.jsonl").read_text().strip().split("\n")
    assert len(lines) == 2
    assert json.loads(lines[1])["epoch"] == 2


def test_record_file_updates_manifest(tmp_path, parts):
    bundle = ExperimentBundle.create(tmp_path / "b", *parts)
    bundle.record_file({"extra.json": b"{}\n"})
    assert (bundle.path / "extra.json").read_bytes() == b"{}\n"
    assert "extra.json" in bundle.manifest()["files"]
    bundle.verify()


def test_fault_during_manifest_rewrite_keeps_previous_manifest(tmp_path, parts,
                                                               monkeypatch):
    bundle = ExperimentBundle.create(tmp_path / "b", *parts)
    before = (bundle.path / MANIFEST_FILE).read_bytes()
    real_open = io.open

    class DiskFull:
        """A writable file that stores half of each write, then fails."""

        def __init__(self, f):
            self._f = f

        def write(self, data):
            self._f.write(data[: len(data) // 2])
            raise OSError(errno.ENOSPC, "injected: no space left on device")

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self._f.close()

        def __getattr__(self, name):
            return getattr(self._f, name)

    def faulty_open(file, mode="r", *args, **kwargs):
        f = real_open(file, mode, *args, **kwargs)
        if "w" in mode and MANIFEST_FILE in str(file):
            return DiskFull(f)
        return f

    monkeypatch.setattr(io, "open", faulty_open)
    monkeypatch.setattr(builtins, "open", faulty_open)
    with pytest.raises(OSError, match="injected"):
        bundle.record_file({"eval_RE.json": b"{}\n"})
    monkeypatch.undo()

    assert (bundle.path / MANIFEST_FILE).read_bytes() == before
    json.loads(before)
    bundle.verify()
    assert [p.name for p in bundle.path.iterdir() if p.name.startswith(".tmp")] == []


def test_loaders_check_digests(tmp_path, parts):
    bundle = ExperimentBundle.create(tmp_path / "b", *parts)
    for name, load in (("checkpoint.lgar", bundle.load_model),
                       ("latent_stats.lgar", bundle.load_stats),
                       ("calibration.json", bundle.load_calibration)):
        path = bundle.path / name
        original = path.read_bytes()
        tampered = bytearray(original)
        tampered[-2] ^= 0x01
        path.write_bytes(bytes(tampered))
        with pytest.raises(ValueError, match=f"digest mismatch for {name}"):
            load()
        path.write_bytes(original)
        load()


def test_identical_runs_have_identical_digests(tmp_path, parts):
    a = ExperimentBundle.create(tmp_path / "a", *parts)
    model, stats, cal, record, config = parts
    b = ExperimentBundle.create(tmp_path / "b", model, stats, cal, record, config)
    assert a.manifest()["files"] == b.manifest()["files"]
    # timestamps may differ, digests may not
    path_a = a.path / MANIFEST_FILE
    assert path_a.exists()
