"""Bundle creation, digest verification, atomicity basics."""

import builtins
import dataclasses
import errno
import hashlib
import io
import json
import multiprocessing
import re
import time
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import latent_guard.bundle as bundle_module
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


def test_config_of_numpy_integers_is_written_and_read_back(tmp_path, parts):
    *others, config = parts
    from_numpy = TrainConfig(**{k: np.int64(v) for k, v in dataclasses.asdict(config).items()})
    bundle = ExperimentBundle.create(tmp_path / "b", *others, from_numpy)
    assert bundle.config() == dataclasses.asdict(config)


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
    bundle.record_file({"eval_RE.json": b"{}\n"})
    assert (bundle.path / "eval_RE.json").read_bytes() == b"{}\n"
    assert "eval_RE.json" in bundle.manifest()["files"]
    bundle.verify()


@pytest.mark.parametrize("name", ["../outside.json", "extra.json", "eval_X.json"])
def test_record_file_refuses_names_outside_the_layout(tmp_path, parts, name):
    # the lock file record_file takes is the only file it leaves behind
    bundle = ExperimentBundle.create(tmp_path / "b", *parts)
    (bundle.path / ".lock").touch()
    before = {p.name: p.read_bytes() for p in bundle.path.iterdir()}
    with pytest.raises(ValueError, match=rf"files .*unexpected \['{re.escape(name)}'\]"):
        bundle.record_file({"eval_RE.json": b"{}\n", name: b"{}\n"})
    assert {p.name: p.read_bytes() for p in bundle.path.iterdir()} == before
    assert not (tmp_path / "outside.json").exists()


def test_verify_refuses_a_name_outside_the_bundle_before_opening_it(tmp_path, parts,
                                                                    monkeypatch):
    bundle = ExperimentBundle.create(tmp_path / "b", *parts)
    (tmp_path / "x").write_bytes(b"outside\n")
    manifest = json.loads((bundle.path / MANIFEST_FILE).read_text())
    manifest["files"]["../x"] = hashlib.sha256(b"outside\n").hexdigest()
    (bundle.path / MANIFEST_FILE).write_text(json.dumps(manifest))
    opened = []
    real_read_bytes = Path.read_bytes
    monkeypatch.setattr(Path, "read_bytes",
                        lambda path: opened.append(path) or real_read_bytes(path))
    with pytest.raises(ValueError, match=r"manifest.json files .*unexpected \['\.\./x'\]"):
        bundle.verify()
    assert all(path.name != "x" for path in opened)


def _record_slowly(path, manifest_read):
    """Records a file, pausing between reading and rewriting the manifest."""
    real_manifest = ExperimentBundle.manifest

    def slow_manifest(self):
        manifest = real_manifest(self)
        manifest_read.set()
        time.sleep(0.5)
        return manifest

    ExperimentBundle.manifest = slow_manifest
    ExperimentBundle(path).record_file({"eval_RE.json": b"a\n"})


def _record_when_other_has_read(path, manifest_read):
    if not manifest_read.wait(timeout=60):
        raise TimeoutError("the other writer never read the manifest")
    ExperimentBundle(path).record_file({"eval_LD.json": b"b\n"})


def test_concurrent_record_file_keeps_both_digests(tmp_path, parts):
    # B records its file while A sits between reading and rewriting the
    # manifest; without a lock A's rewrite would drop B's digest
    bundle = ExperimentBundle.create(tmp_path / "b", *parts)
    ctx = multiprocessing.get_context("spawn")
    manifest_read = ctx.Event()
    writers = [ctx.Process(target=fn, args=(str(bundle.path), manifest_read))
               for fn in (_record_slowly, _record_when_other_has_read)]
    for w in writers:
        w.start()
    for w in writers:
        w.join(timeout=120)
    assert [w.exitcode for w in writers] == [0, 0]
    files = bundle.manifest()["files"]
    assert "eval_RE.json" in files and "eval_LD.json" in files
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


def test_loader_parses_the_bytes_it_verified(tmp_path, parts, monkeypatch):
    # the checkpoint is rewritten on disk right after its digest is taken;
    # the loader must return what it checked, not open the file again
    bundle = ExperimentBundle.create(tmp_path / "b", *parts)
    other = ExperimentBundle.create(tmp_path / "other", Autoencoder(4, seed=3), *parts[1:])
    path = bundle.path / "checkpoint.lgar"
    rewrite = (other.path / "checkpoint.lgar").read_bytes()
    real_sha256 = hashlib.sha256

    class RewriteAfterDigest:
        def __init__(self, *args):
            self._h = real_sha256(*args)

        def update(self, data):
            self._h.update(data)

        def hexdigest(self):
            digest = self._h.hexdigest()
            path.write_bytes(rewrite)
            return digest

    monkeypatch.setattr(bundle_module, "hashlib", SimpleNamespace(sha256=RewriteAfterDigest))
    model = bundle.load_model()
    assert path.read_bytes() == rewrite  # the file did change under the loader
    assert model.seed == 2
    for name, arr in parts[0].named_parameters().items():
        assert np.array_equal(model.named_parameters()[name], arr), name


def test_identical_runs_have_identical_digests(tmp_path, parts):
    a = ExperimentBundle.create(tmp_path / "a", *parts)
    model, stats, cal, record, config = parts
    b = ExperimentBundle.create(tmp_path / "b", model, stats, cal, record, config)
    assert a.manifest()["files"] == b.manifest()["files"]
    # timestamps may differ, digests may not
    path_a = a.path / MANIFEST_FILE
    assert path_a.exists()
