"""End-to-end CLI runs against a small synthetic IDX data directory."""

import hashlib
import json
import os
import shutil
import struct
import subprocess
import sys
import tracemalloc
import xml.etree.ElementTree as ET
from concurrent.futures import Future
from pathlib import Path

import numpy as np
import pytest

from latent_guard import Autoencoder, cli, fit_gaussian, serialization
from latent_guard.bundle import ExperimentBundle
from latent_guard.data import IDX_IMAGE_MAGIC, write_idx_images, write_idx_labels
from latent_guard.metrics import EvalReport, ScoredSet, auroc, fpr_at_tpr
from latent_guard.nn.optim import Adadelta
from latent_guard.novelty import read_scores_csv

from conftest import synthetic_digits

TEST_SIZE = 300


def stats_of_k8():
    """A latent-stats file's bytes for k=8, for bundles trained at k=4."""
    return fit_gaussian(np.random.default_rng(0).standard_normal((30, 8))).to_bytes()

TRAIN_ARGS = ["--max-epochs", "2", "--patience", "1", "--batch-size", "64",
              "--val-size", "120", "--seed", "5"]


@pytest.fixture(scope="module")
def data_dir(tmp_path_factory):
    """Synthetic MNIST-shaped IDX files under the standard names."""
    root = tmp_path_factory.mktemp("idx-data")
    train = synthetic_digits(640, seed=100)
    test = synthetic_digits(TEST_SIZE, seed=200)
    for name, ds in (("train", train), ("t10k", test)):
        as_u8 = np.round(ds.images[:, 0] * 255.0).astype(np.uint8)
        write_idx_images(root / f"{name}-images-idx3-ubyte", as_u8)
        write_idx_labels(root / f"{name}-labels-idx1-ubyte", ds.labels)
    return root


@pytest.fixture(scope="module")
def trained_bundle(data_dir, tmp_path_factory):
    out = tmp_path_factory.mktemp("bundles") / "c0k4"
    code = cli.main(["train", "--class", "0", "--bottleneck", "4",
                     "--data-dir", str(data_dir), "--out", str(out), *TRAIN_ARGS])
    assert code == 0
    return out


@pytest.fixture(scope="module")
def swept_bundles(data_dir, tmp_path_factory):
    """Bundles dir of a finished one-cell sweep (class 0, k=3, seed 5)."""
    root = tmp_path_factory.mktemp("swept")
    code = cli.main(["sweep", "--class", "0", "--bottlenecks", "3", "--seeds", "5",
                     "--data-dir", str(data_dir), "--bundles-dir", str(root / "bundles"),
                     "--out-csv", str(root / "sweep.csv"), *TRAIN_ARGS[:-2]])
    assert code == 0
    return root / "bundles"


class TestTrain:
    def test_bundle_manifest_records_config(self, trained_bundle):
        manifest = json.loads((trained_bundle / "manifest.json").read_text())
        assert manifest["config"]["bottleneck_size"] == 4
        assert manifest["config"]["inlier_class"] == 0
        assert manifest["config"]["seed"] == 5
        for name in ("checkpoint.lgar", "latent_stats.lgar", "calibration.json",
                     "train_log.jsonl"):
            assert (trained_bundle / name).exists()
            assert name in manifest["files"]

    def test_same_seed_reproduces_identical_digests(self, data_dir, trained_bundle,
                                                    tmp_path):
        out = tmp_path / "again"
        code = cli.main(["train", "--class", "0", "--bottleneck", "4",
                         "--data-dir", str(data_dir), "--out", str(out), *TRAIN_ARGS])
        assert code == 0
        first = json.loads((trained_bundle / "manifest.json").read_text())["files"]
        second = json.loads((out / "manifest.json").read_text())["files"]
        assert first == second

    def test_bottleneck_zero_is_usage_error_exit_2(self, data_dir, tmp_path):
        with pytest.raises(SystemExit) as excinfo:
            cli.main(["train", "--class", "0", "--bottleneck", "0",
                      "--data-dir", str(data_dir), "--out", str(tmp_path / "x"),
                      *TRAIN_ARGS])
        assert excinfo.value.code == 2

    @pytest.mark.parametrize("command", [
        ["train", "--bottleneck", "50000", "--seed", "5", "--out", "{out}"],
        ["sweep", "--bottlenecks", "16,785", "--seeds", "5", "--bundles-dir", "{out}",
         "--out-csv", "{out}.csv"],
    ], ids=["train", "sweep"])
    def test_bottleneck_above_784_is_usage_error_before_any_work(self, data_dir, tmp_path,
                                                                capsys, monkeypatch, command):
        def no_work(*args):
            raise AssertionError("the data was loaded")

        monkeypatch.setattr(cli, "_load_split", no_work)
        out = str(tmp_path / "out")
        code = cli.main([command[0], "--class", "0", "--data-dir", str(data_dir),
                         *(arg.format(out=out) for arg in command[1:]), *TRAIN_ARGS[:4]])
        assert code == 1
        k = 50000 if command[0] == "train" else 785
        assert capsys.readouterr().err == (
            f"error[usage]: invalid configuration: bottleneck_size must be 1-784, got {k}\n")
        assert list(tmp_path.iterdir()) == []

    def test_missing_data_dir_is_data_error(self, tmp_path, capsys, monkeypatch):
        monkeypatch.delenv(cli.DATA_DIR_ENV, raising=False)
        code = cli.main(["train", "--class", "0", "--bottleneck", "4",
                         "--out", str(tmp_path / "x"), *TRAIN_ARGS])
        assert code == 1
        assert capsys.readouterr().err.startswith("error[data]:")

    def test_env_var_fallback(self, data_dir, tmp_path, monkeypatch):
        monkeypatch.setenv(cli.DATA_DIR_ENV, str(data_dir))
        out = tmp_path / "via-env"
        code = cli.main(["train", "--class", "0", "--bottleneck", "4",
                         "--out", str(out), *TRAIN_ARGS])
        assert code == 0
        assert out.exists()

    def test_huge_declared_image_dims_is_data_error(self, tmp_path, capsys):
        bad = tmp_path / "idx"
        bad.mkdir()
        u32_max = 2**32 - 1
        (bad / "train-images-idx3-ubyte").write_bytes(
            struct.pack(">IIII", IDX_IMAGE_MAGIC, u32_max, u32_max, u32_max) + bytes(100)
        )
        write_idx_labels(bad / "train-labels-idx1-ubyte", [0, 1])
        code = cli.main(["train", "--class", "0", "--bottleneck", "4",
                         "--data-dir", str(bad), "--out", str(tmp_path / "x"), *TRAIN_ARGS])
        assert code == 1
        assert capsys.readouterr().err.startswith("error[data]: ")

    def test_negative_seed_is_usage_error(self, data_dir, tmp_path, capsys):
        code = cli.main(["train", "--class", "0", "--bottleneck", "4",
                         "--data-dir", str(data_dir), "--out", str(tmp_path / "x"),
                         *TRAIN_ARGS[:-2], "--seed", "-1"])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error[usage]:") and "seed" in err
        assert not (tmp_path / "x").exists()

    def test_l1_lambda_is_not_a_flag(self, capsys):
        with pytest.raises(SystemExit):
            cli.main(["train", "--help"])
        assert "--l1-lambda" not in capsys.readouterr().out

    def test_existing_bundle_is_bundle_error(self, data_dir, trained_bundle, capsys):
        code = cli.main(["train", "--class", "0", "--bottleneck", "4",
                         "--data-dir", str(data_dir), "--out", str(trained_bundle),
                         *TRAIN_ARGS])
        assert code == 1
        assert capsys.readouterr().err.startswith("error[bundle]:")

    @pytest.mark.parametrize("out, code_name", [
        ("dir", "bundle"), ("file", "bundle"), ("file/bundle", "usage"),
    ], ids=["existing-directory", "existing-file", "under-a-file"])
    def test_unusable_out_fails_before_loading_or_training(self, data_dir, tmp_path,
                                                           monkeypatch, capsys, out, code_name):
        steps, loads = [], []
        monkeypatch.setattr(Adadelta, "step", lambda optimizer, grads: steps.append(grads))
        real_load = cli._load_split
        monkeypatch.setattr(cli, "_load_split",
                            lambda *args: loads.append(args) or real_load(*args))
        (tmp_path / "dir").mkdir()
        (tmp_path / "file").write_text("not a directory\n")
        code = cli.main(["train", "--class", "0", "--bottleneck", "4",
                         "--data-dir", str(data_dir), "--out", str(tmp_path / out),
                         *TRAIN_ARGS])
        assert code == 1
        assert capsys.readouterr().err.startswith(f"error[{code_name}]:")
        assert steps == [] and loads == []


class TestEval:
    def test_eval_writes_report_and_scores(self, data_dir, trained_bundle, capsys):
        code = cli.main(["eval", "--bundle", str(trained_bundle),
                         "--data-dir", str(data_dir), "--mode", "RE"])
        assert code == 0
        stdout = capsys.readouterr().out
        report = EvalReport.from_json(stdout.strip().splitlines()[-1])
        assert report.mode == "RE"
        assert (trained_bundle / "eval_RE.json").exists()
        assert (trained_bundle / "scores_RE.csv").exists()

    def test_re_metrics_recomputable_from_scores_csv(self, data_dir, trained_bundle):
        cli.main(["eval", "--bundle", str(trained_bundle),
                  "--data-dir", str(data_dir), "--mode", "RE"])
        report = EvalReport.from_json(
            (trained_bundle / "eval_RE.json").read_text()
        )
        _, is_inlier, re, _, _ = read_scores_csv(trained_bundle / "scores_RE.csv")
        scored = ScoredSet(scores=re, is_inlier=is_inlier)
        assert auroc(scored) == report.auroc
        assert fpr_at_tpr(scored) == report.fpr_at_95_tpr

    def test_eval_updates_manifest_digests(self, data_dir, trained_bundle):
        cli.main(["eval", "--bundle", str(trained_bundle),
                  "--data-dir", str(data_dir), "--mode", "LD"])
        ExperimentBundle(trained_bundle).verify()

    def test_hybrid_without_calibration_fails(self, data_dir, trained_bundle,
                                              tmp_path, capsys):
        broken = tmp_path / "no-cal"
        shutil.copytree(trained_bundle, broken)
        (broken / "calibration.json").unlink()
        code = cli.main(["eval", "--bundle", str(broken),
                         "--data-dir", str(data_dir), "--mode", "H"])
        assert code == 1
        assert capsys.readouterr().err.startswith("error[bundle]:")

    def test_missing_calibration_is_bundle_error_in_every_mode(self, data_dir,
                                                               trained_bundle,
                                                               tmp_path, capsys):
        # create() always writes calibration.json, so a bundle without it is
        # damaged even for modes that do not mix RE and LD
        broken = tmp_path / "no-cal-re"
        shutil.copytree(trained_bundle, broken)
        (broken / "calibration.json").unlink()
        code = cli.main(["eval", "--bundle", str(broken),
                         "--data-dir", str(data_dir), "--mode", "RE"])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error[bundle]: ") and "calibration.json" in err

    def test_tampered_checkpoint_is_bundle_error(self, data_dir, trained_bundle,
                                                 tmp_path, capsys):
        tampered = tmp_path / "tampered"
        shutil.copytree(trained_bundle, tampered)
        checkpoint = tampered / "checkpoint.lgar"
        raw = bytearray(checkpoint.read_bytes())
        raw[-1] ^= 0x01  # top byte of the last parameter: still a valid float
        checkpoint.write_bytes(bytes(raw))
        code = cli.main(["eval", "--bundle", str(tampered),
                         "--data-dir", str(data_dir), "--mode", "RE"])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error[bundle]: ") and "checkpoint.lgar" in err

    @pytest.mark.parametrize("name, array", [("latent_stats.lgar", "basis"),
                                             ("checkpoint.lgar", "decoder.8.bias")])
    def test_non_finite_bundle_array_is_bundle_error(self, data_dir, trained_bundle,
                                                     tmp_path, capsys, name, array):
        # a NaN written with its digest re-recorded passes the digest check,
        # so loading the file itself must refuse it
        damaged = tmp_path / "nan"
        shutil.copytree(trained_bundle, damaged)
        header, arrays = serialization.decode_arrays((damaged / name).read_bytes())
        arrays[array][..., 0] = np.nan
        ExperimentBundle(damaged).record_file(
            {name: serialization.encode_arrays(header, arrays)})
        code = cli.main(["eval", "--bundle", str(damaged),
                         "--data-dir", str(data_dir), "--mode", "LD"])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error[bundle]: ") and name in err and "non-finite" in err

    @pytest.mark.parametrize("name, damage, field", [
        ("latent_stats.lgar", lambda header, arrays: arrays.pop("jitter"), "jitter"),
        ("checkpoint.lgar", lambda header, arrays: header.pop("seed"), "seed"),
        ("checkpoint.lgar", lambda header, arrays: header.update(bottleneck_size=10**9),
         "bottleneck_size"),
        ("latent_stats.lgar",
         lambda header, arrays: arrays.update(serialization.decode_arrays(stats_of_k8())[1]),
         "mean"),
        ("latent_stats.lgar", lambda header, arrays: arrays.update(basis=2.0 * arrays["basis"]),
         "basis"),
        ("latent_stats.lgar",
         lambda header, arrays: arrays.update(variances=arrays["variances"][::-1].copy()),
         "variances"),
        ("latent_stats.lgar", lambda header, arrays: arrays.update(extra=np.zeros(2)), "extra"),
        ("checkpoint.lgar", lambda header, arrays: header.update(seed=-1), "seed"),
        ("checkpoint.lgar", lambda header, arrays: header.update(seed=1.5), "seed"),
        ("checkpoint.lgar", lambda header, arrays: header.update(seed=99), "seed"),
    ], ids=["stats-without-jitter", "checkpoint-without-seed", "checkpoint-huge-k",
            "stats-of-other-k", "stats-basis-scaled", "stats-variances-reversed",
            "stats-extra-array", "checkpoint-negative-seed", "checkpoint-non-integer-seed",
            "checkpoint-of-other-seed"])
    def test_inconsistent_bundle_file_is_bundle_error(self, data_dir, trained_bundle,
                                                      tmp_path, capsys, name, damage, field):
        damaged = tmp_path / "inconsistent"
        shutil.copytree(trained_bundle, damaged)
        header, arrays = serialization.decode_arrays((damaged / name).read_bytes())
        damage(header, arrays)
        ExperimentBundle(damaged).record_file(
            {name: serialization.encode_arrays(header, arrays)})
        code = cli.main(["eval", "--bundle", str(damaged),
                         "--data-dir", str(data_dir), "--mode", "LD"])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error[bundle]: {name}: ") and field in err

    def test_files_of_other_k_are_bundle_error(self, data_dir, trained_bundle,
                                               tmp_path, capsys):
        # a checkpoint and stats that agree with each other, both k=8, in a
        # bundle whose config says k=4: scoring would run and report k=4
        damaged = tmp_path / "other-k"
        shutil.copytree(trained_bundle, damaged)
        ExperimentBundle(damaged).record_file({"checkpoint.lgar": Autoencoder(8, seed=5).to_bytes(),
                                               "latent_stats.lgar": stats_of_k8()})
        code = cli.main(["eval", "--bundle", str(damaged),
                         "--data-dir", str(data_dir), "--mode", "LD"])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith(
            "error[bundle]: checkpoint.lgar: checkpoint bottleneck_size must be 4, got 8")

    @pytest.mark.parametrize("damage, field", [
        (lambda cal: {k: v for k, v in cal.items() if k != "alpha"}, "alpha"),
        (lambda cal: {**cal, "gamma": 1.0}, "gamma"),
        (lambda cal: {**cal, "beta": "2.0"}, "beta"),
        (lambda cal: [cal["alpha"], cal["beta"]], "JSON object"),
    ], ids=["missing-field", "extra-field", "string-field", "json-list"])
    def test_malformed_calibration_is_bundle_error(self, data_dir, trained_bundle,
                                                   tmp_path, capsys, damage, field):
        damaged = tmp_path / "bad-cal"
        shutil.copytree(trained_bundle, damaged)
        cal = damage(json.loads((damaged / "calibration.json").read_text()))
        ExperimentBundle(damaged).record_file(
            {"calibration.json": (json.dumps(cal) + "\n").encode()})
        code = cli.main(["eval", "--bundle", str(damaged),
                         "--data-dir", str(data_dir), "--mode", "H"])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error[bundle]: calibration.json: ") and field in err

    @pytest.mark.parametrize("name", ["checkpoint.lgar", "latent_stats.lgar",
                                      "calibration.json"])
    def test_other_format_version_is_bundle_error(self, data_dir, trained_bundle,
                                                  tmp_path, capsys, name):
        damaged = tmp_path / "future"
        shutil.copytree(trained_bundle, damaged)
        if name.endswith(".json"):
            payload = {**json.loads((damaged / name).read_text()), "format_version": 9}
            data = (json.dumps(payload) + "\n").encode()
        else:
            header, arrays = serialization.decode_arrays((damaged / name).read_bytes())
            data = serialization.encode_arrays({**header, "format_version": 9}, arrays)
        ExperimentBundle(damaged).record_file({name: data})
        code = cli.main(["eval", "--bundle", str(damaged),
                         "--data-dir", str(data_dir), "--mode", "H"])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error[bundle]: {name}: ") and "format_version 9" in err

    def test_stats_file_of_format_version_1_is_bundle_error(self, data_dir, trained_bundle,
                                                            tmp_path, capsys):
        # version 1 stored a Cholesky factor; it is refused, not converted
        damaged = tmp_path / "v1"
        shutil.copytree(trained_bundle, damaged)
        header, arrays = serialization.decode_arrays((damaged / "latent_stats.lgar").read_bytes())
        cov, jitter = arrays["covariance"], arrays["jitter"]
        v1 = {"mean": arrays["mean"], "covariance": cov,
              "chol": np.linalg.cholesky(cov + jitter * np.eye(len(cov))), "jitter": jitter}
        ExperimentBundle(damaged).record_file({"latent_stats.lgar": serialization.encode_arrays(
            {**header, "format_version": 1}, v1)})
        code = cli.main(["eval", "--bundle", str(damaged),
                         "--data-dir", str(data_dir), "--mode", "LD"])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error[bundle]: latent_stats.lgar: ") and "format_version 1" in err

    @pytest.mark.parametrize("key", ["config", "files"])
    def test_manifest_without_key_is_bundle_error(self, data_dir, trained_bundle,
                                                  tmp_path, capsys, key):
        damaged = tmp_path / f"no-{key}"
        shutil.copytree(trained_bundle, damaged)
        manifest = json.loads((damaged / "manifest.json").read_text())
        del manifest[key]
        (damaged / "manifest.json").write_text(json.dumps(manifest))
        code = cli.main(["eval", "--bundle", str(damaged),
                         "--data-dir", str(data_dir), "--mode", "RE"])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error[bundle]: manifest.json ") and repr(key) in err

    @pytest.mark.parametrize("key, value", [("kind", "x"), ("format_version", 9),
                                            ("format_version", "1")])
    def test_manifest_of_other_kind_or_version_is_bundle_error(self, data_dir, trained_bundle,
                                                               tmp_path, capsys, key, value):
        damaged = tmp_path / "other-kind"
        shutil.copytree(trained_bundle, damaged)
        manifest = json.loads((damaged / "manifest.json").read_text())
        manifest[key] = value
        (damaged / "manifest.json").write_text(json.dumps(manifest))
        code = cli.main(["eval", "--bundle", str(damaged),
                         "--data-dir", str(data_dir), "--mode", "RE"])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error[bundle]: manifest.json {key} ") and repr(value) in err

    @pytest.mark.parametrize("damage, message", [
        (lambda files: files.update({"checkpoint.lgar": 5}),
         "files checkpoint.lgar must be a 64-hex digest, got 5"),
        (lambda files: files.update({"calibration.json": "abc"}),
         "files calibration.json must be a 64-hex digest, got 'abc'"),
        (lambda files: files.update({"../x": files["checkpoint.lgar"]}),
         "files fields do not match: missing [], unexpected ['../x']"),
        (lambda files: files.update({"extra.json": files["checkpoint.lgar"]}),
         "files fields do not match: missing [], unexpected ['extra.json']"),
        (lambda files: files.pop("latent_stats.lgar"),
         "files fields do not match: missing ['latent_stats.lgar'], unexpected []"),
    ], ids=["int-digest", "short-digest", "name-outside-bundle", "name-outside-layout",
            "core-file-without-digest"])
    def test_manifest_files_must_map_layout_names_to_digests(self, data_dir, trained_bundle,
                                                             tmp_path, capsys, damage, message):
        damaged = tmp_path / "bad-files"
        shutil.copytree(trained_bundle, damaged)
        manifest = json.loads((damaged / "manifest.json").read_text())
        damage(manifest["files"])
        (damaged / "manifest.json").write_text(json.dumps(manifest))
        code = cli.main(["eval", "--bundle", str(damaged),
                         "--data-dir", str(data_dir), "--mode", "RE"])
        assert code == 1
        assert capsys.readouterr().err == f"error[bundle]: manifest.json {message}\n"

    @pytest.mark.parametrize("key, value", [
        ("inlier_class", "0"), ("bottleneck_size", True), ("seed", 5.0),
        ("patience", "1"), ("val_size", None),
    ])
    def test_mistyped_manifest_config_is_bundle_error(self, data_dir, trained_bundle,
                                                      tmp_path, capsys, key, value):
        damaged = tmp_path / "mistyped"
        shutil.copytree(trained_bundle, damaged)
        manifest = json.loads((damaged / "manifest.json").read_text())
        manifest["config"][key] = value
        (damaged / "manifest.json").write_text(json.dumps(manifest))
        code = cli.main(["eval", "--bundle", str(damaged),
                         "--data-dir", str(data_dir), "--mode", "RE"])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error[bundle]: manifest.json config {key} must be an integer")

    @pytest.mark.parametrize("key, value, message", [
        ("seed", -1, "seed must be >= 0"), ("inlier_class", 10, "inlier_class must be 0-9"),
        ("patience", 2, "patience must satisfy"), ("val_size", 0, "val_size must be >= 1"),
        ("bottleneck_size", 785, "bottleneck_size must be 1-784, got 785"),
    ])
    def test_manifest_config_out_of_range_is_bundle_error(self, data_dir, trained_bundle,
                                                          tmp_path, capsys, key, value,
                                                          message):
        damaged = tmp_path / "out-of-range"
        shutil.copytree(trained_bundle, damaged)
        manifest = json.loads((damaged / "manifest.json").read_text())
        manifest["config"][key] = value
        (damaged / "manifest.json").write_text(json.dumps(manifest))
        code = cli.main(["eval", "--bundle", str(damaged),
                         "--data-dir", str(data_dir), "--mode", "RE"])
        assert code == 1
        assert capsys.readouterr().err.startswith(f"error[bundle]: manifest.json {message}")

    @pytest.mark.parametrize("mode", ["RE", "LD", "H"])
    def test_overflowing_hybrid_fails_before_anything_is_written(self, data_dir, trained_bundle,
                                                                 tmp_path, capsys, mode):
        # a valid weight that overflows alpha * LD; every mode writes the
        # hybrid column into the scores file, so every mode must refuse it
        damaged = tmp_path / "huge-alpha"
        shutil.copytree(trained_bundle, damaged)
        cal = {**json.loads((damaged / "calibration.json").read_text()), "alpha": 1e308}
        ExperimentBundle(damaged).record_file(
            {"calibration.json": (json.dumps(cal) + "\n").encode()})
        before = {p.name: p.read_bytes() for p in damaged.iterdir() if p.is_file()}
        code = cli.main(["eval", "--bundle", str(damaged),
                         "--data-dir", str(data_dir), "--mode", mode])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith(
            "error[eval]: calibration.json: its weights overflow the hybrid scores")
        assert err.count("error[") == 1
        assert {p.name: p.read_bytes() for p in damaged.iterdir() if p.is_file()} == before

    def test_incomplete_bundle_rejected(self, data_dir, tmp_path, capsys):
        code = cli.main(["eval", "--bundle", str(tmp_path / "nothing"),
                         "--data-dir", str(data_dir), "--mode", "RE"])
        assert code == 1
        assert capsys.readouterr().err.startswith("error[bundle]:")

    def test_deterministic_eval_reports_bit_for_bit(self, data_dir, trained_bundle):
        cli.main(["eval", "--bundle", str(trained_bundle),
                  "--data-dir", str(data_dir), "--mode", "H"])
        first = (trained_bundle / "eval_H.json").read_bytes()
        cli.main(["eval", "--bundle", str(trained_bundle),
                  "--data-dir", str(data_dir), "--mode", "H"])
        assert (trained_bundle / "eval_H.json").read_bytes() == first


class TestSweep:
    def test_grid_produces_rows_per_mode(self, data_dir, tmp_path, capsys):
        out_csv = tmp_path / "sweep.csv"
        code = cli.main(["sweep", "--class", "0", "--bottlenecks", "3,4",
                         "--seeds", "5", "--data-dir", str(data_dir),
                         "--bundles-dir", str(tmp_path / "bundles"),
                         "--out-csv", str(out_csv), *TRAIN_ARGS[:-2]])
        assert code == 0
        lines = out_csv.read_text().strip().split("\n")
        assert lines[0] == "class,k,seed,mode,fpr95,auroc,aupr_in,aupr_out"
        assert len(lines) == 1 + 2 * 1 * 3  # two ks, one seed, three modes
        assert (tmp_path / "bundles" / "class0_k3_seed5").exists()

    def test_resume_skips_existing(self, data_dir, tmp_path):
        def args(csv_name, *extra):
            return ["sweep", "--class", "0", "--bottlenecks", "3", "--seeds", "5",
                    "--data-dir", str(data_dir),
                    "--bundles-dir", str(tmp_path / "bundles"),
                    "--out-csv", str(tmp_path / csv_name),
                    *TRAIN_ARGS[:-2], *extra]

        assert cli.main(args("a.csv")) == 0
        # without --resume an existing bundle is an error
        assert cli.main(args("b.csv")) == 1
        assert cli.main(args("b.csv", "--resume")) == 0
        assert (tmp_path / "b.csv").read_text() == (tmp_path / "a.csv").read_text()

        # a bundle holding only the RE report gets LD and H back, unchanged
        bundle = tmp_path / "bundles" / "class0_k3_seed5"
        dropped = {}
        for name in ("eval_LD.json", "scores_LD.csv", "eval_H.json", "scores_H.csv"):
            dropped[name] = (bundle / name).read_bytes()
            (bundle / name).unlink()
        assert cli.main(args("c.csv", "--resume")) == 0
        assert (tmp_path / "c.csv").read_bytes() == (tmp_path / "a.csv").read_bytes()
        for name, content in dropped.items():
            assert (bundle / name).read_bytes() == content, name
        ExperimentBundle(bundle).verify()

    def test_resume_with_other_config_is_bundle_error(self, data_dir, tmp_path, capsys):
        def args(*train_args):
            return ["sweep", "--class", "0", "--bottlenecks", "3", "--seeds", "5",
                    "--data-dir", str(data_dir), "--bundles-dir", str(tmp_path / "bundles"),
                    "--out-csv", str(tmp_path / "sweep.csv"), *train_args, "--resume"]

        assert cli.main(args(*TRAIN_ARGS[:-2])) == 0
        # bundles that still record the retired l1_lambda keep resuming
        manifest_path = tmp_path / "bundles" / "class0_k3_seed5" / "manifest.json"
        manifest = json.loads(manifest_path.read_text())
        manifest["config"]["l1_lambda"] = 1e-5
        manifest_path.write_text(json.dumps(manifest))
        assert cli.main(args(*TRAIN_ARGS[:-2])) == 0
        before = (tmp_path / "sweep.csv").read_bytes()
        capsys.readouterr()

        assert cli.main(args("--max-epochs", "5", *TRAIN_ARGS[2:-2])) == 1
        err = capsys.readouterr().err
        assert err.startswith("error[bundle]:")
        assert "max_epochs (bundle 2, requested 5)" in err
        assert (tmp_path / "sweep.csv").read_bytes() == before  # nothing ran

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_resume_fails_cell_with_edited_report(self, data_dir, tmp_path, capsys, jobs):
        # two cells, so that --jobs 2 runs them in a pool
        def args(csv_name, *extra):
            return ["sweep", "--class", "0", "--bottlenecks", "3,4", "--seeds", "5",
                    "--data-dir", str(data_dir), "--bundles-dir", str(tmp_path / "bundles"),
                    "--out-csv", str(tmp_path / csv_name), *TRAIN_ARGS[:-2], "--jobs", jobs,
                    *extra]

        assert cli.main(args("a.csv")) == 0
        bundle = tmp_path / "bundles" / "class0_k3_seed5"
        report = bundle / "eval_RE.json"
        edited = json.loads(report.read_text())
        edited["auroc"] = 0.123
        report.write_text(json.dumps(edited))
        recorded = json.loads((bundle / "manifest.json").read_text())["files"]["eval_RE.json"]
        actual = hashlib.sha256(report.read_bytes()).hexdigest()
        capsys.readouterr()

        assert cli.main(args("b.csv", "--resume")) == 0
        err = capsys.readouterr().err
        assert err == (f"error[sweep]: class=0 k=3 seed=5: digest mismatch for eval_RE.json: "
                       f"manifest {recorded[:12]}..., file {actual[:12]}...\n")
        rows = (tmp_path / "b.csv").read_text()
        assert "0.123" not in rows
        assert rows.count("nan,nan,nan,nan") == 3
        # the failed cell's rows read nan, and the other cell's are those of the first run
        expected = [",".join(line.split(",")[:4] + ["nan"] * 4) if line.startswith("0,3,5,")
                    else line for line in (tmp_path / "a.csv").read_text().splitlines()]
        assert rows.splitlines() == expected

    @pytest.mark.parametrize("damage, field", [
        (lambda report: {k: v for k, v in report.items() if k != "auroc"}, "auroc"),
        (lambda report: {**report, "tpr": 0.95}, "tpr"),
        (lambda report: list(report.values()), "JSON object"),
    ], ids=["missing-field", "extra-field", "json-list"])
    def test_resume_names_file_and_field_of_malformed_report(self, data_dir, swept_bundles,
                                                            tmp_path, capsys, damage, field):
        bundles = tmp_path / "bundles"
        shutil.copytree(swept_bundles, bundles)
        bundle = bundles / "class0_k3_seed5"
        report = damage(json.loads((bundle / "eval_LD.json").read_text()))
        ExperimentBundle(bundle).record_file(
            {"eval_LD.json": (json.dumps(report) + "\n").encode()})
        capsys.readouterr()

        assert cli.main(["sweep", "--class", "0", "--bottlenecks", "3", "--seeds", "5",
                         "--data-dir", str(data_dir), "--bundles-dir", str(bundles),
                         "--out-csv", str(tmp_path / "b.csv"), *TRAIN_ARGS[:-2],
                         "--resume"]) == 0
        err = capsys.readouterr().err
        assert "error[sweep]:" in err and "eval_LD.json: eval report " in err and field in err
        assert (tmp_path / "b.csv").read_text().count("nan,nan,nan,nan") == 3

    @pytest.mark.parametrize("field, value", [
        ("auroc", "0.99"), ("auroc", True), ("auroc", float("nan")), ("aupr_out", 1.5),
        ("inlier_class", "0"), ("seed", 5.0), ("mode", "X"),
        ("mode", "H"), ("bottleneck_size", 8), ("seed", 99), ("inlier_class", 1),
    ], ids=["string-metric", "bool-metric", "nan-metric", "metric-above-1",
            "string-class", "float-seed", "unknown-mode",
            "mode-of-other-file", "other-k", "other-seed", "other-class"])
    def test_resume_names_file_and_field_of_mistyped_report(self, data_dir, swept_bundles,
                                                           tmp_path, capsys, field, value):
        bundles = tmp_path / "bundles"
        shutil.copytree(swept_bundles, bundles)
        bundle = bundles / "class0_k3_seed5"
        report = {**json.loads((bundle / "eval_LD.json").read_text()), field: value}
        ExperimentBundle(bundle).record_file(
            {"eval_LD.json": (json.dumps(report) + "\n").encode()})
        capsys.readouterr()

        assert cli.main(["sweep", "--class", "0", "--bottlenecks", "3", "--seeds", "5",
                         "--data-dir", str(data_dir), "--bundles-dir", str(bundles),
                         "--out-csv", str(tmp_path / "b.csv"), *TRAIN_ARGS[:-2],
                         "--resume"]) == 0
        err = capsys.readouterr().err
        assert "error[sweep]:" in err and f"eval_LD.json: eval report {field} " in err
        assert (tmp_path / "b.csv").read_text().count("nan,nan,nan,nan") == 3

    def test_resume_evaluates_report_without_digest_again(self, data_dir, tmp_path, capsys):
        # a crash between writing eval_RE.json and the manifest leaves this state
        def args(csv_name, *extra):
            return ["sweep", "--class", "0", "--bottlenecks", "3", "--seeds", "5",
                    "--data-dir", str(data_dir), "--bundles-dir", str(tmp_path / "bundles"),
                    "--out-csv", str(tmp_path / csv_name), *TRAIN_ARGS[:-2], *extra]

        assert cli.main(args("a.csv")) == 0
        bundle = tmp_path / "bundles" / "class0_k3_seed5"
        manifest = json.loads((bundle / "manifest.json").read_text())
        del manifest["files"]["eval_RE.json"]
        (bundle / "manifest.json").write_text(json.dumps(manifest))
        capsys.readouterr()

        assert cli.main(args("b.csv", "--resume")) == 0
        assert "error[" not in capsys.readouterr().err
        assert (tmp_path / "b.csv").read_bytes() == (tmp_path / "a.csv").read_bytes()
        assert "eval_RE.json" in ExperimentBundle(bundle).manifest()["files"]
        ExperimentBundle(bundle).verify()

    def test_one_feature_pass_per_cell_on_test_split(self, data_dir, tmp_path,
                                                     monkeypatch):
        # RE, LD and H all come from one (RE, LD) pass over the test split
        real = cli.novelty.features
        test_passes = []

        def counting(model, stats, images):
            if len(images) == TEST_SIZE:
                test_passes.append(len(images))
            return real(model, stats, images)

        monkeypatch.setattr(cli.novelty, "features", counting)
        code = cli.main(["sweep", "--class", "0", "--bottlenecks", "3", "--seeds", "5",
                         "--data-dir", str(data_dir),
                         "--bundles-dir", str(tmp_path / "bundles"),
                         "--out-csv", str(tmp_path / "sweep.csv"), *TRAIN_ARGS[:-2]])
        assert code == 0
        assert len(test_passes) == 1
        for mode in ("RE", "LD", "H"):
            assert (tmp_path / "bundles" / "class0_k3_seed5" / f"eval_{mode}.json").exists()

    def test_parallel_jobs_match_serial_output(self, data_dir, tmp_path):
        common = ["sweep", "--class", "0", "--bottlenecks", "3,4", "--seeds", "5",
                  "--data-dir", str(data_dir), *TRAIN_ARGS[:-2]]
        assert cli.main(common + ["--bundles-dir", str(tmp_path / "serial"),
                                  "--out-csv", str(tmp_path / "serial.csv")]) == 0
        assert cli.main(common + ["--bundles-dir", str(tmp_path / "parallel"),
                                  "--out-csv", str(tmp_path / "parallel.csv"),
                                  "--jobs", "2"]) == 0
        assert (tmp_path / "serial.csv").read_text() == (tmp_path / "parallel.csv").read_text()

    def test_pool_has_no_more_workers_than_cells(self, data_dir, tmp_path, monkeypatch):
        pools = []

        class InlinePool:
            """Records its ``max_workers`` and runs each call at once, here."""
            def __init__(self, max_workers):
                pools.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc_info):
                return False

            def submit(self, fn, *args):
                future = Future()
                try:
                    future.set_result(fn(*args))
                except Exception as exc:
                    future.set_exception(exc)
                return future

        monkeypatch.setattr(cli, "ProcessPoolExecutor", InlinePool)

        def args(bottlenecks, csv_name, *extra):
            return ["sweep", "--class", "0", "--bottlenecks", bottlenecks, "--seeds", "5",
                    "--data-dir", str(data_dir), "--bundles-dir", str(tmp_path / "bundles"),
                    "--out-csv", str(tmp_path / csv_name), *TRAIN_ARGS[:-2], "--jobs", "8",
                    *extra]

        assert cli.main(args("3,4", "two.csv")) == 0
        assert pools == [2]
        # one cell runs in this process, with no pool at all
        assert cli.main(args("3", "one.csv", "--resume")) == 0
        assert pools == [2]
        two = (tmp_path / "two.csv").read_text().splitlines()
        assert (tmp_path / "one.csv").read_text().splitlines() == two[:4]
        assert "nan" not in "".join(two)

    def test_spawned_workers_match_serial_output(self, data_dir, tmp_path):
        # the cells must pickle into a fresh interpreter, not only a fork
        common = ["sweep", "--class", "0", "--bottlenecks", "3,4", "--seeds", "5",
                  "--data-dir", str(data_dir), *TRAIN_ARGS[:-2]]
        assert cli.main(common + ["--bundles-dir", str(tmp_path / "serial"),
                                  "--out-csv", str(tmp_path / "serial.csv")]) == 0
        script = ("import multiprocessing, sys\n"
                  "from latent_guard import cli\n"
                  "multiprocessing.set_start_method('spawn')\n"
                  "sys.exit(cli.main(sys.argv[1:]))\n")
        src = str(Path(cli.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        result = subprocess.run(
            [sys.executable, "-c", script, *common, "--bundles-dir", str(tmp_path / "spawned"),
             "--out-csv", str(tmp_path / "spawned.csv"), "--jobs", "2"],
            capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path},
        )
        assert result.returncode == 0 and result.stderr == "", result.stderr
        assert (tmp_path / "spawned.csv").read_bytes() == (tmp_path / "serial.csv").read_bytes()

    def test_invalid_config_is_usage_error(self, data_dir, tmp_path, capsys):
        code = cli.main(["sweep", "--class", "0", "--bottlenecks", "3",
                         "--seeds", "5", "--data-dir", str(data_dir),
                         "--bundles-dir", str(tmp_path / "b"),
                         "--out-csv", str(tmp_path / "c.csv"),
                         "--max-epochs", "2", "--patience", "2"])
        assert code == 1
        assert capsys.readouterr().err.startswith("error[usage]:")

    def test_usage_error_creates_no_bundles_dir(self, data_dir, tmp_path, capsys):
        bundles = tmp_path / "fresh" / "bundles"
        code = cli.main(["sweep", "--class", "0", "--bottlenecks", "0",
                         "--seeds", "5", "--data-dir", str(data_dir),
                         "--bundles-dir", str(bundles),
                         "--out-csv", str(tmp_path / "c.csv"), *TRAIN_ARGS[:4]])
        assert code == 1
        assert capsys.readouterr().err.startswith("error[usage]:")
        assert not (tmp_path / "fresh").exists()

    @pytest.mark.parametrize("grid", [
        ["--bottlenecks", "4", "--seeds", "-3"],    # negative seed
        ["--bottlenecks", ",", "--seeds", "5"],     # empty list
        ["--bottlenecks", "4", "--seeds", ","],
        ["--bottlenecks", "4,4", "--seeds", "5"],   # repeated value
        ["--bottlenecks", "4", "--seeds", "5,6,5"],
        ["--bottlenecks", "4,,8", "--seeds", "5"],  # empty item
        ["--bottlenecks", "4", "--seeds", "7,"],
    ], ids=["negative-seed", "no-bottlenecks", "no-seeds", "repeated-bottleneck",
            "repeated-seed", "empty-bottleneck-item", "empty-seed-item"])
    def test_bad_grid_is_usage_error_before_bundles_dir(self, data_dir, tmp_path,
                                                        capsys, grid):
        bundles = tmp_path / "fresh" / "bundles"
        code = cli.main(["sweep", "--class", "0", *grid, "--data-dir", str(data_dir),
                         "--bundles-dir", str(bundles), "--out-csv", str(tmp_path / "c.csv"),
                         *TRAIN_ARGS[:-2]])
        assert code == 1
        assert capsys.readouterr().err.startswith("error[usage]:")
        assert not (tmp_path / "fresh").exists()
        assert not (tmp_path / "c.csv").exists()

    @pytest.mark.parametrize("key, value", [("inlier_class", "0"), ("seed", 5.0),
                                            ("bottleneck_size", True)])
    def test_resume_with_mistyped_manifest_config_is_bundle_error(
            self, data_dir, swept_bundles, tmp_path, capsys, key, value):
        bundles = tmp_path / "bundles"
        shutil.copytree(swept_bundles, bundles)
        manifest_path = bundles / "class0_k3_seed5" / "manifest.json"
        manifest = json.loads(manifest_path.read_text())
        manifest["config"][key] = value
        manifest_path.write_text(json.dumps(manifest))
        code = cli.main(["sweep", "--class", "0", "--bottlenecks", "3", "--seeds", "5",
                         "--data-dir", str(data_dir), "--bundles-dir", str(bundles),
                         "--out-csv", str(tmp_path / "c.csv"), *TRAIN_ARGS[:-2], "--resume"])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error[bundle]:")
        assert f"manifest.json config {key} must be an integer" in err
        assert not (tmp_path / "c.csv").exists()

    @pytest.mark.parametrize("out_csv, bundles", [
        ("file/sweep.csv", "bundles"), ("dir", "bundles"), ("sweep.csv", "file/bundles"),
    ], ids=["csv-under-a-file", "csv-is-a-directory", "bundles-under-a-file"])
    def test_unwritable_output_is_usage_error_before_any_cell(self, data_dir, tmp_path,
                                                              monkeypatch, capsys,
                                                              out_csv, bundles):
        trained = []
        monkeypatch.setattr(cli, "_train_bundle", lambda *args: trained.append(args))
        (tmp_path / "file").write_text("not a directory\n")
        (tmp_path / "dir").mkdir()
        code = cli.main(["sweep", "--class", "0", "--bottlenecks", "3", "--seeds", "5",
                         "--data-dir", str(data_dir), "--bundles-dir", str(tmp_path / bundles),
                         "--out-csv", str(tmp_path / out_csv), *TRAIN_ARGS[:-2]])
        assert code == 1
        assert capsys.readouterr().err.startswith("error[usage]:")
        assert trained == []
        assert not (tmp_path / "bundles").exists()
        assert not (tmp_path / "sweep.csv").exists()

    def test_partial_failure_recorded_as_nan_rows(self, data_dir, tmp_path,
                                                  monkeypatch, capsys):
        real = cli._train_bundle

        def flaky(config, data_dir_, out):
            if config.bottleneck_size == 6:
                raise cli.CliError("train", "injected failure")
            return real(config, data_dir_, out)

        monkeypatch.setattr(cli, "_train_bundle", flaky)
        out_csv = tmp_path / "sweep.csv"
        code = cli.main(["sweep", "--class", "0", "--bottlenecks", "4,6",
                         "--seeds", "5", "--data-dir", str(data_dir),
                         "--bundles-dir", str(tmp_path / "bundles"),
                         "--out-csv", str(out_csv), *TRAIN_ARGS[:-2]])
        assert code == 0
        err = capsys.readouterr().err
        assert "error[sweep]" in err and "injected failure" in err
        lines = out_csv.read_text().strip().split("\n")
        nan_rows = [l for l in lines if l.endswith("nan,nan,nan,nan")]
        assert len(nan_rows) == 3
        assert len(lines) == 7


def _lgar_damage(damage):
    """Bytes -> bytes: ``damage(header, arrays)`` applied to a container."""
    def apply(data):
        header, arrays = serialization.decode_arrays(data)
        damage(header, arrays)
        return serialization.encode_arrays(header, arrays)
    return apply


def _json_damage(damage):
    """Bytes -> bytes: the JSON document ``damage(record)`` returns."""
    return lambda data: (json.dumps(damage(json.loads(data))) + "\n").encode()


def _set(key, value):
    return lambda record: {**record, key: value}


def _drop(key):
    return lambda record: {k: v for k, v in record.items() if k != key}


def _set_first(name, value):
    """Container damage: the first entry of array ``name`` becomes ``value``."""
    def damage(header, arrays):
        arrays[name].flat[0] = value
    return damage


def _manifest_files(update):
    return lambda manifest: {**manifest, "files": {**manifest["files"], **update}}


def _manifest_config(key, value):
    return lambda manifest: {**manifest, "config": {**manifest["config"], key: value}}


_DIGEST = "0" * 64
_DEEP_JSON = b"[" * 100000  # deeper than the JSON parser recurses

# (file, id, damage, the file the error names); a manifest case that changes
# the config's k is blamed on the checkpoint, which no longer matches it
MUTATIONS = [
    ("manifest.json", "drop-key", _json_damage(_drop("created_at")), None),
    ("manifest.json", "add-key", _json_damage(_set("extra", 1)), None),
    ("manifest.json", "int-digest", _json_damage(_manifest_files({"checkpoint.lgar": 5})), None),
    ("manifest.json", "name-outside-bundle", _json_damage(_manifest_files({"../x": _DIGEST})),
     None),
    ("manifest.json", "other-kind", _json_damage(_set("kind", "x")), None),
    ("manifest.json", "other-version", _json_damage(_set("format_version", 9)), None),
    ("manifest.json", "string-config", _json_damage(_manifest_config("seed", "5")), None),
    ("manifest.json", "non-finite-loss",
     _json_damage(lambda m: {**m, "train": {**m["train"], "best_val_loss": float("nan")}}), None),
    ("manifest.json", "change-k", _json_damage(_manifest_config("bottleneck_size", 4)),
     "checkpoint.lgar"),
    ("manifest.json", "huge-k", _json_damage(_manifest_config("bottleneck_size", 10**9)), None),
    ("manifest.json", "deep-nesting", lambda data: _DEEP_JSON, None),
    ("checkpoint.lgar", "drop-key", _lgar_damage(lambda h, a: h.pop("seed")), None),
    ("checkpoint.lgar", "add-key", _lgar_damage(lambda h, a: h.update(extra=1)), None),
    ("checkpoint.lgar", "drop-array", _lgar_damage(lambda h, a: a.pop("decoder.8.bias")), None),
    ("checkpoint.lgar", "add-array", _lgar_damage(lambda h, a: a.update(extra=np.zeros(2))),
     None),
    ("checkpoint.lgar", "string-seed", _lgar_damage(lambda h, a: h.update(seed="5")), None),
    ("checkpoint.lgar", "negative-seed", _lgar_damage(lambda h, a: h.update(seed=-1)), None),
    ("checkpoint.lgar", "other-seed", _lgar_damage(lambda h, a: h.update(seed=99)), None),
    ("checkpoint.lgar", "resize-array",
     _lgar_damage(lambda h, a: a.update({"decoder.5.bias": a["decoder.5.bias"][:-1]})), None),
    ("checkpoint.lgar", "change-k", _lgar_damage(lambda h, a: (
        h.update(bottleneck_size=4), a.update(Autoencoder(4, seed=5).named_parameters()))), None),
    ("checkpoint.lgar", "huge-k", _lgar_damage(lambda h, a: h.update(bottleneck_size=10**9)),
     None),
    ("checkpoint.lgar", "non-finite", _lgar_damage(_set_first("encoder.0.weight", np.inf)), None),
    ("checkpoint.lgar", "other-kind", _lgar_damage(lambda h, a: h.update(kind="x")), None),
    ("checkpoint.lgar", "other-version", _lgar_damage(lambda h, a: h.update(format_version=9)),
     None),
    ("latent_stats.lgar", "drop-array", _lgar_damage(lambda h, a: a.pop("jitter")), None),
    ("latent_stats.lgar", "add-array", _lgar_damage(lambda h, a: a.update(extra=np.zeros(2))),
     None),
    ("latent_stats.lgar", "add-key", _lgar_damage(lambda h, a: h.update(extra=1)), None),
    ("latent_stats.lgar", "vector-jitter",
     _lgar_damage(lambda h, a: a.update(jitter=np.zeros(2))), None),
    ("latent_stats.lgar", "resize-array",
     _lgar_damage(lambda h, a: a.update(mean=a["mean"][:-1])), None),
    ("latent_stats.lgar", "change-k",
     _lgar_damage(lambda h, a: a.update(serialization.decode_arrays(stats_of_k8())[1])), None),
    ("latent_stats.lgar", "scale-basis",
     _lgar_damage(lambda h, a: a.update(basis=2.0 * a["basis"])), None),
    ("latent_stats.lgar", "non-finite", _lgar_damage(_set_first("covariance", np.nan)), None),
    ("latent_stats.lgar", "huge-variances",
     _lgar_damage(lambda h, a: a.update(variances=1e300 * a["variances"])), None),
    ("latent_stats.lgar", "other-kind", _lgar_damage(lambda h, a: h.update(kind="x")), None),
    ("latent_stats.lgar", "other-version",
     _lgar_damage(lambda h, a: h.update(format_version=9)), None),
    ("calibration.json", "drop-key", _json_damage(_drop("alpha")), None),
    ("calibration.json", "add-key", _json_damage(_set("gamma", 1.0)), None),
    ("calibration.json", "string-weight", _json_damage(_set("beta", "2.0")), None),
    ("calibration.json", "json-list", _json_damage(lambda cal: list(cal.values())), None),
    ("calibration.json", "zero-weight", _json_damage(_set("alpha", 0.0)), None),
    ("calibration.json", "non-finite", _json_damage(_set("alpha", float("nan"))), None),
    ("calibration.json", "huge-weight", _json_damage(_set("alpha", 10**400)), None),
    ("calibration.json", "other-version", _json_damage(_set("format_version", 9)), None),
    ("calibration.json", "deep-nesting", lambda data: _DEEP_JSON, None),
    ("eval_LD.json", "drop-key", _json_damage(_drop("auroc")), None),
    ("eval_LD.json", "add-key", _json_damage(_set("tpr", 0.95)), None),
    ("eval_LD.json", "string-metric", _json_damage(_set("auroc", "0.99")), None),
    ("eval_LD.json", "json-list", _json_damage(lambda report: list(report.values())), None),
    ("eval_LD.json", "non-finite", _json_damage(_set("auroc", float("nan"))), None),
    ("eval_LD.json", "huge-metric", _json_damage(_set("fpr_at_95_tpr", 1e308)), None),
    ("eval_LD.json", "other-mode", _json_damage(_set("mode", "H")), None),
    ("eval_LD.json", "change-k", _json_damage(_set("bottleneck_size", 8)), None),
    ("eval_LD.json", "other-seed", _json_damage(_set("seed", 99)), None),
    ("eval_LD.json", "other-class", _json_damage(_set("inlier_class", 1)), None),
    ("eval_LD.json", "deep-nesting", lambda data: _DEEP_JSON, None),
]


class TestMutationCatalogue:
    """Each bundle file, damaged and its digest re-recorded, fails loudly.

    ``sweep --resume`` reads the model files only to evaluate a report the
    bundle lacks, so every case first drops ``eval_H.json``.  ``eval``
    never reads the eval reports, so their cases run only the resume.
    """

    @staticmethod
    def damaged_bundle(swept_bundles, root, name=None, damage=None):
        """A copy of the swept bundle under ``root`` without ``eval_H.json``,
        with ``damage`` applied to file ``name`` if one is given."""
        bundles = root / "bundles"
        shutil.copytree(swept_bundles, bundles)
        bundle = bundles / "class0_k3_seed5"
        (bundle / "eval_H.json").unlink()
        if name == "manifest.json":
            (bundle / name).write_bytes(damage((bundle / name).read_bytes()))
        elif name is not None:
            ExperimentBundle(bundle).record_file({name: damage((bundle / name).read_bytes())})
        return bundle

    @staticmethod
    def traced(argv):
        """(exit code, tracemalloc peak in bytes) of ``cli.main(argv)``."""
        tracemalloc.start()
        try:
            code = cli.main(argv)
            return code, tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    @staticmethod
    def eval_args(bundle, data_dir):
        return ["eval", "--bundle", str(bundle), "--data-dir", str(data_dir), "--mode", "H"]

    @staticmethod
    def resume_args(bundle, data_dir, out_csv):
        return ["sweep", "--class", "0", "--bottlenecks", "3", "--seeds", "5",
                "--data-dir", str(data_dir), "--bundles-dir", str(bundle.parent),
                "--out-csv", str(out_csv), *TRAIN_ARGS[:-2], "--resume"]

    @pytest.fixture(scope="class")
    def valid_peaks(self, data_dir, swept_bundles, tmp_path_factory):
        """Peaks of ``eval`` and of ``sweep --resume`` on undamaged copies."""
        eval_root, resume_root = (tmp_path_factory.mktemp(name) for name in ("eval", "resume"))
        eval_bundle = self.damaged_bundle(swept_bundles, eval_root)
        resume_bundle = self.damaged_bundle(swept_bundles, resume_root)
        runs = [self.traced(self.eval_args(eval_bundle, data_dir)),
                self.traced(self.resume_args(resume_bundle, data_dir, resume_root / "valid.csv"))]
        assert [code for code, _ in runs] == [0, 0]
        return [peak for _, peak in runs]

    @pytest.mark.parametrize("name, damage, blamed",
                             [(name, damage, blamed) for name, _, damage, blamed in MUTATIONS],
                             ids=[f"{name}-{case}" for name, case, _, _ in MUTATIONS])
    def test_damaged_file_fails_loudly(self, data_dir, swept_bundles, valid_peaks, tmp_path,
                                       capsys, name, damage, blamed):
        bundle = self.damaged_bundle(swept_bundles, tmp_path, name, damage)
        blamed = blamed or name
        capsys.readouterr()
        if not name.startswith("eval_"):
            code, peak = self.traced(self.eval_args(bundle, data_dir))
            err = capsys.readouterr().err
            assert code == 1 and err.startswith(f"error[bundle]: {blamed}"), err
            assert err.count("error[") == 1
            assert peak < valid_peaks[0], (peak, valid_peaks[0])

        code, peak = self.traced(self.resume_args(bundle, data_dir, tmp_path / "resume.csv"))
        err = capsys.readouterr().err
        if name == "manifest.json":
            assert code == 1 and err.startswith("error[bundle]: "), err
            assert not (tmp_path / "resume.csv").exists()
        else:
            assert code == 0 and f"error[sweep]: class=0 k=3 seed=5: {name}: " in err, err
            assert (tmp_path / "resume.csv").read_text().count("nan,nan,nan,nan") == 3
        assert peak < valid_peaks[1], (peak, valid_peaks[1])

    def test_manifest_that_is_not_json_names_the_file(self, data_dir, swept_bundles, tmp_path,
                                                       capsys):
        bundle = self.damaged_bundle(swept_bundles, tmp_path, "manifest.json",
                                     lambda data: b"not json\n")
        capsys.readouterr()
        assert cli.main(self.eval_args(bundle, data_dir)) == 1
        assert capsys.readouterr().err.startswith("error[bundle]: manifest.json is not JSON: ")
        assert cli.main(self.resume_args(bundle, data_dir, tmp_path / "resume.csv")) == 1
        assert capsys.readouterr().err.startswith(
            f"error[bundle]: cannot resume {bundle}: manifest.json is not JSON: ")


class TestPlot:
    def test_svg_is_strict_xml_with_expected_ranges(self, data_dir, trained_bundle,
                                                    tmp_path):
        cli.main(["eval", "--bundle", str(trained_bundle),
                  "--data-dir", str(data_dir), "--mode", "RE"])
        scores_csv = trained_bundle / "scores_RE.csv"
        out_svg = tmp_path / "scatter.svg"
        code = cli.main(["plot", "--scores-csv", str(scores_csv),
                         "--out-svg", str(out_svg)])
        assert code == 0
        root = ET.parse(out_svg).getroot()
        assert root.tag.endswith("svg")
        circles = [e for e in root.iter() if e.tag.endswith("circle")]
        assert len(circles) >= 300  # one per sample plus legend markers

        _, _, re, ld, _ = read_scores_csv(scores_csv)
        from latent_guard.plot import _axis_range, _fmt

        x0, x1 = _axis_range(re)
        text = out_svg.read_text()
        assert _fmt(x0) in text and _fmt(x1) in text

    def test_axis_range_margins(self):
        from latent_guard.plot import _axis_range

        lo, hi = _axis_range(np.array([1.0, 3.0]))
        assert (lo, hi) == (0.9, 3.1)  # 5% of the span on each side
        lo, hi = _axis_range(np.array([2.0, 2.0]))
        assert (lo, hi) == (1.5, 2.5)  # degenerate span widens by 0.5

    def test_single_class_plot_no_error(self, tmp_path):
        from latent_guard.novelty import write_scores_csv

        csv_path = tmp_path / "only-inliers.csv"
        with open(csv_path, "w", newline="") as f:
            write_scores_csv(f, [0, 1], [True, True], [0.1, 0.2], [1.0, 2.0], [1.1, 2.2])
        code = cli.main(["plot", "--scores-csv", str(csv_path),
                         "--out-svg", str(tmp_path / "one.svg")])
        assert code == 0
        ET.parse(tmp_path / "one.svg")

    def test_out_svg_under_a_file_is_plot_error(self, tmp_path, capsys):
        from latent_guard.novelty import write_scores_csv

        csv_path = tmp_path / "scores.csv"
        with open(csv_path, "w", newline="") as f:
            write_scores_csv(f, [0, 1], [True, False], [0.1, 0.2], [1.0, 2.0], [1.1, 2.2])
        (tmp_path / "file").write_text("not a directory\n")
        code = cli.main(["plot", "--scores-csv", str(csv_path),
                         "--out-svg", str(tmp_path / "file" / "x.svg")])
        assert code == 1
        assert capsys.readouterr().err.startswith("error[plot]: cannot write ")

    def test_malformed_csv_is_plot_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("definitely,not,scores\n")
        code = cli.main(["plot", "--scores-csv", str(bad),
                         "--out-svg", str(tmp_path / "x.svg")])
        assert code == 1
        assert capsys.readouterr().err.startswith("error[plot]:")


    def test_short_row_is_plot_error(self, tmp_path, capsys):
        bad = tmp_path / "short.csv"
        bad.write_text("sample_id,true_is_inlier,re,ld,hybrid\n0,1,0.5,1.0,1.5\n1,0,0.7\n")
        code = cli.main(["plot", "--scores-csv", str(bad),
                         "--out-svg", str(tmp_path / "x.svg")])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error[plot]:") and "line 3" in err
        assert not (tmp_path / "x.svg").exists()

    @pytest.mark.parametrize("row", ["0,1,nan,1.0,1.5", "0,1,0.5,inf,1.5", "0,1,0.5,1.0,-inf"])
    def test_non_finite_score_is_plot_error(self, tmp_path, capsys, row):
        bad = tmp_path / "nan.csv"
        bad.write_text(f"sample_id,true_is_inlier,re,ld,hybrid\n1,0,0.7,2.0,2.7\n{row}\n")
        code = cli.main(["plot", "--scores-csv", str(bad),
                         "--out-svg", str(tmp_path / "x.svg")])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error[plot]:") and "line 3" in err and "non-finite" in err
        assert not (tmp_path / "x.svg").exists()

    @pytest.mark.parametrize("label", ["2", "-1"])
    def test_label_other_than_0_or_1_is_plot_error(self, tmp_path, capsys, label):
        # taken as non-zero means inlier, such a row would be drawn green
        bad = tmp_path / "label.csv"
        bad.write_text(f"sample_id,true_is_inlier,re,ld,hybrid\n1,0,0.7,2.0,2.7\n"
                       f"0,{label},0.5,1.0,1.5\n")
        code = cli.main(["plot", "--scores-csv", str(bad),
                         "--out-svg", str(tmp_path / "x.svg")])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error[plot]:") and "line 3" in err and "true_is_inlier" in err
        assert not (tmp_path / "x.svg").exists()


class TestConsoleScript:
    def test_module_invocation_and_usage_exit_code(self):
        # the child must import the same package this process imported
        src = str(Path(cli.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        result = subprocess.run(
            [sys.executable, "-m", "latent_guard.cli", "train", "--class", "0",
             "--bottleneck", "0", "--seed", "1", "--out", "/tmp/never"],
            capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path},
        )
        assert result.returncode == 2
        assert "usage" in result.stderr.lower()
