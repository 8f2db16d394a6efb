"""End-to-end CLI runs against a small synthetic IDX data directory."""

import json
import os
import shutil
import struct
import subprocess
import sys
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np
import pytest

from latent_guard import cli
from latent_guard.bundle import ExperimentBundle
from latent_guard.data import IDX_IMAGE_MAGIC, write_idx_images, write_idx_labels
from latent_guard.metrics import EvalReport, ScoredSet, auroc, fpr_at_tpr
from latent_guard.novelty import read_scores_csv

from conftest import synthetic_digits

TEST_SIZE = 300

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

    def test_existing_bundle_is_bundle_error(self, data_dir, trained_bundle, capsys):
        code = cli.main(["train", "--class", "0", "--bottleneck", "4",
                         "--data-dir", str(data_dir), "--out", str(trained_bundle),
                         *TRAIN_ARGS])
        assert code == 1
        assert capsys.readouterr().err.startswith("error[bundle]:")


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

    def test_malformed_csv_is_plot_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("definitely,not,scores\n")
        code = cli.main(["plot", "--scores-csv", str(bad),
                         "--out-svg", str(tmp_path / "x.svg")])
        assert code == 1
        assert capsys.readouterr().err.startswith("error[plot]:")


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
