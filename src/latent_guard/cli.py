"""Command-line orchestration: train, eval, sweep, plot.

Usage errors exit with code 2 (argparse); every runtime failure exits
nonzero after printing a single machine-readable line to stderr of the
form ``error[<code>]: message`` with code in {usage, data, train, bundle,
eval, plot, internal}.  Seeds are mandatory so every run is reproducible;
the --data-dir flag falls back to the LATENT_GUARD_DATA_DIR environment
variable.
"""

from __future__ import annotations

import argparse
import csv
import io
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import numpy as np

from latent_guard import novelty
from latent_guard.bundle import ExperimentBundle, TRAIN_LOG_FILE
from latent_guard.data import load_mnist_split
from latent_guard.latent_stats import fit_gaussian
from latent_guard.metrics import EvalReport, ScoredSet, evaluate
from latent_guard.novelty import MODES
from latent_guard.plot import write_scatter_svg
from latent_guard.trainer import TrainConfig, inlier_split, train

DATA_DIR_ENV = "LATENT_GUARD_DATA_DIR"

SWEEP_CSV_HEADER = ["class", "k", "seed", "mode", "fpr95", "auroc", "aupr_in", "aupr_out"]


class CliError(Exception):
    def __init__(self, code: str, message: str):
        self.code = code
        self.message = message
        super().__init__(code, message)  # args survive pickling across processes

    def __str__(self) -> str:
        return self.message


# ---------------------------------------------------------------------------
# argument helpers
# ---------------------------------------------------------------------------

def _positive_int(text):
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {text}")
    return value


def _digit(text):
    value = int(text)
    if not 0 <= value <= 9:
        raise argparse.ArgumentTypeError(f"must be a digit 0-9, got {text}")
    return value


def _int_list(text):
    try:
        return [int(part) for part in text.split(",") if part]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(
            f"expected comma-separated integers, got {text!r}"
        ) from exc


def _resolve_data_dir(args) -> Path:
    if args.data_dir:
        return Path(args.data_dir)
    env = os.environ.get(DATA_DIR_ENV)
    if env:
        return Path(env)
    raise CliError("data", f"no data directory: pass --data-dir or set {DATA_DIR_ENV}")


def _load_split(data_dir, split):
    try:
        return load_mnist_split(data_dir, split)
    except (OSError, ValueError) as exc:  # missing file, IdxFormatError, empty split
        raise CliError("data", str(exc)) from exc


def _add_common_train_flags(sub):
    sub.add_argument("--class", dest="inlier_class", type=_digit, required=True,
                     help="inlier digit class 0-9")
    sub.add_argument("--data-dir", help=f"MNIST IDX directory (default: ${DATA_DIR_ENV})")
    sub.add_argument("--max-epochs", type=_positive_int, default=500)
    sub.add_argument("--patience", type=_positive_int, default=20)
    sub.add_argument("--batch-size", type=_positive_int, default=128)
    sub.add_argument("--val-size", type=_positive_int, default=10000)
    sub.add_argument("--l1-lambda", type=float, default=1e-5)


def _train_config(args, bottleneck, seed) -> TrainConfig:
    try:
        return TrainConfig(
            inlier_class=args.inlier_class,
            bottleneck_size=bottleneck,
            seed=seed,
            max_epochs=args.max_epochs,
            patience=args.patience,
            batch_size=args.batch_size,
            val_size=args.val_size,
            l1_lambda=args.l1_lambda,
        )
    except ValueError as exc:
        raise CliError("usage", f"invalid configuration: {exc}") from exc


# ---------------------------------------------------------------------------
# pipeline stages shared by train/eval/sweep
# ---------------------------------------------------------------------------

def _train_bundle(config: TrainConfig, data_dir: Path, out: Path) -> ExperimentBundle:
    train_full = _load_split(data_dir, "train")
    try:
        model, record = train(config, train_full)
        train_inliers, val_inliers = inlier_split(config, train_full)
        stats = fit_gaussian(model.encode(train_inliers.images))
        calibration = novelty.calibrate(model, stats, val_inliers.images)
    except (ValueError, FloatingPointError) as exc:
        raise CliError("train", str(exc)) from exc
    try:
        return ExperimentBundle.create(out, model, stats, calibration, record, config)
    except (FileExistsError, OSError) as exc:
        raise CliError("bundle", str(exc)) from exc


def _evaluate_bundle(bundle: ExperimentBundle, test_set, modes) -> dict:
    """Scores the MNIST test protocol once and writes each mode's eval
    artifacts into the bundle; returns ``{mode: EvalReport}``."""
    try:
        config = bundle.config()
        model = bundle.load_model()
        stats = bundle.load_stats()
        calibration = bundle.load_calibration()
    except (OSError, ValueError) as exc:  # missing file, digest mismatch, bad container
        raise CliError("bundle", str(exc)) from exc

    re, ld = novelty.features(model, stats, test_set.images)
    is_inlier = test_set.labels == config["inlier_class"]
    scores = dict(zip(MODES, (re, ld, calibration.alpha * ld + calibration.beta * re)))
    scores_csv = io.StringIO()
    novelty.write_scores_csv(scores_csv, np.arange(len(re)), is_inlier, re, ld,
                             scores[novelty.MODE_HYBRID])
    reports, files = {}, {}
    for mode in modes:
        reports[mode] = evaluate(
            ScoredSet(scores=scores[mode], is_inlier=is_inlier),
            inlier_class=config["inlier_class"],
            bottleneck_size=config["bottleneck_size"],
            mode=mode,
            seed=config["seed"],
        )
        files[bundle.eval_report_path(mode).name] = (reports[mode].to_json() + "\n").encode()
        files[bundle.scores_csv_path(mode).name] = scores_csv.getvalue().encode()
    bundle.record_file(files)
    return reports


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_train(args) -> int:
    data_dir = _resolve_data_dir(args)
    config = _train_config(args, args.bottleneck, args.seed)
    bundle = _train_bundle(config, data_dir, Path(args.out))
    manifest = bundle.manifest()
    print(f"bundle written to {bundle.path}")
    print(f"  best_epoch={manifest['train']['best_epoch']} "
          f"stop_reason={manifest['train']['stop_reason']} "
          f"epochs_run={manifest['train']['epochs_run']}")
    return 0


def cmd_eval(args) -> int:
    data_dir = _resolve_data_dir(args)
    bundle = ExperimentBundle(Path(args.bundle))
    if not (bundle.path / TRAIN_LOG_FILE).exists():
        raise CliError("bundle", f"not a complete bundle: {bundle.path}")
    test_set = _load_split(data_dir, "t10k")
    try:
        report = _evaluate_bundle(bundle, test_set, [args.mode])[args.mode]
    except ValueError as exc:
        raise CliError("eval", str(exc)) from exc
    print(report.to_json())
    return 0


def _sweep_one(task: dict):
    """Worker for one (class, bottleneck, seed) sweep cell; returns CSV rows."""
    bundle_path = Path(task["bundle_path"])
    config = task["config"]
    data_dir = Path(task["data_dir"])
    if not bundle_path.exists():
        _train_bundle(config, data_dir, bundle_path)
    bundle = ExperimentBundle(bundle_path)
    reports = {
        mode: EvalReport.from_json(bundle.eval_report_path(mode).read_text())
        for mode in MODES
        if task["resume"] and bundle.eval_report_path(mode).exists()
    }
    missing = [mode for mode in MODES if mode not in reports]
    if missing:
        reports.update(_evaluate_bundle(bundle, _load_split(data_dir, "t10k"), missing))
    return [
        [config.inlier_class, config.bottleneck_size, config.seed, mode,
         repr(reports[mode].fpr_at_95_tpr), repr(reports[mode].auroc),
         repr(reports[mode].aupr_in), repr(reports[mode].aupr_out)]
        for mode in MODES
    ]


def cmd_sweep(args) -> int:
    data_dir = _resolve_data_dir(args)
    bundles_dir = Path(args.bundles_dir)
    tasks = []
    for k in args.bottlenecks:
        for seed in args.seeds:
            config = _train_config(args, k, seed)
            name = f"class{config.inlier_class}_k{k}_seed{seed}"
            if (bundles_dir / name).exists() and not args.resume:
                raise CliError(
                    "bundle", f"bundle already exists (use --resume): {bundles_dir / name}"
                )
            tasks.append({
                "config": config,
                "bundle_path": str(bundles_dir / name),
                "data_dir": str(data_dir),
                "resume": args.resume,
            })
    bundles_dir.mkdir(parents=True, exist_ok=True)

    outcomes = []
    if args.jobs > 1:
        with ProcessPoolExecutor(max_workers=args.jobs) as pool:
            futures = [pool.submit(_sweep_one, t) for t in tasks]
            for future in futures:
                try:
                    outcomes.append(future.result())
                except Exception as exc:  # partial failure: record, keep sweeping
                    outcomes.append(exc)
    else:
        for task in tasks:
            try:
                outcomes.append(_sweep_one(task))
            except Exception as exc:
                outcomes.append(exc)

    rows = []
    failures = 0
    for task, outcome in zip(tasks, outcomes):
        cfg = task["config"]
        if isinstance(outcome, Exception):
            failures += 1
            print(
                f"error[sweep]: class={cfg.inlier_class} k={cfg.bottleneck_size} "
                f"seed={cfg.seed}: {outcome}",
                file=sys.stderr,
            )
            rows.extend(
                [cfg.inlier_class, cfg.bottleneck_size, cfg.seed, mode,
                 "nan", "nan", "nan", "nan"]
                for mode in MODES
            )
        else:
            rows.extend(outcome)

    out_csv = Path(args.out_csv)
    out_csv.parent.mkdir(parents=True, exist_ok=True)
    with open(out_csv, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(SWEEP_CSV_HEADER)
        writer.writerows(rows)
    print(f"sweep CSV written to {out_csv} ({len(rows)} rows, {failures} failed configs)")
    return 0


def cmd_plot(args) -> int:
    try:
        _, is_inlier, re, ld, _ = novelty.read_scores_csv(args.scores_csv)
    except (OSError, ValueError) as exc:
        raise CliError("plot", f"malformed scores CSV: {exc}") from exc
    out = Path(args.out_svg)
    out.parent.mkdir(parents=True, exist_ok=True)
    write_scatter_svg(out, re, ld, is_inlier)
    print(f"scatter written to {out}")
    return 0


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="latent-guard",
        description="Hybrid autoencoder/Mahalanobis out-of-distribution detection",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_train = sub.add_parser("train", help="train one configuration into a bundle")
    _add_common_train_flags(p_train)
    p_train.add_argument("--seed", type=int, required=True, help="master seed for the run")
    p_train.add_argument("--bottleneck", type=_positive_int, required=True,
                         help="bottleneck size k (>= 1)")
    p_train.add_argument("--out", required=True, help="bundle directory to create")
    p_train.set_defaults(func=cmd_train)

    p_eval = sub.add_parser("eval", help="evaluate a bundle on the MNIST test split")
    p_eval.add_argument("--bundle", required=True)
    p_eval.add_argument("--data-dir", help=f"MNIST IDX directory (default: ${DATA_DIR_ENV})")
    p_eval.add_argument("--mode", choices=MODES, required=True)
    p_eval.set_defaults(func=cmd_eval)

    p_sweep = sub.add_parser("sweep", help="train/evaluate a grid of configurations")
    _add_common_train_flags(p_sweep)
    p_sweep.add_argument("--bottlenecks", type=_int_list, required=True,
                         help="comma-separated bottleneck sizes")
    p_sweep.add_argument("--seeds", type=_int_list, required=True,
                         help="comma-separated seeds")
    p_sweep.add_argument("--bundles-dir", required=True)
    p_sweep.add_argument("--out-csv", required=True)
    p_sweep.add_argument("--jobs", type=_positive_int, default=1)
    p_sweep.add_argument("--resume", action="store_true",
                         help="skip cells whose bundles/reports already exist")
    p_sweep.set_defaults(func=cmd_sweep)

    p_plot = sub.add_parser("plot", help="SVG scatter from a scores CSV")
    p_plot.add_argument("--scores-csv", required=True)
    p_plot.add_argument("--out-svg", required=True)
    p_plot.set_defaults(func=cmd_plot)

    return parser


def main(argv=None) -> int:
    from latent_guard.trainer import tune_allocator

    tune_allocator()
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except CliError as exc:
        print(f"error[{exc.code}]: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # anything unexpected still exits nonzero, one line
        print(f"error[internal]: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
