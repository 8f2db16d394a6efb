"""Command-line orchestration: train, eval, sweep, plot.

Usage errors exit with code 2 (argparse); every runtime failure exits
nonzero after printing a single machine-readable line to stderr of the
form ``error[<code>]: message`` with code in {usage, data, train, bundle,
eval, plot, internal}.  Seeds are mandatory so every run is reproducible;
the --data-dir flag falls back to the LATENT_GUARD_DATA_DIR environment
variable, and the training recipe's flags default to ``TrainConfig``'s.

``sweep`` runs each cell of its grid (k outer, seed inner) in this process,
or with ``--jobs N`` in a pool of at most one process per cell.  A cell that
fails writes nan rows and one ``error[sweep]`` line; the others still run.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import io
import itertools
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import MISSING, asdict, fields
from functools import partial
from pathlib import Path

import numpy as np

from latent_guard import novelty
from latent_guard.autoencoder import tune_allocator
from latent_guard.bundle import CALIBRATION_FILE, ExperimentBundle
from latent_guard.data import load_mnist_split
from latent_guard.latent_stats import fit_gaussian
from latent_guard.metrics import ScoredSet, evaluate
from latent_guard.novelty import MODES
from latent_guard.plot import write_scatter_svg
from latent_guard.trainer import MAX_BOTTLENECK, TrainConfig, inlier_indices, train_on_rows

DATA_DIR_ENV = "LATENT_GUARD_DATA_DIR"

# the training recipe's flags, each defaulting to its ``TrainConfig`` field
_RECIPE_DEFAULTS = {f.name: f.default for f in fields(TrainConfig) if f.default is not MISSING}

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


def _int_list(flag, text):
    """Values of a comma-separated grid flag; an empty item (``4,,8``) is an error."""
    try:
        values = [int(part) for part in text.split(",")]
    except ValueError as exc:
        raise CliError("usage", f"{flag} expects comma-separated integers, got {text!r}") from exc
    if len(set(values)) < len(values):
        raise CliError("usage", f"{flag} repeats a value: {text!r}")
    return values


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
    for name, default in _RECIPE_DEFAULTS.items():
        sub.add_argument(f"--{name.replace('_', '-')}", type=_positive_int, default=default)


def _train_config(args, bottleneck, seed) -> TrainConfig:
    try:
        return TrainConfig(inlier_class=args.inlier_class, bottleneck_size=bottleneck, seed=seed,
                           **{name: getattr(args, name) for name in _RECIPE_DEFAULTS})
    except ValueError as exc:
        raise CliError("usage", f"invalid configuration: {exc}") from exc


# ---------------------------------------------------------------------------
# pipeline stages shared by train/eval/sweep
# ---------------------------------------------------------------------------

def _train_bundle(config: TrainConfig, data_dir: Path, out: Path) -> ExperimentBundle:
    train_full = _load_split(data_dir, "train")
    try:
        train_rows, val_rows = inlier_indices(config, train_full.labels)
        model, record = train_on_rows(config, train_full.images, train_rows, val_rows)
        stats = fit_gaussian(model.encode(train_full.images[train_rows]))
        calibration = novelty.calibrate(model, stats, train_full.images[val_rows])
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
    with np.errstate(over="ignore"):  # an overflow is refused below, by name
        scores = {mode: novelty._combine(re, ld, mode, calibration) for mode in MODES}
    if not np.isfinite(scores[novelty.MODE_HYBRID]).all():
        raise ValueError(f"{CALIBRATION_FILE}: its weights overflow the hybrid scores")
    scores_csv = io.StringIO()
    novelty.write_scores_csv(scores_csv, np.arange(len(re)), is_inlier, re, ld,
                             scores[novelty.MODE_HYBRID])
    reports = {}
    for mode in modes:
        reports[mode] = evaluate(
            ScoredSet(scores=scores[mode], is_inlier=is_inlier),
            inlier_class=config["inlier_class"],
            bottleneck_size=config["bottleneck_size"],
            mode=mode,
            seed=config["seed"],
        )
    bundle.record_eval(reports, scores_csv.getvalue().encode())
    return reports


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def _create_output_dirs(*dirs) -> None:
    """Creates the directories outputs go into before any training, so an
    output path under a regular file is a usage error that wastes no epoch."""
    try:
        for d in dirs:
            d.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise CliError("usage", f"cannot create an output directory: {exc}") from exc


def cmd_train(args) -> int:
    data_dir = _resolve_data_dir(args)
    config = _train_config(args, args.bottleneck, args.seed)
    out = Path(args.out)
    # checked again, against races, when the bundle is created
    if out.exists():
        raise CliError("bundle", f"bundle path already exists: {out}")
    _create_output_dirs(out.parent)
    bundle = _train_bundle(config, data_dir, out)
    manifest = bundle.manifest()
    print(f"bundle written to {bundle.path}")
    print(f"  best_epoch={manifest['train']['best_epoch']} "
          f"stop_reason={manifest['train']['stop_reason']} "
          f"epochs_run={manifest['train']['epochs_run']}")
    return 0


def cmd_eval(args) -> int:
    data_dir = _resolve_data_dir(args)
    bundle = ExperimentBundle(Path(args.bundle))
    test_set = _load_split(data_dir, "t10k")
    try:
        report = _evaluate_bundle(bundle, test_set, [args.mode])[args.mode]
    except ValueError as exc:
        raise CliError("eval", str(exc)) from exc
    print(report.to_json())
    return 0


def _check_resumable(bundle: ExperimentBundle, config: TrainConfig) -> None:
    """Fails unless ``bundle`` was trained with ``config`` (its ``TrainConfig`` fields)."""
    try:
        recorded = bundle.config()
    except (OSError, ValueError) as exc:
        raise CliError("bundle", f"cannot resume {bundle.path}: {exc}") from exc
    differing = ", ".join(f"{key} (bundle {recorded.get(key)!r}, requested {value!r})"
                          for key, value in asdict(config).items() if recorded.get(key) != value)
    if differing:
        raise CliError("bundle", f"cannot resume {bundle.path}: config differs in {differing}")


def _sweep_one(config: TrainConfig, bundle_path: Path, data_dir: Path) -> dict:
    """Runs one sweep cell, training its bundle unless one exists (under
    --resume) and evaluating any mode it lacks; returns ``{mode: EvalReport}``."""
    if not bundle_path.exists():
        _train_bundle(config, data_dir, bundle_path)
    bundle = ExperimentBundle(bundle_path)
    reports = bundle.eval_reports()
    missing = [mode for mode in MODES if mode not in reports]
    if missing:
        reports.update(_evaluate_bundle(bundle, _load_split(data_dir, "t10k"), missing))
    return reports


def _sweep_rows(config: TrainConfig, reports) -> list:
    """The cell's CSV rows, one per mode; a failed cell (``reports`` None) reads nan."""
    return [[config.inlier_class, config.bottleneck_size, config.seed, mode,
             *(repr(getattr(reports[mode], metric)) if reports else "nan"
               for metric in ("fpr_at_95_tpr", "auroc", "aupr_in", "aupr_out"))]
            for mode in MODES]


def cmd_sweep(args) -> int:
    data_dir = _resolve_data_dir(args)
    bundles_dir = Path(args.bundles_dir)
    ks, seeds = _int_list("--bottlenecks", args.bottlenecks), _int_list("--seeds", args.seeds)
    cells = []
    for k, seed in itertools.product(ks, seeds):
        config = _train_config(args, k, seed)
        path = bundles_dir / f"class{config.inlier_class}_k{k}_seed{seed}"
        if path.exists():
            if not args.resume:
                raise CliError("bundle", f"bundle already exists (use --resume): {path}")
            _check_resumable(ExperimentBundle(path), config)
        cells.append((config, path, data_dir))
    # the CSV is written after every cell has run, so its place is checked first
    out_csv = Path(args.out_csv)
    if out_csv.is_dir():
        raise CliError("usage", f"--out-csv is a directory: {out_csv}")
    _create_output_dirs(out_csv.parent, bundles_dir)

    rows, failures = [], 0
    workers = min(args.jobs, len(cells))  # a single worker is this process
    with (ProcessPoolExecutor(workers) if workers > 1 else contextlib.nullcontext()) as pool:
        # each cell's outcome, in grid order: a pool worker's result or a call here
        outcomes = [pool.submit(_sweep_one, *cell).result if pool else partial(_sweep_one, *cell)
                    for cell in cells]
        for (config, _, _), outcome in zip(cells, outcomes):
            try:
                reports = outcome()
            except Exception as exc:  # partial failure: record, keep sweeping
                failures += 1
                reports = None
                print(f"error[sweep]: class={config.inlier_class} k={config.bottleneck_size} "
                      f"seed={config.seed}: {exc}", file=sys.stderr)
            rows += _sweep_rows(config, reports)

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
    try:
        out.parent.mkdir(parents=True, exist_ok=True)
        write_scatter_svg(out, re, ld, is_inlier)
    except OSError as exc:
        raise CliError("plot", f"cannot write {out}: {exc}") from exc
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
                         help=f"bottleneck size k (1-{MAX_BOTTLENECK})")
    p_train.add_argument("--out", required=True, help="bundle directory to create")
    p_train.set_defaults(func=cmd_train)

    p_eval = sub.add_parser("eval", help="evaluate a bundle on the MNIST test split")
    p_eval.add_argument("--bundle", required=True)
    p_eval.add_argument("--data-dir", help=f"MNIST IDX directory (default: ${DATA_DIR_ENV})")
    p_eval.add_argument("--mode", choices=MODES, required=True)
    p_eval.set_defaults(func=cmd_eval)

    p_sweep = sub.add_parser("sweep", help="train/evaluate a grid of configurations")
    _add_common_train_flags(p_sweep)
    p_sweep.add_argument("--bottlenecks", required=True,
                         help="comma-separated bottleneck sizes")
    p_sweep.add_argument("--seeds", required=True, help="comma-separated seeds")
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
