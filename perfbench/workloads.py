"""One benchmark workload in a fresh interpreter.

Usage (from the checkout root, with ``src`` on PYTHONPATH and the BLAS
thread count already pinned in the environment; ``run.py`` does both):

    python3 perfbench/workloads.py --workload train --seed 1 --seconds 20 \
        --out .perfbench/train.json [--trace] [--overhead]

Each workload is a closed loop: one caller in one process, the next
repetition starting only when the previous one has returned.  Repetitions
continue while the next one is expected to end within ``--seconds``; at
least one always runs.  Set-up runs ``SETUP_REPEATS`` times and its median
is reported, so that work moved into set-up shows.

With ``--trace`` one further repetition runs under the span tracer and the
per-layer metrics are derived from its spans; ``--overhead`` adds one
untraced repetition right before it, so the traced minus untraced
end-to-end values give the tracing overhead.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import traceback
from pathlib import Path
from time import perf_counter

import numpy as np
import scipy

import latent_guard
from latent_guard import cli, latent_stats, metrics, novelty, trainer
from latent_guard.nn import optim

import inputs
import per_layer
from per_layer import tail
from tracer import SpanIndex, Tracer

SETUP_REPEATS = 5
REL_TOL = 1e-9
INLIER = 0
BATCH = 128

# train: one MNIST class (5923 class-0 training images), with the class-0
# share of MNIST's 10000-image validation split held out by train() itself.
TRAIN_IMAGES = 5923
TRAIN_VAL = 987
TRAIN_K = 16
# early stopping needs patience < max_epochs, so two epochs with patience 1
# is the shortest run it can never cut short
EPOCHS = 2
PATIENCE = 1

# score: k=784 is the paper's widest bottleneck; Dense(98->k) caps the rank
# of the latent covariance at 98, so the jitter ladder runs.
SCORE_K = 784
SCORE_MODEL_IMAGES = 384
SCORE_MODEL_VAL = 128
SCORE_FIT = 2000
SCORE_VAL = 500
SCORE_TEST = 10000
SCORE_ONLINE = 1000
SCORE_CHECK = 128  # first test images recomputed by the benchmark's own code
SCORE_MIN_AUROC = 0.9

# cli_sweep: two cells of one seed; the test split is sized so the three
# per-mode eval passes dominate a cell, as they do on MNIST.
SWEEP_TRAIN = 3000
SWEEP_TEST = 2500
SWEEP_VAL = 500
SWEEP_KS = (16, 784)
MODES = ("RE", "LD", "H")


def rel_err(a, b):
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    return float(np.max(np.abs(a - b) / np.maximum(np.abs(b), np.finfo(float).tiny)))


def mahalanobis_reference(a, d):
    """Distances sqrt(d_i^T a^-1 d_i) for the rows of ``d``, by a Cholesky
    solve in long double (64-bit mantissa on x86), so that the reference's
    own round-off stays far below the tolerance it is compared at even when
    ``a`` is ill-conditioned.  A float64 solve is not accurate enough there:
    at cond(a) ~ 4e10 two float64 solves differ from the exact value by up
    to 2e-8."""
    a = np.array(a, dtype=np.longdouble)
    n = len(a)
    chol = np.zeros_like(a)
    for j in range(n):
        chol[j:, j] = a[j:, j] / np.sqrt(a[j, j])
        a[j + 1:, j + 1:] -= np.outer(chol[j + 1:, j], chol[j + 1:, j])
    y = np.zeros((n, len(d)), dtype=np.longdouble)
    rhs = np.asarray(d, dtype=np.longdouble).T
    for i in range(n):
        y[i] = (rhs[i] - chol[i, :i] @ y[:i]) / chol[i, i]
    return np.sqrt(np.sum(y * y, axis=0)).astype(np.float64)


def ld_tolerance(cond):
    """REL_TOL, or the first-order accuracy limit of any backward-stable
    float64 solve, cond * eps, when the matrix is too ill-conditioned for
    REL_TOL to be reachable in float64 at all."""
    return max(REL_TOL, cond * np.finfo(np.float64).eps)


class StepClock:
    """Timestamps the end of every optimizer step, the one probe an untraced
    run installs.  It wraps the public ``Adadelta.step`` and changes no
    argument or result."""

    def __init__(self):
        self.ends = []

    def __enter__(self):
        self._original = optim.Adadelta.__dict__["step"]
        original, ends = self._original, self.ends

        def step(opt, grads):
            original(opt, grads)
            ends.append(perf_counter())

        optim.Adadelta.step = step
        return self

    def __exit__(self, *exc):
        optim.Adadelta.step = self._original

    def intervals(self, steps_per_epoch):
        """Step-end to step-end gaps, skipping each epoch's first step, whose
        gap would include the validation pass."""
        return [
            b - a for i, (a, b) in enumerate(zip(self.ends, self.ends[1:]), start=1)
            if i % steps_per_epoch
        ]


# ---------------------------------------------------------------------------
# train
# ---------------------------------------------------------------------------

class Train:
    name = "train"
    steps_per_epoch = math.ceil((TRAIN_IMAGES - TRAIN_VAL) / BATCH)

    def setup(self, seed, work):
        self.dataset = inputs.synthetic_digits(TRAIN_IMAGES, seed, n_classes=1)
        self.config = trainer.TrainConfig(
            inlier_class=INLIER, bottleneck_size=TRAIN_K, seed=seed,
            max_epochs=EPOCHS, patience=PATIENCE, batch_size=BATCH, val_size=TRAIN_VAL,
        )

    def run(self, tracer=None):
        with StepClock() as clock:
            t0 = perf_counter()
            _, record = trainer.train(self.config, self.dataset)
            wall = perf_counter() - t0
        return {
            "wall": wall,
            "steps": len(clock.ends),
            "step_intervals": clock.intervals(self.steps_per_epoch),
            "epochs": [(e.train_loss, e.val_loss) for e in record.epochs],
            "stop_reason": record.stop_reason,
            "best_val_loss": record.best_val_loss,
        }

    def operations(self, rep):
        return EPOCHS * self.steps_per_epoch, EPOCHS * self.steps_per_epoch - rep["steps"]

    def check(self, reps):
        """Yields one message per failed check."""
        first = reps[0]
        if len(first["epochs"]) != EPOCHS:
            yield f"ran {len(first['epochs'])} epochs, not {EPOCHS}"
        if first["stop_reason"] != trainer.STOP_MAX_EPOCHS:
            yield "early stopping cut the run short"
        if not first["best_val_loss"] < first["epochs"][0][0]:
            yield "validation loss not finite and below the first epoch's training loss"
        if any(rep["epochs"] != first["epochs"] for rep in reps[1:]):
            yield "repeated train() runs differ"

    def metrics(self, reps):
        walls = [r["wall"] for r in reps]
        images = EPOCHS * (TRAIN_IMAGES - TRAIN_VAL)
        steps = [s for r in reps for s in r["step_intervals"]]
        step_tail, pct, n = tail(steps)
        generic = {"images_per_s": images / statistics.median(walls)}
        named = {
            "train_images_per_s": (generic["images_per_s"], "images/s"),
            "train_step_ms_p50": (1e3 * statistics.median(steps), "ms"),
            f"train_step_ms_p{pct}": (1e3 * step_tail, "ms", {"samples": n}),
            "train_val_loss": (reps[0]["best_val_loss"], "bce"),
        }
        return generic, named

    def per_layer(self, tracer, rep):
        return per_layer.train(SpanIndex(tracer.spans), rep)


# ---------------------------------------------------------------------------
# score
# ---------------------------------------------------------------------------

class Score:
    name = "score"

    def setup(self, seed, work):
        model_data = inputs.synthetic_digits(SCORE_MODEL_IMAGES, [seed, 0], n_classes=1)
        self.fit_images = inputs.synthetic_digits(SCORE_FIT, [seed, 1], n_classes=1).images
        self.val_images = inputs.synthetic_digits(SCORE_VAL, [seed, 2], n_classes=1).images
        self.test = inputs.synthetic_digits(SCORE_TEST, [seed, 3])
        self.seed = seed
        config = trainer.TrainConfig(
            inlier_class=INLIER, bottleneck_size=SCORE_K, seed=seed,
            max_epochs=EPOCHS, patience=PATIENCE, batch_size=BATCH, val_size=SCORE_MODEL_VAL,
        )
        self.model, record = trainer.train(config, model_data)
        self.model_val_loss = record.best_val_loss

    def run(self, tracer=None):
        region = contextlib.nullcontext
        if tracer:
            region = tracer.region
            tracer.label_layers(self.model)
        model, test = self.model, self.test
        t_start = perf_counter()
        with region("bench.score.bulk"):
            t0 = perf_counter()
            stats = latent_stats.fit_gaussian(model.encode(self.fit_images))
            calibration = novelty.calibrate(model, stats, self.val_images)
            re, ld = novelty.features(model, stats, test.images)
            hybrid = calibration.alpha * ld + calibration.beta * re
            report = metrics.evaluate(
                metrics.ScoredSet(scores=hybrid, is_inlier=test.labels == INLIER),
                inlier_class=INLIER, bottleneck_size=SCORE_K, mode="H", seed=self.seed,
            )
            bulk = perf_counter() - t0
        latencies, online = [], []
        with region("bench.score.online"):
            for i in range(SCORE_ONLINE):
                x = test.images[i:i + 1]
                t0 = perf_counter()
                score = novelty.novelty_scores(model, stats, x, "H", calibration)
                latencies.append(perf_counter() - t0)
                online.append(float(score[0]))
        return {
            "wall": perf_counter() - t_start,
            "bulk": bulk,
            "latencies": latencies,
            "online": online,
            "auroc": report.auroc,
            "jitter": stats.jitter,
            "stats": stats,
            "re": re, "ld": ld, "hybrid": hybrid,
        }

    def operations(self, rep):
        return 1 + SCORE_ONLINE, 0

    def check(self, reps):
        """Yields one message per failed check."""
        first = reps[0]
        stats = first["stats"]
        x = self.test.images[:SCORE_CHECK]
        # RE: the benchmark's own per-sample BCE on reconstruct() output
        p = np.clip(self.model.reconstruct(x), 1e-7, 1.0 - 1e-7)
        bce = -(x * np.log(p) + (1.0 - x) * np.log1p(-p))
        re_own = bce.reshape(len(x), -1).mean(axis=1)
        err = rel_err(first["re"][:SCORE_CHECK], re_own)
        if not err <= REL_TOL:
            yield f"RE differs from the reference by {err:.3g} (relative)"
        # LD: an explicit solve against covariance + jitter * I, not the stored factor
        d = self.model.encode(x) - stats.mean
        a = stats.covariance + stats.jitter * np.eye(stats.dim)
        err = rel_err(first["ld"][:SCORE_CHECK], mahalanobis_reference(a, d))
        cond = np.linalg.cond(a)
        tol = ld_tolerance(cond)
        if not err <= tol:
            yield (f"LD differs from an explicit solve by {err:.3g} (relative), above "
                   f"{tol:.3g}; cond(covariance + jitter*I) = {cond:.3g}, "
                   f"jitter = {stats.jitter:g}")
        err = rel_err(first["online"], first["hybrid"][:SCORE_ONLINE])
        if not err <= REL_TOL:
            yield f"single-image H differs from bulk H by {err:.3g} (relative)"
        if not first["auroc"] >= SCORE_MIN_AUROC:
            yield f"AUROC of H {first['auroc']:.4f} < {SCORE_MIN_AUROC}"
        if any(not np.array_equal(rep["hybrid"], first["hybrid"]) for rep in reps[1:]):
            yield "repeated scoring differs"

    def metrics(self, reps):
        latencies = [s for r in reps for s in r["latencies"]]
        lat_tail, pct, n = tail(latencies)
        generic = {"images_per_s": SCORE_TEST / statistics.median(r["bulk"] for r in reps)}
        named = {
            "score_images_per_s": (generic["images_per_s"], "images/s"),
            "score_latency_ms_p50": (1e3 * statistics.median(latencies), "ms"),
            f"score_latency_ms_p{pct}": (1e3 * lat_tail, "ms", {"samples": n}),
            "score_auroc_H": (reps[0]["auroc"], "1"),
            "score_model_val_loss": (self.model_val_loss, "bce"),
        }
        return generic, named

    def per_layer(self, tracer, rep):
        return per_layer.score(SpanIndex(tracer.spans), rep, SCORE_VAL + SCORE_TEST)


# ---------------------------------------------------------------------------
# cli_sweep
# ---------------------------------------------------------------------------

class CliSweep:
    name = "cli_sweep"

    def setup(self, seed, work):
        self.seed = seed
        self.work = work
        self.data_dir = work / "data"
        inputs.write_idx_dir(
            self.data_dir,
            inputs.synthetic_digits(SWEEP_TRAIN, [seed, 10]),
            inputs.synthetic_digits(SWEEP_TEST, [seed, 11]),
        )
        self.reps_run = 0

    def _sweep_args(self, bundles, out_csv, resume):
        args = [
            "sweep", "--class", str(INLIER), "--bottlenecks", ",".join(map(str, SWEEP_KS)),
            "--seeds", str(self.seed), "--data-dir", str(self.data_dir),
            "--bundles-dir", str(bundles), "--out-csv", str(out_csv),
            "--max-epochs", str(EPOCHS), "--patience", str(PATIENCE),
            "--batch-size", str(BATCH), "--val-size", str(SWEEP_VAL), "--jobs", "1",
        ]
        return args + ["--resume"] if resume else args

    def run(self, tracer=None):
        rep_dir = self.work / f"rep{self.reps_run}"
        self.reps_run += 1
        bundles = rep_dir / "bundles"
        first_csv, resume_csv = rep_dir / "sweep.csv", rep_dir / "resume.csv"
        scores_csv = bundles / f"class{INLIER}_k{SWEEP_KS[0]}_seed{self.seed}" / "scores_H.csv"
        t0 = perf_counter()
        codes = [cli.main(self._sweep_args(bundles, first_csv, resume=False))]
        t1 = perf_counter()
        codes.append(cli.main(self._sweep_args(bundles, resume_csv, resume=True)))
        t2 = perf_counter()
        codes.append(cli.main(["plot", "--scores-csv", str(scores_csv),
                               "--out-svg", str(rep_dir / "scatter.svg")]))
        t3 = perf_counter()
        with open(first_csv, newline="") as f:
            rows = list(csv.reader(f))[1:]
        failed_cells = {(r[0], r[1], r[2]) for r in rows if "nan" in r}
        cell_dirs = sorted(p for p in bundles.iterdir() if p.is_dir())
        return {
            "wall": t3 - t0, "sweep": t1 - t0, "resume": t2 - t1, "plot": t3 - t2,
            "codes": codes, "rep_dir": rep_dir, "bundles": cell_dirs,
            "cells": len(SWEEP_KS), "cells_failed": len(failed_cells),
            "bundle_bytes": sum(f.stat().st_size for d in cell_dirs for f in d.iterdir()),
            "val_losses": [
                json.loads((d / "manifest.json").read_text())["train"]["best_val_loss"]
                for d in cell_dirs
            ],
        }

    def operations(self, rep):
        return rep["cells"], rep["cells_failed"]

    def check(self, reps):
        """Yields one message per failed check."""
        for rep in reps:
            rep_dir = rep["rep_dir"]
            if rep["codes"] != [0, 0, 0]:
                yield f"cli exit codes {rep['codes']}"
                continue
            if rep["cells_failed"]:
                yield f"{rep['cells_failed']} sweep cells failed"
            text = (rep_dir / "sweep.csv").read_bytes()
            if b"nan" in text or len(text.splitlines()) != 1 + len(SWEEP_KS) * len(MODES):
                yield "sweep CSV has nan rows or a wrong row count"
            if (rep_dir / "resume.csv").read_bytes() != text:
                yield "--resume CSV is not byte-identical to the first CSV"
            svg = (rep_dir / "scatter.svg").read_text()
            if "<svg" not in svg or not svg.rstrip().endswith("</svg>"):
                yield "plot wrote no SVG"
            if len(rep["bundles"]) != len(SWEEP_KS):
                yield "missing bundle directories"
            for cell in rep["bundles"]:
                config = json.loads((cell / "manifest.json").read_text())["config"]
                for mode in MODES:
                    yield from self._check_eval(cell, config, mode)

    @staticmethod
    def _check_eval(cell, config, mode):
        """eval_<MODE>.json must equal metrics.evaluate recomputed from the
        cell's scores_<MODE>.csv, read with the benchmark's own parser."""
        with open(cell / f"scores_{mode}.csv", newline="") as f:
            rows = list(csv.DictReader(f))
        column = {"RE": "re", "LD": "ld", "H": "hybrid"}[mode]
        scores = np.array([float(r[column]) for r in rows])
        is_inlier = np.array([r["true_is_inlier"] == "1" for r in rows])
        if not np.all(np.isfinite(scores)):
            yield f"{cell.name}: non-finite {mode} scores"
        expected = metrics.evaluate(
            metrics.ScoredSet(scores=scores, is_inlier=is_inlier),
            inlier_class=config["inlier_class"], bottleneck_size=config["bottleneck_size"],
            mode=mode, seed=config["seed"],
        )
        stored = json.loads((cell / f"eval_{mode}.json").read_text())
        if stored != json.loads(expected.to_json()):
            yield f"{cell.name}: eval_{mode}.json differs from its recomputation"

    def metrics(self, reps):
        wall = statistics.median(r["wall"] for r in reps)
        generic = {"images_per_s": len(SWEEP_KS) * SWEEP_TEST / wall}
        named = {
            "cli_sweep_s": (wall, "s"),
            "cli_sweep_cell_ms": (1e3 * statistics.median(r["sweep"] / r["cells"] for r in reps), "ms"),
            "cli_sweep_images_per_s": (generic["images_per_s"], "images/s"),
            "cli_sweep_val_loss": (statistics.fmean(reps[0]["val_losses"]), "bce"),
        }
        return generic, named

    def per_layer(self, tracer, rep):
        return per_layer.cli_sweep(SpanIndex(tracer.spans), rep, tracer.bytes_written)


WORKLOADS = {w.name: w for w in (Train, Score, CliSweep)}


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def environment():
    try:
        cpu = next(
            line.split(":", 1)[1].strip()
            for line in Path("/proc/cpuinfo").read_text().splitlines()
            if line.startswith("model name")
        )
    except (OSError, StopIteration):
        cpu = platform.processor() or "unknown"
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except Exception:  # show_config's layout is not a stable interface
        blas = "unknown"
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "blas": blas,
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
    }


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def measure(workload, seconds):
    """Repetitions until the next one would end after ``seconds``; returns
    them with the peak RSS after the first.  Later repetitions may grow the
    heap by fragmentation alone, and how many run depends on the machine's
    speed, so the peak is taken where every run has done the same work."""
    reps = []
    start = perf_counter()
    while True:
        t0 = perf_counter()
        reps.append(workload.run())
        took = perf_counter() - t0
        if len(reps) == 1:
            rss = peak_rss_mb()
        if perf_counter() - start + took > seconds:
            return reps, rss


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--overhead", action="store_true")
    args = parser.parse_args(argv)

    src = Path.cwd() / "src"
    if Path(latent_guard.__file__).resolve().parent != (src / "latent_guard").resolve():
        print(f"latent_guard imported from {latent_guard.__file__}, not {src}", file=sys.stderr)
        return 2

    out = Path(args.out)
    work = out.parent / f"work-{args.workload}-{os.getpid()}"
    workload = WORKLOADS[args.workload]()
    result = {"workload": args.workload, "seed": args.seed, "env": environment(),
              "correct": True, "failures": [], "attempted": 0, "failed": 0}
    try:
        setup_times = []
        for _ in range(SETUP_REPEATS):
            shutil.rmtree(work, ignore_errors=True)
            t0 = perf_counter()
            workload.setup(args.seed, work)
            setup_times.append(perf_counter() - t0)
        if args.trace:
            reps = [workload.run()] if args.overhead else []
            tracer = Tracer()
            with tracer.installed():
                traced = workload.run(tracer)
            rss = peak_rss_mb()
            tracer.write(out.with_suffix(".spans.jsonl"))
            result["per_layer"] = workload.per_layer(tracer, traced)
            result["spans"] = len(tracer.spans)
            reps.append(traced)
        else:
            reps, rss = measure(workload, args.seconds)
        for rep in reps:
            attempted, failed = workload.operations(rep)
            result["attempted"] += attempted
            result["failed"] += failed
        generic, named = workload.metrics(reps)
        if args.trace and args.overhead:
            untraced, _ = workload.metrics(reps[:1])
            traced_m, _ = workload.metrics(reps[1:])
            result["overhead"] = {k: traced_m[k] - untraced[k] for k in untraced}
            result["overhead"]["images_per_s_pct"] = (
                100.0 * (untraced["images_per_s"] / traced_m["images_per_s"] - 1.0))
        generic["setup_s"] = statistics.median(setup_times)
        generic["peak_rss_mb"] = rss
        named["rep_walls_s"] = [r["wall"] for r in reps]
        result["reps"] = len(reps)
        result["metrics"] = generic
        result["report"] = named
        result["failures"] = list(workload.check(reps))
        result["correct"] = not result["failures"]
    except Exception:
        result["correct"] = False
        result["failed"] = max(result["failed"], 1)
        result["attempted"] = max(result["attempted"], 1)
        result["failures"].append(traceback.format_exc())
    finally:
        shutil.rmtree(work, ignore_errors=True)
    out.write_text(json.dumps(result, indent=1, default=float))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
