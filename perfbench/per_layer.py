"""Per-layer metrics derived from one traced repetition of each workload.

Every metric is taken from one workload, the one whose end-to-end numbers
it should move (see perfbench/README.md).  Times are inclusive span
durations unless the name says ``self``.  A layer the program no longer
has reads 0, which is how a removed layer shows.
"""

from __future__ import annotations

import statistics

import numpy as np

ENCODER = ("Conv3x3", "ReLU", "MaxPool2x2", "Conv3x3", "ReLU", "MaxPool2x2", "Flatten", "Dense")
DECODER = ("Dense", "Reshape", "Conv3x3", "ReLU", "Upsample2x2", "Conv3x3", "ReLU",
           "Upsample2x2", "Conv3x3", "Sigmoid")
LAYERS = [f"enc{i}.{kind}" for i, kind in enumerate(ENCODER)] + [
    f"dec{i}.{kind}" for i, kind in enumerate(DECODER)
]


def tail(samples):
    """(value, percentile, sample count) at the highest whole percentile
    with at least ten samples above it."""
    xs = np.sort(np.asarray(samples))
    for pct in range(99, 0, -1):
        value = float(np.percentile(xs, pct))
        if np.count_nonzero(xs > value) >= 10:
            return value, pct, len(xs)
    return float(xs[-1]), 100, len(xs)


def _ms(seconds):
    return 1e3 * seconds


def train(index, rep):
    """Per optimizer step unless noted."""
    step_spans = index.select("nn.optim.Adadelta.step")
    steps = len(step_spans) or 1
    out = {}
    for layer in LAYERS:
        for phase in ("fwd", "bwd"):
            spans = index.select(f"nn.layers.{layer}.{phase}")
            out[f"nn.layers.{layer}.{phase}_ms"] = _ms(index.total(spans)) / steps

    def per_step(name):
        return _ms(index.total(index.select(name))) / steps

    val_passes = index.durations(index.select("trainer._objective_forward"))
    value, pct, _ = tail(rep["step_intervals"])
    out.update({
        "nn.losses.bce_and_grad_ms": per_step("nn.losses.bce_loss_and_grad"),
        "nn.losses.l1_penalty_ms": per_step("nn.losses.l1_penalty"),
        "nn.optim.adadelta_step_ms": per_step("nn.optim.Adadelta.step"),
        "autoencoder.forward_training_ms": per_step("autoencoder.Autoencoder.forward_training"),
        "autoencoder.backward_training_ms": per_step("autoencoder.Autoencoder.backward_training"),
        "trainer.step_ms_p50": _ms(statistics.median(rep["step_intervals"])),
        "trainer.step_ms_tail": _ms(value),
        "trainer.step_ms_tail_pct": pct,
        "trainer.val_pass_ms": _ms(statistics.fmean(val_passes)) if val_passes else 0.0,
        "trainer.self_ms": _ms(index.self_total(index.select("trainer.train"))) / steps,
        "trainer.steps": len(step_spans),
        "trainer.split_dataset_ms": _ms(index.total(index.select("trainer.split_dataset"))),
    })
    return out


def score(index, rep, scored_images):
    """Bulk phase per 1k images, except the whole-pass latent_stats times;
    online figures are medians over the single-image calls."""
    bulk = index.within("bench.score.bulk")
    online = index.within("bench.score.online")
    out = {}
    for layer in LAYERS:
        spans = index.select(f"nn.layers.{layer}.infer", among=bulk)
        images = sum(index.spans[i].n for i in spans)
        out[f"nn.layers.{layer}.infer_ms"] = (
            _ms(index.total(spans)) / (images / 1e3) if images else 0.0
        )

    def per_1k(name):
        return _ms(index.total(index.select(name, among=bulk))) / (scored_images / 1e3)

    online_maha = index.durations(index.select("latent_stats.mahalanobis_many", among=online))
    out.update({
        "nn.losses.bce_per_sample_ms": per_1k("nn.losses.bce_loss_per_sample"),
        "autoencoder.encode_and_re_ms": per_1k(
            "autoencoder.Autoencoder.encode_and_reconstruction_errors"),
        "latent_stats.fit_gaussian_ms": _ms(index.total(
            index.select("latent_stats.fit_gaussian", among=bulk))),
        "latent_stats.jitter": rep["jitter"],
        "latent_stats.mahalanobis_many_ms": _ms(index.total(
            index.select("latent_stats.mahalanobis_many", among=bulk))),
        "latent_stats.mahalanobis_online_us": (
            1e6 * statistics.median(online_maha) if online_maha else 0.0),
    })
    return out


def cli_sweep(index, rep, bytes_written):
    """Per sweep cell unless noted; counts too, so they compare across
    sweeps of any size."""
    cells = rep["cells"]

    def per_cell(name):
        return _ms(index.total(index.select(name))) / cells

    def calls(name):
        return len(index.select(name)) / cells

    loads = index.select(prefix="bundle.ExperimentBundle.load_")
    return {
        "novelty.features_ms": per_cell("novelty.features"),
        "novelty.features_calls": calls("novelty.features"),
        "novelty.calibrate_ms": per_cell("novelty.calibrate"),
        "novelty.write_scores_csv_ms": per_cell("novelty.write_scores_csv"),
        "novelty.write_scores_csv_calls": calls("novelty.write_scores_csv"),
        "novelty.read_scores_csv_ms": _ms(index.total(index.select("novelty.read_scores_csv"))),
        "metrics.evaluate_ms": per_cell("metrics.evaluate"),
        "metrics.evaluate_calls": calls("metrics.evaluate"),
        "data.load_mnist_split_ms": per_cell("data.load_mnist_split"),
        "data.load_mnist_split_calls": calls("data.load_mnist_split"),
        "data.filter_class_ms": per_cell("data.filter_class"),
        "serialization.write_arrays_ms": per_cell("serialization.write_arrays"),
        "serialization.read_arrays_ms": per_cell("serialization.read_arrays"),
        "serialization.bytes_written": bytes_written / cells,
        "bundle.create_ms": per_cell("bundle.ExperimentBundle.create"),
        "bundle.record_file_ms": per_cell("bundle.ExperimentBundle.record_file"),
        "bundle.record_file_calls": calls("bundle.ExperimentBundle.record_file"),
        "bundle.load_ms": _ms(index.total(loads)) / cells,
        "bundle.bytes": rep["bundle_bytes"] / cells,
        "cli.self_ms": _ms(index.self_total(index.select(prefix="cli."))),
        "cli.resume_s": rep["resume"],
        "cli.cells_failed": rep["cells_failed"],
        "plot.write_scatter_svg_ms": _ms(index.total(index.select("plot.write_scatter_svg"))),
    }
