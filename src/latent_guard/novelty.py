"""Novelty scoring: reconstruction error, latent distance, and their mix.

The hybrid score of a sample x is

    novelty(x) = alpha * D(E(x)) + beta * err(x)

where D is the Mahalanobis distance of the embedding from the fitted
training Gaussian, err is the per-sample reconstruction error, and the
mixing weights are the reciprocal standard deviations of each feature over
a validation set of inliers, so neither super-feature dominates.  Higher
score = more novel.

Any model exposing ``encode_and_reconstruction_errors(x, latent) ->
(latent(z) [N], err [N])`` works here, where ``latent`` maps embeddings
z [c, k] to one value per row; the trained autoencoder does, and so do the
analytic projection codecs the tests score the paper's Figure-2 geometry
with.  ``features`` passes the Mahalanobis distance as ``latent``: the
autoencoder computes it per inference chunk, on the thread that encoded
the chunk, so no [N, k] embedding matrix is ever held.  Distances are
per-row, so the values equal those of one bulk call on all embeddings.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, asdict

import numpy as np

from latent_guard import serialization
from latent_guard.latent_stats import GaussianStats, mahalanobis_many

MODE_RECONSTRUCTION = "RE"
MODE_LATENT_DISTANCE = "LD"
MODE_HYBRID = "H"
MODES = (MODE_RECONSTRUCTION, MODE_LATENT_DISTANCE, MODE_HYBRID)

CALIBRATION_VERSION = 1

# the calibration file's declared table, besides its format_version
_CALIBRATION = dict.fromkeys(("alpha", "beta", "val_dm_std", "val_re_std"), serialization.POSITIVE)


@dataclass(frozen=True)
class NoveltyCalibration:
    """Mixing weights plus the validation standard deviations behind them."""

    alpha: float
    beta: float
    val_dm_std: float
    val_re_std: float

    def __post_init__(self):
        serialization.check_record(vars(self), _CALIBRATION, "calibration")

    def to_json(self) -> str:
        payload = {"format_version": CALIBRATION_VERSION, **asdict(self)}
        return json.dumps(payload, sort_keys=True)

    @classmethod
    def from_json(cls, text, **bound) -> "NoveltyCalibration":
        record = serialization.decode_json(text, "calibration")
        serialization.check_record(record, _CALIBRATION, "calibration", CALIBRATION_VERSION,
                                   **bound)
        return cls(**{name: record[name] for name in _CALIBRATION})


def features(model, stats: GaussianStats, images) -> tuple[np.ndarray, np.ndarray]:
    """Per-sample (reconstruction error, latent distance) over a batch."""
    # the lambda looks ``mahalanobis_many`` up at call time, so a wrapper
    # installed on this module's name (e.g. a tracer) sees every chunk
    ld, re = model.encode_and_reconstruction_errors(
        images, latent=lambda z: mahalanobis_many(stats, z))
    return re, ld


def calibrate(model, stats: GaussianStats, val_inliers) -> NoveltyCalibration:
    """Fits mixing weights on validation inliers.

    Standard deviations use the population convention (divisor n); any
    consistent convention merely rescales both weights together, which
    leaves hybrid rankings unchanged.
    """
    if len(val_inliers) < 2:
        raise ValueError(f"need at least 2 validation inliers, got {len(val_inliers)}")
    re, ld = features(model, stats, val_inliers)
    dm_std = float(ld.std())
    re_std = float(re.std())
    if dm_std == 0.0 or re_std == 0.0:
        raise ValueError(
            "degenerate validation set: zero standard deviation in "
            f"(latent distance = {dm_std}, reconstruction error = {re_std})"
        )
    return NoveltyCalibration(
        alpha=1.0 / dm_std, beta=1.0 / re_std, val_dm_std=dm_std, val_re_std=re_std
    )


def _combine(re, ld, mode, calibration):
    if mode == MODE_RECONSTRUCTION:
        return re
    if mode == MODE_LATENT_DISTANCE:
        return ld
    if mode == MODE_HYBRID:
        if calibration is None:
            raise ValueError("hybrid scoring requires a calibration")
        return calibration.alpha * ld + calibration.beta * re
    raise ValueError(f"unknown mode {mode!r}, expected one of {MODES}")


def novelty_scores(model, stats, images, mode, calibration=None) -> np.ndarray:
    """Scores for a batch of samples; higher = more novel."""
    re, ld = features(model, stats, images)
    return _combine(re, ld, mode, calibration)


def classify(scores, threshold) -> np.ndarray:
    """novel iff score > threshold (ties at the threshold count as inlier).

    Infinite thresholds degenerate cleanly (-inf flags everything novel,
    +inf nothing); NaN is rejected.
    """
    if np.isnan(threshold):
        raise ValueError("threshold must not be NaN")
    return np.asarray(scores, dtype=np.float64) > threshold


SCORES_CSV_HEADER = ["sample_id", "true_is_inlier", "re", "ld", "hybrid"]


def write_scores_csv(f, sample_ids, is_inlier, re, ld, hybrid) -> None:
    """Per-sample feature/score export used by eval and the scatter plot,
    written to a text stream ``f`` (a file opened with ``newline=""``)."""
    columns = [np.asarray(c) for c in (sample_ids, is_inlier, re, ld, hybrid)]
    if len({len(c) for c in columns}) != 1:
        raise ValueError("score CSV columns must have equal lengths")
    writer = csv.writer(f)
    writer.writerow(SCORES_CSV_HEADER)
    for sid, inl, r, d, h in zip(*columns):
        writer.writerow([int(sid), int(inl), repr(float(r)), repr(float(d)), repr(float(h))])


def _score_row(row, path, line):
    """(sample_id, is_inlier, re, ld, hybrid) of one scores-CSV row."""
    try:
        if len(row) != len(SCORES_CSV_HEADER):
            raise ValueError(f"expected {len(SCORES_CSV_HEADER)} fields, got {len(row)}")
        scores = [float(v) for v in row[2:]]
        bad = [name for name, v in zip(SCORES_CSV_HEADER[2:], scores) if not math.isfinite(v)]
        if bad:
            raise ValueError(f"non-finite {', '.join(bad)}: {row[2:]}")
        label = int(row[1])
        if label not in (0, 1):
            raise ValueError(f"true_is_inlier must be 0 or 1, got {row[1]!r}")
        return int(row[0]), bool(label), *scores
    except ValueError as exc:
        raise ValueError(f"{path}, line {line}: {exc}") from None


def read_scores_csv(path):
    """Returns (sample_ids, is_inlier, re, ld, hybrid) arrays.  A row without
    five fields, or with a non-integer id, a label other than 0 or 1 or a
    non-finite score, raises ValueError naming its line."""
    with open(path, newline="") as f:
        reader = csv.reader(f)
        header = next(reader, None)
        if header != SCORES_CSV_HEADER:
            raise ValueError(f"{path}: expected header {SCORES_CSV_HEADER}, got {header}")
        rows = [_score_row(row, path, reader.line_num) for row in reader]
    if not rows:
        raise ValueError(f"{path}: no score rows")
    return tuple(np.array(column) for column in zip(*rows))
