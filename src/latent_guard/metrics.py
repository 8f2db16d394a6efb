"""Detection metrics over novelty scores: AUROC, AUPR, FPR at fixed TPR.

Conventions (higher score = more novel):

* ROC and PR curves sweep thresholds over the observed score values, with
  all equal-score samples crossing together (weak inequality).  AUROC uses
  trapezoidal integration, which equals pairwise counting with half credit
  for ties.
* AUPR treats either class as detection-positive: ``positive="ood"`` ranks
  by descending score, ``positive="inlier"`` by ascending score (low
  novelty indicates the inlier class).  Area is the right-continuous step
  sum over recall increments.
* FPR@TPR follows the OOD-detection literature: positive class is the
  in-distribution data, a sample is accepted when its score is <= the
  threshold, and the threshold is the smallest observed value accepting at
  least the target fraction of inliers.

All metrics are invariant under strictly increasing transforms of the
scores and are pure functions.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, asdict

import numpy as np

from latent_guard import serialization
from latent_guard.novelty import MODES


@dataclass(frozen=True)
class ScoredSet:
    """Novelty scores with ground-truth inlier/OOD labels."""

    scores: np.ndarray
    is_inlier: np.ndarray

    def __post_init__(self):
        scores = np.asarray(self.scores, dtype=np.float64)
        is_inlier = np.asarray(self.is_inlier, dtype=bool)
        if scores.shape != is_inlier.shape or scores.ndim != 1:
            raise ValueError(
                f"scores {scores.shape} and labels {is_inlier.shape} must be "
                "equal-length vectors"
            )
        if not np.all(np.isfinite(scores)):
            raise ValueError("scores contain non-finite values")
        object.__setattr__(self, "scores", scores)
        object.__setattr__(self, "is_inlier", is_inlier)

    def require_both_classes(self):
        if not self.is_inlier.any() or self.is_inlier.all():
            raise ValueError("metric requires at least one inlier and one OOD sample")


def _curve_counts(scores, positive):
    """Cumulative TP/FP counts at each distinct descending score threshold."""
    order = np.argsort(-scores, kind="stable")
    s = scores[order]
    pos = positive[order]
    # last index of each run of equal scores: all ties cross together
    last = np.nonzero(np.diff(s))[0]
    idx = np.concatenate([last, [len(s) - 1]])
    tp = np.cumsum(pos)[idx]
    fp = np.cumsum(~pos)[idx]
    return tp, fp


def auroc(scored: ScoredSet) -> float:
    """Area under the ROC of novelty scores with OOD detection-positive."""
    scored.require_both_classes()
    is_ood = ~scored.is_inlier
    tp, fp = _curve_counts(scored.scores, is_ood)
    tpr = np.concatenate([[0.0], tp / is_ood.sum()])
    fpr = np.concatenate([[0.0], fp / (~is_ood).sum()])
    return float(np.sum(np.diff(fpr) * (tpr[1:] + tpr[:-1]) / 2.0))


def aupr(scored: ScoredSet, positive: str = "ood") -> float:
    """Area under precision-recall with the chosen detection-positive class."""
    scored.require_both_classes()
    if positive == "ood":
        scores, pos = scored.scores, ~scored.is_inlier
    elif positive == "inlier":
        scores, pos = -scored.scores, scored.is_inlier
    else:
        raise ValueError(f"positive must be 'ood' or 'inlier', got {positive!r}")
    tp, fp = _curve_counts(scores, pos)
    precision = tp / (tp + fp)
    recall = tp / pos.sum()
    return float(np.sum(np.diff(recall, prepend=0.0) * precision))


def fpr_at_tpr(scored: ScoredSet, tpr_target: float = 0.95) -> float:
    """FPR when the acceptance threshold admits >= tpr_target of inliers."""
    scored.require_both_classes()
    if not 0.0 < tpr_target <= 1.0:
        raise ValueError(f"tpr_target must be in (0, 1], got {tpr_target}")
    inlier_scores = np.sort(scored.scores[scored.is_inlier])
    k = int(np.ceil(tpr_target * len(inlier_scores)))
    threshold = inlier_scores[k - 1]
    ood_scores = scored.scores[~scored.is_inlier]
    return float(np.mean(ood_scores <= threshold))


_EVAL_REPORT = {
    **dict.fromkeys(("fpr_at_95_tpr", "auroc", "aupr_in", "aupr_out"), serialization.FRACTION),
    **dict.fromkeys(("inlier_class", "bottleneck_size", "seed"), serialization.INTEGER),
    "mode": serialization.one_of(*MODES),
}


@dataclass(frozen=True)
class EvalReport:
    """One evaluation run: the four metrics plus identifying metadata."""

    fpr_at_95_tpr: float
    auroc: float
    aupr_in: float
    aupr_out: float
    inlier_class: int
    bottleneck_size: int
    mode: str
    seed: int

    def __post_init__(self):
        serialization.check_record(vars(self), _EVAL_REPORT, "eval report")

    def to_json(self) -> str:
        return json.dumps(asdict(self), sort_keys=True)

    @classmethod
    def from_json(cls, text, **bound) -> "EvalReport":
        record = serialization.decode_json(text, "eval report")
        serialization.check_record(record, _EVAL_REPORT, "eval report", **bound)
        return cls(**record)


def evaluate(scored: ScoredSet, *, inlier_class: int, bottleneck_size: int,
             mode: str, seed: int) -> EvalReport:
    """Computes all four metrics for one scored evaluation set."""
    return EvalReport(
        fpr_at_95_tpr=fpr_at_tpr(scored, 0.95),
        auroc=auroc(scored),
        aupr_in=aupr(scored, "inlier"),
        aupr_out=aupr(scored, "ood"),
        inlier_class=inlier_class,
        bottleneck_size=bottleneck_size,
        mode=mode,
        seed=seed,
    )
