"""Independent oracles used across the test suite, and two shorthands.

The oracles deliberately use different computational structure than the
library code they check: gradients come from central finite differences,
AUROC from O(n^2) pairwise counting, AUPR and FPR@TPR from exhaustive
per-threshold counting loops.  The shorthands build library inputs.
"""

import numpy as np

from latent_guard import ScoredSet, mahalanobis_many


# ---------------------------------------------------------------------------
# shorthands
# ---------------------------------------------------------------------------

def mahalanobis(stats, x):
    """Latent distance of one vector ``x`` [k], as a one-row ``mahalanobis_many``."""
    return mahalanobis_many(stats, np.asarray(x)[None])[0]


def scored_set(inlier_scores, ood_scores):
    """A ``ScoredSet`` of the inlier scores followed by the OOD scores."""
    return ScoredSet(scores=np.concatenate([inlier_scores, ood_scores]),
                     is_inlier=np.repeat([True, False], [len(inlier_scores), len(ood_scores)]))


# ---------------------------------------------------------------------------
# gradient checking
# ---------------------------------------------------------------------------

def numeric_grad(f, x, h=1e-6):
    """Central-difference gradient of scalar-valued ``f`` w.r.t. array ``x``."""
    x = np.asarray(x, dtype=np.float64)
    grad = np.zeros_like(x)
    flat = x.reshape(-1)
    gflat = grad.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + h
        fp = f(x)
        flat[i] = orig - h
        fm = f(x)
        flat[i] = orig
        gflat[i] = (fp - fm) / (2.0 * h)
    return grad


def assert_grad_close(analytic, numeric, rtol=1e-4, atol=1e-9):
    np.testing.assert_allclose(analytic, numeric, rtol=rtol, atol=atol)


# ---------------------------------------------------------------------------
# metric oracles
# ---------------------------------------------------------------------------

def auroc_pairwise(inlier_scores, ood_scores):
    """P(ood > inlier) + 0.5 * P(tie) by explicit pairwise counting."""
    wins = 0.0
    for o in ood_scores:
        for i in inlier_scores:
            if o > i:
                wins += 1.0
            elif o == i:
                wins += 0.5
    return wins / (len(inlier_scores) * len(ood_scores))


def aupr_exhaustive(scores, is_positive, descending=True):
    """AUPR by full enumeration of distinct thresholds.

    ``descending=True`` predicts positive when score >= threshold (high
    score indicates the positive class); ``descending=False`` uses
    score <= threshold.  Area is the right-continuous step sum over recall
    increments, ties crossing together.
    """
    scores = np.asarray(scores, dtype=np.float64)
    is_positive = np.asarray(is_positive, dtype=bool)
    total_pos = int(is_positive.sum())
    thresholds = sorted(set(scores.tolist()), reverse=descending)
    area = 0.0
    prev_recall = 0.0
    for tau in thresholds:
        predicted = scores >= tau if descending else scores <= tau
        tp = int((predicted & is_positive).sum())
        fp = int((predicted & ~is_positive).sum())
        recall = tp / total_pos
        precision = tp / (tp + fp)
        area += (recall - prev_recall) * precision
        prev_recall = recall
    return area


def fpr_at_tpr_exhaustive(inlier_scores, ood_scores, target=0.95):
    """Smallest observed threshold accepting >= target of inliers; FPR there."""
    inlier_scores = np.asarray(inlier_scores, dtype=np.float64)
    ood_scores = np.asarray(ood_scores, dtype=np.float64)
    candidates = sorted(set(np.concatenate([inlier_scores, ood_scores]).tolist()))
    for tau in candidates:
        tpr = float(np.mean(inlier_scores <= tau))
        if tpr >= target:
            return float(np.mean(ood_scores <= tau))
    raise AssertionError("unreachable: the max score always accepts every inlier")
