"""Training losses: binary cross-entropy and the L1 activity penalty."""

from __future__ import annotations

import math

import numpy as np

BCE_CLIP = 1e-7


def _elementwise(prediction, target):
    """Clamped predictions, targets and the per-element BCE."""
    p = np.asarray(prediction, dtype=np.float64)
    # written so that NaN, for which every comparison is False, fails it too
    if p.size and not (p.min() >= 0.0 and p.max() <= 1.0):
        raise ValueError(
            f"bce_loss predictions must lie in [0, 1], got range "
            f"[{p.min()}, {p.max()}] (is the sigmoid missing?)"
        )
    p = np.clip(p, BCE_CLIP, 1.0 - BCE_CLIP)
    t = np.asarray(target, dtype=np.float64)
    return p, t, -(t * np.log(p) + (1.0 - t) * np.log1p(-p))


def bce_loss(prediction, target):
    """Mean binary cross-entropy over all elements.

    Predictions are clamped to [1e-7, 1 - 1e-7] before the logs; targets
    must lie in [0, 1].
    """
    return float(np.mean(_elementwise(prediction, target)[2]))


def bce_loss_per_sample(prediction, target):
    """BCE averaged per sample (over all non-batch axes): [N, ...] -> [N]."""
    e = _elementwise(prediction, target)[2]
    # an explicit row width keeps an empty batch legal
    return e.reshape(len(e), math.prod(e.shape[1:])).mean(axis=1)


def bce_loss_and_grad(prediction, target):
    """BCE value plus its gradient w.r.t. the (clamped) predictions."""
    p, t, elementwise = _elementwise(prediction, target)
    return float(np.mean(elementwise)), (p - t) / (p * (1.0 - p)) / p.size


def l1_penalty(activations, lam):
    """L1 activity penalty ``lam * sum(|a|)`` and its subgradient.

    sign(0) is taken as 0.
    """
    if lam < 0:
        raise ValueError(f"l1 penalty weight must be >= 0, got {lam}")
    a = np.asarray(activations, dtype=np.float64)
    return float(lam * np.abs(a).sum()), lam * np.sign(a)
