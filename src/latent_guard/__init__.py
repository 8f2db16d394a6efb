"""Hybrid out-of-distribution detection for one-class image models.

A convolutional autoencoder is trained on a single inlier class; novelty
of a test sample combines its reconstruction error with the Mahalanobis
distance of its latent embedding from the encoded training distribution.
The package provides the model, training loop, latent statistics, scoring,
standard OOD metrics, IDX dataset loading and a CLI.
"""

from latent_guard.autoencoder import Autoencoder
from latent_guard.data import ImageDataset, load_idx, load_mnist_split
from latent_guard.latent_stats import GaussianStats, fit_gaussian, mahalanobis_many
from latent_guard.metrics import EvalReport, ScoredSet, aupr, auroc, evaluate, fpr_at_tpr
from latent_guard.novelty import (
    MODE_HYBRID,
    MODE_LATENT_DISTANCE,
    MODE_RECONSTRUCTION,
    MODES,
    NoveltyCalibration,
    calibrate,
    classify,
    novelty_scores,
)
from latent_guard.trainer import (
    TrainConfig,
    TrainRecord,
    inlier_indices,
    train,
    train_on_rows,
)

__version__ = "0.1.0"

__all__ = [
    "Autoencoder",
    "ImageDataset",
    "load_idx",
    "load_mnist_split",
    "GaussianStats",
    "fit_gaussian",
    "mahalanobis_many",
    "EvalReport",
    "ScoredSet",
    "aupr",
    "auroc",
    "evaluate",
    "fpr_at_tpr",
    "MODE_HYBRID",
    "MODE_LATENT_DISTANCE",
    "MODE_RECONSTRUCTION",
    "MODES",
    "NoveltyCalibration",
    "calibrate",
    "classify",
    "novelty_scores",
    "TrainConfig",
    "TrainRecord",
    "inlier_indices",
    "train",
    "train_on_rows",
    "__version__",
]
