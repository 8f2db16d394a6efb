"""One-class training loop: split, batching, adadelta, early stopping.

Procedure for one (inlier class, bottleneck size) configuration:

1. Randomly split the full training set (before any class filtering) into
   train/validation parts of exact sizes.
2. Filter both parts to the inlier class.
3. Minimize BCE(x, reconstruction) + l1_lambda * mean_per_sample |bottleneck|
   with adadelta over shuffled mini-batches; the shuffle order is derived
   from (seed, epoch), so a fixed config is bit-reproducible.
4. After each epoch compute the validation loss (same objective, including
   the L1 term); stop once more than ``patience`` epochs pass without a
   strictly lower validation loss, and restore the parameter snapshot from
   the best epoch.
"""

from __future__ import annotations

import ctypes
import json
from dataclasses import dataclass, field, asdict

import numpy as np

from latent_guard.autoencoder import Autoencoder
from latent_guard.data import ImageDataset, filter_class
from latent_guard.nn.losses import bce_loss_and_grad, l1_penalty
from latent_guard.nn.optim import Adadelta

STOP_EARLY = "early"
STOP_MAX_EPOCHS = "max_epochs"


def tune_allocator() -> None:
    """Raises glibc's malloc mmap/trim thresholds for the current process.

    The conv kernels allocate tens of MB of transient buffers per batch;
    with default thresholds glibc hands those pages back to the kernel on
    every free and the training loop spends most of its time in page
    faults.  Raising the thresholds keeps the heap hot.  Called on entry
    to train(); a no-op where glibc is unavailable.
    """
    try:
        libc = ctypes.CDLL("libc.so.6")
        libc.mallopt(-3, 1 << 30)  # M_MMAP_THRESHOLD
        libc.mallopt(-1, 1 << 30)  # M_TRIM_THRESHOLD
        libc.mallopt(-2, 1 << 28)  # M_TOP_PAD
    except OSError:
        pass


@dataclass(frozen=True)
class TrainConfig:
    inlier_class: int
    bottleneck_size: int
    seed: int
    max_epochs: int = 500
    patience: int = 20
    batch_size: int = 128
    val_size: int = 10000
    l1_lambda: float = 1e-5

    def __post_init__(self):
        if not 0 <= self.inlier_class <= 9:
            raise ValueError(f"inlier_class must be 0-9, got {self.inlier_class}")
        if self.bottleneck_size < 1:
            raise ValueError(f"bottleneck_size must be >= 1, got {self.bottleneck_size}")
        if not 0 < self.patience < self.max_epochs:
            raise ValueError(
                f"patience must satisfy 0 < patience < max_epochs, got "
                f"{self.patience} vs {self.max_epochs}"
            )
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {self.batch_size}")


@dataclass
class EpochStats:
    epoch: int
    train_loss: float
    val_loss: float


@dataclass
class TrainRecord:
    """Per-epoch losses plus how and where training stopped (1-based epochs)."""

    epochs: list = field(default_factory=list)
    best_epoch: int = 0
    stop_reason: str = ""

    @property
    def best_val_loss(self) -> float:
        return min(e.val_loss for e in self.epochs)

    def to_jsonl(self) -> str:
        return "\n".join(json.dumps(asdict(e), sort_keys=True) for e in self.epochs) + "\n"


def split_dataset(dataset: ImageDataset, val_size: int, seed: int):
    """Disjoint random (train, validation) split with exact sizes."""
    n = len(dataset)
    if not 0 < val_size < n:
        raise ValueError(
            f"val_size must be in (0, {n}), got {val_size}; early stopping "
            "requires a non-empty validation set"
        )
    perm = np.random.default_rng(seed).permutation(n)
    return dataset.subset(perm[val_size:]), dataset.subset(perm[:val_size])


def inlier_split(config: TrainConfig, dataset: ImageDataset):
    """Steps 1-2 of the procedure: (train inliers, validation inliers)."""
    train_set, val_set = split_dataset(dataset, config.val_size, config.seed)
    return (filter_class(train_set, config.inlier_class),
            filter_class(val_set, config.inlier_class))


class EarlyStopping:
    """Stop once more than ``patience`` epochs elapse without improvement.

    "Improvement" means a strictly lower validation loss (min_delta = 0).
    With patience 20 and the only improvement at epoch 1, epoch 22 is the
    first where 21 > 20 epochs have passed since the best, so training
    halts there.
    """

    def __init__(self, patience: int):
        self.patience = patience
        self.best_loss = np.inf
        self.best_epoch = 0

    def update(self, epoch: int, val_loss: float) -> bool:
        """Records one epoch; returns True when training should stop."""
        if val_loss < self.best_loss:
            self.best_loss = val_loss
            self.best_epoch = epoch
            return False
        return epoch - self.best_epoch > self.patience


def _objective_forward(model, val_images, l1_lambda):
    """Validation objective on [N,1,28,28] images: mean BCE plus the L1 term."""
    z, re = model.encode_and_reconstruction_errors(val_images)
    return re.mean() + l1_lambda * np.abs(z).sum(axis=1).mean()


def train(config: TrainConfig, dataset: ImageDataset):
    """Runs the full procedure; returns (best-epoch model, TrainRecord)."""
    tune_allocator()
    train_inliers, val_inliers = inlier_split(config, dataset)

    model = Autoencoder(config.bottleneck_size, config.seed)
    optimizer = Adadelta(model.named_parameters())

    x_train = np.ascontiguousarray(train_inliers.images.transpose(0, 2, 3, 1))
    n = x_train.shape[0]

    record = TrainRecord()
    stopper = EarlyStopping(config.patience)
    stop_reason = STOP_MAX_EPOCHS

    for epoch in range(1, config.max_epochs + 1):
        order = np.random.default_rng([config.seed, epoch]).permutation(n)
        total_loss = 0.0
        for start in range(0, n, config.batch_size):
            batch = x_train[order[start:start + config.batch_size]]
            b = batch.shape[0]
            recon, bottleneck = model.forward_training(batch)
            try:
                bce, d_recon = bce_loss_and_grad(recon, batch)
            except ValueError:  # NaN reconstruction; reported below with its place
                bce, d_recon = np.nan, None
            penalty, d_bottleneck = l1_penalty(bottleneck, config.l1_lambda)
            loss = bce + penalty / b
            if not np.isfinite(loss):
                raise FloatingPointError(
                    f"non-finite training loss {loss} at epoch {epoch}, "
                    f"batch {start // config.batch_size}"
                )
            model.backward_training(d_recon, d_bottleneck / b)
            optimizer.step(model.named_grads())
            total_loss += loss * b

        val_loss = _objective_forward(model, val_inliers.images, config.l1_lambda)
        if not np.isfinite(val_loss):
            raise FloatingPointError(
                f"non-finite validation loss {val_loss} at epoch {epoch}"
            )
        record.epochs.append(EpochStats(epoch, total_loss / n, float(val_loss)))

        should_stop = stopper.update(epoch, val_loss)
        if stopper.best_epoch == epoch:
            best_params = {k: v.copy() for k, v in model.named_parameters().items()}
        if should_stop:
            stop_reason = STOP_EARLY
            break

    # restore the best epoch; epoch 1 always improves on inf, so best_params is set
    for name, param in model.named_parameters().items():
        param[...] = best_params[name]
    record.best_epoch = stopper.best_epoch
    record.stop_reason = stop_reason
    return model, record
