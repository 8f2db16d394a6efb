"""One-class training loop: split, batching, adadelta, early stopping.

Procedure for one (inlier class, bottleneck size) configuration:

1. Randomly split the full training set (before any class filtering) into
   train/validation parts of exact sizes.
2. Filter both parts to the inlier class.  Steps 1-2 are ``inlier_indices``,
   the one place rows are chosen: they yield row indices into the full set,
   from whose images each training batch and each validation chunk gathers
   its own rows, so no part of the split is copied out.
3. Minimize BCE(x, reconstruction) + L1_LAMBDA * mean_per_sample |bottleneck|
   with adadelta over shuffled mini-batches; the shuffle order is derived
   from (seed, epoch), so a fixed config is bit-reproducible.  Each batch
   runs as fixed 64-row sub-batches, shared between the caller and helper
   processes forked once per training run (``_forked_helpers``), not
   threads: a sub-batch makes hundreds of short numpy calls, and threads
   would spend much of each step handing the interpreter lock to each
   other.  Every helper reads the parameters from, and writes its
   gradients to, shared memory; the caller sums the loss parts and
   gradients in sub-batch order into one adadelta step per batch, so the
   result does not depend on the core count.  ``autoencoder.map_chunks``
   runs only the validation pass.
4. After each epoch compute the validation loss (same objective, including
   the L1 term); stop once more than ``patience`` epochs pass without a
   strictly lower validation loss, and restore the parameter snapshot from
   the best epoch.
"""

from __future__ import annotations

import contextlib
import json
import math
import mmap
import multiprocessing
import operator
import signal
import sys
import threading
from dataclasses import asdict, dataclass, field, fields

import numpy as np

from latent_guard import autoencoder
from latent_guard.autoencoder import (
    _CHUNK,
    Autoencoder,
    check_images,
    scaled_pixels,
    tune_allocator,
)
from latent_guard.data import ImageDataset
from latent_guard.nn.losses import bce_loss_and_grad, l1_penalty
from latent_guard.nn.optim import Adadelta
from latent_guard.serialization import INDEX, check_record

STOP_EARLY = "early"
STOP_MAX_EPOCHS = "max_epochs"

# weight of the L1 activity penalty on the bottleneck, the method's constant
L1_LAMBDA = 1e-5

# the widest bottleneck: the input size (Dense(98 -> k) caps the latent rank
# at 98 anyway)
MAX_BOTTLENECK = 28 * 28

# seconds a sub-batch helper gets to exit once its connection is closed
_HELPER_EXIT_S = 5.0


@dataclass(frozen=True)
class TrainConfig:
    inlier_class: int
    bottleneck_size: int
    seed: int
    max_epochs: int = 500
    patience: int = 20
    batch_size: int = 128
    val_size: int = 10000

    def __post_init__(self):
        # every field is stored as a Python int, so configs compare and
        # serialize alike whatever integer type they were built from
        check_record(vars(self), dict.fromkeys(vars(self), INDEX), "config")
        for f in fields(self):
            object.__setattr__(self, f.name, operator.index(getattr(self, f.name)))
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if not 0 <= self.inlier_class <= 9:
            raise ValueError(f"inlier_class must be 0-9, got {self.inlier_class}")
        if not 1 <= self.bottleneck_size <= MAX_BOTTLENECK:
            raise ValueError(f"bottleneck_size must be 1-{MAX_BOTTLENECK}, "
                             f"got {self.bottleneck_size}")
        if not 0 < self.patience < self.max_epochs:
            raise ValueError(
                f"patience must satisfy 0 < patience < max_epochs, got "
                f"{self.patience} vs {self.max_epochs}"
            )
        for name in ("batch_size", "val_size"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)}")


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


def inlier_indices(config: TrainConfig, labels):
    """Steps 1-2 of the procedure: (train inliers, validation inliers) as
    row indices into the full training set's ``labels``, each in split
    order.  The split is one seeded permutation of every row; the class
    filter keeps each part's rows of ``config.inlier_class``."""
    n, val_size = len(labels), config.val_size
    if val_size >= n:
        raise ValueError(f"val_size must be below the {n} rows, got {val_size}; "
                         "training requires a non-empty training part")
    perm = np.random.default_rng(config.seed).permutation(n)
    parts = []
    for name, rows in (("training", perm[val_size:]), ("validation", perm[:val_size])):
        inliers = rows[labels[rows] == config.inlier_class]
        if len(inliers) == 0:
            raise ValueError(f"no samples of class {config.inlier_class} in the {name} "
                             f"part of the split ({len(rows)} rows)")
        parts.append(inliers)
    return tuple(parts)


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


def _objective_forward(model, images, rows):
    """Validation objective on ``images[rows]`` of [N,1,28,28] images: mean
    BCE plus the L1 term.  Each chunk gathers its own rows and reduces its
    embeddings to their L1 norms on its own thread."""
    l1, re = model.encode_and_reconstruction_errors(
        images, latent=lambda z: np.abs(z).sum(axis=1), rows=rows)
    return re.mean() + L1_LAMBDA * l1.mean()


def _sub_batch_loss_and_grads(model, images, rows, b, where):
    """Loss part and parameter gradients of the sub-batch ``images[rows]``
    of a ``b``-row batch; ``where`` names the batch in errors."""
    x = np.ascontiguousarray(scaled_pixels(images[rows]).transpose(0, 2, 3, 1))
    recon, bottleneck, caches = model.forward_training(x)
    try:
        bce, d_recon = bce_loss_and_grad(recon, x)
    except ValueError:  # NaN reconstruction; reported below with its place
        bce, d_recon = np.nan, None
    penalty, d_bottleneck = l1_penalty(bottleneck, L1_LAMBDA)
    # bce is the sub-batch mean, so its share of the batch mean is len(x) / b
    share = len(x) / b
    loss = bce * share + penalty / b
    if not np.isfinite(loss):
        raise FloatingPointError(f"non-finite training loss {loss} at {where}")
    return loss, model.backward_training(caches, d_recon * share, d_bottleneck / b)


def _run_share(model, images, rows, where, member, members):
    """Runs sub-batches ``member``, ``member + members``, ... of the batch
    ``images[rows]`` in order, stopping at the first that raises; returns
    the (index, loss part, gradients) of each that ran and the (index,
    exception) of the one that raised, or None."""
    done = []
    for i in range(member, -(-len(rows) // _CHUNK), members):
        try:
            loss, grads = _sub_batch_loss_and_grads(
                model, images, rows[i * _CHUNK:(i + 1) * _CHUNK], len(rows), where)
        except Exception as exc:
            return done, (i, exc)
        done.append((i, loss, grads))
    return done, None


def _batch_loss_and_grads(model, images, rows, where, helpers=()):
    """Objective and its parameter gradients over the batch ``images[rows]``,
    summed from its sub-batches in order; ``where`` names the batch in
    errors.  With m members, the caller (member 0) and the first m - 1
    ``helpers`` (``_forked_helpers``), one per further sub-batch up to
    all of them, sub-batch i runs on member i % m.  Every member stops
    at its first failing sub-batch; once all have answered, the error of
    the lowest failing sub-batch is raised."""
    sub_batches = -(-len(rows) // _CHUNK)
    team = helpers[:sub_batches - 1]
    members = len(team) + 1
    for member, (conn, _) in enumerate(team, 1):
        conn.send((rows, where, member, members))
    parts, error = _run_share(model, images, rows, where, 0, members)
    errors = [error] if error else []
    for member, (conn, slots) in enumerate(team, 1):
        try:
            losses, error = conn.recv()
        except (EOFError, OSError):
            raise RuntimeError(f"a sub-batch helper exited at {where}") from None
        parts += zip(range(member, sub_batches, members), losses, slots)
        errors += [error] if error else []
    if errors:
        raise min(errors, key=operator.itemgetter(0))[1]
    (_, loss, grads), *others = sorted(parts, key=operator.itemgetter(0))
    for _, part_loss, part_grads in others:
        loss += part_loss
        grads = {name: g + part_grads[name] for name, g in grads.items()}
    return loss, grads


def _helper_main(conn, inherited, model, images, slots):
    """A sub-batch helper's loop: answers one request at a time with its
    share of the batch (``_run_share``), writing its k-th sub-batch's
    gradients into ``slots[k]`` and sending the loss parts and any error;
    returns once the caller's end of ``conn`` is closed."""
    # Ctrl-C reaches the whole process group: the caller alone handles it,
    # and then ends this loop by closing the pipe
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    for end in inherited:  # the caller's pipe ends, so the caller's death reads as EOF
        end.close()
    with conn:
        while True:
            try:
                request = conn.recv()
            except (EOFError, OSError):
                return
            done, error = _run_share(model, images, *request)
            for slot, (_, _, grads) in zip(slots, done):
                for name, g in grads.items():
                    slot[name][...] = g
            try:
                conn.send(([loss for _, loss, _ in done], error))
            except OSError:  # the caller is gone
                return


def _shared_arrays(shapes):
    """Zeroed float64 arrays of ``shapes`` in one shared anonymous mapping,
    each on cache lines of its own, so no two processes write one line."""
    sizes = [-(-math.prod(shape) // 8) * 8 for shape in shapes]
    flat = np.frombuffer(mmap.mmap(-1, 8 * max(sum(sizes), 1)), dtype=np.float64)
    offsets = np.cumsum([0, *sizes[:-1]])
    return [flat[o:o + math.prod(shape)].reshape(shape) for o, shape in zip(offsets, shapes)]


@contextlib.contextmanager
def _forked_helpers(model, images, sub_batches):
    """Forks the sub-batch helpers (``_helper_main``) for training ``model``
    on ``images`` in batches of at most ``sub_batches`` sub-batches, and
    yields them as (connection, gradient slots) pairs: one helper per CPU
    but the caller's (``autoencoder._workers``, read at call time), and
    at most one per sub-batch but the first.  It forks none on a
    platform other than Linux, in a daemonic process, which may have no
    children, or beside another thread, which a fork would leave holding
    its locks.  The model's parameters are moved into shared memory
    first, so the caller's in-place adadelta steps reach every helper;
    the caller binds private arrays again when it is done.  Every helper
    has exited when the block ends: each sees EOF once the block closes
    its connection, or once the caller dies, since a helper closes the
    caller's pipe ends it inherits."""
    count = min(autoencoder._workers(), sub_batches) - 1
    if (count < 1 or sys.platform != "linux" or multiprocessing.current_process().daemon
            or threading.active_count() > 1):
        yield []
        return
    slots_each = -(-sub_batches // (count + 1))
    params = model.named_parameters()
    shared = _shared_arrays([p.shape for p in params.values()] * (1 + count * slots_each))
    blocks = [dict(zip(params, shared[i:i + len(params)]))
              for i in range(0, len(shared), len(params))]
    for name, param in params.items():
        blocks[0][name][...] = param
    model.bind_parameters(blocks[0])
    context = multiprocessing.get_context("fork")
    helpers, processes = [], []
    try:
        for j in range(count):
            ours, theirs = context.Pipe()
            slots = blocks[1 + j * slots_each:1 + (j + 1) * slots_each]
            helpers.append((ours, slots))
            with theirs:
                process = context.Process(
                    target=_helper_main, daemon=True,
                    args=(theirs, [conn for conn, _ in helpers], model, images, slots))
                process.start()
            processes.append(process)
        yield helpers
    finally:
        for conn, _ in helpers:
            conn.close()
        for process in processes:
            process.join(_HELPER_EXIT_S)
            if process.exitcode is None:  # still in a sub-batch the caller gave up
                process.kill()
                process.join()
            process.close()


def train(config: TrainConfig, dataset: ImageDataset):
    """Runs the full procedure; returns (best-epoch model, TrainRecord)."""
    return train_on_rows(config, dataset.images, *inlier_indices(config, dataset.labels))


def train_on_rows(config: TrainConfig, images, train_rows, val_rows):
    """Steps 3-4 of the procedure: trains on ``images[train_rows]`` and
    validates on ``images[val_rows]``, where each training batch and each
    64-row validation chunk gathers its rows from ``images`` [N,1,28,28] as
    it is taken, so neither part is ever copied whole; returns (best-epoch
    model, TrainRecord).  ``images`` must pass inference's shape and range
    check (``check_images``), which runs once, before the first step; a
    validation pass checks again only the rows it gathers.  uint8 pixels
    stay uint8: each gathered batch or chunk is scaled by 1/255 as it is
    taken (``scaled_pixels``), and gives the bits of the same pixels
    passed as ``bytes / 255.0`` floats."""
    check_images(images)
    tune_allocator()
    model = Autoencoder(config.bottleneck_size, config.seed)
    n = len(train_rows)

    record = TrainRecord()
    stopper = EarlyStopping(config.patience)
    stop_reason = STOP_MAX_EPOCHS

    with _forked_helpers(model, images, -(-min(config.batch_size, n) // _CHUNK)) as team:
        optimizer = Adadelta(model.named_parameters())
        for epoch in range(1, config.max_epochs + 1):
            order = np.random.default_rng([config.seed, epoch]).permutation(n)
            total_loss = 0.0
            for start in range(0, n, config.batch_size):
                rows = train_rows[order[start:start + config.batch_size]]
                loss, grads = _batch_loss_and_grads(
                    model, images, rows, f"epoch {epoch}, batch {start // config.batch_size}",
                    team)
                optimizer.step(grads)
                total_loss += loss * len(rows)

            val_loss = _objective_forward(model, images, val_rows)
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
    model.bind_parameters(best_params)
    record.best_epoch = stopper.best_epoch
    record.stop_reason = stop_reason
    return model, record
