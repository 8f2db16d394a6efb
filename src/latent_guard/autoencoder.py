"""One-class convolutional autoencoder over 28x28 grayscale images.

Architecture (bottleneck size k is configurable):

    Encoder: conv3x3(1->32) + relu -> maxpool2x2      28x28 -> 14x14
             conv3x3(32->2) + relu -> maxpool2x2      14x14 -> 7x7
             flatten (98) -> dense(98 -> k)
    Decoder: dense(k -> 98) -> reshape 7x7x2
             conv3x3(2->2) + relu -> upsample2x2       7x7 -> 14x14
             conv3x3(2->32) + relu -> upsample2x2     14x14 -> 28x28
             conv3x3(32->1) + sigmoid

The layer stacks fuse the two ends that work on 28x28x32 tensors:
``Conv3x3ReLUPool`` stands for the first conv + relu + maxpool and
``ReLUUpsampleConv3x3`` for the last relu + upsample + conv, so neither
tensor is ever built.  The stem runs four GEMMs, one per pool-window
corner, on the 4x4 input patch behind each pooled pixel, in fixed blocks
of patch rows, and caches those patches for training.  The tail caches
only its zero-padded ``relu(x)`` and builds its input gradient in that
buffer, so the 14x14x32 end holds one such buffer at a time.  Both fused
layers give bit-identical inference results, and checkpoints keep the
unfused stack's parameter names (``PARAM_WEIGHT_SHAPES``).  Both sum their
training gradients in their own order (the stem per pool-window corner),
so every training gradient agrees with the unfused stack to rounding.
Every other convolution caches its zero-padded input for training, and
the 2->32 conv pads its upstream gradient a band of images at a time.

Training puts an L1 activity penalty on the bottleneck dense layer (weight
``trainer.L1_LAMBDA``); the penalty never enters the reconstruction-error
novelty score.  All convolutions are same-padding, so spatial shape is
preserved except at the pool/upsample steps.  Weights are Glorot-uniform
from a seeded generator: the same (bottleneck_size, seed) pair always
yields bit-identical parameters.

Public array convention is channels-first ([1, 28, 28] single sample,
[N, 1, 28, 28] batch); layers run channels-last internally.  Images are
floats in [0, 1] or uint8 bytes, byte b standing for b / 255; a uint8
(or float32) batch keeps its dtype until each chunk is converted as it is
taken (``scaled_pixels``), so a loaded split is never widened to float64,
and the outputs are the bits of the same pixels passed as
``bytes / 255.0``.

Inference splits a batch into fixed ``_CHUNK``-row chunks and runs them
on one thread per CPU the process may use, the caller's thread among
them (``map_chunks``).  Each inference chunk writes its own rows of
outputs sized up front; a scoring pass may reduce each
chunk's embeddings to one value per row on the chunk's thread (the
``latent`` callable of ``encode_and_reconstruction_errors``), so no [N, k]
embedding matrix is held.  A pass over selected rows of a larger array
(its ``rows`` argument; training's validation pass) gathers each chunk's
rows as the chunk is taken, so no copy of the selection is held.  The
output bytes depend neither on the core count nor on the order the
threads finish in.  ``map_chunks`` does not run training: the trainer
runs each ``_CHUNK``-row training sub-batch through ``forward_training``
and ``backward_training``, which keep caches and gradients of their own,
in the caller or in a forked helper process (``trainer``).  The first
chunked call tunes glibc's allocator for these threads
(``tune_allocator``), so library callers that never enter the CLI or the
trainer get the same hot heap.
"""

from __future__ import annotations

import ctypes
import os
from collections import deque
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from latent_guard import serialization
from latent_guard.errors import ShapeError
from latent_guard.nn.layers import (
    Conv3x3,
    Conv3x3ReLUPool,
    Dense,
    Flatten,
    MaxPool2x2,
    ReLU,
    ReLUUpsampleConv3x3,
    Reshape,
    Sigmoid,
    Upsample2x2,
)
from latent_guard.nn.losses import bce_loss_per_sample

IMAGE_SHAPE = (1, 28, 28)
_FLAT_DIM = 7 * 7 * 2  # encoder spatial trace: 28 -> 14 -> 7 with 2 channels

# Batch rows per inference chunk and per training sub-batch.  It bounds the
# transient im2col buffers of the 32-channel convolutions, one set per
# thread or training helper in flight, and fixes the GEMM shapes, so it is a constant: never
# derived from the core count.
_CHUNK = 64

CHECKPOINT_VERSION = 1

# The parameterised layers' checkpoint names (positions in the unfused stack, so
# fusing changes no checkpoint) in stack order, with weight shapes at bottleneck k.
PARAM_WEIGHT_SHAPES = {
    "encoder.0": (32, 1, 3, 3), "encoder.3": (2, 32, 3, 3), "encoder.7": ("k", _FLAT_DIM),
    "decoder.0": (_FLAT_DIM, "k"), "decoder.2": (2, 2, 3, 3), "decoder.5": (32, 2, 3, 3),
    "decoder.8": (1, 32, 3, 3),
}

_HEADER = {"kind": serialization.one_of("autoencoder-checkpoint"),
           "bottleneck_size": serialization.COUNT, "seed": serialization.COUNT,
           "l1_lambda": serialization.RETIRED}
_ARRAYS = {f"{layer}.{key}": shape if key == "weight" else shape[:1]
           for layer, shape in PARAM_WEIGHT_SHAPES.items() for key in ("weight", "bias")}


def _workers() -> int:
    """Chunk threads, and training's team of caller and helper processes:
    one per CPU in the process's affinity mask."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


_allocator_tuned = False


def tune_allocator() -> None:
    """Raises glibc's malloc mmap/trim thresholds for the current process,
    once: later calls return at once.

    The conv kernels allocate tens of MB of transient buffers per batch;
    with default thresholds glibc hands those pages back to the kernel on
    every free and the chunks spend most of their time in page faults.
    Raising the thresholds keeps the heap hot.

    It also caps malloc at one arena.  Inference chunks and training's
    validation chunks run on threads, and glibc would give each thread its own
    arena, whose freed buffers the raised trim threshold never hands back,
    so peak RSS would grow with the thread count.  One shared arena reuses
    the same hot pages instead.

    ``map_chunks`` calls it before its first chunk, so library callers get
    it too; ``cli.main`` and ``trainer.train_on_rows`` call it earlier,
    before they load or gather data.  A no-op where glibc is unavailable.
    """
    global _allocator_tuned
    if _allocator_tuned:
        return
    try:
        libc = ctypes.CDLL("libc.so.6")
    except OSError:
        pass
    else:
        libc.mallopt(-8, 1)  # M_ARENA_MAX
        libc.mallopt(-3, 1 << 30)  # M_MMAP_THRESHOLD
        libc.mallopt(-1, 1 << 30)  # M_TRIM_THRESHOLD
        libc.mallopt(-2, 1 << 28)  # M_TOP_PAD
    # set last, so no caller returns before the settings hold; two threads
    # that both make the first call set the same values twice
    _allocator_tuned = True


def map_chunks(fn, n):
    """Calls ``fn(rows)`` for each ``_CHUNK``-row slice of ``range(n)`` and
    returns the results in row order.  The caller takes chunks from a
    shared queue together with up to ``_workers() - 1`` helper threads that
    live only for this call, so a one-chunk call or a one-CPU process starts
    no thread, and a helper the OS is slow to schedule holds up at most its
    own chunk.  ``fn`` runs on several threads at once, so it may write
    only its own rows of a shared output.  The first exception raised by
    ``fn`` propagates unchanged and drops the chunks not yet started."""
    tune_allocator()
    chunks = [slice(i, min(i + _CHUNK, n)) for i in range(0, n, _CHUNK)]
    results = [None] * len(chunks)
    todo = deque(range(len(chunks)))

    def drain():
        while True:
            try:
                i = todo.popleft()  # atomic: each chunk runs once
            except IndexError:
                return
            try:
                results[i] = fn(chunks[i])
            except BaseException:
                todo.clear()
                raise

    helpers = min(_workers(), len(chunks)) - 1
    if helpers < 1:
        drain()
        return results
    with ThreadPoolExecutor(helpers) as pool:
        futures = [pool.submit(drain) for _ in range(helpers)]
        drain()
    for future in futures:
        future.result()
    return results


def check_images(x, values=True):
    """Raises unless ``x`` is an [N,1,28,28] batch of uint8 pixels, or of
    floats with every value in [0, 1]; the values are checked only if
    ``values`` is true."""
    if x.ndim != 4 or x.shape[1:] != IMAGE_SHAPE:
        raise ShapeError("autoencoder input", IMAGE_SHAPE, x.shape[1:] if x.ndim == 4 else x.shape)
    if values:
        check_pixel_values(x)


def check_pixel_values(x):
    """Raises unless ``x`` holds uint8 pixels or floats in [0, 1]."""
    # written so that NaN, for which every comparison is False, fails it too
    if x.dtype != np.uint8 and x.size and not (x.min() >= 0.0 and x.max() <= 1.0):
        raise ValueError(
            f"image values must lie in [0, 1], got range [{x.min()}, {x.max()}]"
        )


def scaled_pixels(x):
    """``x`` as float64 pixels in [0, 1]: uint8 bytes divided by 255.0, so
    byte b gives the float b / 255, and other input as float64, float64
    input without a copy.  Every chunk and training batch passes through
    here as it is taken."""
    return np.divide(x, 255.0) if x.dtype == np.uint8 else np.asarray(x, dtype=np.float64)


class Autoencoder:
    """Appendix-architecture autoencoder; see the module docstring.

    Every pass, training or inference, keeps its caches and gradients to
    itself, so concurrent passes are safe.  The parameters change only
    between training batches, through a single writer.
    """

    def __init__(self, bottleneck_size: int, seed: int):
        if bottleneck_size < 1:
            raise ValueError(f"bottleneck_size must be >= 1, got {bottleneck_size}")
        self.bottleneck_size = int(bottleneck_size)
        self.seed = int(seed)
        rng = np.random.default_rng(seed)
        self.encoder_layers = [
            Conv3x3ReLUPool(1, 32, rng),
            Conv3x3(32, 2, rng),
            ReLU(),
            MaxPool2x2(),
            Flatten(),
            Dense(_FLAT_DIM, bottleneck_size, rng),
        ]
        self.decoder_layers = [
            Dense(bottleneck_size, _FLAT_DIM, rng),
            Reshape((7, 7, 2)),
            Conv3x3(2, 2, rng),
            ReLU(),
            Upsample2x2(),
            Conv3x3(2, 32, rng),
            ReLUUpsampleConv3x3(32, 1, rng),
            Sigmoid(),
        ]

    # -- parameter access ---------------------------------------------------

    def _named(self, of_layer):
        layers = [layer for layer in self.encoder_layers + self.decoder_layers if layer.params]
        return {
            f"{name}.{key}": arr
            for name, layer in zip(PARAM_WEIGHT_SHAPES, layers, strict=True)
            for key, arr in of_layer(layer).items()
        }

    def named_parameters(self):
        """Live references to every parameter array, in a stable order."""
        return self._named(lambda layer: layer.params)

    def bind_parameters(self, arrays):
        """Makes the layers hold ``arrays`` (checkpoint name -> array of the
        parameter's shape) as their parameters, without a copy."""
        holders = self._named(lambda layer: {key: layer.params for key in layer.params})
        for name, params in holders.items():
            params[name.rsplit(".", 1)[1]] = arrays[name]

    # -- inference ----------------------------------------------------------

    def _to_nhwc_batch(self, x, values=True):
        """``x`` [N,1,28,28] or [1,28,28] as an NHWC batch, and whether it
        was one image; ``values`` as in ``check_images``.  uint8 and float
        arrays are kept as they are (``scaled_pixels`` converts each
        chunk), so a pass over some rows of a float32 array never converts
        the whole array."""
        x = np.asarray(x)
        if x.dtype != np.uint8 and x.dtype.kind != "f":
            x = np.asarray(x, dtype=np.float64)
        single = x.ndim == 3
        if single:
            x = x[None]
        check_images(x, values)
        return x.transpose(0, 2, 3, 1), single

    def _run(self, stack, x, caches=None):
        """A training pass when ``caches`` is given: each layer's cache is
        appended to it."""
        for layer in stack:
            x, cache = layer.forward(x, train=caches is not None)
            if caches is not None:
                caches.append(cache)
        return x

    def _forward_into(self, stack, x, out):
        """Runs ``stack`` on each chunk of ``x`` and writes the result at the
        chunk's rows of ``out``; returns ``out``."""

        def chunk(rows):
            out[rows] = self._run(stack, scaled_pixels(x[rows]))

        map_chunks(chunk, len(x))
        return out

    def encode(self, x):
        """Bottleneck embedding: [1,28,28] -> [k], or [N,1,28,28] -> [N,k]."""
        xb, single = self._to_nhwc_batch(x)
        z = self._forward_into(self.encoder_layers, xb, np.empty((len(xb), self.bottleneck_size)))
        return z[0] if single else z

    def decode(self, z):
        """Reconstruction from embeddings: [k] -> [1,28,28] (values in (0,1))."""
        z = np.asarray(z, dtype=np.float64)
        single = z.ndim == 1
        if single:
            z = z[None]
        if z.ndim != 2 or z.shape[1] != self.bottleneck_size:
            raise ShapeError("bottleneck input", (self.bottleneck_size,), z.shape[1:])
        out = self._forward_into(self.decoder_layers, z, np.empty((len(z), 28, 28, 1)))
        out = out.transpose(0, 3, 1, 2)
        return out[0] if single else out

    def reconstruct(self, x):
        return self.decode(self.encode(x))

    def encode_and_reconstruction_errors(self, x, latent=None, rows=None):
        """Single forward pass yielding (embeddings [N,k], per-sample BCE
        reconstruction errors [N]); the L1 activity penalty is excluded.

        ``latent``, if given, maps one chunk's embeddings [c, k] to one value
        per row [c]; it runs on the chunk's thread, and the first result is
        then those values [N] instead of the embeddings.

        ``rows``, if given, is an index array, and the pass runs on
        ``x[rows]``: each chunk gathers its own rows as it is taken, so the
        selected rows are never copied out together.  The shape of ``x``
        is checked up front, and the values of each gathered chunk as it
        is taken, with ``check_images``'s message, so rows the pass does
        not read are never checked; without ``rows``, ``x`` is checked
        whole before any chunk runs."""
        xb = self._to_nhwc_batch(x, values=rows is None)[0]
        n = len(xb) if rows is None else len(rows)
        zs = np.empty((n, self.bottleneck_size) if latent is None else n)
        re = np.empty(n)

        def chunk(span):
            if rows is None:
                x = xb[span]
            else:
                x = xb[rows[span]]
                check_pixel_values(x)
            x = scaled_pixels(x)
            z = self._run(self.encoder_layers, x)
            re[span] = bce_loss_per_sample(self._run(self.decoder_layers, z), x)
            zs[span] = z if latent is None else latent(z)

        map_chunks(chunk, n)
        return zs, re

    # -- training hooks -----------------------------------------------------

    def forward_training(self, x_nhwc):
        """Caching forward pass; returns (reconstruction, bottleneck, caches),
        NHWC, where ``caches`` lists the layers' training caches in stack
        order for ``backward_training``."""
        caches = []
        z = self._run(self.encoder_layers, x_nhwc, caches)
        return self._run(self.decoder_layers, z, caches), z, caches

    def backward_training(self, caches, d_recon, d_bottleneck=None):
        """Backpropagates loss gradients through the pass that made
        ``caches``; returns the parameter gradients by checkpoint name.

        Each layer's cache is popped off ``caches`` as its backward runs,
        so it is freed as soon as that layer is done.  ``d_bottleneck``
        (e.g. the L1 activity subgradient) is added where the decoder
        gradient reaches the encoder output.
        """
        grads = {}
        g = d_recon
        for layer in reversed(self.decoder_layers):
            g, grads[layer] = layer.backward(g, caches.pop())
        if d_bottleneck is not None:
            g = g + d_bottleneck
        for layer in reversed(self.encoder_layers):
            g, grads[layer] = layer.backward(g, caches.pop())
        return self._named(grads.__getitem__)

    # -- persistence ----------------------------------------------------------

    def to_bytes(self) -> bytes:
        """Bit-exact checkpoint bytes (format version, config, parameters)."""
        header = {
            "kind": "autoencoder-checkpoint",
            "format_version": CHECKPOINT_VERSION,
            "bottleneck_size": self.bottleneck_size,
            "seed": self.seed,
        }
        return serialization.encode_arrays(header, self.named_parameters())

    @classmethod
    def from_bytes(cls, raw: bytes, **bound) -> "Autoencoder":
        header, arrays = serialization.decode_arrays(raw)
        serialization.check_record(header, _HEADER, "checkpoint", CHECKPOINT_VERSION, **bound)
        # every array is checked before a layer of the header's k is built
        serialization.check_record(arrays, _ARRAYS, "checkpoint", k=header["bottleneck_size"])
        model = cls(header["bottleneck_size"], header["seed"])
        for name, arr in model.named_parameters().items():
            arr[...] = arrays[name]
        return model
