"""Minimal deterministic neural-network engine.

Dense float64 numpy arrays are the universal numeric carrier (row-major,
``prod(shape) == data.size``).  The engine provides exactly the layer types
the detector's architecture needs: same-padding 3x3 convolution, 2x2 max
pooling, 2x2 nearest-neighbor upsampling, dense, relu/sigmoid, flatten and
reshape, plus binary cross-entropy, an L1 activity penalty and the adadelta
optimizer.  Everything is CPU-only, 64-bit and bit-reproducible for a fixed
seed.
"""

from latent_guard.nn.losses import bce_loss, bce_loss_and_grad, l1_penalty
from latent_guard.nn.optim import Adadelta
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
    glorot_uniform,
)

__all__ = [
    "bce_loss",
    "bce_loss_and_grad",
    "l1_penalty",
    "Adadelta",
    "Conv3x3",
    "Conv3x3ReLUPool",
    "Dense",
    "Flatten",
    "MaxPool2x2",
    "ReLU",
    "ReLUUpsampleConv3x3",
    "Reshape",
    "Sigmoid",
    "Upsample2x2",
    "glorot_uniform",
]
