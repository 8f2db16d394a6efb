"""Layer objects used to assemble the autoencoder.

Layers run channels-last internally ([N, H, W, C] batches) and hold only
their parameters, in a dict keyed "weight"/"bias"; conv weights keep the
canonical [C_out, C_in, 3, 3] shape and dense weights [out_dim, in_dim].
``forward(x, train=False)`` returns ``(out, cache)``, where the cache holds
whatever backward needs and is None at inference; ``backward(dout, cache)``
returns ``(dx, grads)``, the gradients keyed like ``params``.  A layer
never changes during a pass, so concurrent passes, training ones included,
can share one layer stack.

``Conv3x3ReLUPool`` and ``ReLUUpsampleConv3x3`` are fused layers for the
two ends of the autoencoder, where the unfused chains would build 28x28x32
tensors; each has the single forward/backward pair of every layer, and
its forward output is bit-identical to the chain it replaces (see
``ops``).  ``Conv3x3`` caches its zero-padded input, from which backward
takes the windows it needs.  The tail, named for the chain it stands
for, absorbs the ReLU before it: its cache is the zero-padded
``relu(x)``, from which backward takes the ReLU mask and in whose buffer
it builds the input gradient, so a tail cache serves one backward.  The
stem's training cache is its 4x4 input patches, 16 values per pooled
pixel and input channel, from which backward copies each corner's nine
im2col columns; the gradient itself is copied once per corner, routed
and ReLU-masked in one pass into a reused buffer.  The encoder's 32->2
conv + relu + maxpool and the decoder's 2->32 upsample + conv stay
unfused: with 32 input channels the first's patch GEMMs would do 16/9 of
the unfused GEMM's multiply-adds, and the phase form of the second is
slower than the unfused pair and not bit-identical to its im2col GEMM.
"""

from __future__ import annotations

import math

import numpy as np

from latent_guard.nn import ops


def glorot_uniform(rng, shape, fan_in, fan_out):
    """Glorot/Xavier uniform init: U(-limit, limit), limit = sqrt(6/(fi+fo))."""
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=shape)


class Layer:
    """Base: parameter-free layer."""

    def __init__(self):
        self.params = {}

    def forward(self, x, train=False):
        raise NotImplementedError

    def backward(self, dout, cache):
        raise NotImplementedError


def conv3x3_params(rng, in_channels, out_channels):
    """Glorot-initialized [C_out, C_in, 3, 3] weight and zero bias."""
    fan = 9 * in_channels, 9 * out_channels
    return {
        "weight": glorot_uniform(rng, (out_channels, in_channels, 3, 3), *fan),
        "bias": np.zeros(out_channels),
    }


class Conv3x3(Layer):
    """Same-padding 3x3 convolution."""

    def __init__(self, in_channels, out_channels, rng):
        super().__init__()
        self.params = conv3x3_params(rng, in_channels, out_channels)

    def forward(self, x, train=False):
        out, padded = ops.conv3x3_fwd_nhwc(x, self.params["weight"], self.params["bias"])
        return out, (padded if train else None)

    def backward(self, dout, cache):
        dw, db = ops.conv3x3_param_grads_nhwc(dout, cache, self.params["weight"].shape)
        return ops.conv3x3_input_grad_nhwc(dout, self.params["weight"]), {"weight": dw, "bias": db}


class Conv3x3ReLUPool(Layer):
    """Conv3x3 -> ReLU -> MaxPool2x2 as one layer, for a network's first
    layer: the convolution is never materialized at full resolution, and
    backward returns no input gradient."""

    def __init__(self, in_channels, out_channels, rng):
        super().__init__()
        self.params = conv3x3_params(rng, in_channels, out_channels)

    def forward(self, x, train=False):
        return ops.conv3x3_relu_pool_fwd_nhwc(
            x, self.params["weight"], self.params["bias"], train=train
        )

    def backward(self, dout, cache):
        dw, db = ops.conv3x3_relu_pool_param_grads_nhwc(
            dout, cache, self.params["weight"].shape
        )
        return None, {"weight": dw, "bias": db}


class ReLUUpsampleConv3x3(Layer):
    """ReLU -> Upsample2x2 -> Conv3x3 as one layer, run as four phase
    convolutions on the half-resolution input.  It caches the padded
    ``relu(x)``, from which backward takes the ReLU mask, and whose buffer
    backward reuses for the input gradient, so a cache serves one
    backward."""

    def __init__(self, in_channels, out_channels, rng):
        super().__init__()
        self.params = conv3x3_params(rng, in_channels, out_channels)

    def forward(self, x, train=False):
        out, padded = ops.relu_upsample2x2_conv3x3_fwd_nhwc(
            x, self.params["weight"], self.params["bias"]
        )
        return out, (padded if train else None)

    def backward(self, dout, cache):
        dx, dw, db = ops.relu_upsample2x2_conv3x3_bwd_nhwc(dout, cache, self.params["weight"])
        return dx, {"weight": dw, "bias": db}


class MaxPool2x2(Layer):
    def forward(self, x, train=False):
        return ops.maxpool2x2_fwd_nhwc(x, indices=train)

    def backward(self, dout, cache):
        return ops.maxpool2x2_bwd_nhwc(dout, cache), {}


class Upsample2x2(Layer):
    def forward(self, x, train=False):
        return ops.upsample2x2_fwd_nhwc(x), None

    def backward(self, dout, cache):
        return ops.upsample2x2_bwd_nhwc(dout), {}


class Dense(Layer):
    def __init__(self, in_dim, out_dim, rng):
        super().__init__()
        self.params = {
            "weight": glorot_uniform(rng, (out_dim, in_dim), in_dim, out_dim),
            "bias": np.zeros(out_dim),
        }

    def forward(self, x, train=False):
        return x @ self.params["weight"].T + self.params["bias"], (x if train else None)

    def backward(self, dout, cache):
        grads = {"weight": dout.T @ cache, "bias": dout.sum(axis=0)}
        return dout @ self.params["weight"], grads


class ReLU(Layer):
    def forward(self, x, train=False):
        return np.maximum(x, 0.0), (x > 0 if train else None)

    def backward(self, dout, cache):
        return dout * cache, {}


class Sigmoid(Layer):
    def forward(self, x, train=False):
        y = ops.sigmoid(x)
        return y, (y if train else None)

    def backward(self, dout, cache):
        return dout * cache * (1.0 - cache), {}


class Flatten(Layer):
    """[N, H, W, C] -> [N, H*W*C]."""

    def forward(self, x, train=False):
        return x.reshape(len(x), math.prod(x.shape[1:])), (x.shape if train else None)

    def backward(self, dout, cache):
        return dout.reshape(cache), {}


class Reshape(Layer):
    """[N, prod(target)] -> [N, *target]."""

    def __init__(self, target):
        super().__init__()
        self.target = tuple(target)

    def forward(self, x, train=False):
        return x.reshape(x.shape[0], *self.target), None

    def backward(self, dout, cache):
        return dout.reshape(dout.shape[0], -1), {}
