"""Functional forward/backward kernels behind the layer objects.

Activations are channels-last batches ``[N, H, W, C]``, so the im2col/shift
buffers copy in long contiguous runs; on a single core the hot loop is
memory traffic, not FLOPs.  Conv weights keep the canonical
``[C_out, C_in, 3, 3]`` shape.  Dense and ReLU are one-liners and live in
layers.py.
"""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view
from scipy.special import expit

# Up to this many input channels a single [N*H*W, 9*C_in] im2col block is
# cheap to materialize; above it the kernels run batched matmuls directly
# on strided views of the padded input, which avoids any window copy.
_IM2COL_MAX_CIN = 4


def conv3x3_fwd_nhwc(x, weights, bias=None):
    """Same-padding 3x3 convolution on [N, H, W, C_in].

    Returns ``(out, cache)``; the cache (tagged im2col block or padded
    input) lets backward compute the weight gradient without refetching
    windows.
    """
    n, h, w, c_in = x.shape
    c_out = weights.shape[0]
    xp = np.pad(x, ((0, 0), (1, 1), (1, 1), (0, 0)))
    if c_in <= _IM2COL_MAX_CIN:
        win = sliding_window_view(xp, (3, 3), axis=(1, 2))  # [N,H,W,Ci,3,3]
        cols = win.transpose(0, 1, 2, 4, 5, 3).reshape(n * h * w, 9 * c_in)
        wmat = weights.transpose(2, 3, 1, 0).reshape(9 * c_in, c_out)
        out = (cols @ wmat).reshape(n, h, w, c_out)
        cache = ("cols", cols)
    else:
        # one batched GEMM per row offset on a zero-copy view of the padded
        # input, then three shifted adds per offset
        wp = w + 2
        out = np.zeros((n, h, w, c_out))
        for u in range(3):
            block = xp[:, u:u + h, :, :].reshape(n, h * wp, c_in)
            wu = weights[:, :, u, :].transpose(1, 2, 0).reshape(c_in, 3 * c_out)
            yu = (block @ wu).reshape(n, h, wp, 3, c_out)
            for v in range(3):
                out += yu[:, :, v:v + w, v, :]
        cache = ("padded", xp)
    if bias is not None:
        out += bias
    return out, cache


def conv3x3_param_grads_nhwc(dout, cache, weight_shape):
    """Weight/bias gradients from the upstream grad and the forward cache."""
    c_out, c_in = weight_shape[:2]
    kind, data = cache
    if kind == "cols":
        dwmat = data.T @ dout.reshape(-1, c_out)  # [9*Ci, Co]
        dw = dwmat.reshape(3, 3, c_in, c_out).transpose(3, 2, 0, 1).copy()
    else:
        xp = data
        n, hp, wp, _ = xp.shape
        h, w = hp - 2, wp - 2
        # place dout at each column shift, then one batched GEMM per row
        # offset against the padded-input view
        dpad3 = np.zeros((n, h, wp, 3, c_out))
        for v in range(3):
            dpad3[:, :, v:v + w, v, :] = dout
        dpad3 = dpad3.reshape(n, h * wp, 3 * c_out)
        dw = np.empty(weight_shape)
        for u in range(3):
            block = xp[:, u:u + h, :, :].reshape(n, h * wp, c_in)
            gu = np.matmul(block.transpose(0, 2, 1), dpad3).sum(axis=0)
            dw[:, :, u, :] = gu.reshape(c_in, 3, c_out).transpose(2, 0, 1)
    db = dout.reshape(-1, c_out).sum(axis=0)
    return dw, db


def conv3x3_input_grad_nhwc(dout, weights):
    """Input gradient: full correlation with the 180-degree-rotated kernel."""
    w_swap = np.ascontiguousarray(weights.transpose(1, 0, 2, 3)[:, :, ::-1, ::-1])
    dx, _ = conv3x3_fwd_nhwc(dout, w_swap)
    return dx


def maxpool2x2_fwd_nhwc(x):
    """Disjoint 2x2/stride-2 max pooling.  Returns (output, argmax_indices).

    Indices are flat positions 0..3 inside each window (row-major), shaped
    like the output; ties resolve to the first maximum, deterministically.
    """
    n, h, w, c = x.shape
    if h % 2 or w % 2:
        raise ValueError(
            f"maxpool2x2 requires even spatial dims, got {h}x{w}; "
            "no odd-dimension padding policy is configured"
        )
    windows = (
        x.reshape(n, h // 2, 2, w // 2, 2, c)
        .transpose(0, 1, 3, 5, 2, 4)
        .reshape(n, h // 2, w // 2, c, 4)
    )
    idx = windows.argmax(axis=4)
    out = np.take_along_axis(windows, idx[..., None], axis=4)[..., 0]
    return out, idx


def maxpool2x2_bwd_nhwc(dout, idx):
    """Routes each upstream element to its window's argmax position."""
    n, ho, wo, c = dout.shape
    dwin = np.zeros((n, ho, wo, c, 4))
    np.put_along_axis(dwin, idx[..., None], dout[..., None], axis=4)
    return (
        dwin.reshape(n, ho, wo, c, 2, 2)
        .transpose(0, 1, 4, 2, 5, 3)
        .reshape(n, 2 * ho, 2 * wo, c)
    )


def upsample2x2_fwd_nhwc(x):
    """Each element replicated into a 2x2 block (nearest-neighbor, factor 2)."""
    return np.repeat(np.repeat(x, 2, axis=1), 2, axis=2)


def upsample2x2_bwd_nhwc(dout):
    """Sums upstream gradients over each 2x2 replication block."""
    n, h2, w2, c = dout.shape
    return dout.reshape(n, h2 // 2, 2, w2 // 2, 2, c).sum(axis=(2, 4))


def sigmoid(x):
    """Numerically stable logistic function; outputs lie in (0, 1)."""
    return expit(np.asarray(x, dtype=np.float64))
