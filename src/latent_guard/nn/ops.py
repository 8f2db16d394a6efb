"""Functional forward/backward kernels behind the layer objects.

Activations are channels-last batches ``[N, H, W, C]``, so the im2col/shift
buffers copy in long contiguous runs; on a single core the hot loop is
memory traffic, not FLOPs.  Conv weights keep the canonical
``[C_out, C_in, 3, 3]`` shape.  Max pooling and the upsample gradient work
on the four strided views ``x[:, i::2, j::2]`` of the 2x2 window corners,
with no 5-D transpose copy; pooling computes its uint8 first-max-wins
routing indices only when asked to (training).  Dense and ReLU are
one-liners and live in layers.py.
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


def maxpool2x2_fwd_nhwc(x, indices=True):
    """Disjoint 2x2/stride-2 max pooling.  Returns (output, indices or None).

    Indices are uint8 flat positions 0..3 inside each window (row-major),
    shaped like the output; ties resolve to the first maximum.  They are
    computed only if ``indices`` is true.
    """
    h, w = x.shape[1:3]
    if h % 2 or w % 2:
        raise ValueError(
            f"maxpool2x2 requires even spatial dims, got {h}x{w}; "
            "no odd-dimension padding policy is configured"
        )
    a, b, c, d = x[:, 0::2, 0::2], x[:, 0::2, 1::2], x[:, 1::2, 0::2], x[:, 1::2, 1::2]
    top, bot = np.maximum(a, b), np.maximum(c, d)
    out = np.maximum(top, bot)
    if not indices:
        return out, None
    # tournament: each half keeps its first max, the top half wins ties
    idx = np.where(bot > top, (d > c).view(np.uint8) + np.uint8(2), (b > a).view(np.uint8))
    return out, idx


def maxpool2x2_bwd_nhwc(dout, idx):
    """Routes each upstream element to its window's argmax position.

    Each window slot is ``dout`` bitwise-ANDed with an all-ones or all-zeros
    mask, which (unlike a 0/1 multiply) leaves +0.0, never -0.0 or NaN, off
    the argmax.
    """
    n, ho, wo, c = dout.shape
    dx = np.empty((n, ho, 2, wo, 2, c))
    bits = dout.view(np.int64)
    for k in range(4):
        mask = -(idx == k).astype(np.int64)  # 0 or all bits set
        np.bitwise_and(bits, mask, out=dx[:, :, k // 2, :, k % 2, :].view(np.int64))
    return dx.reshape(n, 2 * ho, 2 * wo, c)


def upsample2x2_fwd_nhwc(x):
    """Each element replicated into a 2x2 block (nearest-neighbor, factor 2)."""
    return np.repeat(np.repeat(x, 2, axis=1), 2, axis=2)


def upsample2x2_bwd_nhwc(dout):
    """Sums upstream gradients over each 2x2 replication block, corners added
    in row-major order (numpy's order for a sum over the block axes, C > 1)."""
    return dout[:, 0::2, 0::2] + dout[:, 0::2, 1::2] + dout[:, 1::2, 0::2] + dout[:, 1::2, 1::2]


def sigmoid(x):
    """Numerically stable logistic function; outputs lie in (0, 1)."""
    return expit(np.asarray(x, dtype=np.float64))
