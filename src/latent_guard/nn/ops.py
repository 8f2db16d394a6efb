"""Functional forward/backward kernels behind the layer objects.

Activations are channels-last batches ``[N, H, W, C]``, so the im2col/shift
buffers copy in long contiguous runs; on a single core the hot loop is
memory traffic, not FLOPs.  Conv weights keep the canonical
``[C_out, C_in, 3, 3]`` shape.  A convolution's training cache is its
zero-padded input: with few input channels the backward rebuilds the
forward's im2col columns from it, the same bytes, rather than keeping
columns nine times the input's size alive between the passes (the
store-versus-recompute trade of Chen et al. 2016, arXiv 1604.06174).  An
input gradient with more than ``_IM2COL_MAX_CIN`` upstream channels (the
decoder's 2->32 conv) runs ``_GRAD_BAND`` images at a time, so only one
band's upstream gradient is padded at once; its GEMMs are per image, so
the band changes no bit.

Max pooling and the upsample gradient work on the four strided views
``x[:, i::2, j::2]`` of the 2x2 window corners, with no 5-D transpose copy;
pooling computes its uint8 first-max-wins routing indices only when asked
to (training), from the tournament's boolean comparisons, and the backward
routes a gradient to a corner by ANDing its bits with a boolean selection.
Dense and ReLU are one-liners and live in layers.py.

Two fused kernels keep the autoencoder's 28x28x32 tensors out of memory.
The stem, Conv3x3 -> ReLU -> MaxPool2x2, reads the 4x4 input patch behind
each pooled pixel once and runs one GEMM per pool-window corner on it, with
that corner's 3x3 kernel placed in a 4x4 weight grid of exact zeros; it
pools the four results, block by block of patch rows, before the bias and
ReLU.  The tail, ReLU -> Upsample2x2 -> Conv3x3, writes ``relu(x)`` once
into a zero-bordered buffer and runs four phase convolutions on it at half
resolution (the sub-pixel identity of Shi et al. 2016, arXiv 1609.05158,
in reverse).  That buffer is its training cache: the backward takes the
ReLU mask from it, since ``relu(x) > 0`` exactly where ``x > 0`` (as
In-Place Activated BatchNorm recovers what its activation needs from the
output it stores, Rota Bulo et al. 2017, arXiv 1712.02616), and then
builds the input gradient in it, so the 14x14x32 end holds one
padded-size buffer at a time.  Both forwards give the unfused chains'
bits: the stem's zero taps add exact zeros to finite sums, and the tail
keeps the unfused GEMM shape and tap order, since pre-summed taps or one
merged GEMM change the rounding (4e-15 on a 128-image chunk).  Both
backwards sum in their own order (the stem's per window corner), so their
dW and db match the unfused chains' to rounding; the tail's input
gradient keeps the bits it had with a separate ReLU layer before it.  The
stem's backward folds the ReLU mask into each corner's routing, with no
separate masked copy of the gradient, and keeps one 9-column GEMM per
corner: a single 16-column GEMM over the patches, cut down to each
corner's taps, rounds differently on some OpenBLAS kernels.
"""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view
from scipy.special import expit

# Up to this many input channels a single [N*H*W, 9*C_in] im2col block is
# cheap to materialize, in the forward and again in the weight gradient;
# above it the kernels run batched matmuls directly on strided views of the
# padded input, which avoids any window copy.
_IM2COL_MAX_CIN = 4

# Images per band of a many-channel input gradient (``conv3x3_input_grad_nhwc``):
# a band's padded upstream gradient is a quarter of a 64-row chunk's.
_GRAD_BAND = 16

# Rows of 4x4 patches per block of the fused stem: the four corner GEMM
# outputs of one block (4 x 784 x 32 float64, 0.8 MB) stay in a core's L2
# cache until the max reads them.  A constant, so the GEMM shapes are fixed.
_STEM_ROWS = 784


def _im2col(xp):
    """The [N*H*W, 9*C_in] im2col block of a padded input [N, H+2, W+2,
    C_in], columns in (row, column, channel) tap order."""
    n, hp, wp, c_in = xp.shape
    win = sliding_window_view(xp, (3, 3), axis=(1, 2))  # [N,H,W,Ci,3,3]
    return win.transpose(0, 1, 2, 4, 5, 3).reshape(n * (hp - 2) * (wp - 2), 9 * c_in)


def conv3x3_fwd_nhwc(x, weights, bias=None):
    """Same-padding 3x3 convolution on [N, H, W, C_in].

    Returns ``(out, padded input)``; backward computes the weight gradient
    from the padded input, so no window copy outlives the forward.
    """
    n, h, w, c_in = x.shape
    c_out = weights.shape[0]
    xp = np.pad(x, ((0, 0), (1, 1), (1, 1), (0, 0)))
    if c_in <= _IM2COL_MAX_CIN:
        wmat = weights.transpose(2, 3, 1, 0).reshape(9 * c_in, c_out)
        out = (_im2col(xp) @ wmat).reshape(n, h, w, c_out)
    else:
        # one batched GEMM per row offset on a zero-copy view of the padded
        # input, then three shifted adds per offset into channel-planar
        # [C_out, N, H, W] planes, whose innermost runs are image rows
        # rather than C_out values; the same adds, in the same order
        wp = w + 2
        planes = np.zeros((c_out, n, h, w))
        for u in range(3):
            block = xp[:, u:u + h, :, :].reshape(n, h * wp, c_in)
            wu = weights[:, :, u, :].transpose(1, 2, 0).reshape(c_in, 3 * c_out)
            yu = (block @ wu).reshape(n, h, wp, 3, c_out).transpose(3, 4, 0, 1, 2)
            for v in range(3):
                planes += yu[v, :, :, :, v:v + w]
        out = np.ascontiguousarray(planes.transpose(1, 2, 3, 0))
    if bias is not None:
        out += bias
    return out, xp


def im2col_param_grads(dout, cols, weight_shape):
    """Weight/bias gradients from the upstream grad [..., C_out] and the
    im2col columns [M, 9*C_in] of its M output pixels: one GEMM."""
    c_out, c_in = weight_shape[:2]
    dout = dout.reshape(-1, c_out)
    dw = (cols.T @ dout).reshape(3, 3, c_in, c_out).transpose(3, 2, 0, 1).copy()
    return dw, dout.sum(axis=0)


def conv3x3_param_grads_nhwc(dout, xp, weight_shape):
    """Weight/bias gradients from the upstream grad and the padded input
    the forward returned.  Up to ``_IM2COL_MAX_CIN`` input channels it
    rebuilds the forward's im2col columns, the same bytes in the same
    layout, for one GEMM; above it, batched GEMMs run on views of the
    padded input."""
    c_out, c_in = weight_shape[:2]
    if c_in <= _IM2COL_MAX_CIN:
        return im2col_param_grads(dout, _im2col(xp), weight_shape)
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
    """Input gradient: full correlation with the 180-degree-rotated kernel.
    Above ``_IM2COL_MAX_CIN`` upstream channels it runs ``_GRAD_BAND``
    images at a time, so only one band's upstream gradient is padded at
    once; that path's GEMMs are per image and its adds elementwise, so the
    bits are those of one call over the whole batch."""
    w_swap = np.ascontiguousarray(weights.transpose(1, 0, 2, 3)[:, :, ::-1, ::-1])
    if dout.shape[3] <= _IM2COL_MAX_CIN:
        return conv3x3_fwd_nhwc(dout, w_swap)[0]
    dx = np.empty((*dout.shape[:3], w_swap.shape[0]))
    for i in range(0, len(dout), _GRAD_BAND):
        dx[i:i + _GRAD_BAND] = conv3x3_fwd_nhwc(dout[i:i + _GRAD_BAND], w_swap)[0]
    return dx


def _max4(a, b, c, d, indices, out=None, idx=None):
    """Elementwise max of the four corners of 2x2 windows (row-major order)
    and, if ``indices`` is true, the uint8 position 0..3 of the first max,
    built from boolean comparisons with no ``np.where`` over uint8 arrays.
    A comparison with NaN is false, so the earlier corner or half wins it,
    as it wins a tie (-0.0 against +0.0 is one).  ``out`` and ``idx``, if
    given, receive the results."""
    top, bot = np.maximum(a, b), np.maximum(c, d)
    out = np.maximum(top, bot, out=out)
    if not indices:
        return out, None
    # tournament: each half keeps its first max, the top half wins ties;
    # the index is (bottom half won) * 2 + (second column won in that half)
    hi = bot > top
    lo = (hi & (d > c)) | (~hi & (b > a))
    idx = np.left_shift(hi.view(np.uint8), 1, out=idx)
    idx |= lo.view(np.uint8)
    return out, idx


def _check_even(h, w):
    if h % 2 or w % 2:
        raise ValueError(
            f"maxpool2x2 requires even spatial dims, got {h}x{w}; "
            "no odd-dimension padding policy is configured"
        )


def maxpool2x2_fwd_nhwc(x, indices=True):
    """Disjoint 2x2/stride-2 max pooling.  Returns (output, indices or None).

    Indices are uint8 flat positions 0..3 inside each window (row-major),
    shaped like the output; ties resolve to the first maximum.  They are
    computed only if ``indices`` is true.
    """
    _check_even(*x.shape[1:3])
    return _max4(x[:, 0::2, 0::2], x[:, 0::2, 1::2], x[:, 1::2, 0::2], x[:, 1::2, 1::2], indices)


def _route(dout, sel, out):
    """Writes ``dout`` where the boolean ``sel`` is true, and +0.0 elsewhere,
    into ``out``: ``dout``'s bits ANDed with ``-sel`` as int8 (0 or all bits
    set, widened by the ufunc), which, unlike a 0/1 multiply, never leaves
    -0.0 or NaN where ``sel`` is false."""
    np.bitwise_and(dout.view(np.int64), -sel.view(np.int8), out=out.view(np.int64))


def maxpool2x2_bwd_nhwc(dout, idx):
    """Routes each upstream element to its window's argmax position."""
    n, ho, wo, c = dout.shape
    dx = np.empty((n, ho, 2, wo, 2, c))
    for k in range(4):
        _route(dout, idx == k, out=dx[:, :, k // 2, :, k % 2, :])
    return dx.reshape(n, 2 * ho, 2 * wo, c)


def upsample2x2_fwd_nhwc(x):
    """Each element replicated into a 2x2 block (nearest-neighbor, factor 2)."""
    return np.repeat(np.repeat(x, 2, axis=1), 2, axis=2)


def upsample2x2_bwd_nhwc(dout):
    """Sums upstream gradients over each 2x2 replication block, corners added
    in row-major order (numpy's order for a sum over the block axes, C > 1)."""
    return dout[:, 0::2, 0::2] + dout[:, 0::2, 1::2] + dout[:, 1::2, 0::2] + dout[:, 1::2, 1::2]


def _corner_weights(weights):
    """The four pool-window corners' GEMM weights over 4x4 patches,
    [4, 16*C_in, C_out]: corner (a, b) holds the 3x3 kernel at patch offset
    (a, b), in the patch's (row, column, channel) order, and exact zeros in
    the seven other taps."""
    c_out, c_in = weights.shape[:2]
    w4 = np.zeros((4, 4, 4, c_in, c_out))
    for k in range(4):
        a, b = divmod(k, 2)
        w4[k, a:a + 3, b:b + 3] = weights.transpose(2, 3, 1, 0)
    return w4.reshape(4, 16 * c_in, c_out)


def conv3x3_relu_pool_fwd_nhwc(x, weights, bias, train=False):
    """Conv3x3 -> ReLU -> MaxPool2x2 on [N, H, W, C_in], with few C_in.

    Each pooled pixel reads the 4x4, stride-2 patch of the padded input
    behind its window, one row of ``P`` [N*H/2*W/2, 16*C_in].  Corner k's
    pre-activations are one GEMM of ``P`` against ``_corner_weights``; the
    patch lists each corner's nine taps in the unfused im2col order (row,
    column, channel), and a +0.0 weight times a finite input adds a signed
    zero, which changes no nonzero partial sum, so the GEMM gives the
    unfused conv's bits.  The four GEMMs run on ``_STEM_ROWS``-row blocks of ``P``
    so that their outputs stay in cache while the max reads them.  The max
    gets the bias and then ReLU, which is exact: rounding is monotone, so
    max(y) + b rounds to max(y + b), and ReLU commutes with max.  Returns
    ``(out, cache)``; the cache (None unless ``train``) holds ``P``, the
    routing indices of the tournament over the four corners, and the ReLU
    mask of the pooled pre-activation.
    """
    n, h, w, c_in = x.shape
    _check_even(h, w)
    c_out = weights.shape[0]
    ho, wo = h // 2, w // 2
    xp = np.pad(x, ((0, 0), (1, 1), (1, 1), (0, 0)))
    win = sliding_window_view(xp, (4, 4), axis=(1, 2))[:, ::2, ::2]  # [N,Ho,Wo,Ci,4,4]
    p = win.transpose(0, 1, 2, 4, 5, 3).reshape(n * ho * wo, 16 * c_in)
    wk = _corner_weights(weights)
    m = len(p)
    out = np.empty((m, c_out))
    idx = np.empty((m, c_out), np.uint8) if train else None
    y = np.empty((4, _STEM_ROWS, c_out))
    for i in range(0, m, _STEM_ROWS):
        rows = slice(i, i + _STEM_ROWS)
        pb = p[rows]
        yb = y[:, :len(pb)]
        for k in range(4):
            np.matmul(pb, wk[k], out=yb[k])
        if train:
            _max4(*yb, True, out=out[rows], idx=idx[rows])
        else:
            np.maximum(yb[0], yb[1], out=yb[0])
            np.maximum(yb[2], yb[3], out=yb[2])
            np.maximum(yb[0], yb[2], out=out[rows])
    out = out.reshape(n, ho, wo, c_out)
    out += bias
    cache = (p, idx.reshape(out.shape), out > 0) if train else None
    np.maximum(out, 0.0, out=out)
    return out, cache


def conv3x3_relu_pool_param_grads_nhwc(dout, cache, weight_shape):
    """Weight/bias gradients of the fused stem, the adjoint of its forward:
    for each corner, its nine taps copied out of the cached patches (the
    unfused im2col columns of that corner's pixels) against the gradient
    routed to it, summed over corners (unfused result to rounding).  The
    ReLU mask folds into each corner's routing: a masked window routes
    +0.0, where a separate ``dout * mask`` pass leaves -0.0 under a
    negative gradient.  A zero term changes no sum that has a nonzero
    term, and the tests pin dW and db to that pass's bits."""
    p, idx, mask = cache
    taps = p.reshape(-1, 4, 4, weight_shape[1])
    routed = np.empty(dout.shape)
    per_corner = []
    for k in range(4):
        a, b = divmod(k, 2)
        cols = taps[:, a:a + 3, b:b + 3].reshape(len(taps), -1)
        _route(dout, (idx == k) & mask, out=routed)
        per_corner.append(im2col_param_grads(routed, cols, weight_shape))
    return tuple(g0 + g1 + g2 + g3 for g0, g1, g2, g3 in zip(*per_corner))


def _phase_taps(u):
    """(v, a, b, r, s) for every tap (u, v) of row offset ``u``, in the
    unfused summation order, and every output phase (a, b): the tap reads
    the zero-padded half-resolution input at offset (r, s) from the phase
    pixel's origin."""
    for v in range(3):
        for a in range(2):
            for b in range(2):
                yield v, a, b, (a + u - 1) // 2 + 1, (b + v - 1) // 2 + 1


def relu_upsample2x2_conv3x3_fwd_nhwc(x, weights, bias):
    """ReLU -> Upsample2x2 -> same-padding Conv3x3, computed on the
    [N, H, W, C_in] input without materializing the 2x-upsampled tensor.

    ``relu(x)`` is written once, into the interior of a zero-bordered
    buffer, which stands for both the ReLU's output and the unfused conv's
    padded input.  Output pixel (2p + a, 2q + b) is the phase (a, b) pixel
    (p, q); its tap (u, v) reads padded input pixel (p + r, q + s) (see
    ``_phase_taps``).  Per row offset u this runs the batched GEMM the
    unfused padded path runs, of shape [N, (H+2)(W+2), C_in] @
    [C_in, 3 C_out], and adds its nine tap terms into each phase before
    the next offset's GEMM, in the unfused (u, v) order, so every output
    is bit-identical to the unfused chain with C_in > 4.  Pre-summing the
    taps that share a source pixel, or one [C_in, 9 C_out] GEMM, would
    change the rounding.  Returns ``(out, padded relu(x))``.
    """
    n, h, w, c_in = x.shape
    c_out = weights.shape[0]
    xq = np.zeros((n, h + 2, w + 2, c_in))
    np.maximum(x, 0.0, out=xq[:, 1:-1, 1:-1])
    rows = xq.reshape(n, (h + 2) * (w + 2), c_in)
    out = np.zeros((2, 2, n, h, w, c_out))  # phase-major: contiguous adds
    for u in range(3):
        wu = weights[:, :, u, :].transpose(1, 2, 0).reshape(c_in, 3 * c_out)
        zu = (rows @ wu).reshape(n, h + 2, w + 2, 3, c_out)
        for v, a, b, r, s in _phase_taps(u):
            out[a, b] += zu[:, r:r + h, s:s + w, v, :]
    out += bias
    return out.transpose(2, 3, 0, 4, 1, 5).reshape(n, 2 * h, 2 * w, c_out), xq


def relu_upsample2x2_conv3x3_bwd_nhwc(dout, xq, weights):
    """(dx, dw, db) of the fused tail from the upstream grad and the padded
    ``relu(x)`` its forward returned, the adjoints of the phase
    convolutions.  ``g[u, v]`` sums, at each padded input pixel, the
    upstream gradient of every output whose tap (u, v) reads that pixel;
    one GEMM against it gives the weight gradient and one the input
    gradient.  Both sum in a different order from the unfused chain, so
    they agree with it to rounding only.

    The input gradient's GEMM runs over every padded pixel, and its
    interior is multiplied by the ReLU mask ``relu(x) > 0``, which holds
    exactly where ``x > 0``, as a separate ReLU's ``dout * mask`` would
    (-0.0 under a negative gradient).  It is built in ``xq``'s own
    buffer, which is dead once the weight gradient and the mask are
    taken: the GEMM writes into it, and each image's masked interior then
    moves to the front, so ``dx`` is a contiguous view of that buffer and
    the pass holds one padded-size array.  ``xq`` is spent.  A GEMM over
    the interior rows alone would round some rows differently on some
    OpenBLAS kernels, where its row count leaves a remainder for the edge
    micro-kernels."""
    n, hp, wp, c_in = xq.shape
    h, w = hp - 2, wp - 2
    c_out = weights.shape[0]
    d_phase = np.ascontiguousarray(dout.reshape(n, h, 2, w, 2, c_out).transpose(2, 4, 0, 1, 3, 5))
    g = np.zeros((3, 3, n, hp, wp, c_out))
    for u in range(3):
        for v, a, b, r, s in _phase_taps(u):
            g[u, v, :, r:r + h, s:s + w] += d_phase[a, b]
    g = g.reshape(9, -1, c_out).transpose(1, 0, 2).reshape(-1, 9 * c_out)  # [N*Hp*Wp, 9*Co]
    dw = (xq.reshape(-1, c_in).T @ g).reshape(c_in, 3, 3, c_out).transpose(3, 0, 1, 2).copy()
    db = dout.reshape(-1, c_out).sum(axis=0)
    mask = xq[:, 1:-1, 1:-1] > 0
    buf = xq.reshape(-1)  # a view: the forward's buffer is contiguous
    w9 = weights.transpose(2, 3, 0, 1).reshape(9 * c_out, c_in)
    dxp = np.matmul(g, w9, out=buf.reshape(-1, c_in)).reshape(n, hp, wp, c_in)
    # image i's interior moves to [i, i + 1) * H*W*C_in, which ends before
    # any later image's interior starts, so no source is overwritten before
    # it is read; numpy buffers an image's overlap with its own source
    dx = buf[:n * h * w * c_in].reshape(n, h, w, c_in)
    for i in range(n):
        np.multiply(dxp[i, 1:-1, 1:-1], mask[i], out=dx[i])
    return dx, dw, db


def sigmoid(x):
    """Numerically stable logistic function; outputs lie in (0, 1)."""
    return expit(np.asarray(x, dtype=np.float64))
