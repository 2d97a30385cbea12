"""Minimal dense-tensor kernel: 3D conv/pool/linear layers with exact backward
passes, plain SGD, and a finite-difference gradient checker.

Every convolution has the codec's one geometry: a 3x3x3 kernel, stride 1
and zero padding 1 on each axis ("same": the output keeps the input's
extent), with two or more filters. Every convolution forward runs one
kernel, ``Conv3d._slab_loop``: per kernel tap, one matmul of the tap's
weights with a contiguous column slice of the flattened padded input,
accumulated over cache-sized slabs of output depth rows. Each tap's
product goes into the accumulator in place, through one call of numpy's
own OpenBLAS dgemm with beta = 1, reached with ctypes. A matmul with a
unit dimension or a deep input (see ``_slab_loop``), and every tap on a
numpy without that dgemm, runs ``acc += W_tap @ slice`` instead. Up to 8
input channels, its bytes are those of a per-tap matmul over copied
windows, because each output gets the same gemm products in the same
order.

:class:`ConvReLUPool3d` fuses conv -> ReLU -> max-pool for an input layer:
it convolves only the extent the pool reads, one group of pool depth
windows at a time, pooling each group as soon as it is convolved, and
forms the weight gradient from the pool winners' input patches alone, with
outputs bitwise equal to the three separate layers.

All arrays are C-contiguous float64 ndarrays. Layers hold parameters only;
per-call activations live on an explicit :class:`Tape`, so inference with
``tape=None`` is a pure function and a shared model is safe to use from
several threads: the dgemm calls release the interpreter lock, and each
call writes only its own accumulator. Pooling windows tile the input: the
stride equals the kernel, and a trailing remainder shorter than the kernel
is dropped. Every ``backward`` takes ``(upstream, tape)``, records the
layer's parameter gradients on the tape and returns the input gradient
(None from the fused input layer).

Threads: a training pass of :class:`ConvReLUPool3d` (a forward that
records a tape, and its backward) splits its independent parts, the
forward's pool-depth groups and the backward's per-filter patch gathers,
on a fixed schedule (``_split``): the calling thread runs the even-numbered
parts and one helper thread the odd ones. For the codec the caller runs 3
of the 5 groups and 2 of the 4 filters, the helper the other 2 and 2. The
parts of one call are of equal size, so the schedule is fixed rather than
decided at run time: a scheduler that handed each part to whichever thread
was free read within the ``train`` benchmark's run-to-run spread (medians
1.8% apart over 8 pairs on 2 vCPUs). The helper is started and joined
inside the call, so no thread outlives a ``forward`` or ``backward``, and
an error raised on it is raised on the caller. Each thread runs the same
dgemm, pool and gemv calls on the same operands as a single thread would
and writes disjoint output slices, so the bytes do not depend on the
split. An inference pass (``tape=None``)
and every other layer run on the calling thread alone: the simulation
already keeps the second core busy rendering the next clip, and splitting
inference too, with three threads on two cores, cost the ``sim_gated``
benchmark 10-21% of its rate (3 pairs on 2 vCPUs) and ``sim_quiet`` 1-9%
(3 pairs).
"""
from __future__ import annotations

import ctypes
from concurrent.futures import ThreadPoolExecutor

import numpy as np
from numpy.lib.stride_tricks import as_strided, sliding_window_view

AXIS_NAMES = ("channels", "depth", "height", "width")

# the one conv kernel; every conv pads each axis by 1 and steps by 1
CONV_KERNEL = (3, 3, 3)
_TAPS = tuple(np.ndindex(CONV_KERNEL))     # (i, j, k), row-major

# Column budget of one depth slab in Conv3d._slab_loop. A 4-channel float64
# accumulator of 16,384 columns is 512 KiB, so it fits in a 2 MiB L2 with
# the tap product and the input slice. The codec's 114 x 114 padded encoder
# plane then runs one depth row per slab, and every decoder plane one slab.
_SLAB_COLUMNS = 16384

# Most input channels a tap's in-place dgemm may sum over: the most any codec
# conv has and the most the tests' random oracles draw. Deeper layers take
# the numpy route. Against the per-tap-copy oracle, on OpenBLAS's SkylakeX
# kernels, convs with 2, 3, 4 or 8 filters over (c, 2, 3, 5), (c, 3, 9, 40)
# and (c, 4, 20, 20) inputs matched on the dgemm route up to 15 channels.
# From 16 on, both routes differ from the oracle in the last bits on the two
# larger inputs for most filter counts (BLAS rounds such products
# differently for the oracle's compact windows and for a slab's column
# span), while (c, 2, 3, 5) inputs still matched up to 400. OpenBLAS also
# splits a product deeper than its panels (384 on AVX-512, 256 on Haswell)
# and adds each panel onto C, so with beta = 1 the accumulator would join
# the first panel's sum instead of the whole product.
_GEMM_MAX_CHANNELS = 8


def _load_dgemm():
    """numpy's own ILP64 OpenBLAS cblas_dgemm, or None where numpy is not
    built on scipy-openblas (its symbols then carry other names)."""
    try:
        from numpy._core import _multiarray_umath
        dgemm = ctypes.CDLL(_multiarray_umath.__file__).scipy_cblas_dgemm64_
    except (ImportError, OSError, AttributeError):
        return None
    i64, ptr, dbl = ctypes.c_int64, ctypes.c_void_p, ctypes.c_double
    # (order, trans_a, trans_b, M, N, K, alpha, A, lda, B, ldb, beta, C, ldc)
    dgemm.argtypes = [ctypes.c_int] * 3 + [i64] * 3 + [dbl, ptr, i64, ptr, i64,
                                                       dbl, ptr, i64]
    dgemm.restype = None
    return dgemm


_DGEMM = _load_dgemm()
_ROW_MAJOR, _NO_TRANS = ctypes.c_int(101), ctypes.c_int(111)
_ONE = ctypes.c_double(1.0)


def _split(n, work):
    """Run ``work(i, slot)`` for every i in range(n) on a fixed schedule (see
    the module docstring): the calling thread (slot 0) takes the even
    indices and one helper thread (slot 1) the odd ones. The ``with`` block
    joins the helper before the call returns or raises, and an exception
    raised on the helper is then re-raised here. With n < 2 no helper is
    started."""
    def run(slot):
        for i in range(slot, n, 2):
            work(i, slot)

    if n < 2:
        return run(0)
    with ThreadPoolExecutor(max_workers=1) as pool:
        helper = pool.submit(run, 1)
        run(0)
    helper.result()


class ShapeError(ValueError):
    """Array shape incompatible with a layer, naming the offending axis."""


class StateError(RuntimeError):
    """Backward called without a matching forward on the same tape."""


class Tape:
    """Activation cache for one forward pass plus per-parameter gradients.

    After ``backward``, ``grads(layer)`` returns gradient arrays aligned
    one-to-one with ``layer.params()``.
    """

    def __init__(self):
        self._cache = {}
        self._grads = {}

    def put(self, layer, value):
        self._cache[id(layer)] = value

    def take(self, layer):
        try:
            return self._cache.pop(id(layer))
        except KeyError:
            raise StateError(
                f"backward before forward for {type(layer).__name__}") from None

    def set_grads(self, layer, grads):
        self._grads[id(layer)] = grads

    def grads(self, layer):
        return self._grads.get(id(layer), [])


def he_uniform(shape, fan_in, rng):
    """He-uniform init: U(-sqrt(6/fan_in), +sqrt(6/fan_in)).

    Values are rounded to the float32 grid (kept as float64) so that a
    freshly initialized model survives the 32-bit weight container exactly.
    """
    limit = np.sqrt(6.0 / fan_in)
    w = rng.uniform(-limit, limit, shape)
    return w.astype(np.float32).astype(np.float64)


def pool3d_output_shape(in_shape, kernel):
    """Extents of pooling windows that tile the input: floor(in / kernel)."""
    return tuple(in_shape[i] // kernel[i] for i in range(3))


def _pool_kernel(kernel):
    """A pool kernel as a tuple, after checking every entry is >= 1."""
    kernel = tuple(kernel)
    if any(k < 1 for k in kernel):
        raise ValueError(f"pool kernel entries must be >= 1, got {kernel}")
    return kernel


def _pooled_shape(layer, x, kernel):
    """pool3d_output_shape of a (C,D,H,W) input, after checking that each
    axis holds at least one window; ``layer`` names the caller in errors."""
    for i in range(3):
        if x.shape[1 + i] < kernel[i]:
            raise ShapeError(
                f"{layer} axis '{AXIS_NAMES[1 + i]}': extent {x.shape[1 + i]} "
                f"< pool kernel {kernel[i]}")
    return pool3d_output_shape(x.shape[1:], kernel)


class Conv3d:
    """3x3x3 "same" cross-correlation (stride 1, zero padding 1, so the
    output keeps the input's extent) with bias. It needs two or more
    filters: with one, every tap's matmul is a gemv, whose rounding moves
    with the column count, so a cropped extent would not match the full
    conv's bytes."""

    def __init__(self, in_channels, out_channels, rng=None):
        if out_channels < 2:
            raise ValueError(
                f"conv3d needs >= 2 output channels, got {out_channels}")
        self.in_channels = in_channels
        self.out_channels = out_channels
        if rng is None:
            rng = np.random.default_rng(0)
        self.weights = he_uniform((out_channels, in_channels) + CONV_KERNEL,
                                  in_channels * len(_TAPS), rng)
        self.bias = np.zeros(out_channels)

    def params(self):
        return [self.weights, self.bias]

    def _check_input(self, x):
        if x.ndim != 4:
            raise ShapeError(f"conv3d expects a (C,D,H,W) input, got rank {x.ndim}")
        if x.shape[0] != self.in_channels:
            raise ShapeError(
                f"conv3d axis 'channels': expected {self.in_channels}, got {x.shape[0]}")
        if 0 in x.shape[1:]:
            raise ShapeError(
                f"conv3d axis '{AXIS_NAMES[x.shape.index(0, 1)]}' is empty")

    def _pad(self, x):
        return np.pad(x, ((0, 0), (1, 1), (1, 1), (1, 1)))

    def _slab_loop(self, xp, extent):
        """(rows, fill) for the outputs over the leading (D', H', W') =
        extent of the padded input. ``fill(d0, out)`` writes the bias-free
        outputs of depth rows d0 .. d0 + out.shape[1] into the (O, n, H',
        W') array ``out``, in slabs of ``rows`` depth rows (the last one
        shorter). The weight block and the dgemm arguments are laid out once
        here, not once per call of ``fill``.

        With the (C, D, H, W) padded input flattened to (C, D*H*W), tap
        (i, j, k) of output (d, h, w) reads column ((d + i)*H + h + j)*W +
        w + k, so each tap's operand is one contiguous column slice and no
        window is copied. A slab holds as many depth rows as fit in
        _SLAB_COLUMNS columns (at least one), so the accumulator stays in
        cache. A slab's accumulator is contiguous and spans whole padded
        (H, W) planes up to the last column its outputs read; it is cropped
        to (H', W') once, through a strided view.

        Each tap is one BLAS dgemm call with beta = 1 that adds the tap's
        product into the accumulator in place: with alpha = 1, gemm stores
        fl(acc + fl(W_tap @ slice)), the bytes of ``acc += W_tap @ slice``
        without that expression's temporary. The weights are laid out as a
        contiguous (O, C) block per tap. Three cases run the numpy
        expression per tap instead, with the old bytes:

        - a matmul with a unit dimension (one input channel or a one-column
          span), which numpy sends to gemv or a plain loop, not to gemm;
        - more than _GEMM_MAX_CHANNELS input channels (see there);
        - a numpy whose OpenBLAS exports no ILP64 dgemm (``_DGEMM`` None).

        Every output gets the per-tap gemm products, added onto zero in
        the same tap order, then the bias, as a per-tap matmul over copied
        compact windows does. The tests show the two bitwise equal on both
        routes up to 8 input channels (every codec conv has 3, 4 or 8) over
        slab budgets from one column to the shipped one, and at 9, 64 and
        400 channels on the numpy route over (c, 3, 9, 9) inputs. From 16
        channels, on most larger inputs, they differ in the last bits (see
        _GEMM_MAX_CHANNELS). A matmul with
        one column goes to gemv instead, whose rounding depends on the
        column's place among the columns. So with H' = W' = 1, where a
        one-depth-row slab would have one column, the whole depth goes in
        one slab. Every layer has two or more filters, so no matmul has one
        row.

        The extent is checked against ``xp`` first, because a raw pointer,
        unlike a slice, would read past the buffer instead of truncating.
        """
        do, ho, wo = extent
        c, dp, hp, wp = xp.shape
        if c != self.in_channels or do + 2 > dp or ho + 2 > hp or wo + 2 > wp:
            raise ShapeError(
                f"conv3d extent {tuple(extent)} reads past the padded input "
                f"{xp.shape}")
        o = self.out_channels
        plane = hp * wp
        xf = np.ascontiguousarray(xp, dtype=np.float64).reshape(c, -1)
        offsets = [(i * hp + j) * wp + k for i, j, k in _TAPS]
        rows = do if ho * wo == 1 else max(1, _SLAB_COLUMNS // plane)
        gemm = None
        if _DGEMM is not None and 1 < c <= _GEMM_MAX_CHANNELS:
            # row t of w is tap t's weights as a contiguous (O, C) block; the
            # raw tap pointers do not keep w alive, so gemm holds it
            w = np.ascontiguousarray(self.weights.transpose(2, 3, 4, 0, 1),
                                     dtype=np.float64).reshape(len(_TAPS), -1)
            w_p, w_row = w.ctypes.data, w.strides[0]
            gemm = (w, [ctypes.c_void_p(w_p + t * w_row)
                        for t in range(len(_TAPS))])
            m, k_dim = ctypes.c_int64(o), ctypes.c_int64(c)
            x_p, ld_x = xf.ctypes.data, ctypes.c_int64(xf.shape[1])

        def fill(d_start, out):
            for e0 in range(0, out.shape[1], rows):
                n = min(rows, out.shape[1] - e0)
                d0 = d_start + e0
                span = (n - 1) * plane + (ho - 1) * wp + wo
                acc = np.zeros((o, span))
                if gemm is not None and span > 1:
                    w_taps = gemm[1]
                    cols = ctypes.c_int64(span)
                    acc_p = ctypes.c_void_p(acc.ctypes.data)
                    for w_tap, offset in zip(w_taps, offsets):
                        x_tap = x_p + (d0 * plane + offset) * xf.itemsize
                        _DGEMM(_ROW_MAJOR, _NO_TRANS, _NO_TRANS, m, cols, k_dim,
                               _ONE, w_tap, k_dim, ctypes.c_void_p(x_tap), ld_x,
                               _ONE, acc_p, cols)
                else:
                    for (i, j, k), offset in zip(_TAPS, offsets):
                        start = d0 * plane + offset
                        acc += self.weights[:, :, i, j, k] @ xf[:, start:start + span]
                # output (d0 + e, h, w) sits at column e*plane + h*wp + w < span
                col = acc.strides[1]
                out[:, e0:e0 + n] = as_strided(
                    acc, (o, n, ho, wo), (acc.strides[0], plane * col, wp * col, col))

        return rows, fill

    def forward(self, x, tape=None):
        self._check_input(x)
        xp = self._pad(x)
        out = np.empty((self.out_channels,) + x.shape[1:])
        _, fill = self._slab_loop(xp, x.shape[1:])
        fill(0, out)                 # every depth row, then the bias
        out += self.bias[:, None, None, None]
        if tape is not None:
            tape.put(self, xp)
        return out

    def backward(self, upstream, tape):
        xp = tape.take(self)
        shape = (self.out_channels,) + tuple(n - 2 for n in xp.shape[1:])
        if upstream.shape != shape:
            raise ShapeError(
                f"conv3d upstream shape {upstream.shape} != output shape {shape}")
        do, ho, wo = shape[1:]
        uf = upstream.reshape(self.out_channels, -1)
        grad_w = np.empty_like(self.weights)
        grad_b = upstream.sum(axis=(1, 2, 3))
        grad_xp = np.zeros_like(xp)
        for i, j, k in _TAPS:
            window = xp[:, i:i + do, j:j + ho, k:k + wo].reshape(self.in_channels, -1)
            grad_w[:, :, i, j, k] = uf @ window.T
            grad_xp[:, i:i + do, j:j + ho, k:k + wo] += (
                self.weights[:, :, i, j, k].T @ uf
            ).reshape(self.in_channels, do, ho, wo)
        tape.set_grads(self, [grad_w, grad_b])
        return grad_xp[:, 1:-1, 1:-1, 1:-1]


def _pool_max(x, kernel):
    """(argmax, max) of tiling pooling windows over (C,D,H,W).

    Windows are flattened row-major over (kd,kh,kw), so argmax ties go to
    the lowest flat input index inside the window.
    """
    kd, kh, kw = kernel
    view = sliding_window_view(x, kernel, axis=(1, 2, 3))[:, ::kd, ::kh, ::kw]
    flat_windows = view.reshape(view.shape[:4] + (-1,))
    argmax = flat_windows.argmax(axis=-1)
    out = np.take_along_axis(flat_windows, argmax[..., None], axis=-1)[..., 0]
    return argmax, out


def _argmax_coords(argmax, kernel):
    """(c, d, h, w) input index arrays of each pooling window's argmax."""
    kd, kh, kw = kernel
    ci, di, hi, wi = np.indices(argmax.shape)
    return (ci, di * kd + argmax // (kh * kw), hi * kh + (argmax // kw) % kh,
            wi * kw + argmax % kw)


class MaxPool3d:
    """3D max pooling over windows that tile the input (stride = kernel; a
    trailing remainder shorter than the kernel is dropped). The argmax
    indices are kept for backward; ties go to the lowest flat input index
    inside the window. Windows do not overlap, so backward writes each
    window's gradient to its argmax.
    """

    def __init__(self, kernel):
        self.kernel = _pool_kernel(kernel)

    def params(self):
        return []

    def forward(self, x, tape=None):
        if x.ndim != 4:
            raise ShapeError(f"maxpool3d expects a (C,D,H,W) input, got rank {x.ndim}")
        _pooled_shape("maxpool3d", x, self.kernel)
        argmax, out = _pool_max(x, self.kernel)
        if tape is not None:
            tape.put(self, (argmax, x.shape))
        return np.ascontiguousarray(out)

    def backward(self, upstream, tape):
        argmax, x_shape = tape.take(self)
        if upstream.shape != argmax.shape:
            raise ShapeError(
                f"maxpool3d upstream shape {upstream.shape} != output shape "
                f"{argmax.shape}")
        grad = np.zeros(x_shape)
        grad[_argmax_coords(argmax, self.kernel)] = upstream
        return grad


class ConvReLUPool3d(Conv3d):
    """Conv3d -> ReLU -> MaxPool3d fused into one input layer.

    Parameters, initialization and input checks are those of
    :class:`Conv3d`, and the output is bitwise that of the three layers in
    a row. The pool's windows tile the conv output, so the convolution runs
    only over the extent they read: pooled * pool_kernel on each axis. It
    streams that extent in groups of whole pool depth windows: each group's
    conv rows go through :meth:`Conv3d._slab_loop` into a reused buffer
    and are pooled at once, so the full conv output is never built (for
    the codec, 5 groups of 3 depth rows of 4 x 110 x 110). A group holds at
    least one slab's rows, so a one-position plane (H' = W' = 1) keeps the
    whole read depth in one slab instead of one-column gemv groups. The
    pool takes its window maximum before the ReLU (relu(max) ==
    max(relu)), with the same tie rule as :class:`MaxPool3d`. Backward
    routes each live window's gradient to the input patch under its
    argmax, so the weight gradient costs one patch per pooled output
    instead of a pass over every conv output. The layer must come first in
    a network: backward returns no input gradient.

    A training pass splits its groups (forward with a tape) and its
    per-filter patch gathers (backward) with one helper thread, on the
    schedule the module docstring gives; each thread convolves into its
    own group buffer. An inference forward (``tape=None``) stays on the
    calling thread with one group buffer.
    """

    def __init__(self, in_channels, out_channels, pool_kernel, rng=None):
        super().__init__(in_channels, out_channels, rng)
        self.pool_kernel = _pool_kernel(pool_kernel)

    def forward(self, x, tape=None):
        self._check_input(x)
        pooled = _pooled_shape("conv_relu_pool3d", x, self.pool_kernel)
        read = tuple(p * k for p, k in zip(pooled, self.pool_kernel))
        xp = self._pad(x)
        rows, fill = self._slab_loop(xp, read)
        # a group of conv depth rows is whole pool depth windows and at least
        # one slab, so with H' = W' = 1 the whole read depth stays one slab
        kd, kh, kw = self.pool_kernel
        group = -(-rows // kd) * kd
        starts = range(0, read[0], group)
        # one group buffer per thread: a training pass splits the groups
        slots = 1 if tape is None else min(2, len(starts))
        convs = [np.empty((self.out_channels, min(group, read[0])) + read[1:])
                 for _ in range(slots)]
        shape = (self.out_channels,) + pooled
        argmax, best, first = (np.empty(shape, np.intp), np.empty(shape),
                               np.empty(shape))
        bias = self.bias[:, None, None, None]

        def pool_group(i, slot):
            d0 = starts[i]
            block = convs[slot][:, :min(group, read[0] - d0)]
            fill(d0, block)
            block += bias
            at = slice(d0 // kd, (d0 + block.shape[1]) // kd)
            argmax[:, at], best[:, at] = _pool_max(block, self.pool_kernel)
            first[:, at] = block[:, ::kd, ::kh, ::kw]

        if tape is None:
            for i in range(len(starts)):
                pool_group(i, 0)
        else:
            _split(len(starts), pool_group)
        live = best > 0
        # a dead window pools ReLU zeros and keeps its first, whose sign of
        # zero follows the first conv output
        out = np.where(live, best, first * 0.0)
        if tape is not None:
            tape.put(self, (xp, argmax, live))
        return out

    def backward(self, upstream, tape):
        xp, argmax, live = tape.take(self)
        if upstream.shape != argmax.shape:
            raise ShapeError(
                f"conv_relu_pool3d upstream shape {upstream.shape} != output "
                f"shape {argmax.shape}")
        _, d, h, w = _argmax_coords(argmax, self.pool_kernel)
        _, dp, hp, wp = xp.shape
        # view[(d*hp + h)*wp + w, c, i, j, k] = xp[c, d + i, h + j, w + k]
        # over the flat padded input, up to the last position whose patch
        # ends inside it. Indexing it with one filter's argmax positions
        # gathers that filter's (P, 27*C) patch matrix; one filter at
        # a time, the codec's gather is 1.6 MB instead of 6.3 MB.
        flat = xp.reshape(-1)
        e = flat.itemsize
        volume = dp * hp * wp
        positions = volume - (2 * hp + 2) * wp - 2
        view = as_strided(flat, (positions, self.in_channels) + CONV_KERNEL,
                          (e, volume * e, hp * wp * e, wp * e, e))
        pos = ((d * hp + h) * wp + w).reshape(self.out_channels, -1)
        g = (upstream * live).reshape(self.out_channels, 1, -1)
        grad_w = np.empty((self.out_channels, 1, view[0].size))

        def gather(f, slot):
            grad_w[f] = g[f] @ view[pos[f]].reshape(pos.shape[1], -1)

        _split(self.out_channels, gather)
        tape.set_grads(self, [grad_w.reshape(self.weights.shape),
                              g.sum(axis=(1, 2))])
        return None


class ReLU:
    def params(self):
        return []

    def forward(self, x, tape=None):
        mask = x > 0
        if tape is not None:
            tape.put(self, mask)
        return x * mask

    def backward(self, upstream, tape):
        return upstream * tape.take(self)


class Reshape:
    """Row-major reshape to a fixed target shape; -1 flattens."""

    def __init__(self, target_shape):
        self.target_shape = tuple(target_shape)

    def params(self):
        return []

    def forward(self, x, tape=None):
        if tape is not None:
            tape.put(self, x.shape)
        return x.reshape(self.target_shape)

    def backward(self, upstream, tape):
        return upstream.reshape(tape.take(self))


class Linear:
    """y = W x + b over rank-1 inputs."""

    def __init__(self, in_features, out_features, rng=None):
        self.in_features = in_features
        self.out_features = out_features
        if rng is None:
            rng = np.random.default_rng(0)
        self.weights = he_uniform((out_features, in_features), in_features, rng)
        self.bias = np.zeros(out_features)

    def params(self):
        return [self.weights, self.bias]

    def forward(self, x, tape=None):
        if x.shape != (self.in_features,):
            raise ShapeError(
                f"linear expects ({self.in_features},) input, got {x.shape}")
        if tape is not None:
            tape.put(self, x)
        return self.weights @ x + self.bias

    def backward(self, upstream, tape):
        x = tape.take(self)
        if upstream.shape != (self.out_features,):
            raise ShapeError(
                f"linear upstream shape {upstream.shape} != ({self.out_features},)")
        tape.set_grads(self, [np.outer(upstream, x), upstream.copy()])
        return self.weights.T @ upstream


class Network:
    """A fixed sequential pipeline of layers sharing one tape per pass."""

    def __init__(self, layers):
        self.layers = list(layers)

    def forward(self, x, tape=None):
        for layer in self.layers:
            x = layer.forward(x, tape)
        return x

    def backward(self, upstream, tape):
        """Propagate the loss gradient through the layers in reverse,
        recording each layer's parameter gradients on the tape; returns the
        first layer's input gradient (None after a fused input layer)."""
        for layer in reversed(self.layers):
            upstream = layer.backward(upstream, tape)
        return upstream

    def params(self):
        out = []
        for layer in self.layers:
            out.extend(layer.params())
        return out

    def grads(self, tape):
        out = []
        for layer in self.layers:
            out.extend(tape.grads(layer))
        return out


def softmax_cross_entropy(logits, one_hot):
    """Stable softmax + cross-entropy.

    Returns (loss, grad_logits) with grad = softmax(logits) - one_hot.
    """
    logits = np.asarray(logits, dtype=np.float64)
    one_hot = np.asarray(one_hot, dtype=np.float64)
    if logits.shape != one_hot.shape or logits.ndim != 1:
        raise ShapeError(
            f"logits {logits.shape} and one_hot {one_hot.shape} must be equal rank-1")
    if np.count_nonzero(one_hot == 1.0) != 1 or np.count_nonzero(one_hot) != 1:
        raise ValueError("one_hot must contain exactly one 1")
    shifted = logits - logits.max()
    exp = np.exp(shifted)
    probs = exp / exp.sum()
    true_idx = int(np.argmax(one_hot))
    loss = -(shifted[true_idx] - np.log(exp.sum()))
    return loss, probs - one_hot


def sgd_step(params, grads, lr):
    """In-place p <- p - lr*g for aligned parameter/gradient lists."""
    if lr <= 0:
        raise ValueError(f"learning rate must be > 0, got {lr}")
    if len(params) != len(grads):
        raise ValueError("params and grads must align")
    for p, g in zip(params, grads):
        p -= lr * g
    return params


def lr_schedule(epoch):
    """Step decay: 0.003 / 4**floor(epoch/4), epoch 0-indexed."""
    if epoch < 0:
        raise ValueError("epoch must be >= 0")
    return 0.003 / 4.0 ** (epoch // 4)


def grad_check(network, x, one_hot, epsilon=1e-5):
    """Max relative error between analytic and central-difference gradients.

    Relative error per parameter element is
    |analytic - numeric| / max(|analytic|, |numeric|, 1e-8). Runs two
    forward passes per parameter element, so keep the network tiny. A step
    at which the loss is not finite raises ValueError.
    """
    if not (np.isfinite(epsilon) and epsilon > 0):
        raise ValueError(f"epsilon must be finite and > 0, got {epsilon}")
    tape = Tape()
    logits = network.forward(x, tape)
    _, grad_logits = softmax_cross_entropy(logits, one_hot)
    network.backward(grad_logits, tape)
    params = network.params()
    grads = network.grads(tape)

    def loss_at():
        # a step so large that the loss overflows is refused, not warned about
        with np.errstate(over="ignore", invalid="ignore"):
            loss = softmax_cross_entropy(network.forward(x), one_hot)[0]
        if not np.isfinite(loss):
            raise ValueError(f"loss is not finite at a step of {epsilon}")
        return loss

    worst = 0.0
    for p, g in zip(params, grads):
        flat_p = p.reshape(-1)
        flat_g = g.reshape(-1)
        for i in range(flat_p.size):
            saved = flat_p[i]
            try:
                flat_p[i] = saved + epsilon
                loss_plus = loss_at()
                flat_p[i] = saved - epsilon
                loss_minus = loss_at()
            finally:
                flat_p[i] = saved
            numeric = (loss_plus - loss_minus) / (2.0 * epsilon)
            denom = max(abs(flat_g[i]), abs(numeric), 1e-8)
            worst = max(worst, abs(flat_g[i] - numeric) / denom)
    return worst
