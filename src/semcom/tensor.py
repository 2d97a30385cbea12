"""Minimal dense-tensor kernel: 3D conv/pool/linear layers with exact backward
passes, plain SGD, and a finite-difference gradient checker.

:class:`ConvReLUPool3d` fuses conv -> ReLU -> max-pool for an input layer:
it convolves only the extent the pool reads (at the codec's shapes) and
forms the weight gradient from the pool winners' input patches alone, with
outputs bitwise equal to the three separate layers.

All arrays are C-contiguous float64 ndarrays. Layers hold parameters only;
per-call activations live on an explicit :class:`Tape`, so inference with
``tape=None`` is a pure function and a shared model is safe to use from
several threads. Convolution stride is fixed at 1; pooling uses floor-mode
window arithmetic (trailing remainder dropped).
"""
from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

AXIS_NAMES = ("channels", "depth", "height", "width")


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


def conv3d_output_shape(in_shape, kernel, padding):
    """(D',H',W') for stride-1 cross-correlation: in + 2*pad - kernel + 1."""
    return tuple(in_shape[i] + 2 * padding[i] - kernel[i] + 1 for i in range(3))


def pool3d_output_shape(in_shape, kernel, stride):
    """Floor-mode pooling extents: floor((in - kernel)/stride) + 1."""
    return tuple((in_shape[i] - kernel[i]) // stride[i] + 1 for i in range(3))


class Conv3d:
    """3D cross-correlation, stride 1, zero padding, with bias."""

    def __init__(self, in_channels, out_channels, kernel=(3, 3, 3),
                 padding=(1, 1, 1), rng=None):
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.kernel = tuple(kernel)
        self.padding = tuple(padding)
        if any(k < 1 for k in self.kernel):
            raise ValueError(f"kernel entries must be >= 1, got {self.kernel}")
        if any(p < 0 for p in self.padding):
            raise ValueError(f"padding entries must be >= 0, got {self.padding}")
        fan_in = in_channels * int(np.prod(self.kernel))
        if rng is None:
            rng = np.random.default_rng(0)
        self.weights = he_uniform((out_channels, in_channels) + self.kernel,
                                  fan_in, rng)
        self.bias = np.zeros(out_channels)

    def params(self):
        return [self.weights, self.bias]

    def _check_input(self, x):
        if x.ndim != 4:
            raise ShapeError(f"conv3d expects a (C,D,H,W) input, got rank {x.ndim}")
        if x.shape[0] != self.in_channels:
            raise ShapeError(
                f"conv3d axis 'channels': expected {self.in_channels}, got {x.shape[0]}")
        for i in range(3):
            if x.shape[1 + i] + 2 * self.padding[i] < self.kernel[i]:
                raise ShapeError(
                    f"conv3d axis '{AXIS_NAMES[1 + i]}': padded extent "
                    f"{x.shape[1 + i] + 2 * self.padding[i]} < kernel {self.kernel[i]}")

    def _pad(self, x):
        pd, ph, pw = self.padding
        return np.pad(x, ((0, 0), (pd, pd), (ph, ph), (pw, pw)))

    def _correlate(self, xp, extent):
        """Outputs over the leading (D', H', W') = extent of the padded input."""
        kd, kh, kw = self.kernel
        do, ho, wo = extent
        out = np.zeros((self.out_channels, do, ho, wo))
        flat = out.reshape(self.out_channels, -1)
        for i in range(kd):
            for j in range(kh):
                for k in range(kw):
                    window = xp[:, i:i + do, j:j + ho, k:k + wo].reshape(self.in_channels, -1)
                    flat += self.weights[:, :, i, j, k] @ window
        out += self.bias[:, None, None, None]
        return out

    def forward(self, x, tape=None):
        self._check_input(x)
        xp = self._pad(x)
        out = self._correlate(
            xp, conv3d_output_shape(x.shape[1:], self.kernel, self.padding))
        if tape is not None:
            tape.put(self, (xp, x.shape))
        return out

    def backward(self, upstream, tape, need_input_grad=True):
        xp, x_shape = tape.take(self)
        do, ho, wo = conv3d_output_shape(x_shape[1:], self.kernel, self.padding)
        if upstream.shape != (self.out_channels, do, ho, wo):
            raise ShapeError(
                f"conv3d upstream shape {upstream.shape} != output shape "
                f"{(self.out_channels, do, ho, wo)}")
        kd, kh, kw = self.kernel
        pd, ph, pw = self.padding
        uf = upstream.reshape(self.out_channels, -1)
        grad_w = np.empty_like(self.weights)
        grad_b = upstream.sum(axis=(1, 2, 3))
        grad_xp = np.zeros_like(xp) if need_input_grad else None
        for i in range(kd):
            for j in range(kh):
                for k in range(kw):
                    window = xp[:, i:i + do, j:j + ho, k:k + wo].reshape(self.in_channels, -1)
                    grad_w[:, :, i, j, k] = uf @ window.T
                    if need_input_grad:
                        grad_xp[:, i:i + do, j:j + ho, k:k + wo] += (
                            self.weights[:, :, i, j, k].T @ uf
                        ).reshape(self.in_channels, do, ho, wo)
        tape.set_grads(self, [grad_w, grad_b])
        if not need_input_grad:
            return None
        d, h, w = x_shape[1:]
        return grad_xp[:, pd:pd + d, ph:ph + h, pw:pw + w]


def _pool_max(x, kernel, stride):
    """(flat windows, argmax, max) of floor-mode pooling over (C,D,H,W).

    Windows are flattened row-major over (kd,kh,kw), so argmax ties go to
    the lowest flat input index inside the window.
    """
    sd, sh, sw = stride
    view = sliding_window_view(x, kernel, axis=(1, 2, 3))[:, ::sd, ::sh, ::sw]
    flat_windows = view.reshape(view.shape[:4] + (-1,))
    argmax = flat_windows.argmax(axis=-1)
    out = np.take_along_axis(flat_windows, argmax[..., None], axis=-1)[..., 0]
    return flat_windows, argmax, out


def _argmax_coords(argmax, kernel, stride):
    """(c, d, h, w) input index arrays of each pooling window's argmax."""
    kd, kh, kw = kernel
    sd, sh, sw = stride
    ci, di, hi, wi = np.indices(argmax.shape)
    return (ci, di * sd + argmax // (kh * kw), hi * sh + (argmax // kw) % kh,
            wi * sw + argmax % kw)


class MaxPool3d:
    """Floor-mode 3D max pooling; argmax indices are kept for backward.

    Ties go to the lowest flat input index inside the window.
    """

    def __init__(self, kernel, stride):
        self.kernel = tuple(kernel)
        self.stride = tuple(stride)
        if any(k < 1 for k in self.kernel) or any(s < 1 for s in self.stride):
            raise ValueError("pool kernel and stride entries must be >= 1")

    def params(self):
        return []

    def forward(self, x, tape=None):
        if x.ndim != 4:
            raise ShapeError(f"maxpool3d expects a (C,D,H,W) input, got rank {x.ndim}")
        for i in range(3):
            if x.shape[1 + i] < self.kernel[i]:
                raise ShapeError(
                    f"maxpool3d axis '{AXIS_NAMES[1 + i]}': extent {x.shape[1 + i]} "
                    f"< kernel {self.kernel[i]}")
        _, argmax, out = _pool_max(x, self.kernel, self.stride)
        out_shape = argmax.shape
        if tape is not None:
            tape.put(self, (argmax, out_shape, x.shape))
        return np.ascontiguousarray(out)

    def backward(self, upstream, tape, need_input_grad=True):
        argmax, out_shape, x_shape = tape.take(self)
        if upstream.shape != out_shape:
            raise ShapeError(
                f"maxpool3d upstream shape {upstream.shape} != output shape {out_shape}")
        tape.set_grads(self, [])
        if not need_input_grad:
            return None
        grad = np.zeros(x_shape)
        np.add.at(grad, _argmax_coords(argmax, self.kernel, self.stride), upstream)
        return grad


class ConvReLUPool3d(Conv3d):
    """Conv3d -> ReLU -> MaxPool3d fused into one input layer.

    Parameters, initialization and input checks are those of
    :class:`Conv3d`, and the output is bitwise that of the three layers in
    a row. The convolution runs only over the extent the pool reads (floor
    mode drops the trailing remainder) when the layer has two or more
    output channels and the pool reads two or more positions; otherwise it
    runs over Conv3d's full extent, because a matmul with a unit dimension
    rounds differently. The pool takes its window maximum before the ReLU
    (relu(max) == max(relu)), with the same tie rule as
    :class:`MaxPool3d`. Backward routes each live window's gradient to the
    input patch under its argmax, so the weight gradient costs one patch
    per pooled output instead of a pass over every conv output. There is
    no input gradient: the layer must come first in a network.
    """

    def __init__(self, in_channels, out_channels, kernel, padding, pool_kernel,
                 pool_stride, rng=None):
        super().__init__(in_channels, out_channels, kernel, padding, rng)
        self.pool_kernel = tuple(pool_kernel)
        self.pool_stride = tuple(pool_stride)
        if any(k < 1 for k in self.pool_kernel) or any(s < 1 for s in self.pool_stride):
            raise ValueError("pool kernel and stride entries must be >= 1")

    def forward(self, x, tape=None):
        self._check_input(x)
        conv_shape = conv3d_output_shape(x.shape[1:], self.kernel, self.padding)
        for i in range(3):
            if conv_shape[i] < self.pool_kernel[i]:
                raise ShapeError(
                    f"conv_relu_pool3d axis '{AXIS_NAMES[1 + i]}': conv extent "
                    f"{conv_shape[i]} < pool kernel {self.pool_kernel[i]}")
        pooled = pool3d_output_shape(conv_shape, self.pool_kernel, self.pool_stride)
        read = tuple((pooled[i] - 1) * self.pool_stride[i] + self.pool_kernel[i]
                     for i in range(3))
        if self.out_channels == 1 or np.prod(read) == 1:
            # numpy sends a matmul with a unit dimension to gemv or dot, whose
            # rounding differs from gemm's and, for gemv, moves with the column
            # count; only two gemm calls agree column by column, so convolve
            # Conv3d's full extent here to keep the output bitwise the trio's
            read = conv_shape
        xp = self._pad(x)
        windows, argmax, best = _pool_max(self._correlate(xp, read),
                                          self.pool_kernel, self.pool_stride)
        live = best > 0
        # a dead window pools ReLU zeros and keeps its first, whose sign of
        # zero follows the first conv output
        out = np.where(live, best, windows[..., 0] * 0.0)
        if tape is not None:
            tape.put(self, (xp, argmax, live))
        return out

    def backward(self, upstream, tape, need_input_grad=False):
        if need_input_grad:
            raise ValueError("conv_relu_pool3d is an input layer: no input gradient")
        xp, argmax, live = tape.take(self)
        if upstream.shape != argmax.shape:
            raise ShapeError(
                f"conv_relu_pool3d upstream shape {upstream.shape} != output "
                f"shape {argmax.shape}")
        _, d, h, w = _argmax_coords(argmax, self.pool_kernel, self.pool_stride)
        # patches[f, ..., c, i, j, k] = xp[c, d + i, h + j, w + k] at f's argmax
        patches = sliding_window_view(xp, self.kernel, axis=(1, 2, 3))
        patches = patches.transpose(1, 2, 3, 0, 4, 5, 6)[d, h, w]
        g = (upstream * live).reshape(self.out_channels, 1, -1)
        grad_w = g @ patches.reshape(self.out_channels, g.shape[2], -1)
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

    def backward(self, upstream, tape, need_input_grad=True):
        mask = tape.take(self)
        tape.set_grads(self, [])
        return upstream * mask if need_input_grad else None


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

    def backward(self, upstream, tape, need_input_grad=True):
        in_shape = tape.take(self)
        tape.set_grads(self, [])
        return upstream.reshape(in_shape) if need_input_grad else None


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

    def backward(self, upstream, tape, need_input_grad=True):
        x = tape.take(self)
        if upstream.shape != (self.out_features,):
            raise ShapeError(
                f"linear upstream shape {upstream.shape} != ({self.out_features},)")
        tape.set_grads(self, [np.outer(upstream, x), upstream.copy()])
        return self.weights.T @ upstream if need_input_grad else None


class Network:
    """A fixed sequential pipeline of layers sharing one tape per pass."""

    def __init__(self, layers):
        self.layers = list(layers)

    def forward(self, x, tape=None):
        for layer in self.layers:
            x = layer.forward(x, tape)
        return x

    def backward(self, upstream, tape, need_input_grad=False):
        """Propagate loss gradient; input gradient only if requested."""
        for idx in range(len(self.layers) - 1, -1, -1):
            need = need_input_grad or idx > 0
            upstream = self.layers[idx].backward(upstream, tape, need_input_grad=need)
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


def lr_schedule(epoch, base_lr=0.003, divisor=4.0, every=4):
    """Step decay: base / divisor**floor(epoch/every), epoch 0-indexed."""
    if epoch < 0:
        raise ValueError("epoch must be >= 0")
    return base_lr / divisor ** (epoch // every)


def grad_check(network, x, one_hot, epsilon=1e-5):
    """Max relative error between analytic and central-difference gradients.

    Relative error per parameter element is
    |analytic - numeric| / max(|analytic|, |numeric|, 1e-8). Runs two
    forward passes per parameter element, so keep the network tiny.
    """
    if epsilon <= 0:
        raise ValueError(f"epsilon must be > 0, got {epsilon}")
    tape = Tape()
    logits = network.forward(x, tape)
    _, grad_logits = softmax_cross_entropy(logits, one_hot)
    network.backward(grad_logits, tape)
    params = network.params()
    grads = network.grads(tape)

    def loss_at():
        out = network.forward(x)
        return softmax_cross_entropy(out, one_hot)[0]

    worst = 0.0
    for p, g in zip(params, grads):
        flat_p = p.reshape(-1)
        flat_g = g.reshape(-1)
        for i in range(flat_p.size):
            saved = flat_p[i]
            flat_p[i] = saved + epsilon
            loss_plus = loss_at()
            flat_p[i] = saved - epsilon
            loss_minus = loss_at()
            flat_p[i] = saved
            numeric = (loss_plus - loss_minus) / (2.0 * epsilon)
            denom = max(abs(flat_g[i]), abs(numeric), 1e-8)
            worst = max(worst, abs(flat_g[i] - numeric) / denom)
    return worst
