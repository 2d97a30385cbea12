"""Joint semantic/channel video codec and activity classifier.

Encoder (camera side): conv3d(3->4, k3, pad 1) -> ReLU -> maxpool (3,5,5)
whose windows tile the conv output, run as one fused layer
(:class:`tensor.ConvReLUPool3d`) that convolves only the 15x110x110 extent
the pool reads, 3 depth rows (one pool depth window) at a time, pools each
window as soon as it is convolved, and back-propagates only through the
pool winners. It
produces a 4x5x22x22 feature that is reshaped row-major into 4,840 complex
symbols (even elements real, odd elements imaginary) and power-normalized
to unit average symbol power.

Decoder (server side): de-normalize -> reshape -> three conv3d(k3, pad 1)
+ ReLU stages with two tiling (2,2,2) max-pools between them -> deep
feature 8x1x5x5 -> linear 200->5 logits.

Both halves are one layer graph (:meth:`CodecModel.graph`), power
normalization and de-normalization included: forward runs it in order and
backward, from the same graph, in reverse, each layer taking ``(upstream,
tape)``. Training runs end to end through the AWGN channel with fresh
noise per sample per step, drawn by :func:`channel.add_noise` as in
evaluation and the simulated links (noise referenced to the frame's
measured power); the noise addition backpropagates as identity while the
power normalization is differentiated exactly. Parameters are kept on the
float32 grid after every update so checkpoints round-trip bitwise; a
checkpoint names the graph's parameters by ``_ARRAY_NAMES``, in
``CodecModel.params()`` order.

Evaluation encodes each clean segment once per set of encoder weights: a
``VideoSegment`` is immutable (its ``frames`` array is read-only), so
:func:`evaluate` keeps the clean ``SymbolFrame`` on the segment, keyed by
the bytes of the encoder's weights and bias, and reuses it for every
later SNR and noise seed until those parameters change.
"""
from __future__ import annotations

import math
import time
from dataclasses import InitVar, dataclass, field
from enum import IntEnum

import numpy as np

from . import channel, weights_io
# gaussian_noise stays importable here: bench/spans.py patches codec's name
from .channel import (SymbolFrame, _philox, floats_to_symbols, gaussian_noise,
                      symbols_to_floats)
from .tensor import (Conv3d, ConvReLUPool3d, Linear, MaxPool3d, Network,
                     ReLU, Reshape, ShapeError, Tape, lr_schedule, sgd_step,
                     softmax_cross_entropy)

SEGMENT_FRAMES = 16
FRAME_HEIGHT = 112
FRAME_WIDTH = 112
FEATURE_SHAPE = (4, 5, 22, 22)
FEATURE_ELEMS = 4 * 5 * 22 * 22          # 9,680
SYMBOLS_PER_SEGMENT = FEATURE_ELEMS // 2  # 4,840
DEEP_FEATURE_SHAPE = (8, 1, 5, 5)
N_ACTIVITIES = 5


class Activity(IntEnum):
    SLEEPING = 0
    RESTING = 1
    DRESS_UP = 2
    EATING = 3
    CALLING = 4


ACTIVITY_NAMES = {a: a.name.lower().replace("_", "-") for a in Activity}


def parse_activity(name):
    normalized = name.strip().lower().replace("-", "_")
    try:
        return Activity[normalized.upper()]
    except KeyError:
        raise ValueError(f"unknown activity {name!r}") from None


@dataclass(frozen=True)
class VideoSegment:
    """One 16-frame clip in channels-first layout with pixels in [0, 1].

    Immutable: the segment keeps its own read-only float64 copy of the
    frames (the caller's array is left as it was), so the clean encode that
    :func:`evaluate` caches on it cannot go stale.
    """

    frames: np.ndarray
    # (encoder key, SymbolFrame) of the last clean encode; see _clean_frame
    _encoded: tuple = field(default=None, init=False, repr=False,
                            compare=False)
    # set by from_rgb_frames alone: frames is then a fresh C-order float64
    # array in [0, 1] that no caller holds, kept without a copy or range scan
    _fresh: InitVar[bool] = field(default=False, kw_only=True)

    def __post_init__(self, _fresh):
        frames = self.frames
        expected = (3, SEGMENT_FRAMES, FRAME_HEIGHT, FRAME_WIDTH)
        if np.shape(frames) != expected:
            raise ShapeError(
                f"segment frames must be {expected}, got {np.shape(frames)}")
        if not _fresh:
            frames = np.array(frames, dtype=np.float64, order="C")
            lo, hi = float(frames.min()), float(frames.max())
            if lo < -1e-9 or hi > 1.0 + 1e-9:
                raise ValueError(
                    f"pixel values outside [0, 1]: min {lo}, max {hi}")
        frames.flags.writeable = False
        object.__setattr__(self, "frames", frames)

    @classmethod
    def from_rgb_frames(cls, frames):
        """Build from (16, H, W, 3) frames; uint8 is scaled by 1/255."""
        frames = np.asarray(frames)
        if frames.dtype == np.uint8:
            # channels-first while still 1 byte a pixel: the scaled copy is
            # then written in order, with the same values
            return cls(np.ascontiguousarray(
                np.transpose(frames, (3, 0, 1, 2))) / 255.0, _fresh=True)
        return cls(np.transpose(frames, (3, 0, 1, 2)))


def power_normalize(flat):
    """Scale a flat feature to unit average symbol power.

    sigma is the RMS symbol amplitude sqrt(sum(flat^2)/L); an all-zero
    feature skips normalization and reports scale 0.
    """
    sigma = math.sqrt(float(np.dot(flat, flat)) / SYMBOLS_PER_SEGMENT)
    if sigma == 0.0:
        return flat.copy(), 0.0
    return flat / sigma, sigma


class PowerNorm:
    """Flat feature -> power-normalized SymbolFrame, element pairs as the
    (real, imag) parts of one symbol.

    Backward takes the ``(grad_received, grad_sigma, sigma)`` that
    :class:`PowerDenorm` returns: the channel noise between the two
    back-propagates as identity, and the normalization is differentiated
    exactly, sigma included.
    """

    def params(self):
        return []

    def forward(self, flat, tape=None):
        if flat.shape != (FEATURE_ELEMS,):
            raise ShapeError(
                f"expected a flat feature of {FEATURE_ELEMS} elements, "
                f"got {flat.shape}")
        s, sigma = power_normalize(flat)
        if tape is not None:
            tape.put(self, (s, sigma))
        return SymbolFrame(floats_to_symbols(s), scale=sigma)

    def backward(self, upstream, tape):
        grad_received, grad_sigma, sigma = upstream
        s, sigma_enc = tape.take(self)
        if sigma != sigma_enc:
            raise RuntimeError("encode/decode tapes out of sync")
        # channel noise backpropagates as identity: grad_s = grad_received
        L = SYMBOLS_PER_SEGMENT
        return (grad_received / sigma
                - s * (float(np.dot(grad_received, s)) / (L * sigma))
                + grad_sigma * s / L)


class PowerDenorm:
    """SymbolFrame -> de-normalized flat feature k_hat = received * scale."""

    def params(self):
        return []

    def forward(self, frame, tape=None):
        if len(frame) != SYMBOLS_PER_SEGMENT:
            raise ValueError(
                f"expected {SYMBOLS_PER_SEGMENT} symbols, got {len(frame)}")
        received = symbols_to_floats(frame.symbols)
        if tape is not None:
            tape.put(self, (received, frame.scale))
        return received * frame.scale

    def backward(self, upstream, tape):
        received, sigma = tape.take(self)
        # k_hat = received * sigma: gradient splits between symbols and sigma
        return upstream * sigma, float(np.dot(upstream, received)), sigma


class CodecModel:
    """Encoder + decoder parameter set with training metadata.

    The layer graph is :attr:`encoder` (clip -> SymbolFrame), then
    :attr:`decoder` (SymbolFrame -> deep feature), then :attr:`head` (deep
    feature -> logits). Each is a :class:`tensor.Network` built from the
    model's layer attributes when it is read, so replacing an attribute
    (``enc_conv``, say) replaces that layer in the graph.
    """

    def __init__(self, seed=0):
        rng = np.random.default_rng(seed)
        self.enc_conv = ConvReLUPool3d(3, 4, (3, 5, 5), rng)
        self.dec_conv1 = Conv3d(4, 8, rng)
        self.dec_relu1 = ReLU()
        self.dec_pool1 = MaxPool3d((2, 2, 2))
        self.dec_conv2 = Conv3d(8, 8, rng)
        self.dec_relu2 = ReLU()
        self.dec_pool2 = MaxPool3d((2, 2, 2))
        self.dec_conv3 = Conv3d(8, 8, rng)
        self.dec_relu3 = ReLU()
        self.linear = Linear(int(np.prod(DEEP_FEATURE_SHAPE)), N_ACTIVITIES, rng)
        # the tape keys activations on layer identity, so the parameter-free
        # layers are made once here rather than per pass
        self.enc_flatten = Reshape((-1,))
        self.power_norm = PowerNorm()
        self.power_denorm = PowerDenorm()
        self.dec_unflatten = Reshape(FEATURE_SHAPE)
        self.deep_flatten = Reshape((-1,))
        self.epochs_trained = 0
        self.snr_train_db = math.inf

    @property
    def encoder(self):
        return Network([self.enc_conv, self.enc_flatten, self.power_norm])

    @property
    def decoder(self):
        return Network([self.power_denorm, self.dec_unflatten,
                        self.dec_conv1, self.dec_relu1, self.dec_pool1,
                        self.dec_conv2, self.dec_relu2, self.dec_pool2,
                        self.dec_conv3, self.dec_relu3])

    @property
    def head(self):
        return Network([self.deep_flatten, self.linear])

    def graph(self):
        """Encoder, decoder and head as one network; the channel between
        encoder and decoder back-propagates as identity."""
        return Network(self.encoder.layers + self.decoder.layers
                       + self.head.layers)

    def params(self):
        return self.graph().params()

    def grads(self, tape):
        return self.graph().grads(tape)

    def quantize_params_f32(self):
        """Clamp parameters onto the float32 grid (exact persistence)."""
        for p in self.params():
            p[...] = p.astype(np.float32)


def encode(model, segment, tape=None):
    """VideoSegment -> power-normalized SymbolFrame of 4,840 complex symbols."""
    return model.encoder.forward(segment.frames, tape)


def decode(model, frame, tape=None):
    """SymbolFrame -> (logits, deep_feature 8x1x5x5)."""
    deep = model.decoder.forward(frame, tape)
    return model.head.forward(deep, tape), deep


def forward_logits(model, segment):
    """Clean end-to-end pass: encode, identity channel, decode."""
    logits, _ = decode(model, encode(model, segment))
    return logits


def classify(logits):
    """Highest-probability activity; ties resolve to the lowest code."""
    logits = np.asarray(logits)
    if logits.shape != (N_ACTIVITIES,):
        raise ShapeError(f"expected {N_ACTIVITIES} logits, got {logits.shape}")
    return Activity(int(np.argmax(logits)))


def sample_gradients(model, segment, label, snr_db, noise_rng):
    """(loss, correct, grads) for one segment through a noisy channel."""
    tape = Tape()
    frame = encode(model, segment, tape)
    if frame.scale == 0.0:
        raise ValueError("all-zero feature during training; cannot normalize")
    noisy = SymbolFrame(channel.add_noise(frame.symbols, snr_db, noise_rng),
                        scale=frame.scale)
    logits, _ = decode(model, noisy, tape)
    one_hot = np.zeros(N_ACTIVITIES)
    one_hot[int(label)] = 1.0
    loss, grad_logits = softmax_cross_entropy(logits, one_hot)
    model.graph().backward(grad_logits, tape)
    return loss, int(np.argmax(logits)) == int(label), model.grads(tape)


@dataclass
class TrainConfig:
    epochs: int = 15
    batch_size: int = 32
    shuffle_seed: int = 11
    noise_seed: int = 99


@dataclass
class EpochStats:
    epoch: int
    lr: float
    loss: float
    accuracy: float
    steps: int
    # seconds of wall time (time.perf_counter); varies run to run, so it
    # takes no part in equality
    wall_s: float = field(compare=False)

    def summary(self):
        return (f"epoch {self.epoch}: lr {self.lr:.6g} loss {self.loss:.4f} "
                f"accuracy {self.accuracy:.3f} wall {self.wall_s:.1f}s")


def train(model, segments, labels, snr_train_db, config=None):
    """End-to-end training through the AWGN channel at snr_train_db.

    Gradients are averaged over each batch (the trailing partial batch
    included), so one epoch performs ceil(N / batch_size) optimizer steps.
    Returns the per-epoch history.
    """
    config = config or TrainConfig()
    if config.epochs < 1:
        raise ValueError(f"epochs must be >= 1, got {config.epochs}")
    if len(segments) == 0:
        raise ValueError("cannot train on an empty dataset")
    if len(segments) != len(labels):
        raise ValueError("segments and labels must align")
    labels = [int(v) for v in labels]
    shuffle_rng = _philox(config.shuffle_seed)
    noise_rng = _philox(config.noise_seed)
    order = np.arange(len(segments))
    params = model.params()
    history = []
    for epoch in range(config.epochs):
        epoch_start = time.perf_counter()
        lr = lr_schedule(epoch)
        shuffle_rng.shuffle(order)
        epoch_loss = 0.0
        epoch_correct = 0
        steps = 0
        for start in range(0, len(order), config.batch_size):
            batch = order[start:start + config.batch_size]
            grad_sums = None
            for i in batch:
                loss, correct, grads = sample_gradients(
                    model, segments[i], labels[i], snr_train_db, noise_rng)
                epoch_loss += loss
                epoch_correct += correct
                if grad_sums is None:
                    grad_sums = [g.copy() for g in grads]
                else:
                    for acc, g in zip(grad_sums, grads):
                        acc += g
            mean_grads = [g / len(batch) for g in grad_sums]
            sgd_step(params, mean_grads, lr)
            model.quantize_params_f32()
            steps += 1
        history.append(EpochStats(epoch, lr, epoch_loss / len(order),
                                  epoch_correct / len(order), steps,
                                  time.perf_counter() - epoch_start))
    model.epochs_trained += config.epochs
    model.snr_train_db = snr_train_db
    return history


def _clean_frame(model, segment, key):
    """encode(model, segment), reused from the segment while its cached
    encode was made by an encoder whose parameter bytes equal key."""
    cached = segment._encoded
    if cached is None or cached[0] != key:
        frame = encode(model, segment)
        frame.symbols.flags.writeable = False
        cached = (key, frame)
        object.__setattr__(segment, "_encoded", cached)
    return cached[1]


def evaluate(model, segments, labels, snr_db, noise_seed=0):
    """Classification accuracy through the channel at snr_db.

    Each VideoSegment is encoded at most once per set of encoder weights:
    the clean SymbolFrame is kept on the segment and reused by later calls
    (other SNRs, other noise seeds) until the encoder's parameters change.
    """
    if len(segments) == 0:
        raise ValueError("cannot evaluate on an empty dataset")
    noise_rng = _philox(noise_seed)
    # encode is a pure function of the frames and these bytes, so equal
    # keys give bit-identical SymbolFrames
    key = model.enc_conv.weights.tobytes() + model.enc_conv.bias.tobytes()
    correct = 0
    for segment, label in zip(segments, labels):
        frame = _clean_frame(model, segment, key)
        noisy = SymbolFrame(channel.add_noise(frame.symbols, snr_db, noise_rng),
                            scale=frame.scale)
        logits, _ = decode(model, noisy)
        correct += int(np.argmax(logits)) == int(label)
    return correct / len(segments)


# checkpoint names of CodecModel.params(), in that order
_ARRAY_NAMES = ("enc.conv.weights", "enc.conv.bias",
                "dec.conv1.weights", "dec.conv1.bias",
                "dec.conv2.weights", "dec.conv2.bias",
                "dec.conv3.weights", "dec.conv3.bias",
                "dec.linear.weights", "dec.linear.bias")


def save_model(path, model):
    arrays = dict(zip(_ARRAY_NAMES, model.params(), strict=True))
    arrays["meta"] = np.array([float(model.epochs_trained), model.snr_train_db])
    weights_io.write_arrays(path, arrays)


def load_model(path):
    arrays = weights_io.read_arrays(path)
    model = CodecModel(seed=0)
    for name, target in zip(_ARRAY_NAMES, model.params(), strict=True):
        if name not in arrays:
            raise weights_io.ContainerFormatError(f"missing array {name!r}")
        if arrays[name].shape != target.shape:
            raise weights_io.ContainerFormatError(
                f"array {name!r} has shape {arrays[name].shape}, "
                f"expected {target.shape}")
        target[...] = arrays[name]
    meta = arrays.get("meta")
    if meta is None or meta.shape != (2,):
        raise weights_io.ContainerFormatError("missing or malformed meta array")
    if not (0 <= meta[0] < math.inf and meta[0] == math.floor(meta[0])):
        raise weights_io.ContainerFormatError(
            f"meta epochs must be a finite integer >= 0, got {meta[0]}")
    model.epochs_trained = int(meta[0])
    model.snr_train_db = float(meta[1])
    return model
