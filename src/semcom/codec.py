"""Joint semantic/channel video codec and activity classifier.

Encoder (camera side): conv3d(3->4, k3, pad 1) -> ReLU -> maxpool (3,5,5)
stride (3,5,5), run as one fused layer (:class:`tensor.ConvReLUPool3d`)
that convolves only the 15x110x110 extent the pool reads and
back-propagates only through the pool winners. It produces a 4x5x22x22
feature that is reshaped row-major into 4,840 complex symbols (even
elements real, odd elements imaginary) and power-normalized to unit
average symbol power.

Decoder (server side): de-normalize -> reshape -> three conv3d(k3, pad 1)
+ ReLU stages with two (2,2,2)/(2,2,2) max-pools between them -> deep
feature 8x1x5x5 -> linear 200->5 logits.

Training runs end to end through the AWGN channel with fresh noise per
sample per step; the noise addition backpropagates as identity while the
power normalization is differentiated exactly. Parameters are kept on the
float32 grid after every update so checkpoints round-trip bitwise.

Evaluation encodes each clean segment once per set of encoder weights: a
``VideoSegment`` is immutable (its ``frames`` array is read-only), so
:func:`evaluate` keeps the clean ``SymbolFrame`` on the segment, keyed by
the bytes of the encoder's weights and bias, and reuses it for every
later SNR and noise seed until those parameters change.
"""
from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from enum import IntEnum

import numpy as np

from . import channel, weights_io
from .channel import SymbolFrame, gaussian_noise
from .tensor import (Conv3d, ConvReLUPool3d, Linear, MaxPool3d, ReLU,
                     ShapeError, Tape, lr_schedule, sgd_step,
                     softmax_cross_entropy)

SEGMENT_FRAMES = 16
FRAME_HEIGHT = 112
FRAME_WIDTH = 112
FEATURE_SHAPE = (4, 5, 22, 22)
FEATURE_ELEMS = 4 * 5 * 22 * 22          # 9,680
SYMBOLS_PER_SEGMENT = FEATURE_ELEMS // 2  # 4,840
DEEP_FEATURE_SHAPE = (8, 1, 5, 5)
N_ACTIVITIES = 5
DEFAULT_STRIDE = 16


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

    index: int
    frames: np.ndarray
    # (encoder key, SymbolFrame) of the last clean encode; see _clean_frame
    _encoded: tuple = field(default=None, init=False, repr=False,
                            compare=False)

    def __post_init__(self):
        frames = np.array(self.frames, dtype=np.float64, order="C")
        expected = (3, SEGMENT_FRAMES, FRAME_HEIGHT, FRAME_WIDTH)
        if frames.shape != expected:
            raise ShapeError(
                f"segment frames must be {expected}, got {frames.shape}")
        lo, hi = float(frames.min()), float(frames.max())
        if lo < -1e-9 or hi > 1.0 + 1e-9:
            raise ValueError(f"pixel values outside [0, 1]: min {lo}, max {hi}")
        frames.flags.writeable = False
        object.__setattr__(self, "frames", frames)

    @classmethod
    def from_rgb_frames(cls, index, frames):
        """Build from (16, H, W, 3) frames; uint8 is scaled by 1/255."""
        frames = np.asarray(frames)
        if frames.dtype == np.uint8:
            frames = frames.astype(np.float64) / 255.0
        return cls(index, np.transpose(frames, (3, 0, 1, 2)))


def segment_count(total_frames, stride=DEFAULT_STRIDE):
    """How many full 16-frame windows a stream of total_frames yields."""
    if stride < 1:
        raise ValueError(f"stride must be >= 1, got {stride}")
    if total_frames < SEGMENT_FRAMES:
        return 0
    return (total_frames - SEGMENT_FRAMES) // stride + 1


def sample_segments(frames, stride=DEFAULT_STRIDE):
    """Slide a 16-frame window over (T, H, W, 3) frames.

    Segment j covers frames [j*stride, j*stride + 16); only full windows
    are emitted, so fewer than 16 frames yields an empty list.
    """
    frames = np.asarray(frames)
    count = segment_count(frames.shape[0], stride)
    return [
        VideoSegment.from_rgb_frames(
            j, frames[j * stride:j * stride + SEGMENT_FRAMES])
        for j in range(count)
    ]


class CodecModel:
    """Encoder + decoder parameter set with training metadata."""

    def __init__(self, seed=0):
        rng = np.random.default_rng(seed)
        self.seed = seed
        self.enc_conv = ConvReLUPool3d(3, 4, (3, 3, 3), (1, 1, 1),
                                       (3, 5, 5), (3, 5, 5), rng)
        self.dec_conv1 = Conv3d(4, 8, (3, 3, 3), (1, 1, 1), rng)
        self.dec_relu1 = ReLU()
        self.dec_pool1 = MaxPool3d((2, 2, 2), (2, 2, 2))
        self.dec_conv2 = Conv3d(8, 8, (3, 3, 3), (1, 1, 1), rng)
        self.dec_relu2 = ReLU()
        self.dec_pool2 = MaxPool3d((2, 2, 2), (2, 2, 2))
        self.dec_conv3 = Conv3d(8, 8, (3, 3, 3), (1, 1, 1), rng)
        self.dec_relu3 = ReLU()
        self.linear = Linear(int(np.prod(DEEP_FEATURE_SHAPE)), N_ACTIVITIES, rng)
        self.epochs_trained = 0
        self.snr_train_db = math.inf

    def param_layers(self):
        return [self.enc_conv, self.dec_conv1, self.dec_conv2, self.dec_conv3,
                self.linear]

    def params(self):
        out = []
        for layer in self.param_layers():
            out.extend(layer.params())
        return out

    def grads(self, tape):
        out = []
        for layer in self.param_layers():
            out.extend(tape.grads(layer))
        return out

    def quantize_params_f32(self):
        """Clamp parameters onto the float32 grid (exact persistence)."""
        for p in self.params():
            p[...] = p.astype(np.float32)


def power_normalize(flat):
    """Scale a flat feature to unit average symbol power.

    sigma is the RMS symbol amplitude sqrt(sum(flat^2)/L); an all-zero
    feature skips normalization and reports scale 0.
    """
    sigma = math.sqrt(float(np.dot(flat, flat)) / SYMBOLS_PER_SEGMENT)
    if sigma == 0.0:
        return flat.copy(), 0.0
    return flat / sigma, sigma


def encode(model, segment, tape=None):
    """Segment -> power-normalized SymbolFrame of 4,840 complex symbols."""
    x = segment.frames if isinstance(segment, VideoSegment) else np.asarray(segment)
    flat = model.enc_conv.forward(x, tape).reshape(-1)
    s, sigma = power_normalize(flat)
    if tape is not None:
        tape.put("power_norm", (s.copy(), sigma))
    pairs = s.reshape(SYMBOLS_PER_SEGMENT, 2)
    return SymbolFrame(pairs[:, 0] + 1j * pairs[:, 1], scale=sigma)


def decode(model, frame, tape=None):
    """SymbolFrame -> (logits, deep_feature 8x1x5x5)."""
    if len(frame) != SYMBOLS_PER_SEGMENT:
        raise ValueError(
            f"expected {SYMBOLS_PER_SEGMENT} symbols, got {len(frame)}")
    received = frame.as_pairs().reshape(-1)
    k_hat = received * frame.scale
    if tape is not None:
        tape.put("power_denorm", (received.copy(), frame.scale))
    h = k_hat.reshape(FEATURE_SHAPE)
    h = model.dec_conv1.forward(h, tape)
    h = model.dec_relu1.forward(h, tape)
    h = model.dec_pool1.forward(h, tape)
    h = model.dec_conv2.forward(h, tape)
    h = model.dec_relu2.forward(h, tape)
    h = model.dec_pool2.forward(h, tape)
    h = model.dec_conv3.forward(h, tape)
    deep = model.dec_relu3.forward(h, tape)
    logits = model.linear.forward(deep.reshape(-1), tape)
    return logits, deep


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


def _backward(model, grad_logits, tape):
    """Backward through decoder, de/normalization pair, and encoder."""
    g = model.linear.backward(grad_logits, tape)
    g = model.dec_relu3.backward(g.reshape(DEEP_FEATURE_SHAPE), tape)
    g = model.dec_conv3.backward(g, tape)
    g = model.dec_pool2.backward(g, tape)
    g = model.dec_relu2.backward(g, tape)
    g = model.dec_conv2.backward(g, tape)
    g = model.dec_pool1.backward(g, tape)
    g = model.dec_relu1.backward(g, tape)
    g = model.dec_conv1.backward(g, tape)
    grad_khat = g.reshape(-1)
    received, sigma = tape.take("power_denorm")
    s, sigma_enc = tape.take("power_norm")
    if sigma != sigma_enc:
        raise RuntimeError("encode/decode tapes out of sync")
    # k_hat = received * sigma: gradient splits between symbols and sigma
    grad_received = grad_khat * sigma
    grad_sigma = float(np.dot(grad_khat, received))
    # channel noise backpropagates as identity: grad_s = grad_received
    L = SYMBOLS_PER_SEGMENT
    grad_flat = (grad_received / sigma
                 - s * (float(np.dot(grad_received, s)) / (L * sigma))
                 + grad_sigma * s / L)
    model.enc_conv.backward(grad_flat.reshape(FEATURE_SHAPE), tape)


def sample_gradients(model, segment, label, snr_db, noise_rng):
    """(loss, correct, grads) for one segment through a noisy channel."""
    tape = Tape()
    frame = encode(model, segment, tape)
    if frame.scale == 0.0:
        raise ValueError("all-zero feature during training; cannot normalize")
    if math.isinf(snr_db):
        noisy = frame
    else:
        sigma_sq = 1.0 / 10.0 ** (snr_db / 10.0)   # unit power after normalization
        std = math.sqrt(sigma_sq / 2.0)
        noise = gaussian_noise(2 * SYMBOLS_PER_SEGMENT, noise_rng)
        noisy = SymbolFrame(
            frame.symbols + std * (noise[0::2] + 1j * noise[1::2]),
            scale=frame.scale)
    logits, _ = decode(model, noisy, tape)
    one_hot = np.zeros(N_ACTIVITIES)
    one_hot[int(label)] = 1.0
    loss, grad_logits = softmax_cross_entropy(logits, one_hot)
    _backward(model, grad_logits, tape)
    return loss, int(np.argmax(logits)) == int(label), model.grads(tape)


@dataclass
class TrainConfig:
    epochs: int = 15
    batch_size: int = 32
    base_lr: float = 0.003
    lr_divisor: float = 4.0
    lr_every: int = 4
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
    if len(segments) == 0:
        raise ValueError("cannot train on an empty dataset")
    if len(segments) != len(labels):
        raise ValueError("segments and labels must align")
    labels = [int(v) for v in labels]
    shuffle_rng = np.random.Generator(np.random.Philox(key=np.uint64(config.shuffle_seed)))
    noise_rng = np.random.Generator(np.random.Philox(key=np.uint64(config.noise_seed)))
    order = np.arange(len(segments))
    params = model.params()
    history = []
    for epoch in range(config.epochs):
        epoch_start = time.perf_counter()
        lr = lr_schedule(epoch, config.base_lr, config.lr_divisor, config.lr_every)
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
    if not isinstance(segment, VideoSegment):
        return encode(model, segment)
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
    noise_rng = np.random.Generator(np.random.Philox(key=np.uint64(noise_seed)))
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


_ARRAY_SPECS = (
    ("enc.conv.weights", lambda m: m.enc_conv.weights),
    ("enc.conv.bias", lambda m: m.enc_conv.bias),
    ("dec.conv1.weights", lambda m: m.dec_conv1.weights),
    ("dec.conv1.bias", lambda m: m.dec_conv1.bias),
    ("dec.conv2.weights", lambda m: m.dec_conv2.weights),
    ("dec.conv2.bias", lambda m: m.dec_conv2.bias),
    ("dec.conv3.weights", lambda m: m.dec_conv3.weights),
    ("dec.conv3.bias", lambda m: m.dec_conv3.bias),
    ("dec.linear.weights", lambda m: m.linear.weights),
    ("dec.linear.bias", lambda m: m.linear.bias),
)


def save_model(path, model):
    arrays = {name: get(model) for name, get in _ARRAY_SPECS}
    arrays["meta"] = np.array([float(model.epochs_trained), model.snr_train_db])
    weights_io.write_arrays(path, arrays)


def load_model(path):
    arrays = weights_io.read_arrays(path)
    model = CodecModel(seed=0)
    for name, get in _ARRAY_SPECS:
        if name not in arrays:
            raise weights_io.ContainerFormatError(f"missing array {name!r}")
        target = get(model)
        if arrays[name].shape != target.shape:
            raise weights_io.ContainerFormatError(
                f"array {name!r} has shape {arrays[name].shape}, "
                f"expected {target.shape}")
        target[...] = arrays[name]
    meta = arrays.get("meta")
    if meta is None or meta.shape != (2,):
        raise weights_io.ContainerFormatError("missing or malformed meta array")
    model.epochs_trained = int(meta[0])
    model.snr_train_db = float(meta[1])
    return model
