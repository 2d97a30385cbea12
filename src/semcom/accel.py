"""Accelerometer-side raw transmission and server-side posture features.

The wearable encodes raw 3-axis samples with a 12-bit fixed-point quantizer
and packs them two values per complex symbol, one frame per second. Raw
frames are sent without power normalization (``scale`` = 1.0), and the
channel references its noise to each frame's measured power, so at 25 dB
the received samples carry ~0.05 g RMS error for +/-1.5 g motion -- about
25 quantizer codes, far above the 12-bit step. The server reverses that,
low-passes at 0.3 Hz to recover the gravity component (which also
suppresses that channel error), cuts 1 s windows and reduces each window
to the mean cosine against the default gravity direction [0, 0, 1].
"""
from __future__ import annotations

from dataclasses import dataclass
from enum import IntEnum

import numpy as np

from .channel import SymbolFrame

SAMPLE_RATE_HZ = 50.0
WINDOW_SAMPLES = 50
ACCEL_RANGE_G = 4.0          # quantizer domain [-4, +4) g
QUANT_BITS = 12
QUANT_LEVELS = 1 << QUANT_BITS
QUANT_STEP = 2.0 * ACCEL_RANGE_G / QUANT_LEVELS   # 8/4096 g per code
_CODE_MIN = -(QUANT_LEVELS // 2)
_CODE_MAX = QUANT_LEVELS // 2 - 1
VALUES_PER_FRAME = WINDOW_SAMPLES * 3             # one second of samples
SYMBOLS_PER_FRAME = VALUES_PER_FRAME // 2
GRAVITY_DEFAULT = np.array([0.0, 0.0, 1.0])
DEGENERATE_NORM = 1e-6
LOWPASS_CUTOFF_HZ = 0.3


class Posture(IntEnum):
    LYING = 0
    SITTING = 1
    STANDING = 2
    WALKING = 3


POSTURE_NAMES = {p: p.name.lower() for p in Posture}


def parse_posture(name):
    try:
        return Posture[name.upper()]
    except KeyError:
        raise ValueError(f"unknown posture {name!r}") from None


@dataclass
class AccelTrace:
    """A 50 Hz stream: t is (n,) seconds, xyz is (n, 3) in g units."""

    t: np.ndarray
    xyz: np.ndarray

    def __post_init__(self):
        self.t = np.ascontiguousarray(self.t, dtype=np.float64)
        self.xyz = np.ascontiguousarray(self.xyz, dtype=np.float64)
        if self.xyz.ndim != 2 or self.xyz.shape[1] != 3:
            raise ValueError(f"xyz must be (n, 3), got {self.xyz.shape}")
        if self.t.shape != (self.xyz.shape[0],):
            raise ValueError("t and xyz lengths differ")
        if self.t.size > 1:
            dt = np.diff(self.t)
            if np.any(np.abs(dt - 1.0 / SAMPLE_RATE_HZ) > 1e-9):
                raise ValueError("timestamps must advance by 0.02 s (50 Hz)")

    def __len__(self):
        return self.t.size


def quantize(values):
    """Map g values onto signed 12-bit codes over [-4, +4); out-of-range clamps.

    Returns (codes, clamped_count).
    """
    values = np.asarray(values, dtype=np.float64)
    codes = np.rint(values / QUANT_STEP)
    clamped = int(np.count_nonzero((codes < _CODE_MIN) | (codes > _CODE_MAX)))
    return np.clip(codes, _CODE_MIN, _CODE_MAX).astype(np.int64), clamped


def dequantize(codes):
    return np.asarray(codes, dtype=np.float64) * QUANT_STEP


def codes_to_amplitudes(codes):
    """Fixed-point codes to channel amplitudes in [-1, 1)."""
    return np.asarray(codes, dtype=np.float64) / (QUANT_LEVELS // 2)


def amplitudes_to_codes(amps):
    """Nearest-code rounding of received amplitudes."""
    codes = np.rint(np.asarray(amps, dtype=np.float64) * (QUANT_LEVELS // 2))
    return np.clip(codes, _CODE_MIN, _CODE_MAX).astype(np.int64)


def encode_raw(trace):
    """Quantize and pack a trace into one 75-symbol frame per full second.

    Values are packed sample-major (x, y, z per sample), two consecutive
    values per complex symbol. A trailing partial second is dropped.
    Frames are not power-normalized (``scale`` = 1.0): amplitudes are g/4,
    so channel noise scales with each frame's measured power rather than
    with full scale. Returns (frames, clamped_count).
    """
    codes, clamped = quantize(trace.xyz)
    amps = codes_to_amplitudes(codes).reshape(-1)   # sample-major x,y,z
    n_frames = amps.size // VALUES_PER_FRAME
    frames = []
    for f in range(n_frames):
        chunk = amps[f * VALUES_PER_FRAME:(f + 1) * VALUES_PER_FRAME]
        pairs = chunk.reshape(SYMBOLS_PER_FRAME, 2)
        frames.append(SymbolFrame(pairs[:, 0] + 1j * pairs[:, 1]))
    return frames, clamped


def decode_raw(frames):
    """Recover an AccelTrace from received raw frames.

    Timestamps are regenerated on the 50 Hz grid starting at 0.
    """
    values = []
    for idx, frame in enumerate(frames):
        if len(frame) != SYMBOLS_PER_FRAME:
            raise ValueError(
                f"frame {idx} has {len(frame)} symbols, expected {SYMBOLS_PER_FRAME}")
        pairs = np.empty(VALUES_PER_FRAME)
        pairs[0::2] = frame.symbols.real
        pairs[1::2] = frame.symbols.imag
        values.append(dequantize(amplitudes_to_codes(pairs)))
    if not values:
        return AccelTrace(np.empty(0), np.empty((0, 3)))
    xyz = np.concatenate(values).reshape(-1, 3)
    t = np.arange(xyz.shape[0]) / SAMPLE_RATE_HZ
    return AccelTrace(t, xyz)


def butterworth_lowpass_coeffs(cutoff_hz=LOWPASS_CUTOFF_HZ, fs=SAMPLE_RATE_HZ):
    """2nd-order Butterworth low-pass via the bilinear transform.

    Returns (b, a) with a[0] = 1; DC gain is exactly 1 in exact arithmetic.
    """
    k = np.tan(np.pi * cutoff_hz / fs)
    norm = 1.0 + np.sqrt(2.0) * k + k * k
    b = np.array([k * k, 2.0 * k * k, k * k]) / norm
    a = np.array([1.0, 2.0 * (k * k - 1.0) / norm,
                  (1.0 - np.sqrt(2.0) * k + k * k) / norm])
    return b, a


class GravityFilter:
    """Streaming per-axis low-pass (transposed direct form II).

    State warm-starts at the steady-state response of the first sample, so
    constant inputs pass through with no startup transient.
    """

    def __init__(self, cutoff_hz=LOWPASS_CUTOFF_HZ, fs=SAMPLE_RATE_HZ, n_axes=3):
        self.b, self.a = butterworth_lowpass_coeffs(cutoff_hz, fs)
        self.n_axes = n_axes
        self._z1 = None
        self._z2 = None

    def _warm_start(self, x0):
        b, a = self.b, self.a
        self._z1 = (b[1] + b[2] - a[1] - a[2]) * x0
        self._z2 = (b[2] - a[2]) * x0

    def process(self, chunk):
        """Filter an (n, n_axes) chunk, carrying state across calls."""
        chunk = np.asarray(chunk, dtype=np.float64)
        if chunk.ndim == 1:
            chunk = chunk[:, None] if self.n_axes == 1 else chunk[None, :]
        if chunk.shape[1] != self.n_axes:
            raise ValueError(f"expected {self.n_axes} axes, got {chunk.shape[1]}")
        out = np.empty_like(chunk)
        if chunk.shape[0] == 0:
            return out
        if self._z1 is None:
            self._warm_start(chunk[0])
        # one axis at a time on Python floats: the same IEEE operations in
        # the same order as the vector recurrence, without per-sample numpy
        b0, b1, b2 = (float(v) for v in self.b)
        a1, a2 = float(self.a[1]), float(self.a[2])
        z1s, z2s = self._z1.tolist(), self._z2.tolist()
        for axis, xs in enumerate(chunk.T.tolist()):
            z1, z2 = z1s[axis], z2s[axis]
            ys = []
            for x in xs:
                y = b0 * x + z1
                z1 = b1 * x - a1 * y + z2
                z2 = b2 * x - a2 * y
                ys.append(y)
            out[:, axis] = ys
            z1s[axis], z2s[axis] = z1, z2
        self._z1, self._z2 = np.array(z1s), np.array(z2s)
        return out


def lowpass_gravity(trace):
    """Gravity estimate: 0.3 Hz low-pass applied independently per axis."""
    filt = GravityFilter()
    return AccelTrace(trace.t.copy(), filt.process(trace.xyz))


@dataclass
class AccelWindow:
    """One second of gravity-filtered samples as a 3x50 matrix."""

    index: int
    G: np.ndarray

    def __post_init__(self):
        self.G = np.ascontiguousarray(self.G, dtype=np.float64)
        if self.G.shape != (3, WINDOW_SAMPLES):
            raise ValueError(f"G must be (3, {WINDOW_SAMPLES}), got {self.G.shape}")


@dataclass
class GravityFeature:
    """Mean cosine of a window against the default gravity direction."""

    index: int
    u: float
    excluded_columns: int = 0


def make_windows(trace):
    """Cut consecutive disjoint 50-sample windows; a trailing partial is dropped."""
    n_windows = len(trace) // WINDOW_SAMPLES
    return [
        AccelWindow(i, trace.xyz[i * WINDOW_SAMPLES:(i + 1) * WINDOW_SAMPLES].T)
        for i in range(n_windows)
    ]


def gravity_feature(window):
    """Movement-orientation degree: mean over columns of cos(g_ij, [0,0,1]).

    Columns with near-zero norm are excluded from the mean and counted;
    a window with no usable column is an error.
    """
    norms = np.linalg.norm(window.G, axis=0)
    valid = norms > DEGENERATE_NORM
    n_excluded = int(np.count_nonzero(~valid))
    if not np.any(valid):
        raise ValueError(f"window {window.index}: all columns degenerate")
    cosines = window.G[2, valid] / norms[valid]
    return GravityFeature(window.index, float(np.mean(cosines)), n_excluded)


def write_trace_csv(path, trace):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("t_sec,ax,ay,az\n")
        for i in range(len(trace)):
            row = trace.xyz[i]
            fh.write(f"{trace.t[i]:.6f},{row[0]:.9f},{row[1]:.9f},{row[2]:.9f}\n")


def read_trace_csv(path):
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().strip()
        if header != "t_sec,ax,ay,az":
            raise ValueError(f"unexpected accel CSV header: {header!r}")
        rows = [line.strip().split(",") for line in fh if line.strip()]
    if not rows:
        return AccelTrace(np.empty(0), np.empty((0, 3)))
    data = np.array(rows, dtype=np.float64)
    return AccelTrace(data[:, 0], data[:, 1:4])
