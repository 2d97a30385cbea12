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

Samples travel as plain (n, 3) float64 arrays in g units, one row per
50 Hz sample; timestamps exist only in the accel CSV files.
"""
from __future__ import annotations

from enum import IntEnum

import numpy as np

from .channel import floats_to_symbols, symbols_to_floats

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
DEGENERATE_NORM = 1e-6
LOWPASS_CUTOFF_HZ = 0.3
FILTER_BLOCK = 64          # gravity filter block, in samples


class Posture(IntEnum):
    LYING = 0
    SITTING = 1
    STANDING = 2
    WALKING = 3


POSTURE_NAMES = {p: p.name.lower() for p in Posture}


def quantize(values):
    """Map g values onto signed 12-bit codes over [-4, +4); out-of-range clamps.

    Returns (codes, clamped_count).
    """
    # clipped just past the code range first, so a huge value cannot
    # overflow the division; it still rounds to a clamped code
    values = np.clip(np.asarray(values, dtype=np.float64),
                     (_CODE_MIN - 1) * QUANT_STEP, (_CODE_MAX + 1) * QUANT_STEP)
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


def encode_raw(xyz):
    """Quantize and pack (n, 3) samples into one 75-symbol frame per full
    second.

    Values are packed sample-major (x, y, z per sample), two consecutive
    values per complex symbol. A trailing partial second is dropped.
    Frames are not power-normalized: amplitudes are g/4, so channel noise
    scales with each frame's measured power rather than with full scale.
    Returns (symbols, clamped_count), symbols a (seconds, 75) complex
    array with one frame per row.
    """
    codes, clamped = quantize(xyz)
    amps = codes_to_amplitudes(codes).reshape(-1)   # sample-major x,y,z
    n_frames = amps.size // VALUES_PER_FRAME
    values = amps[:n_frames * VALUES_PER_FRAME].reshape(n_frames,
                                                        VALUES_PER_FRAME)
    return floats_to_symbols(values), clamped


def decode_raw(symbols):
    """Recover the (frames * 50, 3) samples from received raw frames, one
    per row of a (frames, 75) complex array."""
    symbols = np.asarray(symbols, dtype=np.complex128)
    if symbols.ndim != 2 or symbols.shape[1] != SYMBOLS_PER_FRAME:
        raise ValueError(f"expected {SYMBOLS_PER_FRAME} symbols per frame in "
                         f"an (n, {SYMBOLS_PER_FRAME}) array, got {symbols.shape}")
    values = symbols_to_floats(symbols)
    return dequantize(amplitudes_to_codes(values)).reshape(-1, 3)


def butterworth_lowpass_coeffs():
    """2nd-order Butterworth low-pass at LOWPASS_CUTOFF_HZ for 50 Hz
    samples, via the bilinear transform.

    Returns (b, a) with a[0] = 1; DC gain is exactly 1 in exact arithmetic.
    """
    k = np.tan(np.pi * LOWPASS_CUTOFF_HZ / SAMPLE_RATE_HZ)
    norm = 1.0 + np.sqrt(2.0) * k + k * k
    b = np.array([k * k, 2.0 * k * k, k * k]) / norm
    a = np.array([1.0, 2.0 * (k * k - 1.0) / norm,
                  (1.0 - np.sqrt(2.0) * k + k * k) / norm])
    return b, a


def _run(x, z1, z2):
    """Run the low-pass recurrence along axis 0 of x from state (z1, z2);
    returns the outputs and the end state."""
    b0, b1, b2 = _B
    a1, a2 = _A[1], _A[2]
    y = np.empty_like(x)
    for i in range(x.shape[0]):
        xi = x[i]
        yi = y[i] = b0 * xi + z1
        z1 = b1 * xi - a1 * yi + z2
        z2 = b2 * xi - a2 * yi
    return y, z1, z2


def _block_design():
    """One zero block run from the unit start states (z1, z2) = (1, 0) and
    (0, 1): each sample's response to a block's start state, and the rows
    of the 2x2 matrix that carries that state to the next block's."""
    unit_y, end_z1, end_z2 = _run(np.zeros((FILTER_BLOCK, 2)),
                                  np.array([1.0, 0.0]), np.array([0.0, 1.0]))
    return unit_y, (end_z1.tolist(), end_z2.tolist())


# the fixed 0.3 Hz design, computed once at import
_B, _A = butterworth_lowpass_coeffs()
_UNIT_Y, _CARRY = _block_design()


class GravityFilter:
    """Streaming per-axis low-pass of (n, 3) samples (transposed direct
    form II). An instance holds only its stream state; the design is the
    module's.

    State warm-starts at the steady-state response of the first sample, so
    constant inputs pass through with no startup transient.

    The stream is filtered in blocks of FILTER_BLOCK samples on a fixed
    grid counted from its first sample. Each block's response is its
    zero-state response plus the responses to its start state, which a
    2x2 matrix carries from block to block. Only elementwise numpy
    operations touch the samples, and each one rounds alike whatever the
    array's shape, so the output has the same bytes however the stream is
    cut into chunks: the samples of the open last block are kept, and that
    block is recomputed from its start state on the next call.
    """

    def __init__(self):
        self._z1 = None      # start state of the open block, per axis
        self._z2 = None
        self._open = np.empty((0, 3))   # samples of the open block

    def _warm_start(self, x0):
        b, a = _B, _A
        self._z1 = (b[1] + b[2] - a[1] - a[2]) * x0
        self._z2 = (b[2] - a[2]) * x0

    def process(self, chunk):
        """Filter an (n, 3) chunk, carrying state across calls."""
        chunk = np.asarray(chunk, dtype=np.float64)
        if chunk.ndim != 2 or chunk.shape[1] != 3:
            raise ValueError(f"expected 3 axes in (n, 3) samples, got {chunk.shape}")
        if chunk.shape[0] == 0:
            return np.empty_like(chunk)
        if self._z1 is None:
            self._warm_start(chunk[0])
        held = len(self._open)
        n = held + len(chunk)
        n_full = n // FILTER_BLOCK
        blocks = np.zeros((-(-n // FILTER_BLOCK), FILTER_BLOCK, 3))
        samples = blocks.reshape(-1, 3)
        samples[:held] = self._open
        samples[held:n] = chunk
        # zero-state run, step i on sample i of every block at once
        zero = np.zeros((len(blocks), 3))
        y, end_z1, end_z2 = _run(
            np.ascontiguousarray(blocks.transpose(1, 0, 2)), zero, zero)
        # block start states, block by block on Python floats
        (m11, m12), (m21, m22) = _CARRY
        start_z1 = np.empty_like(zero)
        start_z2 = np.empty_like(zero)
        z1s, z2s = self._z1.tolist(), self._z2.tolist()
        for axis in range(3):
            z1, z2 = z1s[axis], z2s[axis]
            s1, s2 = [z1], [z2]
            for e1, e2 in zip(end_z1[:n_full, axis].tolist(),
                              end_z2[:n_full, axis].tolist()):
                z1, z2 = e1 + (m11 * z1 + m12 * z2), e2 + (m21 * z1 + m22 * z2)
                s1.append(z1)
                s2.append(z2)
            start_z1[:, axis] = s1[:len(blocks)]
            start_z2[:, axis] = s2[:len(blocks)]
            z1s[axis], z2s[axis] = z1, z2
        y += _UNIT_Y[:, None, 0:1] * start_z1
        y += _UNIT_Y[:, None, 1:2] * start_z2
        self._z1, self._z2 = np.array(z1s), np.array(z2s)
        self._open = samples[n_full * FILTER_BLOCK:n].copy()
        return y.transpose(1, 0, 2).reshape(-1, 3)[held:n]


def gravity_feature(xyz, index=0):
    """Movement-orientation degree of each disjoint 1 s window of (n, 3)
    filtered samples: the mean over its samples g_j of cos(g_j, [0,0,1]).

    Returns the (n // 50,) u array; a trailing partial window is dropped.
    Samples with near-zero norm are left out of their window's mean; a
    window with no usable sample is an error that names its number,
    counted from index.
    """
    n_windows = len(xyz) // WINDOW_SAMPLES
    windows = np.asarray(xyz, dtype=np.float64)[:n_windows * WINDOW_SAMPLES]
    windows = windows.reshape(n_windows, WINDOW_SAMPLES, 3)
    x, y, z = windows[..., 0], windows[..., 1], windows[..., 2]
    # summed x, then y, then z, as np.linalg.norm sums a 3x50 window
    norms = np.sqrt(x * x + y * y + z * z)
    valid = norms > DEGENERATE_NORM
    # degenerate samples divide by a placeholder 1; their windows are redone
    u = np.mean(z / np.where(valid, norms, 1.0), axis=1)
    for k in np.flatnonzero(~valid.all(axis=1)).tolist():
        if not valid[k].any():
            raise ValueError(f"window {index + k}: all columns degenerate")
        u[k] = np.mean(z[k, valid[k]] / norms[k, valid[k]])
    return u


def write_trace_csv(path, xyz):
    """Write (n, 3) samples as an accel CSV, sample i at t = i / 50 s."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("t_sec,ax,ay,az\n")
        for i, row in enumerate(xyz):
            fh.write(f"{i / SAMPLE_RATE_HZ:.6f},{row[0]:.9f},{row[1]:.9f},"
                     f"{row[2]:.9f}\n")


def read_trace_csv(path):
    """The (n, 3) samples of an accel CSV, whose timestamps must advance by
    0.02 s (50 Hz)."""
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().strip()
        if header != "t_sec,ax,ay,az":
            raise ValueError(f"unexpected accel CSV header: {header!r}")
        rows = [line.strip().split(",") for line in fh if line.strip()]
    if not rows:
        return np.empty((0, 3))
    data = np.array(rows, dtype=np.float64)
    if np.any(np.abs(np.diff(data[:, 0]) - 1.0 / SAMPLE_RATE_HZ) > 1e-9):
        raise ValueError("timestamps must advance by 0.02 s (50 Hz)")
    return data[:, 1:4]
