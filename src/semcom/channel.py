"""Symbol-level AWGN channel with exact SNR calibration: the one float <->
symbol packing and the one noise path of training, evaluation and links.

Noise power follows sigma^2 = P / 10**(snr_db/10) where P is the measured
average symbol power of the frame being sent; each quadrature gets
variance sigma^2/2 so the per-symbol complex noise power is sigma^2. An
SNR of +inf is noiseless; NaN and -inf are rejected.

Gaussians come from Box-Muller over a Philox counter-based uniform stream,
so a given seed reproduces the same noise on any platform.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


def floats_to_symbols(values):
    """Complex symbols from floats, consecutive values along the last axis
    as (real, imag): a view of the float64 bytes, so -0.0 survives too."""
    return np.ascontiguousarray(values, dtype=np.float64).view(np.complex128)


def symbols_to_floats(symbols):
    """Float values from complex symbols, (real, imag) of each symbol as
    two consecutive values along the last axis; the inverse of
    :func:`floats_to_symbols`, also a view."""
    return np.ascontiguousarray(symbols, dtype=np.complex128).view(np.float64)


def _mean_power(symbols):
    """Mean of re^2 + im^2 along the last axis."""
    return np.mean(symbols.real**2 + symbols.imag**2, axis=-1)


@dataclass
class SymbolFrame:
    """A sequence of complex channel symbols plus their power scale.

    ``scale`` is the amplitude factor divided out during power
    normalization (0.0 for an all-zero frame, where normalization is
    skipped); the receiving side multiplies it back in.
    """

    symbols: np.ndarray
    scale: float = 1.0

    def __post_init__(self):
        self.symbols = np.ascontiguousarray(self.symbols, dtype=np.complex128)
        if self.symbols.ndim != 1:
            raise ValueError(f"symbols must be rank-1, got {self.symbols.shape}")

    def __len__(self):
        return self.symbols.size

    @property
    def avg_power(self):
        """Mean of re^2 + im^2 over the frame."""
        if self.symbols.size == 0:
            return 0.0
        return float(_mean_power(self.symbols))


def _uniform_shape(n, rows=1):
    """Shape of the uniform block that gaussian_noise(n, rng, rows) draws."""
    return rows, 2, (n // rows + 1) // 2


def gaussian_noise(n, rng, rows=1):
    """n standard-normal draws via Box-Muller on uniform variates from rng.

    With rows > 1 (dividing n) the draws are those that ``rows``
    consecutive calls for n // rows draws each would return, concatenated.
    """
    per_row = n // rows
    shape = _uniform_shape(n, rows)
    pairs = shape[2]
    uniforms = rng.random(shape)
    u1 = 1.0 - uniforms[:, 0]  # (0, 1]: keeps log() finite
    u2 = uniforms[:, 1]
    radius = np.sqrt(-2.0 * np.log(u1))
    angle = 2.0 * np.pi * u2
    out = np.empty((rows, 2 * pairs))
    out[:, 0::2] = radius * np.cos(angle)
    out[:, 1::2] = radius * np.sin(angle)
    return out[:, :per_row].reshape(-1)


def _philox(seed):
    return np.random.Generator(np.random.Philox(key=np.uint64(seed)))


def _noiseless(snr_db):
    """True at +inf SNR, False at a finite one; NaN and -inf are errors."""
    if math.isnan(snr_db) or snr_db == -math.inf:
        raise ValueError(f"SNR must be a number of dB or inf, got {snr_db}")
    return snr_db == math.inf


def add_noise(symbols, snr_db, rng):
    """Return symbols + AWGN at snr_db relative to their measured power.

    A 2-D input is a block of frames, one per row: each row's noise is
    referenced to that row's power, and the result is bitwise what calls
    on the rows in order would return. The input array is not modified.
    Infinite snr_db returns a plain copy.
    """
    symbols = np.asarray(symbols, dtype=np.complex128)
    if symbols.size == 0:
        raise ValueError("cannot send an empty frame")
    if _noiseless(snr_db):
        return symbols.copy()
    frames = symbols.reshape(-1, symbols.shape[-1])
    power = _mean_power(frames)[:, None]
    if not power.all():
        raise ValueError(
            "all-zero frame at finite SNR: signal power 0 leaves noise undefined")
    sigma_sq = power / 10.0 ** (snr_db / 10.0)
    std = np.sqrt(sigma_sq / 2.0)
    noise = gaussian_noise(2 * symbols.size, rng, frames.shape[0])
    noisy = frames + std * floats_to_symbols(noise.reshape(frames.shape[0], -1))
    return noisy.reshape(symbols.shape)


class Channel:
    """Sequential channel: one Philox stream consumed across many frames."""

    def __init__(self, snr_db, rng_seed=0):
        self.snr_db = snr_db
        self._rng = _philox(rng_seed)

    def send(self, frame):
        """A noisy SymbolFrame, or for a (frames, symbols) array of frames,
        the noisy array; either way the same draws as frame-by-frame sends."""
        if isinstance(frame, SymbolFrame):
            return SymbolFrame(add_noise(frame.symbols, self.snr_db, self._rng),
                               scale=frame.scale)
        return add_noise(frame, self.snr_db, self._rng)

    def skip(self, n_symbols):
        """Consume the draws that sending one n_symbols frame would take
        (none at infinite SNR) without sending it, so later frames get the
        noise they would have had."""
        if n_symbols < 1:
            raise ValueError("cannot send an empty frame")
        if not _noiseless(self.snr_db):
            self._rng.random(_uniform_shape(2 * n_symbols))


def measured_snr(clean, noisy):
    """Empirical SNR in dB from a clean/noisy frame pair.

    Returns +inf when the frames are identical; raises on an all-zero
    clean frame (the ratio is undefined).
    """
    a = clean.symbols if isinstance(clean, SymbolFrame) else np.asarray(clean)
    b = noisy.symbols if isinstance(noisy, SymbolFrame) else np.asarray(noisy)
    if a.shape != b.shape:
        raise ValueError(f"length mismatch: {a.shape} vs {b.shape}")
    p_signal = float(_mean_power(a.reshape(-1)))
    if p_signal == 0.0:
        raise ValueError("clean frame has zero power; SNR undefined")
    p_noise = float(_mean_power((b - a).reshape(-1)))
    if p_noise == 0.0:
        return math.inf
    return 10.0 * math.log10(p_signal / p_noise)
