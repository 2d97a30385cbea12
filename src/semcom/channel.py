"""Symbol-level AWGN channel with exact SNR calibration.

Noise power follows sigma^2 = P / 10**(snr_db/10) where P is the measured
average symbol power of the frame being transmitted; each quadrature gets
variance sigma^2/2 so the per-symbol complex noise power is sigma^2.

Gaussians come from Box-Muller over a Philox counter-based uniform stream,
so a given seed reproduces the same noise on any platform.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

NOISELESS = math.inf


@dataclass
class SymbolFrame:
    """A sequence of complex channel symbols plus transmit-power metadata.

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
        return float(np.mean(self.symbols.real**2 + self.symbols.imag**2))

    def as_pairs(self):
        """(L, 2) float64 view of (real, imag) pairs."""
        out = np.empty((self.symbols.size, 2))
        out[:, 0] = self.symbols.real
        out[:, 1] = self.symbols.imag
        return out


@dataclass(frozen=True)
class ChannelConfig:
    snr_db: float
    rng_seed: int = 0


def gaussian_noise(n, rng, rows=1):
    """n standard-normal draws via Box-Muller on uniform variates from rng.

    With rows > 1 (dividing n) the draws are those that ``rows``
    consecutive calls for n // rows draws each would return, concatenated.
    """
    per_row = n // rows
    pairs = (per_row + 1) // 2
    uniforms = rng.random((rows, 2, pairs))
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


def add_noise(symbols, snr_db, rng):
    """Return symbols + AWGN at snr_db relative to their measured power.

    A 2-D input is a block of frames, one per row: each row's noise is
    referenced to that row's power, and the result is bitwise what calls
    on the rows in order would return. The input array is not modified.
    Infinite snr_db returns a plain copy.
    """
    symbols = np.asarray(symbols, dtype=np.complex128)
    if symbols.size == 0:
        raise ValueError("cannot transmit an empty frame")
    if math.isinf(snr_db):
        return symbols.copy()
    frames = symbols.reshape(-1, symbols.shape[-1])
    power = np.mean(frames.real**2 + frames.imag**2, axis=1, keepdims=True)
    if not power.all():
        raise ValueError(
            "all-zero frame at finite SNR: signal power 0 leaves noise undefined")
    sigma_sq = power / 10.0 ** (snr_db / 10.0)
    std = np.sqrt(sigma_sq / 2.0)
    noise = gaussian_noise(2 * symbols.size, rng, frames.shape[0])
    noise = noise.reshape(frames.shape[0], -1)
    noisy = frames + std * (noise[:, 0::2] + 1j * noise[:, 1::2])
    return noisy.reshape(symbols.shape)


def transmit(frame, config):
    """Pass one frame through the AWGN channel; deterministic given the seed."""
    noisy = add_noise(frame.symbols, config.snr_db, _philox(config.rng_seed))
    return SymbolFrame(noisy, scale=frame.scale)


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


def measured_snr(clean, noisy):
    """Empirical SNR in dB from a clean/noisy frame pair.

    Returns +inf when the frames are identical; raises on an all-zero
    clean frame (the ratio is undefined).
    """
    a = clean.symbols if isinstance(clean, SymbolFrame) else np.asarray(clean)
    b = noisy.symbols if isinstance(noisy, SymbolFrame) else np.asarray(noisy)
    if a.shape != b.shape:
        raise ValueError(f"length mismatch: {a.shape} vs {b.shape}")
    p_signal = float(np.mean(a.real**2 + a.imag**2))
    if p_signal == 0.0:
        raise ValueError("clean frame has zero power; SNR undefined")
    diff = b - a
    p_noise = float(np.mean(diff.real**2 + diff.imag**2))
    if p_noise == 0.0:
        return math.inf
    return 10.0 * math.log10(p_signal / p_noise)
