"""AWGN channel calibration and determinism tests."""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from semcom.channel import (Channel, SymbolFrame, _philox, add_noise,
                            floats_to_symbols, gaussian_noise, measured_snr,
                            symbols_to_floats)


def unit_power_frame(n, seed=0):
    """Random unit-magnitude complex symbols (avg power exactly 1)."""
    rng = np.random.default_rng(seed)
    phases = rng.uniform(0.0, 2.0 * np.pi, n)
    return SymbolFrame(np.exp(1j * phases))


class TestTransmit:
    def test_noiseless_is_identity(self):
        frame = unit_power_frame(1000)
        out = Channel(math.inf, 42).send(frame)
        np.testing.assert_array_equal(out.symbols, frame.symbols)
        assert out.scale == frame.scale

    def test_monte_carlo_noise_power_at_7db(self):
        frame = unit_power_frame(10**6)
        out = Channel(7.0, 17).send(frame)
        diff = out.symbols - frame.symbols
        noise_power = float(np.mean(diff.real**2 + diff.imag**2))
        expected = 10.0 ** (-0.7)
        assert abs(noise_power - expected) / expected < 0.01

    def test_same_seed_identical_different_seed_differs(self):
        frame = unit_power_frame(1000)
        a = Channel(10.0, 5).send(frame)
        b = Channel(10.0, 5).send(frame)
        c = Channel(10.0, 6).send(frame)
        np.testing.assert_array_equal(a.symbols, b.symbols)
        assert np.any(a.symbols != c.symbols)

    def test_input_frame_unmodified(self):
        frame = unit_power_frame(256)
        before = frame.symbols.copy()
        Channel(5.0, 1).send(frame)
        np.testing.assert_array_equal(frame.symbols, before)

    def test_zero_frame_finite_snr_rejected(self):
        frame = SymbolFrame(np.zeros(16, dtype=np.complex128))
        with pytest.raises(ValueError, match="zero"):
            Channel(10.0, 0).send(frame)

    def test_zero_frame_noiseless_ok(self):
        frame = SymbolFrame(np.zeros(16, dtype=np.complex128))
        out = Channel(math.inf, 0).send(frame)
        np.testing.assert_array_equal(out.symbols, frame.symbols)

    def test_empty_frame_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            add_noise(np.empty(0, dtype=np.complex128), 10.0,
                      np.random.default_rng(0))

    def test_noise_mean_and_signal_correlation(self):
        n = 10**6
        frame = unit_power_frame(n, seed=3)
        out = Channel(13.0, 23).send(frame)
        noise = out.symbols - frame.symbols
        components = np.concatenate([noise.real, noise.imag])
        sigma = math.sqrt(10.0 ** (-1.3) / 2.0)
        assert abs(components.mean()) < 5.0 * sigma / math.sqrt(2 * n)
        corr_re = np.corrcoef(frame.symbols.real, noise.real)[0, 1]
        corr_im = np.corrcoef(frame.symbols.imag, noise.imag)[0, 1]
        assert abs(corr_re) < 0.01 and abs(corr_im) < 0.01

    def test_unnormalized_power_scales_noise(self):
        # measured P per frame: tripling the amplitude triples noise std
        rng = np.random.default_rng(4)
        base = SymbolFrame(3.0 * np.exp(1j * rng.uniform(0, 2 * np.pi, 10**5)))
        out = Channel(10.0, 9).send(base)
        diff = out.symbols - base.symbols
        noise_power = float(np.mean(diff.real**2 + diff.imag**2))
        expected = 9.0 * 10.0 ** (-1.0)
        assert abs(noise_power - expected) / expected < 0.02


class TestMeasuredSnr:
    @pytest.mark.parametrize("snr_db", [7.0, 13.0, 19.0, 25.0])
    def test_calibration_grid(self, snr_db):
        frame = unit_power_frame(10**6, seed=int(snr_db))
        out = Channel(snr_db, 1000 + int(snr_db)).send(frame)
        assert measured_snr(frame, out) == pytest.approx(snr_db, abs=0.1)

    def test_identical_frames_infinite(self):
        frame = unit_power_frame(64)
        assert measured_snr(frame, frame) == math.inf

    def test_zero_clean_rejected(self):
        zero = SymbolFrame(np.zeros(8, dtype=np.complex128))
        with pytest.raises(ValueError, match="zero power"):
            measured_snr(zero, zero)

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="length"):
            measured_snr(unit_power_frame(8), unit_power_frame(9))


class TestChannelStream:
    def test_sequential_frames_get_fresh_noise(self):
        channel = Channel(10.0, rng_seed=7)
        frame = unit_power_frame(128)
        a = channel.send(frame)
        b = channel.send(frame)
        assert np.any(a.symbols != b.symbols)

    def test_stream_reproducible(self):
        frame = unit_power_frame(128)
        outs1 = [Channel(10.0, 7).send(frame).symbols for _ in range(1)]
        ch = Channel(10.0, 7)
        outs2 = [ch.send(frame).symbols]
        np.testing.assert_array_equal(outs1[0], outs2[0])


class TestSkip:
    """Channel.skip(L) takes the draws of one L-symbol send, so the frames
    sent after it get the noise they would get after that send."""

    @settings(max_examples=30, deadline=None)
    @given(st.integers(1, 300), st.integers(1, 64), st.integers(0, 2**32 - 1),
           st.sampled_from([-3.0, 7.0, 25.0]))
    def test_skip_then_send_equals_send_then_send(self, n_skipped, n_sent, seed,
                                                  snr_db):
        skipping = Channel(snr_db, seed)
        sending = Channel(snr_db, seed)
        frame = unit_power_frame(n_sent, seed=1)
        skipping.skip(n_skipped)
        sending.send(unit_power_frame(n_skipped, seed=2))
        got = skipping.send(frame)
        want = sending.send(frame)
        assert got.symbols.tobytes() == want.symbols.tobytes()
        assert got.scale == want.scale

    def test_skip_at_infinite_snr_draws_nothing(self):
        channel = Channel(math.inf, rng_seed=3)
        channel.skip(4840)
        assert channel._rng.random(4).tobytes() == _philox(3).random(4).tobytes()

    def test_empty_skip_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            Channel(10.0).skip(0)


class TestGaussianNoise:
    def test_moments(self):
        rng = np.random.default_rng(0)
        z = gaussian_noise(10**6, rng)
        assert abs(z.mean()) < 0.005
        assert abs(z.var() - 1.0) < 0.01

    def test_odd_count(self):
        rng = np.random.default_rng(1)
        assert gaussian_noise(7, rng).shape == (7,)


class TestSymbolFrame:
    def test_avg_power(self):
        frame = SymbolFrame(np.array([3 + 4j, 0 + 0j]))
        assert frame.avg_power == pytest.approx(12.5)

    def test_rank_validation(self):
        with pytest.raises(ValueError):
            SymbolFrame(np.zeros((2, 2), dtype=np.complex128))


class TestPacking:
    """floats_to_symbols and symbols_to_floats: the one float <-> symbol
    conversion of the encoder, the decoder, the raw accel codec and the
    channel's noise."""

    def test_pair_layout(self):
        symbols = np.array([1 + 2j, 3 - 4j])
        np.testing.assert_array_equal(symbols_to_floats(symbols),
                                      [1.0, 2.0, 3.0, -4.0])
        np.testing.assert_array_equal(
            floats_to_symbols([[1.0, 2.0, 3.0, -4.0]]), [[1 + 2j, 3 - 4j]])

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.floats(allow_nan=False, width=64), min_size=1,
                    max_size=40).map(lambda v: v + v[:len(v) % 2]),
           st.integers(0, 2**32 - 1))
    def test_byte_round_trip(self, values, seed):
        """Every float64 survives floats -> symbols -> floats byte for byte,
        -0.0 included, in either part of a symbol and in a block."""
        rng = np.random.default_rng(seed)
        values = np.array(values)
        values[rng.integers(values.size)] = -0.0
        symbols = floats_to_symbols(values)
        assert symbols.shape == (values.size // 2,)
        assert symbols_to_floats(symbols).tobytes() == values.tobytes()
        block = values.reshape(2, -1) if values.size % 4 == 0 else values[None]
        assert symbols_to_floats(floats_to_symbols(block)).tobytes() == \
            block.tobytes()
        assert floats_to_symbols(symbols_to_floats(symbols)).tobytes() == \
            symbols.tobytes()


class TestBadSnr:
    """NaN and -inf SNRs are errors, not silent noiseless or NaN links."""

    @pytest.mark.parametrize("snr_db", [math.nan, -math.inf])
    def test_send_rejected(self, snr_db):
        with pytest.raises(ValueError, match="SNR"):
            Channel(snr_db, 0).send(unit_power_frame(16))

    @pytest.mark.parametrize("snr_db", [math.nan, -math.inf])
    def test_skip_rejected(self, snr_db):
        with pytest.raises(ValueError, match="SNR"):
            Channel(snr_db, 0).skip(16)


def per_frame_gaussian_noise(n, rng):
    """gaussian_noise as it was before it drew a block of frames at once,
    kept verbatim as the oracle."""
    pairs = (n + 1) // 2
    u1 = 1.0 - rng.random(pairs)  # (0, 1]: keeps log() finite
    u2 = rng.random(pairs)
    radius = np.sqrt(-2.0 * np.log(u1))
    angle = 2.0 * np.pi * u2
    out = np.empty(2 * pairs)
    out[0::2] = radius * np.cos(angle)
    out[1::2] = radius * np.sin(angle)
    return out[:n]


def per_frame_add_noise(symbols, snr_db, rng):
    """add_noise as it was before it took a block of frames, kept verbatim
    (apart from the oracle's own noise draw) as the oracle."""
    symbols = np.asarray(symbols, dtype=np.complex128)
    if symbols.size == 0:
        raise ValueError("cannot transmit an empty frame")
    if math.isinf(snr_db):
        return symbols.copy()
    power = float(np.mean(symbols.real**2 + symbols.imag**2))
    if power == 0.0:
        raise ValueError(
            "all-zero frame at finite SNR: signal power 0 leaves noise undefined")
    sigma_sq = power / 10.0 ** (snr_db / 10.0)
    std = math.sqrt(sigma_sq / 2.0)
    noise = per_frame_gaussian_noise(2 * symbols.size, rng)
    return symbols + std * (noise[0::2] + 1j * noise[1::2])


class TestBlockOfFrames:
    """A (frames, symbols) block through add_noise or Channel.send is
    bitwise the per-frame calls in order, and leaves the stream where they
    would."""

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 300),
           st.sampled_from([1, 2, 3, 75]),
           st.sampled_from([math.inf, 25.0, 7.0, 0.0, -5.0]))
    def test_add_noise_block_equals_per_frame_calls(self, seed, n_frames,
                                                    n_symbols, snr_db):
        rng = np.random.default_rng(seed)
        block = (rng.uniform(-1.0, 1.0, (n_frames, n_symbols))
                 + 1j * rng.uniform(-1.0, 1.0, (n_frames, n_symbols)))
        block[rng.integers(n_frames)] *= rng.uniform(1e-3, 1e3)
        blocked, per_frame = _philox(seed), _philox(seed)
        got = add_noise(block, snr_db, blocked)
        want = np.stack([per_frame_add_noise(row, snr_db, per_frame)
                         for row in block])
        assert got.tobytes() == want.tobytes()
        assert blocked.random() == per_frame.random()

    def test_single_frame_equals_oracle(self):
        frame = unit_power_frame(4840, seed=2).symbols
        got = add_noise(frame, 25.0, _philox(4))
        assert got.tobytes() == per_frame_add_noise(frame, 25.0,
                                                    _philox(4)).tobytes()

    def test_gaussian_noise_rows_equal_consecutive_calls(self):
        got = gaussian_noise(7 * 150, _philox(8), rows=7)
        rng = _philox(8)
        want = np.concatenate([per_frame_gaussian_noise(150, rng)
                               for _ in range(7)])
        assert got.tobytes() == want.tobytes()
        assert gaussian_noise(7, _philox(1)).tobytes() == \
            per_frame_gaussian_noise(7, _philox(1)).tobytes()

    def test_channel_send_block_equals_frame_sends(self):
        rng = np.random.default_rng(3)
        block = rng.uniform(-0.5, 0.5, (40, 75)) + 0.3j
        blocked, per_frame = Channel(25.0, 5), Channel(25.0, 5)
        for _ in range(2):   # the second block continues the same stream
            got = blocked.send(block)
            want = [per_frame.send(SymbolFrame(row)).symbols for row in block]
            assert got.tobytes() == np.stack(want).tobytes()

    def test_zero_frame_in_block_rejected(self):
        block = np.ones((3, 75), dtype=np.complex128)
        block[1] = 0.0
        with pytest.raises(ValueError, match="all-zero frame"):
            add_noise(block, 10.0, _philox(0))
