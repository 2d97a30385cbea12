"""Accelerometer pipeline tests: quantizer arithmetic, Butterworth filter
against scipy as the independent oracle, windowing, and the cosine feature."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import signal as sp_signal

from semcom.accel import (DEGENERATE_NORM, QUANT_LEVELS, QUANT_STEP,
                          SAMPLE_RATE_HZ, SYMBOLS_PER_FRAME, AccelTrace,
                          AccelWindow, GravityFeature,
                          GravityFilter, amplitudes_to_codes,
                          butterworth_lowpass_coeffs, codes_to_amplitudes,
                          decode_raw, dequantize, encode_raw, gravity_feature,
                          quantize, window_block,
                          read_trace_csv, write_trace_csv)


def trace_of(xyz):
    xyz = np.asarray(xyz, dtype=np.float64)
    return AccelTrace(np.arange(xyz.shape[0]) / SAMPLE_RATE_HZ, xyz)


class TestQuantizer:
    def test_zero_maps_to_zero(self):
        codes, clamped = quantize([0.0])
        assert codes[0] == 0 and clamped == 0
        assert codes_to_amplitudes(codes)[0] == 0.0

    def test_one_g(self):
        codes, _ = quantize([1.0])
        assert codes[0] == 512
        assert codes_to_amplitudes(codes)[0] == 0.25
        assert dequantize(codes)[0] == 1.0

    @given(st.floats(min_value=-3.999, max_value=3.998))
    def test_round_trip_within_half_step(self, a):
        codes, _ = quantize([a])
        assert abs(dequantize(codes)[0] - a) <= QUANT_STEP / 2 + 1e-12

    def test_out_of_range_clamps_and_counts(self):
        codes, clamped = quantize([5.0, -6.0, 1.0])
        assert clamped == 2
        assert codes[0] == 2047 and codes[1] == -2048

    def test_amplitude_rounding_is_nearest(self):
        amps = codes_to_amplitudes(np.array([100, -2048, 2047]))
        np.testing.assert_array_equal(amplitudes_to_codes(amps),
                                      [100, -2048, 2047])


class TestRawCodec:
    def test_loopback_within_half_step(self):
        rng = np.random.default_rng(0)
        xyz = rng.uniform(-3.9, 3.9, (150, 3))
        frames, clamped = encode_raw(trace_of(xyz))
        assert clamped == 0
        assert frames.shape == (3, SYMBOLS_PER_FRAME)
        out = decode_raw(frames)
        assert np.max(np.abs(out.xyz - xyz)) <= QUANT_STEP / 2 + 1e-12

    def test_partial_second_dropped(self):
        frames, _ = encode_raw(trace_of(np.zeros((80, 3))))
        assert len(frames) == 1

    def test_empty_round_trip(self):
        out = decode_raw(np.empty((0, SYMBOLS_PER_FRAME), dtype=np.complex128))
        assert len(out) == 0

    def test_malformed_frame_length(self):
        bad = np.zeros((1, 10), dtype=np.complex128)
        with pytest.raises(ValueError, match="expected 75"):
            decode_raw(bad)

    def test_timestamps_regenerated(self):
        frames, _ = encode_raw(trace_of(np.zeros((100, 3))))
        out = decode_raw(frames)
        np.testing.assert_allclose(np.diff(out.t), 0.02, atol=1e-12)
        assert out.t[0] == 0.0

    def test_noisy_link_rms_error_bounded(self):
        """Monte-Carlo: quantizer + 25 dB channel on unnormalized symbols.

        Raw frames are sent without power normalization and the channel
        references its noise to each frame's measured power P, so at 25 dB
        the per-value error is set by the channel (std ~0.049 g, about 25
        codes for +/-1.5 g motion), not by the 12-bit step. The expected
        MSE in g^2 is the channel term, mean over frames of
        (QUANT_STEP * QUANT_LEVELS / 2)^2 * P / (2 * 10^(snr/10)), plus
        QUANT_STEP^2 / 6 for the rounding at the transmitter and again at
        the receiver. The measured RMS must lie within +/-5% of the
        expected RMS: over 6,000 values the relative standard error of the
        RMS is about sqrt(1 / (2 * 6000)) = 0.9% (1.0% over 200 noise
        seeds), so 5% is ~5 standard errors, while a wrong packing order,
        a missing /2 in the quadrature split (x1.41) or noise referenced
        to another power falls outside it.
        """
        from semcom.channel import Channel, SymbolFrame
        snr_db = 25.0
        rng = np.random.default_rng(42)
        xyz = rng.uniform(-1.5, 1.5, (50 * 40, 3))   # 40 seconds
        trace = trace_of(xyz)
        frames, clamped = encode_raw(trace)
        assert clamped == 0
        channel = Channel(snr_db, rng_seed=9)
        noisy = [channel.send(f) for f in frames]
        out = decode_raw(noisy)
        rms = float(np.sqrt(np.mean((out.xyz - xyz) ** 2)))
        g_per_amplitude = QUANT_STEP * QUANT_LEVELS / 2
        channel_mse = np.mean([
            g_per_amplitude**2 * SymbolFrame(f).avg_power
            / (2.0 * 10.0 ** (snr_db / 10.0))
            for f in frames])
        expected_rms = float(np.sqrt(channel_mse + QUANT_STEP**2 / 6.0))
        assert abs(rms - expected_rms) / expected_rms < 0.05


class TestGravityFilterDesign:
    def test_coefficients_match_scipy(self):
        b, a = butterworth_lowpass_coeffs(0.3, 50.0)
        b_ref, a_ref = sp_signal.butter(2, 0.3, fs=50.0, btype="low")
        np.testing.assert_allclose(b, b_ref, rtol=1e-12)
        np.testing.assert_allclose(a, a_ref, rtol=1e-12)

    def test_dc_gain_unity(self):
        b, a = butterworth_lowpass_coeffs()
        assert np.sum(b) / np.sum(a) == pytest.approx(1.0, abs=1e-12)

    def test_constant_input_from_first_sample(self):
        filt = GravityFilter()
        out = filt.process(np.full((200, 3), 0.73))
        np.testing.assert_allclose(out, 0.73, atol=1e-9)

    def test_five_hz_attenuated_40db(self):
        t = np.arange(int(30 * SAMPLE_RATE_HZ)) / SAMPLE_RATE_HZ
        x = np.sin(2 * np.pi * 5.0 * t)
        filt = GravityFilter(n_axes=1)
        y = filt.process(x[:, None])[:, 0]
        settled = y[len(y) // 2:]
        gain = np.max(np.abs(settled))
        # independent oracle: digital magnitude response from scipy
        b, a = sp_signal.butter(2, 0.3, fs=50.0, btype="low")
        _, h = sp_signal.freqz(b, a, worN=[5.0], fs=50.0)
        assert gain <= 0.01                       # >= 40 dB down
        assert gain == pytest.approx(abs(h[0]), rel=0.05)

    def test_step_settles_within_5s_overshoot_bounded(self):
        n = int(10 * SAMPLE_RATE_HZ)
        x = np.ones((n, 1))
        x[0] = 0.0   # warm-start at 0, then step to 1
        filt = GravityFilter(n_axes=1)
        y = filt.process(x)[:, 0]
        assert np.max(y) <= 1.25
        tail = y[int(5 * SAMPLE_RATE_HZ):]
        np.testing.assert_allclose(tail, 1.0, atol=0.01)

    def test_streaming_chunks_equal_one_shot(self):
        rng = np.random.default_rng(5)
        xyz = rng.standard_normal((400, 3))
        one = GravityFilter().process(xyz)
        filt = GravityFilter()
        chunks = np.vstack([filt.process(xyz[i:i + 50]) for i in range(0, 400, 50)])
        np.testing.assert_allclose(one, chunks, atol=1e-12)

    @staticmethod
    def vector_recurrence(filt, chunk):
        """The filter's earlier per-sample numpy loop, kept verbatim as the
        bit-exact oracle for the per-axis Python-float loop."""
        chunk = np.asarray(chunk, dtype=np.float64)
        if chunk.ndim == 1:
            chunk = chunk[:, None] if filt.n_axes == 1 else chunk[None, :]
        if filt._z1 is None and chunk.shape[0] > 0:
            filt._warm_start(chunk[0])
        out = np.empty_like(chunk)
        b, a = filt.b, filt.a
        z1, z2 = filt._z1, filt._z2
        for i in range(chunk.shape[0]):
            x = chunk[i]
            y = b[0] * x + z1
            z1 = b[1] * x - a[1] * y + z2
            z2 = b[2] * x - a[2] * y
            out[i] = y
        filt._z1, filt._z2 = z1, z2
        return out

    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.sampled_from([1, 3]))
    def test_process_bitwise_equals_vector_recurrence(self, seed, n_axes):
        rng = np.random.default_rng(seed)
        filt, oracle = GravityFilter(n_axes=n_axes), GravityFilter(n_axes=n_axes)
        sizes = [0] + rng.integers(0, 60, 12).tolist()   # empty chunk first
        for n in sizes:
            chunk = rng.normal(0.0, 1.5, (n, n_axes))
            if n_axes == 1 and rng.integers(2):
                chunk = chunk[:, 0]                      # 1-D input
            got = filt.process(chunk)
            want = self.vector_recurrence(oracle, chunk)
            assert got.tobytes() == want.tobytes()
            if oracle._z1 is None:
                assert filt._z1 is None
            else:
                assert filt._z1.tobytes() == oracle._z1.tobytes()
                assert filt._z2.tobytes() == oracle._z2.tobytes()

    def test_process_rejects_wrong_axis_count(self):
        with pytest.raises(ValueError, match="expected 3 axes"):
            GravityFilter().process(np.zeros((5, 2)))

    def test_lowpass_gravity_matches_scipy_lfilter(self):
        rng = np.random.default_rng(6)
        xyz = rng.standard_normal((500, 3))
        ours = GravityFilter().process(xyz)
        b, a = sp_signal.butter(2, 0.3, fs=50.0, btype="low")
        zi = sp_signal.lfilter_zi(b, a)
        ref = np.empty_like(xyz)
        for axis in range(3):
            ref[:, axis], _ = sp_signal.lfilter(b, a, xyz[:, axis],
                                                zi=zi * xyz[0, axis])
        np.testing.assert_allclose(ours, ref, atol=1e-10)


class TestWindows:
    def test_500_samples_10_windows(self):
        assert window_block(np.zeros((500, 3))).G.shape == (10, 3, 50)

    def test_49_samples_no_window(self):
        block = window_block(np.zeros((49, 3)))
        assert block.G.shape == (0, 3, 50)
        assert gravity_feature(block).u.shape == (0,)

    def test_video_aligned_trace(self):
        # 29,640 samples = 592.8 s at 50 Hz
        block = window_block(np.zeros((29640, 3)))
        assert block.G.shape[0] == 592

    def test_window_contents(self):
        xyz = np.arange(100 * 3, dtype=np.float64).reshape(100, 3)
        block = window_block(xyz, index=7)
        assert block.index == 7
        np.testing.assert_array_equal(block.G[1], xyz[50:100].T)


class TestGravityFeature:
    def test_parallel(self):
        G = np.tile([[0.0], [0.0], [1.0]], (1, 50))
        assert gravity_feature(AccelWindow(0, G)).u == 1.0

    def test_antiparallel(self):
        G = np.tile([[0.0], [0.0], [-1.0]], (1, 50))
        assert gravity_feature(AccelWindow(0, G)).u == -1.0

    def test_orthogonal(self):
        G = np.tile([[1.0], [0.0], [0.0]], (1, 50))
        assert gravity_feature(AccelWindow(0, G)).u == 0.0

    def test_half_parallel_half_orthogonal(self):
        G = np.zeros((3, 50))
        G[2, :25] = 1.0
        G[0, 25:] = 1.0
        assert gravity_feature(AccelWindow(0, G)).u == pytest.approx(0.5, abs=1e-12)

    def test_degenerate_columns_excluded(self):
        G = np.zeros((3, 50))
        G[2, :10] = 1.0     # 10 valid parallel columns, 40 degenerate
        feature = gravity_feature(AccelWindow(0, G))
        assert feature.u == 1.0
        assert feature.excluded_columns == 40

    def test_all_degenerate_rejected(self):
        with pytest.raises(ValueError, match="degenerate"):
            gravity_feature(AccelWindow(3, np.zeros((3, 50))))

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=30)
    def test_u_bounded(self, seed):
        rng = np.random.default_rng(seed)
        G = rng.standard_normal((3, 50))
        assert abs(gravity_feature(AccelWindow(0, G)).u) <= 1.0 + 1e-12

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=30)
    def test_scale_invariance(self, seed):
        rng = np.random.default_rng(seed)
        G = rng.standard_normal((3, 50)) + 0.1
        scales = rng.uniform(0.1, 10.0, 50)
        u1 = gravity_feature(AccelWindow(0, G)).u
        u2 = gravity_feature(AccelWindow(0, G * scales)).u
        assert u1 == pytest.approx(u2, abs=1e-12)


def single_window_feature(window):
    """gravity_feature as it was before it took blocks of windows, kept
    verbatim as the oracle."""
    norms = np.linalg.norm(window.G, axis=0)
    valid = norms > DEGENERATE_NORM
    n_excluded = int(np.count_nonzero(~valid))
    if not np.any(valid):
        raise ValueError(f"window {window.index}: all columns degenerate")
    cosines = window.G[2, valid] / norms[valid]
    return GravityFeature(window.index, float(np.mean(cosines)), n_excluded)


def random_windows(seed, n):
    rng = np.random.default_rng(seed)
    return (rng.normal(0.0, rng.uniform(0.01, 2.0), (n, 3, 50))
            + rng.normal(0.0, 1.0, (n, 3, 1)))


class TestGravityFeatureBlock:
    """A block of windows gives, window by window, the bytes of the
    single-window feature."""

    @staticmethod
    def assert_matches_windows(index, G):
        got = gravity_feature(AccelWindow(index, G))
        for k in range(G.shape[0]):
            want = single_window_feature(AccelWindow(index + k, G[k]))
            assert np.float64(want.u).tobytes() == got.u[k].tobytes()
            assert got.excluded_columns[k] == want.excluded_columns
            one = gravity_feature(AccelWindow(index + k, G[k]))
            assert one == want and type(one.u) is float
        return got

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 300))
    def test_block_equals_single_windows(self, seed, n):
        self.assert_matches_windows(seed % 1000, random_windows(seed, n))

    def test_planted_degenerate_column(self):
        G = random_windows(4, 9)
        G[5, :, 17] = 0.0
        G[5, :, 40] = DEGENERATE_NORM / 4
        got = self.assert_matches_windows(100, G)
        assert got.excluded_columns.tolist() == [0] * 5 + [2] + [0] * 3

    def test_all_degenerate_window_names_its_index(self):
        G = random_windows(5, 6)
        G[4] = 0.0
        with pytest.raises(ValueError, match="window 104: all columns degenerate"):
            gravity_feature(AccelWindow(100, G))
        with pytest.raises(ValueError, match="window 104: all columns degenerate"):
            single_window_feature(AccelWindow(104, G[4]))

    def test_block_shape_validated(self):
        with pytest.raises(ValueError, match="G must be"):
            AccelWindow(0, np.zeros((2, 3, 49)))


class TestTraceValidation:
    def test_wrong_rate_rejected(self):
        with pytest.raises(ValueError, match="50 Hz"):
            AccelTrace(np.array([0.0, 0.1]), np.zeros((2, 3)))

    def test_csv_round_trip(self, tmp_path):
        rng = np.random.default_rng(7)
        trace = trace_of(rng.uniform(-2, 2, (120, 3)))
        path = tmp_path / "trace.csv"
        write_trace_csv(path, trace)
        back = read_trace_csv(path)
        np.testing.assert_allclose(back.xyz, trace.xyz, atol=1e-9)
        np.testing.assert_allclose(back.t, trace.t, atol=1e-6)

    def test_csv_header_validation(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b,c\n")
        with pytest.raises(ValueError, match="header"):
            read_trace_csv(path)
