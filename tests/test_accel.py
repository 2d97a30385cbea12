"""Accelerometer pipeline tests: quantizer arithmetic, Butterworth filter
against scipy as the independent oracle, windowing, and the cosine feature."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import signal as sp_signal

from semcom import synthdata
from semcom.accel import (DEGENERATE_NORM, FILTER_BLOCK, QUANT_LEVELS,
                          QUANT_STEP, SAMPLE_RATE_HZ, SYMBOLS_PER_FRAME,
                          GravityFilter, Posture, amplitudes_to_codes,
                          butterworth_lowpass_coeffs, codes_to_amplitudes,
                          decode_raw, dequantize, encode_raw, gravity_feature,
                          quantize, read_trace_csv, write_trace_csv)


def window(G):
    """The 50 samples of a 3x50 matrix whose columns are samples."""
    return np.asarray(G, dtype=np.float64).T


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

    @given(st.lists(st.floats(-1e300, 1e300), min_size=1, max_size=20))
    def test_codes_and_count_as_the_divide_first_formula(self, values):
        """Values whose division cannot overflow quantize as the formula
        round(v / step), clamped, always did."""
        raw = np.rint(np.array(values) / QUANT_STEP)
        low, high = -QUANT_LEVELS // 2, QUANT_LEVELS // 2 - 1
        codes, clamped = quantize(values)
        np.testing.assert_array_equal(codes, np.clip(raw, low, high))
        assert clamped == np.count_nonzero((raw < low) | (raw > high))

    def test_huge_values_clamp_without_overflow(self):
        """accel_noise_g = 1e308 passes load; its trace once overflowed
        the quantizer's division (a RuntimeWarning, which the suite makes an
        error)."""
        codes, clamped = quantize([1e308, -1e308, np.inf, -np.inf, 1.0])
        np.testing.assert_array_equal(codes, [2047, -2048, 2047, -2048, 512])
        assert clamped == 4
        scenario = synthdata.Scenario(
            (synthdata.ScenarioStep(synthdata.Activity.SLEEPING, 6),),
            accel_noise_g=1e308)
        xyz, postures = synthdata.gen_accel_trace(scenario)
        assert np.all(postures == Posture.LYING)
        _, clamped = encode_raw(xyz)
        assert clamped == xyz.size

    def test_amplitude_rounding_is_nearest(self):
        amps = codes_to_amplitudes(np.array([100, -2048, 2047]))
        np.testing.assert_array_equal(amplitudes_to_codes(amps),
                                      [100, -2048, 2047])


class TestRawCodec:
    def test_loopback_within_half_step(self):
        rng = np.random.default_rng(0)
        xyz = rng.uniform(-3.9, 3.9, (150, 3))
        frames, clamped = encode_raw(xyz)
        assert clamped == 0
        assert frames.shape == (3, SYMBOLS_PER_FRAME)
        out = decode_raw(frames)
        assert out.shape == xyz.shape
        assert np.max(np.abs(out - xyz)) <= QUANT_STEP / 2 + 1e-12

    def test_partial_second_dropped(self):
        frames, _ = encode_raw(np.zeros((80, 3)))
        assert len(frames) == 1

    def test_empty_round_trip(self):
        out = decode_raw(np.empty((0, SYMBOLS_PER_FRAME), dtype=np.complex128))
        assert out.shape == (0, 3)

    def test_malformed_frame_length(self):
        bad = np.zeros((1, 10), dtype=np.complex128)
        with pytest.raises(ValueError, match="expected 75"):
            decode_raw(bad)

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
        from semcom.channel import Channel
        snr_db = 25.0
        rng = np.random.default_rng(42)
        xyz = rng.uniform(-1.5, 1.5, (50 * 40, 3))   # 40 seconds
        frames, clamped = encode_raw(xyz)
        assert clamped == 0
        channel = Channel(snr_db, rng_seed=9)
        noisy = [channel.send(f) for f in frames]
        out = decode_raw(noisy)
        rms = float(np.sqrt(np.mean((out - xyz) ** 2)))
        g_per_amplitude = QUANT_STEP * QUANT_LEVELS / 2
        frame_power = np.mean(frames.real**2 + frames.imag**2, axis=1)
        channel_mse = np.mean(g_per_amplitude**2 * frame_power
                              / (2.0 * 10.0 ** (snr_db / 10.0)))
        expected_rms = float(np.sqrt(channel_mse + QUANT_STEP**2 / 6.0))
        assert abs(rms - expected_rms) / expected_rms < 0.05


class TestGravityFilterDesign:
    def test_coefficients_match_scipy(self):
        b, a = butterworth_lowpass_coeffs()
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
        filt = GravityFilter()
        y = filt.process(np.column_stack([x, x, x]))[:, 0]
        settled = y[len(y) // 2:]
        gain = np.max(np.abs(settled))
        # independent oracle: digital magnitude response from scipy
        b, a = sp_signal.butter(2, 0.3, fs=50.0, btype="low")
        _, h = sp_signal.freqz(b, a, worN=[5.0], fs=50.0)
        assert gain <= 0.01                       # >= 40 dB down
        assert gain == pytest.approx(abs(h[0]), rel=0.05)

    def test_step_settles_within_5s_overshoot_bounded(self):
        n = int(10 * SAMPLE_RATE_HZ)
        x = np.ones((n, 3))
        x[0] = 0.0   # warm-start at 0, then step to 1
        filt = GravityFilter()
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
        oracle for the blocked filter, which rounds differently."""
        chunk = np.asarray(chunk, dtype=np.float64)
        if filt._z1 is None and chunk.shape[0] > 0:
            filt._warm_start(chunk[0])
        out = np.empty_like(chunk)
        b, a = butterworth_lowpass_coeffs()
        z1, z2 = filt._z1, filt._z2
        for i in range(chunk.shape[0]):
            x = chunk[i]
            y = b[0] * x + z1
            z1 = b[1] * x - a[1] * y + z2
            z2 = b[2] * x - a[2] * y
            out[i] = y
        filt._z1, filt._z2 = z1, z2
        return out

    # chunk sizes: empty, single samples and the edges of a filter block
    CUTS = st.lists(st.one_of(
        st.sampled_from([0, 1, FILTER_BLOCK - 1, FILTER_BLOCK, FILTER_BLOCK + 1]),
        st.integers(0, 3 * FILTER_BLOCK)), max_size=12)

    @staticmethod
    def process_in_chunks(filt, stream, sizes):
        """Feed stream to filt cut into chunks of the given sizes, the rest
        as one last chunk."""
        out, start = [], 0
        for n in sizes + [len(stream)]:
            chunk = stream[start:start + n]
            start += len(chunk)
            out.append(filt.process(chunk))
        return np.vstack(out)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2**32 - 1), CUTS)
    def test_any_chunking_gives_the_same_bytes(self, seed, sizes):
        rng = np.random.default_rng(seed)
        stream = rng.normal(0.0, 1.5, (sum(sizes) + int(rng.integers(0, 200)),
                                       3))
        whole, cut = GravityFilter(), GravityFilter()
        want = whole.process(stream)
        got = self.process_in_chunks(cut, stream, sizes)
        assert got.shape == want.shape
        assert got.tobytes() == want.tobytes()
        for name in ("_z1", "_z2", "_open"):
            a, b = getattr(cut, name), getattr(whole, name)
            assert (a is None and b is None) or a.tobytes() == b.tobytes()

    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 2**32 - 1), CUTS, st.sampled_from([0.0, 0.1, 1.5]))
    def test_within_rounding_of_recurrence_and_lfilter(self, seed, sizes,
                                                       sigma):
        rng = np.random.default_rng(seed)
        n = sum(sizes) + int(rng.integers(1, 2000))
        # a gravity-like offset (a constant stream when sigma is 0) plus motion
        stream = rng.uniform(-4.0, 4.0, 3) + rng.normal(0.0, sigma, (n, 3))
        got = self.process_in_chunks(GravityFilter(), stream, sizes)
        # The state's rounding reaches the output through the filter's DC
        # noise gain 1/sum(a), about 720, so two correct operation orders
        # differ by up to a few eps * max|x| / sum(a), 1.6e-13 per g: the
        # old recurrence itself is 2.2e-13 off lfilter on a constant 1.13 g.
        b, a = butterworth_lowpass_coeffs()
        tol = 4.0 * np.finfo(np.float64).eps * np.abs(stream).max() / a.sum()
        oracle = GravityFilter()
        np.testing.assert_allclose(
            got, self.vector_recurrence(oracle, stream), rtol=0, atol=tol)
        # lfilter from the filter's own warm start
        start = GravityFilter()
        start._warm_start(stream[0])
        ref = np.column_stack([
            sp_signal.lfilter(b, a, stream[:, k],
                              zi=[start._z1[k], start._z2[k]])[0]
            for k in range(3)])
        np.testing.assert_allclose(got, ref, rtol=0, atol=tol)

    def test_process_rejects_wrong_axis_count(self):
        # a lone 1-D sample is rejected too: chunks are (n, 3) only
        for shape in [(5, 2), (5, 1), (3,), (2, 5, 3)]:
            with pytest.raises(ValueError, match="expected 3 axes"):
                GravityFilter().process(np.zeros(shape))

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
        assert gravity_feature(np.ones((500, 3))).shape == (10,)

    def test_49_samples_no_window(self):
        u = gravity_feature(np.zeros((49, 3)))
        assert u.shape == (0,) and u.dtype == np.float64

    def test_video_aligned_trace(self):
        # 29,640 samples = 592.8 s at 50 Hz
        assert gravity_feature(np.ones((29640, 3))).shape == (592,)

    def test_window_contents(self):
        xyz = np.random.default_rng(8).normal(0.0, 1.0, (100, 3))
        u = gravity_feature(xyz)
        assert u[1].tobytes() == gravity_feature(xyz[50:100]).tobytes()
        cosines = xyz[50:100, 2] / np.linalg.norm(xyz[50:100], axis=1)
        assert u[1] == pytest.approx(np.mean(cosines), abs=1e-15)


class TestGravityFeature:
    def test_parallel(self):
        G = np.tile([[0.0], [0.0], [1.0]], (1, 50))
        assert gravity_feature(window(G)).tolist() == [1.0]

    def test_antiparallel(self):
        G = np.tile([[0.0], [0.0], [-1.0]], (1, 50))
        assert gravity_feature(window(G)).tolist() == [-1.0]

    def test_orthogonal(self):
        G = np.tile([[1.0], [0.0], [0.0]], (1, 50))
        assert gravity_feature(window(G)).tolist() == [0.0]

    def test_half_parallel_half_orthogonal(self):
        G = np.zeros((3, 50))
        G[2, :25] = 1.0
        G[0, 25:] = 1.0
        assert gravity_feature(window(G))[0] == pytest.approx(0.5, abs=1e-12)

    def test_degenerate_columns_excluded(self):
        G = np.zeros((3, 50))
        G[2, :10] = 1.0     # 10 valid parallel columns, 40 degenerate
        G[0, 10:20] = DEGENERATE_NORM / 2
        assert gravity_feature(window(G)).tolist() == [1.0]

    def test_all_degenerate_rejected(self):
        with pytest.raises(ValueError, match="window 3: all columns degenerate"):
            gravity_feature(np.zeros((50, 3)), index=3)

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=30)
    def test_u_bounded(self, seed):
        rng = np.random.default_rng(seed)
        G = rng.standard_normal((3, 50))
        assert abs(gravity_feature(window(G))[0]) <= 1.0 + 1e-12

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=30)
    def test_scale_invariance(self, seed):
        rng = np.random.default_rng(seed)
        G = rng.standard_normal((3, 50)) + 0.1
        scales = rng.uniform(0.1, 10.0, 50)
        u1 = gravity_feature(window(G))[0]
        u2 = gravity_feature(window(G * scales))[0]
        assert u1 == pytest.approx(u2, abs=1e-12)


def single_window_feature(G, index):
    """gravity_feature of one 3x50 window as it was before it took blocks
    of windows, kept as the oracle: (u, excluded column count)."""
    norms = np.linalg.norm(G, axis=0)
    valid = norms > DEGENERATE_NORM
    n_excluded = int(np.count_nonzero(~valid))
    if not np.any(valid):
        raise ValueError(f"window {index}: all columns degenerate")
    cosines = G[2, valid] / norms[valid]
    return float(np.mean(cosines)), n_excluded


def random_samples(seed, n_windows):
    """(n_windows * 50, 3) samples, each window around its own offset."""
    rng = np.random.default_rng(seed)
    G = (rng.normal(0.0, rng.uniform(0.01, 2.0), (n_windows, 3, 50))
         + rng.normal(0.0, 1.0, (n_windows, 3, 1)))
    return G.transpose(0, 2, 1).reshape(-1, 3)


class TestGravityFeatureBlock:
    """Many windows in one call give, window by window, the bytes of one
    call per window and of the single-window oracle."""

    @staticmethod
    def assert_matches_windows(index, xyz):
        got = gravity_feature(xyz, index)
        assert got.shape == (len(xyz) // 50,)
        for k in range(len(got)):
            samples = xyz[50 * k:50 * (k + 1)]
            one = gravity_feature(samples, index + k)
            want, _ = single_window_feature(np.ascontiguousarray(samples.T),
                                            index + k)
            assert one.tobytes() == got[k:k + 1].tobytes()
            assert np.float64(want).tobytes() == got[k].tobytes()
        return got

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 300), st.integers(0, 49))
    def test_block_equals_single_windows(self, seed, n, extra):
        xyz = np.vstack([random_samples(seed, n), np.ones((extra, 3))])
        self.assert_matches_windows(seed % 1000, xyz)

    def test_planted_degenerate_column(self):
        xyz = random_samples(4, 9)
        xyz[5 * 50 + 17] = 0.0
        xyz[5 * 50 + 40] = DEGENERATE_NORM / 4
        self.assert_matches_windows(100, xyz)
        excluded = [single_window_feature(xyz[50 * k:50 * (k + 1)].T, k)[1]
                    for k in range(9)]
        assert excluded == [0] * 5 + [2] + [0] * 3

    def test_all_degenerate_window_names_its_index(self):
        xyz = random_samples(5, 6)
        xyz[4 * 50:5 * 50] = 0.0
        with pytest.raises(ValueError, match="window 104: all columns degenerate"):
            gravity_feature(xyz, 100)
        with pytest.raises(ValueError, match="window 104: all columns degenerate"):
            single_window_feature(xyz[4 * 50:5 * 50].T, 104)


class TestTraceValidation:
    def test_wrong_rate_rejected(self, tmp_path):
        path = tmp_path / "fast.csv"
        path.write_text("t_sec,ax,ay,az\n0.000000,0,0,1\n0.020000,0,0,1\n"
                        "0.030000,0,0,1\n")
        with pytest.raises(ValueError, match="50 Hz") as exc:
            read_trace_csv(path)
        assert "\n" not in str(exc.value)

    def test_csv_round_trip(self, tmp_path):
        rng = np.random.default_rng(7)
        xyz = rng.uniform(-2, 2, (120, 3))
        path = tmp_path / "trace.csv"
        write_trace_csv(path, xyz)
        lines = path.read_text().splitlines()
        assert [line.split(",")[0] for line in lines[1:4]] == [
            "0.000000", "0.020000", "0.040000"]
        back = read_trace_csv(path)
        assert back.shape == (120, 3)
        np.testing.assert_allclose(back, xyz, atol=1e-9)

    def test_csv_header_validation(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b,c\n")
        with pytest.raises(ValueError, match="header"):
            read_trace_csv(path)
