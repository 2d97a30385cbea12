"""Video codec tests: shape chain, reshape bijection, loopback identity,
training bookkeeping, and a finite-difference oracle over the full
encoder/channel/decoder gradient path."""
import copy
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from semcom.channel import ChannelConfig, SymbolFrame, transmit
from semcom.codec import (DEEP_FEATURE_SHAPE, FEATURE_SHAPE,
                          SYMBOLS_PER_SEGMENT, Activity, CodecModel,
                          TrainConfig, VideoSegment, classify, decode, encode,
                          evaluate, forward_logits, load_model,
                          parse_activity, power_normalize, sample_gradients,
                          sample_segments, save_model, segment_count, train)
from semcom.synthdata import make_codec_dataset
from semcom.tensor import (Conv3d, MaxPool3d, Network, ReLU,
                           softmax_cross_entropy)
from semcom.weights_io import (ContainerFormatError, ContainerTruncatedError)


CHECKPOINT = Path(__file__).resolve().parent.parent / "bench" / "codec_checkpoint.semw"


def with_reference_encoder(model):
    """Shallow copy of model whose encoder is the unfused Conv3d -> ReLU ->
    MaxPool3d trio carrying the same weights."""
    fused = model.enc_conv
    conv = Conv3d(fused.in_channels, fused.out_channels, fused.kernel,
                  fused.padding)
    conv.weights[...] = fused.weights
    conv.bias[...] = fused.bias
    reference = copy.copy(model)
    reference.enc_conv = Network(
        [conv, ReLU(), MaxPool3d(fused.pool_kernel, fused.pool_stride)])
    return reference


def random_segment(seed, scale=1.0):
    rng = np.random.default_rng(seed)
    return VideoSegment(0, rng.uniform(0.0, scale, (3, 16, 112, 112)))


@pytest.fixture(scope="module")
def model():
    return CodecModel(seed=11)


class TestSampling:
    def test_reference_frame_count(self):
        assert segment_count(29640, 16) == 1852

    def test_exactly_16_frames(self):
        frames = np.zeros((16, 112, 112, 3), dtype=np.uint8)
        assert len(sample_segments(frames, 16)) == 1

    def test_31_frames_single_window(self):
        frames = np.zeros((31, 112, 112, 3), dtype=np.uint8)
        assert len(sample_segments(frames, 16)) == 1

    def test_fewer_than_16_empty(self):
        frames = np.zeros((15, 112, 112, 3), dtype=np.uint8)
        assert sample_segments(frames, 16) == []

    def test_overlapping_stride(self):
        frames = np.zeros((32, 112, 112, 3), dtype=np.uint8)
        assert len(sample_segments(frames, 8)) == 3

    def test_stride_validation(self):
        with pytest.raises(ValueError):
            segment_count(100, 0)

    def test_segment_layout_and_scaling(self):
        frames = np.zeros((16, 112, 112, 3), dtype=np.uint8)
        frames[:, 1, 2, 0] = 255
        seg = sample_segments(frames, 16)[0]
        assert seg.frames.shape == (3, 16, 112, 112)
        assert seg.frames[0, 0, 1, 2] == 1.0
        assert seg.frames[1, 0, 1, 2] == 0.0


class TestEncode:
    def test_symbol_count_and_unit_power(self, model):
        frame = encode(model, random_segment(1))
        assert len(frame) == SYMBOLS_PER_SEGMENT
        assert frame.avg_power == pytest.approx(1.0, abs=1e-9)

    def test_zero_segment_skips_normalization(self, model):
        frame = encode(model, VideoSegment(0, np.zeros((3, 16, 112, 112))))
        assert frame.scale == 0.0
        assert frame.avg_power == 0.0
        assert np.all(frame.symbols == 0)

    def test_reshape_bijection_seed13(self, model):
        segment = random_segment(13)
        tape_frame = encode(model, segment)
        # invert the reshape: interleave (real, imag) back row-major
        flat = np.empty(2 * SYMBOLS_PER_SEGMENT)
        flat[0::2] = tape_frame.symbols.real
        flat[1::2] = tape_frame.symbols.imag
        # reference: the unfused encoder with the model's weights
        feature = with_reference_encoder(model).enc_conv.forward(segment.frames)
        expected, sigma = power_normalize(feature.reshape(-1))
        assert tape_frame.scale == sigma
        np.testing.assert_array_equal(flat.reshape(FEATURE_SHAPE),
                                      expected.reshape(FEATURE_SHAPE))

    def test_checkpoint_frames_equal_reference_encoder(self):
        model = load_model(CHECKPOINT)
        reference = with_reference_encoder(model)
        segments, _ = make_codec_dataset(1, seed=7)
        for segment in segments[:3]:
            got = encode(model, segment)
            want = encode(reference, segment)
            assert got.scale == want.scale
            assert got.symbols.tobytes() == want.symbols.tobytes()

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=10, deadline=None)
    def test_pair_mapping_is_bijective(self, seed):
        rng = np.random.default_rng(seed)
        feature = rng.standard_normal(2 * SYMBOLS_PER_SEGMENT)
        pairs = feature.reshape(SYMBOLS_PER_SEGMENT, 2)
        symbols = pairs[:, 0] + 1j * pairs[:, 1]
        back = np.empty_like(feature)
        back[0::2] = symbols.real
        back[1::2] = symbols.imag
        np.testing.assert_array_equal(back, feature)

    def test_wrong_shape_rejected(self, model):
        with pytest.raises(Exception):
            encode(model, np.zeros((3, 8, 112, 112)))


class TestDecode:
    def test_deep_feature_shape(self, model):
        frame = encode(model, random_segment(2))
        logits, deep = decode(model, frame)
        assert deep.shape == DEEP_FEATURE_SHAPE
        assert logits.shape == (5,)

    def test_noiseless_loopback_bitwise(self, model):
        segment = random_segment(3)
        frame = encode(model, segment)
        received = transmit(frame, ChannelConfig(math.inf, 0))
        logits_channel, _ = decode(model, received)
        logits_direct = forward_logits(model, segment)
        np.testing.assert_array_equal(logits_channel, logits_direct)

    def test_zero_symbols_gives_bias_path(self):
        model = CodecModel(seed=5)
        rng = np.random.default_rng(8)
        for layer in (model.dec_conv1, model.dec_conv2, model.dec_conv3,
                      model.linear):
            layer.bias[...] = rng.standard_normal(layer.bias.shape)
        frame = SymbolFrame(np.zeros(SYMBOLS_PER_SEGMENT, dtype=np.complex128),
                            scale=3.7)
        logits, _ = decode(model, frame)
        h = np.zeros(FEATURE_SHAPE)
        h = model.dec_relu1.forward(model.dec_conv1.forward(h))
        h = model.dec_pool1.forward(h)
        h = model.dec_relu2.forward(model.dec_conv2.forward(h))
        h = model.dec_pool2.forward(h)
        h = model.dec_relu3.forward(model.dec_conv3.forward(h))
        expected = model.linear.forward(h.reshape(-1))
        np.testing.assert_array_equal(logits, expected)

    def test_wrong_symbol_count_rejected(self, model):
        with pytest.raises(ValueError, match="4840"):
            decode(model, SymbolFrame(np.zeros(100, dtype=np.complex128)))


class TestClassify:
    def test_last_class(self):
        assert classify(np.array([0.0, 0, 0, 0, 1.0])) == Activity.CALLING

    def test_tie_goes_to_lowest_code(self):
        assert classify(np.zeros(5)) == Activity.SLEEPING

    def test_softmax_invariance(self):
        rng = np.random.default_rng(4)
        logits = rng.standard_normal(5)
        shifted = logits - logits.max()
        probs = np.exp(shifted) / np.exp(shifted).sum()
        assert classify(logits) == classify(probs)

    def test_parse_activity(self):
        assert parse_activity("dress-up") == Activity.DRESS_UP
        assert parse_activity("SLEEPING") == Activity.SLEEPING
        with pytest.raises(ValueError):
            parse_activity("flying")


class TestPowerNormalize:
    def test_unit_power(self):
        rng = np.random.default_rng(5)
        flat = rng.standard_normal(2 * SYMBOLS_PER_SEGMENT)
        s, sigma = power_normalize(flat)
        power = np.sum(s**2) / SYMBOLS_PER_SEGMENT
        assert power == pytest.approx(1.0, abs=1e-12)
        np.testing.assert_allclose(s * sigma, flat, rtol=1e-12)

    def test_zero_input(self):
        s, sigma = power_normalize(np.zeros(8))
        assert sigma == 0.0
        assert np.all(s == 0)


class TestGradientPath:
    def test_finite_difference_spot_check(self):
        """Central differences through encode -> normalize -> identity
        channel -> denormalize -> decode -> cross-entropy."""
        model = CodecModel(seed=3)
        segment = random_segment(7)
        label = 2
        rng = np.random.default_rng(0)
        _, _, grads = sample_gradients(model, segment, label, math.inf, rng)
        params = model.params()
        one_hot = np.zeros(5)
        one_hot[label] = 1.0

        def loss_at():
            return softmax_cross_entropy(forward_logits(model, segment),
                                         one_hot)[0]

        check_rng = np.random.default_rng(42)
        eps = 1e-5
        for p, g in zip(params, grads):
            flat_p, flat_g = p.reshape(-1), g.reshape(-1)
            for idx in check_rng.choice(flat_p.size, size=2, replace=False):
                saved = flat_p[idx]
                flat_p[idx] = saved + eps
                lp = loss_at()
                flat_p[idx] = saved - eps
                lm = loss_at()
                flat_p[idx] = saved
                numeric = (lp - lm) / (2 * eps)
                denom = max(abs(flat_g[idx]), abs(numeric), 1e-8)
                assert abs(flat_g[idx] - numeric) / denom < 1e-4

    def test_identical_samples_share_gradient_noiselessly(self):
        model = CodecModel(seed=6)
        segment = random_segment(9)
        rng = np.random.default_rng(0)
        _, _, g1 = sample_gradients(model, segment, 1, math.inf, rng)
        g1 = [g.copy() for g in g1]
        _, _, g2 = sample_gradients(model, segment, 1, math.inf, rng)
        for a, b in zip(g1, g2):
            np.testing.assert_array_equal(a, b)


class TestTraining:
    def test_step_bookkeeping(self):
        model = CodecModel(seed=2)
        segments = [random_segment(20), random_segment(21)]
        labels = [0, 1]
        history = train(model, segments, labels, math.inf,
                        TrainConfig(epochs=15))
        assert sum(h.steps for h in history) == math.ceil(2 / 32) * 15
        assert [h.lr for h in history[:5]] == pytest.approx(
            [0.003, 0.003, 0.003, 0.003, 0.00075])
        assert model.epochs_trained == 15
        assert model.snr_train_db == math.inf

    def test_empty_dataset_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            train(CodecModel(seed=0), [], [], 25.0)

    def test_params_stay_on_f32_grid(self):
        model = CodecModel(seed=4)
        segments = [random_segment(30)]
        train(model, segments, [3], 25.0, TrainConfig(epochs=1))
        for p in model.params():
            np.testing.assert_array_equal(p, p.astype(np.float32).astype(np.float64))

    def test_evaluate_runs(self):
        model = CodecModel(seed=8)
        segments = [random_segment(40), random_segment(41)]
        acc = evaluate(model, segments, [0, 1], 25.0, noise_seed=1)
        assert 0.0 <= acc <= 1.0


class TestPersistence:
    def test_fresh_model_round_trip_bitwise(self, tmp_path):
        model = CodecModel(seed=11)
        path = tmp_path / "codec.semw"
        save_model(path, model)
        loaded = load_model(path)
        for p1, p2 in zip(model.params(), loaded.params()):
            np.testing.assert_array_equal(p1, p2)
        assert loaded.epochs_trained == model.epochs_trained
        assert loaded.snr_train_db == model.snr_train_db

    def test_trained_model_round_trip_bitwise(self, tmp_path):
        model = CodecModel(seed=12)
        train(model, [random_segment(50)], [2], 25.0, TrainConfig(epochs=1))
        path = tmp_path / "codec.semw"
        save_model(path, model)
        loaded = load_model(path)
        for p1, p2 in zip(model.params(), loaded.params()):
            np.testing.assert_array_equal(p1, p2)

    def test_truncated_file(self, tmp_path):
        path = tmp_path / "codec.semw"
        save_model(path, CodecModel(seed=1))
        path.write_bytes(path.read_bytes()[:-7])
        with pytest.raises(ContainerTruncatedError):
            load_model(path)

    def test_wrong_magic(self, tmp_path):
        path = tmp_path / "codec.semw"
        save_model(path, CodecModel(seed=1))
        data = bytearray(path.read_bytes())
        data[:4] = b"JUNK"
        path.write_bytes(bytes(data))
        with pytest.raises(ContainerFormatError):
            load_model(path)

    def test_missing_array_rejected(self, tmp_path):
        from semcom.weights_io import read_arrays, write_arrays
        path = tmp_path / "codec.semw"
        save_model(path, CodecModel(seed=1))
        arrays = read_arrays(path)
        del arrays["dec.linear.bias"]
        write_arrays(path, arrays)
        with pytest.raises(ContainerFormatError, match="dec.linear.bias"):
            load_model(path)
