"""Video codec tests: shape chain, reshape bijection, loopback identity,
training bookkeeping, evaluate's reuse of clean encodes, and a
finite-difference oracle over the full encoder/channel/decoder gradient
path."""
import copy
import dataclasses
import math
import sys
import threading
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from semcom import codec
from semcom.channel import (Channel, SymbolFrame, _philox, add_noise,
                            floats_to_symbols, symbols_to_floats)
from semcom.codec import (DEEP_FEATURE_SHAPE, FEATURE_SHAPE,
                          SYMBOLS_PER_SEGMENT, Activity, CodecModel,
                          TrainConfig, VideoSegment, classify, decode, encode,
                          evaluate, forward_logits, load_model,
                          parse_activity, power_normalize, sample_gradients,
                          save_model, train)
from semcom.synthdata import make_codec_dataset
from semcom.tensor import (Conv3d, MaxPool3d, Network, ReLU, ShapeError,
                           Tape, softmax_cross_entropy)
from semcom.weights_io import (ContainerFormatError, ContainerTruncatedError)


CHECKPOINT = Path(__file__).resolve().parent.parent / "bench" / "codec_checkpoint.semw"


def with_reference_encoder(model):
    """Shallow copy of model whose encoder is the unfused Conv3d -> ReLU ->
    MaxPool3d trio carrying the same weights."""
    fused = model.enc_conv
    conv = Conv3d(fused.in_channels, fused.out_channels)
    conv.weights[...] = fused.weights
    conv.bias[...] = fused.bias
    reference = copy.copy(model)
    reference.enc_conv = Network(
        [conv, ReLU(), MaxPool3d(fused.pool_kernel)])
    return reference


def mean_power(frame):
    """Mean of re^2 + im^2 over a frame's symbols."""
    return float(np.mean(frame.symbols.real**2 + frame.symbols.imag**2))


def random_segment(seed, scale=1.0):
    rng = np.random.default_rng(seed)
    return VideoSegment(rng.uniform(0.0, scale, (3, 16, 112, 112)))


@pytest.fixture(scope="module")
def model():
    return CodecModel(seed=11)


class TestSampling:
    def test_segment_layout_and_scaling(self):
        frames = np.zeros((16, 112, 112, 3), dtype=np.uint8)
        frames[:, 1, 2, 0] = 255
        seg = VideoSegment.from_rgb_frames(frames)
        assert seg.frames.shape == (3, 16, 112, 112)
        assert seg.frames[0, 0, 1, 2] == 1.0
        assert seg.frames[1, 0, 1, 2] == 0.0

    @settings(max_examples=10, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_uint8_scaling_matches_scale_then_transpose(self, seed):
        """Transposing the uint8 clip before scaling gives the bytes of the
        former scale-then-transpose expression, kept verbatim here."""
        frames = np.random.default_rng(seed).integers(
            0, 256, (16, 112, 112, 3), dtype=np.uint8)
        frames[0, 0, 0] = (0, 255, 0)
        want = np.transpose(frames.astype(np.float64) / 255.0, (3, 0, 1, 2))
        got = VideoSegment.from_rgb_frames(frames).frames
        assert got.flags.c_contiguous
        assert got.tobytes() == np.ascontiguousarray(want).tobytes()


class TestEncode:
    def test_symbol_count_and_unit_power(self, model):
        frame = encode(model, random_segment(1))
        assert len(frame) == SYMBOLS_PER_SEGMENT
        assert mean_power(frame) == pytest.approx(1.0, abs=1e-9)

    def test_zero_segment_skips_normalization(self, model):
        frame = encode(model, VideoSegment(np.zeros((3, 16, 112, 112))))
        assert frame.scale == 0.0
        assert mean_power(frame) == 0.0
        assert np.all(frame.symbols == 0)

    def test_reshape_bijection_seed13(self, model):
        segment = random_segment(13)
        tape_frame = encode(model, segment)
        # invert the reshape: interleave (real, imag) back row-major
        flat = symbols_to_floats(tape_frame.symbols)
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

    def test_threads_sharing_a_model_encode_like_sequential_calls(self):
        """Each conv tap's gemm runs with the interpreter lock released, so
        two threads interleave the shared encoder's kernels."""
        model = load_model(CHECKPOINT)
        segments = make_codec_dataset(1, seed=7)[0][:2]
        want = [encode(model, s) for s in segments]
        got = [[], []]
        barrier = threading.Barrier(2, timeout=60)

        def work(idx):
            barrier.wait()
            for _ in range(3):
                got[idx].append(encode(model, segments[idx]))

        threads = [threading.Thread(target=work, args=(i,)) for i in range(2)]
        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(switch)
        assert not any(t.is_alive() for t in threads)
        for frames, frame in zip(got, want):
            assert len(frames) == 3
            for f in frames:
                assert f.scale == frame.scale
                assert f.symbols.tobytes() == frame.symbols.tobytes()

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=10, deadline=None)
    def test_pair_mapping_is_bijective(self, seed):
        rng = np.random.default_rng(seed)
        feature = rng.standard_normal(2 * SYMBOLS_PER_SEGMENT)
        feature[rng.integers(feature.size, size=8)] = -0.0
        symbols = floats_to_symbols(feature)
        assert symbols.shape == (SYMBOLS_PER_SEGMENT,)
        np.testing.assert_array_equal(symbols.real, feature[0::2])
        np.testing.assert_array_equal(symbols.imag, feature[1::2])
        assert symbols_to_floats(symbols).tobytes() == feature.tobytes()

    def test_wrong_shape_rejected(self, model):
        with pytest.raises(ShapeError, match="segment frames must be"):
            encode(model, VideoSegment(np.zeros((3, 8, 112, 112))))


class TestDecode:
    def test_deep_feature_shape(self, model):
        frame = encode(model, random_segment(2))
        logits, deep = decode(model, frame)
        assert deep.shape == DEEP_FEATURE_SHAPE
        assert logits.shape == (5,)

    def test_noiseless_loopback_bitwise(self, model):
        segment = random_segment(3)
        frame = encode(model, segment)
        received = Channel(math.inf, 0).send(frame)
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

    def test_training_noise_is_the_channel_noise(self, monkeypatch):
        """At 13 dB, sample_gradients decodes exactly the frame that
        channel.add_noise makes of the clean encode with the same stream."""
        model = CodecModel(seed=3)
        segment = random_segment(7)
        decoded = []
        original = codec.decode

        def recorded(model, frame, tape=None):
            decoded.append(frame)
            return original(model, frame, tape)
        monkeypatch.setattr(codec, "decode", recorded)
        sample_gradients(model, segment, 2, 13.0, _philox(5))
        monkeypatch.undo()
        clean = encode(model, segment)
        want = add_noise(clean.symbols, 13.0, _philox(5))
        assert len(decoded) == 1
        assert decoded[0].symbols.tobytes() == want.tobytes()
        assert decoded[0].scale == clean.scale

    def test_identical_samples_share_gradient_noiselessly(self):
        model = CodecModel(seed=6)
        segment = random_segment(9)
        rng = np.random.default_rng(0)
        _, _, g1 = sample_gradients(model, segment, 1, math.inf, rng)
        g1 = [g.copy() for g in g1]
        _, _, g2 = sample_gradients(model, segment, 1, math.inf, rng)
        for a, b in zip(g1, g2):
            np.testing.assert_array_equal(a, b)

    def test_params_come_from_the_graph_in_checkpoint_order(self):
        model = CodecModel(seed=2)
        layers = {"enc.conv": model.enc_conv, "dec.conv1": model.dec_conv1,
                  "dec.conv2": model.dec_conv2, "dec.conv3": model.dec_conv3,
                  "dec.linear": model.linear}
        named = []
        for name in codec._ARRAY_NAMES:
            layer, attr = name.rsplit(".", 1)
            named.append(getattr(layers[layer], attr))
        assert [id(p) for p in model.params()] == [id(a) for a in named]

    def test_backward_rejects_a_frame_from_another_encode(self):
        model = CodecModel(seed=2)
        tape = Tape()
        frame = encode(model, random_segment(4), tape)
        decode(model, SymbolFrame(frame.symbols, scale=2.0 * frame.scale), tape)
        with pytest.raises(RuntimeError, match="out of sync"):
            model.graph().backward(np.ones(5), tape)


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

    @pytest.mark.parametrize("epochs", [0, -1])
    def test_no_epochs_rejected(self, epochs):
        model = CodecModel(seed=0)
        before = [p.copy() for p in model.params()]
        with pytest.raises(ValueError, match="epochs"):
            train(model, [random_segment(20)], [0], 25.0,
                  TrainConfig(epochs=epochs))
        assert all(np.array_equal(a, b) for a, b in zip(before, model.params()))

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


class TestEvaluateReuse:
    SNRS = (math.inf, 25.0, 7.0)
    NOISE_SEEDS = (0, 1)

    @pytest.fixture
    def segments(self):
        return [random_segment(60 + k) for k in range(3)], [0, 3, 1]

    @staticmethod
    def record(monkeypatch, name):
        """Wrap codec.<name> so every call's arguments are logged."""
        calls = []
        original = getattr(codec, name)

        def recorded(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)
        monkeypatch.setattr(codec, name, recorded)
        return calls

    def sweep(self, model, segments, labels, cold=False):
        """Accuracies over SNRS x NOISE_SEEDS; cold re-wraps the frames in
        fresh segments for every call, so nothing is reused."""
        accs = []
        for snr in self.SNRS:
            for seed in self.NOISE_SEEDS:
                if cold:
                    segments = [VideoSegment(s.frames) for s in segments]
                accs.append(evaluate(model, segments, labels, snr,
                                     noise_seed=seed))
        return accs

    def decoded(self, monkeypatch, model, segments, labels, cold=False):
        calls = self.record(monkeypatch, "decode")
        accs = self.sweep(model, segments, labels, cold)
        monkeypatch.undo()
        return accs, [(f.scale, f.symbols.tobytes()) for _, f in calls]

    def test_warm_sweep_equals_cold_sweep(self, monkeypatch, segments):
        model = CodecModel(seed=21)
        warm = self.decoded(monkeypatch, model, *segments)
        cold = self.decoded(monkeypatch, model, *segments, cold=True)
        assert len(warm[1]) == len(self.SNRS) * len(self.NOISE_SEEDS) * 3
        assert warm == cold

    def test_each_segment_encoded_once_per_sweep(self, monkeypatch, segments):
        encodes = self.record(monkeypatch, "encode")
        self.sweep(CodecModel(seed=22), *segments)
        assert len(encodes) == len(segments[0])

    @pytest.mark.parametrize("change", ["in_place", "train_epoch"])
    def test_encoder_change_re_encodes(self, monkeypatch, segments, change):
        model = CodecModel(seed=23)
        before = self.decoded(monkeypatch, model, *segments)
        if change == "in_place":
            model.enc_conv.weights[0, 0, 1, 1, 1] += 0.25
        else:
            train(model, *segments, 25.0, TrainConfig(epochs=1))
        encodes = self.record(monkeypatch, "encode")
        self.sweep(model, *segments)
        assert len(encodes) == len(segments[0])
        monkeypatch.undo()
        warm = self.decoded(monkeypatch, model, *segments)
        assert warm == self.decoded(monkeypatch, model, *segments, cold=True)
        assert warm[1] != before[1]

    def test_second_model_gets_its_own_encodes(self, monkeypatch, segments):
        first, second = CodecModel(seed=24), CodecModel(seed=25)
        first_warm = self.decoded(monkeypatch, first, *segments)
        encodes = self.record(monkeypatch, "encode")
        self.sweep(second, *segments)
        assert len(encodes) == len(segments[0])
        monkeypatch.undo()
        second_warm = self.decoded(monkeypatch, second, *segments)
        assert second_warm == self.decoded(monkeypatch, second, *segments,
                                           cold=True)
        # the slot now holds the second encoder's frames: the first misses,
        # re-encodes and still decodes what it did before
        assert self.decoded(monkeypatch, first, *segments) == first_warm

    def test_zero_feature_at_finite_snr_rejected(self):
        segment = VideoSegment(np.zeros((3, 16, 112, 112)))
        model = CodecModel(seed=11)
        assert encode(model, segment).scale == 0.0
        assert evaluate(model, [segment], [0], math.inf) in (0.0, 1.0)
        with pytest.raises(ValueError, match="all-zero frame at finite SNR"):
            evaluate(model, [segment], [0], 25.0)


class TestVideoSegmentImmutable:
    def test_frames_read_only(self):
        segment = random_segment(70)
        with pytest.raises(ValueError, match="read-only"):
            segment.frames[...] = 0
        with pytest.raises(dataclasses.FrozenInstanceError):
            segment.frames = np.zeros((3, 16, 112, 112))

    def test_caller_array_stays_writeable_and_apart(self):
        frames = np.full((3, 16, 112, 112), 0.5)
        segment = VideoSegment(frames)
        assert frames.flags.writeable
        frames[...] = 0.25
        assert np.all(segment.frames == 0.5)

    @pytest.mark.parametrize("bad", [-0.01, 1.01])
    def test_caller_array_range_checked(self, bad):
        frames = np.full((3, 16, 112, 112), 0.5)
        frames[2, 15, 111, 111] = bad
        with pytest.raises(ValueError, match="outside"):
            VideoSegment(frames)

    def test_caller_float_clip_copied(self):
        clip = np.full((16, 112, 112, 3), 0.5)
        segment = VideoSegment.from_rgb_frames(clip)
        assert not np.shares_memory(segment.frames, clip)
        assert clip.flags.writeable and not segment.frames.flags.writeable
        with pytest.raises(ValueError, match="outside"):
            VideoSegment.from_rgb_frames(clip + 1.0)

    def test_uint8_clip_shape_checked(self):
        with pytest.raises(codec.ShapeError):
            VideoSegment.from_rgb_frames(
                np.zeros((15, 112, 112, 3), dtype=np.uint8))

    @settings(max_examples=10, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(0, 255), st.integers(0, 255))
    def test_uint8_clip_equals_the_checked_constructor(self, seed, lo, hi):
        """The uint8 path keeps its fresh scaled array without the copy
        and range scan; the frames equal, bit for bit, those of the
        constructor that copies and checks, kept verbatim here."""
        lo, hi = min(lo, hi), max(lo, hi)
        clip = np.random.default_rng(seed).integers(
            lo, hi + 1, (16, 112, 112, 3), dtype=np.uint8)
        want = np.array(np.ascontiguousarray(
            np.transpose(clip, (3, 0, 1, 2))) / 255.0,
            dtype=np.float64, order="C")
        got = VideoSegment.from_rgb_frames(clip).frames
        assert got.dtype == np.float64 and got.flags.c_contiguous
        assert not got.flags.writeable
        assert not np.shares_memory(got, clip)
        assert got.tobytes() == want.tobytes()


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

    def test_checkpoint_resaves_to_its_own_bytes(self, tmp_path):
        """Names, order, shapes and meta all survive load -> save."""
        path = tmp_path / "codec.semw"
        save_model(path, load_model(CHECKPOINT))
        assert path.read_bytes() == CHECKPOINT.read_bytes()

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

    @pytest.mark.parametrize("epochs", [np.inf, -1.0, 2.5])
    def test_meta_epochs_must_be_a_whole_count(self, tmp_path, epochs):
        # inf epochs once died with OverflowError in int(meta[0])
        from semcom.weights_io import read_arrays, write_arrays
        path = tmp_path / "codec.semw"
        save_model(path, CodecModel(seed=1))
        arrays = read_arrays(path)
        arrays["meta"][0] = epochs
        write_arrays(path, arrays)
        with pytest.raises(ContainerFormatError, match="epochs"):
            load_model(path)
