"""Tensor-kernel tests: brute-force and finite-difference oracles."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from semcom.tensor import (Conv3d, ConvReLUPool3d, Linear, MaxPool3d, Network,
                           ReLU, Reshape, ShapeError, StateError, Tape,
                           conv3d_output_shape, grad_check, lr_schedule,
                           pool3d_output_shape, sgd_step,
                           softmax_cross_entropy)


def brute_force_conv3d(x, w, b, pad):
    """Nested-loop cross-correlation, the independent forward oracle."""
    C, D, H, W = x.shape
    F, _, kd, kh, kw = w.shape
    pd, ph, pw = pad
    xp = np.pad(x, ((0, 0), (pd, pd), (ph, ph), (pw, pw)))
    do, ho, wo = D + 2 * pd - kd + 1, H + 2 * ph - kh + 1, W + 2 * pw - kw + 1
    out = np.zeros((F, do, ho, wo))
    for f in range(F):
        for d in range(do):
            for h in range(ho):
                for w_ in range(wo):
                    out[f, d, h, w_] = np.sum(
                        xp[:, d:d + kd, h:h + kh, w_:w_ + kw] * w[f]) + b[f]
    return out


def numeric_loss_grads(loss_fn, params, epsilon=1e-5):
    """Central finite differences of a scalar loss for each parameter."""
    grads = []
    for p in params:
        g = np.zeros_like(p)
        flat_p, flat_g = p.reshape(-1), g.reshape(-1)
        for i in range(flat_p.size):
            saved = flat_p[i]
            flat_p[i] = saved + epsilon
            lp = loss_fn()
            flat_p[i] = saved - epsilon
            lm = loss_fn()
            flat_p[i] = saved
            flat_g[i] = (lp - lm) / (2 * epsilon)
        grads.append(g)
    return grads


def rel_err(a, b):
    denom = np.maximum(np.maximum(np.abs(a), np.abs(b)), 1e-8)
    return float(np.max(np.abs(a - b) / denom))


class TestConv3dForward:
    def test_encoder_shape(self):
        conv = Conv3d(3, 4, (3, 3, 3), (1, 1, 1), np.random.default_rng(0))
        out = conv.forward(np.zeros((3, 16, 112, 112)))
        assert out.shape == (4, 16, 112, 112)

    def test_zero_weights_zero_output(self):
        conv = Conv3d(2, 3, (3, 3, 3), (1, 1, 1), np.random.default_rng(0))
        conv.weights[...] = 0.0
        conv.bias[...] = 0.0
        out = conv.forward(np.random.default_rng(1).standard_normal((2, 4, 5, 5)))
        assert np.all(out == 0.0)

    def test_all_ones_cube_vs_brute_force(self):
        x = np.ones((1, 2, 2, 2))
        w = np.ones((1, 1, 3, 3, 3))
        b = np.zeros(1)
        conv = Conv3d(1, 1, (3, 3, 3), (1, 1, 1), np.random.default_rng(0))
        conv.weights[...] = w
        conv.bias[...] = b
        out = conv.forward(x)
        expected = brute_force_conv3d(x, w, b, (1, 1, 1))
        np.testing.assert_array_equal(out, expected)
        # every output corner overlaps exactly 2x2x2 ones
        assert np.all(out == 8.0)

    def test_random_case_vs_brute_force(self):
        rng = np.random.default_rng(3)
        x = rng.standard_normal((2, 4, 5, 6))
        conv = Conv3d(2, 3, (3, 3, 3), (1, 1, 1), rng)
        out = conv.forward(x)
        expected = brute_force_conv3d(x, conv.weights, conv.bias, (1, 1, 1))
        np.testing.assert_allclose(out, expected, rtol=1e-12, atol=1e-12)

    def test_linearity(self):
        rng = np.random.default_rng(4)
        conv = Conv3d(2, 2, (3, 3, 3), (1, 1, 1), rng)
        conv.bias[...] = 0.0
        x = rng.standard_normal((2, 3, 4, 4))
        y = rng.standard_normal((2, 3, 4, 4))
        a, b = 1.7, -2.3
        lhs = conv.forward(a * x + b * y)
        rhs = a * conv.forward(x) + b * conv.forward(y)
        np.testing.assert_allclose(lhs, rhs, atol=1e-10)

    def test_channel_mismatch_names_axis(self):
        conv = Conv3d(3, 2, (3, 3, 3), (1, 1, 1), np.random.default_rng(0))
        with pytest.raises(ShapeError, match="channels"):
            conv.forward(np.zeros((2, 4, 4, 4)))

    def test_kernel_exceeds_padded_extent(self):
        conv = Conv3d(1, 1, (5, 3, 3), (0, 1, 1), np.random.default_rng(0))
        with pytest.raises(ShapeError, match="depth"):
            conv.forward(np.zeros((1, 3, 4, 4)))

    def test_determinism_same_seed(self):
        c1 = Conv3d(2, 3, (3, 3, 3), (1, 1, 1), np.random.default_rng(42))
        c2 = Conv3d(2, 3, (3, 3, 3), (1, 1, 1), np.random.default_rng(42))
        np.testing.assert_array_equal(c1.weights, c2.weights)
        x = np.random.default_rng(1).standard_normal((2, 3, 4, 4))
        np.testing.assert_array_equal(c1.forward(x), c2.forward(x))


class TestConv3dBackward:
    def test_single_output_grad_weights_is_input_patch(self):
        rng = np.random.default_rng(5)
        x = rng.standard_normal((1, 3, 3, 3))
        conv = Conv3d(1, 1, (3, 3, 3), (0, 0, 0), rng)
        tape = Tape()
        out = conv.forward(x, tape)
        assert out.shape == (1, 1, 1, 1)
        conv.backward(np.ones((1, 1, 1, 1)), tape)
        grad_w, grad_b = tape.grads(conv)
        np.testing.assert_allclose(grad_w[0, 0], x[0], atol=1e-12)
        np.testing.assert_allclose(grad_b, [1.0])

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(6)
        x = rng.standard_normal((2, 3, 4, 4))
        conv = Conv3d(2, 2, (3, 3, 3), (1, 1, 1), rng)
        target = rng.standard_normal((2, 3, 4, 4))

        def loss_fn():
            return 0.5 * float(np.sum((conv.forward(x) - target) ** 2))

        tape = Tape()
        out = conv.forward(x, tape)
        conv.backward(out - target, tape)
        analytic = tape.grads(conv)
        numeric = numeric_loss_grads(loss_fn, conv.params())
        assert rel_err(analytic[0], numeric[0]) < 1e-4
        assert rel_err(analytic[1], numeric[1]) < 1e-4

    def test_grad_input_matches_finite_differences(self):
        rng = np.random.default_rng(7)
        x = rng.standard_normal((2, 3, 4, 4))
        conv = Conv3d(2, 2, (3, 3, 3), (1, 1, 1), rng)
        target = rng.standard_normal((2, 3, 4, 4))

        def loss_fn():
            return 0.5 * float(np.sum((conv.forward(x) - target) ** 2))

        tape = Tape()
        out = conv.forward(x, tape)
        grad_x = conv.backward(out - target, tape)
        numeric = numeric_loss_grads(loss_fn, [x])[0]
        assert rel_err(grad_x, numeric) < 1e-4

    def test_zero_upstream_zero_grads(self):
        rng = np.random.default_rng(8)
        conv = Conv3d(1, 2, (3, 3, 3), (1, 1, 1), rng)
        tape = Tape()
        out = conv.forward(rng.standard_normal((1, 3, 3, 3)), tape)
        grad_x = conv.backward(np.zeros_like(out), tape)
        grad_w, grad_b = tape.grads(conv)
        assert np.all(grad_w == 0) and np.all(grad_b == 0) and np.all(grad_x == 0)

    def test_backward_before_forward_raises(self):
        conv = Conv3d(1, 1, (3, 3, 3), (1, 1, 1), np.random.default_rng(0))
        with pytest.raises(StateError):
            conv.backward(np.zeros((1, 2, 2, 2)), Tape())


class TestMaxPool3d:
    def test_encoder_pool_shape(self):
        pool = MaxPool3d((3, 5, 5), (3, 5, 5))
        out = pool.forward(np.zeros((4, 16, 112, 112)))
        assert out.shape == (4, 5, 22, 22)

    def test_decoder_pool_shape(self):
        pool = MaxPool3d((2, 2, 2), (2, 2, 2))
        out = pool.forward(np.zeros((4, 5, 22, 22)))
        assert out.shape == (4, 2, 11, 11)

    def test_constant_input(self):
        pool = MaxPool3d((2, 2, 2), (2, 2, 2))
        out = pool.forward(np.full((1, 4, 4, 4), 3.25))
        assert np.all(out == 3.25)

    def test_strictly_increasing_routes_to_last(self):
        pool = MaxPool3d((2, 2, 2), (2, 2, 2))
        x = np.arange(4 * 4 * 4, dtype=np.float64).reshape(1, 4, 4, 4)
        tape = Tape()
        out = pool.forward(x, tape)
        grad = pool.backward(np.ones_like(out), tape)
        # max of each window is its highest flat index: (1,1,1) corner
        expected = np.zeros_like(x)
        expected[0, 1::2, 1::2, 1::2] = 1.0
        np.testing.assert_array_equal(grad, expected)

    def test_backward_matches_finite_differences(self):
        rng = np.random.default_rng(9)
        x = rng.standard_normal((1, 4, 4, 4))
        pool = MaxPool3d((2, 2, 2), (2, 2, 2))
        target = rng.standard_normal((1, 2, 2, 2))

        def loss_fn():
            return 0.5 * float(np.sum((pool.forward(x) - target) ** 2))

        tape = Tape()
        out = pool.forward(x, tape)
        grad_x = pool.backward(out - target, tape)
        numeric = numeric_loss_grads(loss_fn, [x])[0]
        assert rel_err(grad_x, numeric) < 1e-4

    def test_tie_goes_to_lowest_flat_index(self):
        pool = MaxPool3d((2, 2, 2), (2, 2, 2))
        x = np.ones((1, 2, 2, 2))
        tape = Tape()
        out = pool.forward(x, tape)
        grad = pool.backward(np.full_like(out, 7.0), tape)
        expected = np.zeros_like(x)
        expected[0, 0, 0, 0] = 7.0
        np.testing.assert_array_equal(grad, expected)

    def test_kernel_larger_than_input(self):
        pool = MaxPool3d((3, 3, 3), (1, 1, 1))
        with pytest.raises(ShapeError, match="height"):
            pool.forward(np.zeros((1, 3, 2, 3)))

    def test_overlapping_windows_accumulate(self):
        pool = MaxPool3d((2, 2, 2), (1, 1, 1))
        x = np.zeros((1, 3, 3, 3))
        x[0, 1, 1, 1] = 5.0   # max of all 8 overlapping windows
        tape = Tape()
        out = pool.forward(x, tape)
        grad = pool.backward(np.ones_like(out), tape)
        assert grad[0, 1, 1, 1] == 8.0


def reference_trio(fused):
    """Unfused Conv3d -> ReLU -> MaxPool3d carrying a fused layer's weights."""
    conv = Conv3d(fused.in_channels, fused.out_channels, fused.kernel,
                  fused.padding)
    conv.weights[...] = fused.weights
    conv.bias[...] = fused.bias
    return Network([conv, ReLU(), MaxPool3d(fused.pool_kernel, fused.pool_stride)])


def fused_and_trio_grads(fused, x, upstream):
    """Weight and bias gradients of the fused layer and of its trio."""
    trio = reference_trio(fused)
    tape = Tape()
    trio.forward(x, tape)
    trio.backward(upstream, tape)
    fused_tape = Tape()
    fused.forward(x, fused_tape)
    assert fused.backward(upstream, fused_tape) is None
    return fused_tape.grads(fused), trio.grads(tape)[:2]


def assert_grads_close(got, want, rtol=1e-12):
    for g, w in zip(got, want):
        assert g.shape == w.shape
        assert np.max(np.abs(g - w)) <= rtol * np.max(np.abs(w))


class TestConvReLUPool3d:
    @settings(max_examples=25, deadline=None)
    @given(st.data())
    def test_forward_equals_trio(self, data):
        c = data.draw(st.integers(1, 3))
        f = data.draw(st.integers(1, 3))
        kernel = tuple(data.draw(st.integers(1, 3)) for _ in range(3))
        pad = tuple(data.draw(st.integers(0, 1)) for _ in range(3))
        pool = tuple(data.draw(st.integers(1, 3)) for _ in range(3))
        stride = tuple(data.draw(st.integers(1, 3)) for _ in range(3))
        dims = tuple(data.draw(st.integers(pool[i] + kernel[i] - 1, 8))
                     for i in range(3))
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        fused = ConvReLUPool3d(c, f, kernel, pad, pool, stride, rng)
        fused.bias[...] = rng.normal(0.0, 0.3, f)
        x = rng.standard_normal((c,) + dims)
        out = fused.forward(x)
        ref = reference_trio(fused).forward(x)
        np.testing.assert_array_equal(out, ref)
        assert out.tobytes() == ref.tobytes()   # signs of zero too

    @pytest.mark.parametrize("c, f, kernel, pad, pool, stride, dims", [
        # one output channel: each tap's matmul goes to gemv, whose rounding
        # depends on the column count
        (2, 1, (2, 2, 2), (0, 0, 0), (2, 2, 2), (3, 3, 3), (6, 7, 8)),
        (2, 1, (1, 1, 2), (0, 0, 0), (1, 1, 1), (1, 2, 1), (1, 2, 2)),
        # the pool reads one position: the cropped matmul has one column
        (3, 2, (2, 2, 2), (0, 0, 0), (1, 1, 1), (2, 2, 2), (3, 3, 3)),
    ])
    def test_forward_equals_trio_at_unit_matmul_dimensions(
            self, c, f, kernel, pad, pool, stride, dims):
        for seed in range(20):
            rng = np.random.default_rng(seed)
            fused = ConvReLUPool3d(c, f, kernel, pad, pool, stride, rng)
            fused.bias[...] = rng.normal(0.0, 0.3, f)
            x = rng.standard_normal((c,) + dims)
            ref = reference_trio(fused).forward(x)
            assert fused.forward(x).tobytes() == ref.tobytes(), seed

    def test_codec_shapes_forward_equals_trio(self):
        rng = np.random.default_rng(5)
        fused = ConvReLUPool3d(3, 4, (3, 3, 3), (1, 1, 1), (3, 5, 5), (3, 5, 5), rng)
        fused.bias[...] = [0.1, -0.2, 0.0, -0.05]
        x = rng.uniform(0.0, 1.0, (3, 16, 112, 112))
        out = fused.forward(x)
        assert out.shape == (4, 5, 22, 22)
        assert np.count_nonzero(out <= 0) > 0
        np.testing.assert_array_equal(out, reference_trio(fused).forward(x))

    def test_grads_match_trio_random(self):
        rng = np.random.default_rng(21)
        fused = ConvReLUPool3d(2, 3, (3, 3, 3), (1, 1, 1), (2, 3, 3), (2, 3, 3), rng)
        x = rng.standard_normal((2, 6, 9, 9))
        upstream = rng.standard_normal((3, 3, 3, 3))
        assert_grads_close(*fused_and_trio_grads(fused, x, upstream))

    def test_grads_match_trio_dead_windows_and_ties(self):
        rng = np.random.default_rng(4)
        fused = ConvReLUPool3d(2, 3, (3, 3, 3), (1, 1, 1), (2, 3, 3), (2, 3, 3), rng)
        fused.weights[1] = np.abs(fused.weights[1])
        fused.bias[...] = [0.0, -50.0, 0.25]     # channel 1: every window dead
        x = rng.uniform(0.0, 1.0, (2, 6, 9, 9))
        x[:, :3] = 0.0                          # zero region: exact ties
        x[:, 3:, :4, :4] = 0.5                  # constant region: exact ties
        tape = Tape()
        out = fused.forward(x, tape)
        assert np.all(out[1] == 0.0)
        upstream = rng.standard_normal(out.shape)
        got, want = fused_and_trio_grads(fused, x, upstream)
        assert_grads_close(got, want)
        assert np.all(got[0][1] == 0.0) and got[1][1] == 0.0

    def test_grad_check_tiny_network(self):
        rng = np.random.default_rng(3)
        net = Network([
            ConvReLUPool3d(2, 2, (3, 3, 3), (1, 1, 1), (2, 2, 2), (2, 2, 2), rng),
            Reshape((-1,)),
            Linear(2 * 2 * 3 * 3, 3, rng),
        ])
        x = rng.uniform(0.0, 1.0, (2, 4, 6, 6))
        assert grad_check(net, x, np.eye(3)[1], epsilon=1e-5) < 1e-4

    def test_input_smaller_than_pool_window(self):
        fused = ConvReLUPool3d(3, 4, (3, 3, 3), (1, 1, 1), (3, 5, 5), (3, 5, 5),
                               np.random.default_rng(0))
        with pytest.raises(ShapeError, match="axis 'depth'"):
            fused.forward(np.zeros((3, 2, 112, 112)))
        with pytest.raises(ShapeError, match="axis 'width'"):
            fused.forward(np.zeros((3, 16, 112, 4)))
        with pytest.raises(ShapeError, match="axis 'channels'"):
            fused.forward(np.zeros((2, 16, 112, 112)))

    def test_input_gradient_rejected(self):
        rng = np.random.default_rng(0)
        fused = ConvReLUPool3d(1, 1, (3, 3, 3), (1, 1, 1), (2, 2, 2), (2, 2, 2), rng)
        tape = Tape()
        out = fused.forward(rng.standard_normal((1, 4, 4, 4)), tape)
        with pytest.raises(ValueError, match="input layer"):
            fused.backward(np.ones_like(out), tape, need_input_grad=True)


class TestLinearSoftmax:
    def test_uniform_logits_loss_ln5(self):
        loss, grad = softmax_cross_entropy(np.zeros(5), np.eye(5)[2])
        assert loss == pytest.approx(np.log(5.0), abs=1e-12)
        np.testing.assert_allclose(grad, np.full(5, 0.2) - np.eye(5)[2], atol=1e-12)

    def test_confident_logits_loss_zero(self):
        one_hot = np.eye(5)[1]
        loss, _ = softmax_cross_entropy(one_hot * 1e6, one_hot)
        assert loss == pytest.approx(0.0, abs=1e-12)

    def test_grad_matches_finite_differences(self):
        rng = np.random.default_rng(10)
        logits = rng.standard_normal(5)
        one_hot = np.eye(5)[3]
        _, grad = softmax_cross_entropy(logits, one_hot)

        def loss_fn():
            return softmax_cross_entropy(logits, one_hot)[0]

        numeric = numeric_loss_grads(loss_fn, [logits], epsilon=1e-6)[0]
        assert np.max(np.abs(grad - numeric)) < 1e-6

    def test_one_hot_validation(self):
        with pytest.raises(ValueError):
            softmax_cross_entropy(np.zeros(3), np.array([1.0, 1.0, 0.0]))

    def test_linear_backward(self):
        rng = np.random.default_rng(11)
        lin = Linear(4, 3, rng)
        x = rng.standard_normal(4)
        target = rng.standard_normal(3)

        def loss_fn():
            return 0.5 * float(np.sum((lin.forward(x) - target) ** 2))

        tape = Tape()
        out = lin.forward(x, tape)
        grad_x = lin.backward(out - target, tape)
        numeric = numeric_loss_grads(loss_fn, lin.params() + [x])
        assert rel_err(tape.grads(lin)[0], numeric[0]) < 1e-6
        assert rel_err(tape.grads(lin)[1], numeric[1]) < 1e-6
        assert rel_err(grad_x, numeric[2]) < 1e-6

    def test_linear_shape_error(self):
        lin = Linear(4, 3, np.random.default_rng(0))
        with pytest.raises(ShapeError):
            lin.forward(np.zeros(5))


class TestSgdSchedule:
    def test_schedule_values(self):
        assert lr_schedule(0) == pytest.approx(0.003)
        assert lr_schedule(4) == pytest.approx(0.00075)
        assert lr_schedule(8) == pytest.approx(0.0001875)

    def test_zero_grads_keep_params(self):
        p = np.array([1.0, -2.0])
        sgd_step([p], [np.zeros(2)], 0.1)
        np.testing.assert_array_equal(p, [1.0, -2.0])

    def test_arithmetic(self):
        p = np.array([1.0])
        sgd_step([p], [np.array([2.0])], 0.5)
        assert p[0] == 0.0

    def test_lr_must_be_positive(self):
        with pytest.raises(ValueError):
            sgd_step([np.zeros(1)], [np.zeros(1)], 0.0)


class TestShapeAlgebra:
    @given(st.integers(1, 20), st.integers(1, 5), st.integers(0, 3))
    def test_conv_shape_formula(self, extent, kernel, pad):
        out = conv3d_output_shape((extent,) * 3, (kernel,) * 3, (pad,) * 3)
        assert out == (extent + 2 * pad - kernel + 1,) * 3

    @given(st.integers(1, 30), st.integers(1, 6), st.integers(1, 6))
    def test_pool_shape_formula(self, extent, kernel, stride):
        out = pool3d_output_shape((extent,) * 3, (kernel,) * 3, (stride,) * 3)
        assert out == ((extent - kernel) // stride + 1,) * 3

    def test_encoder_composition(self):
        conv_out = conv3d_output_shape((16, 112, 112), (3, 3, 3), (1, 1, 1))
        pooled = pool3d_output_shape(conv_out, (3, 5, 5), (3, 5, 5))
        assert conv_out == (16, 112, 112)
        assert pooled == (5, 22, 22)

    @settings(max_examples=25)
    @given(st.data())
    def test_forward_shape_matches_formula(self, data):
        c = data.draw(st.integers(1, 3))
        f = data.draw(st.integers(1, 3))
        dims = tuple(data.draw(st.integers(3, 8)) for _ in range(3))
        kernel = tuple(data.draw(st.integers(1, 3)) for _ in range(3))
        pad = tuple(data.draw(st.integers(0, 2)) for _ in range(3))
        if any(dims[i] + 2 * pad[i] < kernel[i] for i in range(3)):
            return
        conv = Conv3d(c, f, kernel, pad, np.random.default_rng(0))
        out = conv.forward(np.zeros((c,) + dims))
        assert out.shape == (f,) + conv3d_output_shape(dims, kernel, pad)


class TestGradCheck:
    def _tiny_net(self, seed):
        rng = np.random.default_rng(seed)
        net = Network([
            Conv3d(2, 2, (3, 3, 3), (1, 1, 1), rng),
            ReLU(),
            MaxPool3d((2, 2, 2), (2, 2, 2)),
            Reshape((-1,)),
            Linear(2 * 2 * 3 * 3, 3, rng),
        ])
        x = rng.uniform(0.0, 1.0, (2, 4, 6, 6))
        one_hot = np.zeros(3)
        one_hot[int(rng.integers(0, 3))] = 1.0
        return net, x, one_hot

    def test_tiny_net_seed7(self):
        net, x, one_hot = self._tiny_net(7)
        assert grad_check(net, x, one_hot, epsilon=1e-5) < 1e-4

    def test_zero_weights_zero_input(self):
        net, x, one_hot = self._tiny_net(1)
        for p in net.params():
            p[...] = 0.0
        x = np.zeros_like(x)
        tape = Tape()
        logits = net.forward(x, tape)
        _, grad_logits = softmax_cross_entropy(logits, one_hot)
        net.backward(grad_logits, tape)
        weight_grads = [tape.grads(layer)[0] for layer in net.layers
                        if layer.params()]
        for g in weight_grads:
            assert np.all(g == 0.0)
        assert grad_check(net, x, one_hot) < 1e-6

    def test_epsilon_zero_rejected(self):
        net, x, one_hot = self._tiny_net(2)
        with pytest.raises(ValueError):
            grad_check(net, x, one_hot, epsilon=0.0)
