"""Layer ops against naive loop oracles and finite differences."""

import numpy as np
import pytest

from dcn.autodiff import (
    GradTape,
    Tensor,
    add,
    backward,
    div,
    grad_check,
    mul,
    sqrt,
    square,
    sub,
    tmean,
    tsum,
)
from dcn.layers import (
    BatchNormLayer,
    Conv2dLayer,
    DropoutLayer,
    batch_norm,
    conv2d,
    dropout,
    maxpool2,
    relu,
    sigmoid,
    upsample_nearest2,
)


def naive_conv2d(xd, kd, bd):
    """Reference convolution: explicit loops over pixels and kernel taps."""
    h, w, cin = xd.shape
    kh, kw, _, cout = kd.shape
    ph, pw = kh // 2, kw // 2
    out = np.zeros((h, w, cout), dtype=xd.dtype)
    for y in range(h):
        for x in range(w):
            acc = bd.astype(xd.dtype).copy()
            for dy in range(kh):
                for dx in range(kw):
                    yy, xx = y + dy - ph, x + dx - pw
                    if 0 <= yy < h and 0 <= xx < w:
                        acc = acc + xd[yy, xx] @ kd[dy, dx]
            out[y, x] = acc
    return out


def naive_maxpool2(xd):
    """Reference pool: scan each window in increasing flat-index order."""
    h, w, c = xd.shape
    out = np.zeros((h // 2, w // 2, c), dtype=xd.dtype)
    idx = np.zeros((h // 2, w // 2, c), dtype=np.int64)
    for y in range(h // 2):
        for x in range(w // 2):
            for ch in range(c):
                best, where = -np.inf, -1
                for dy in (0, 1):
                    for dx in (0, 1):
                        yy, xx = 2 * y + dy, 2 * x + dx
                        if xd[yy, xx, ch] > best:
                            best, where = xd[yy, xx, ch], yy * w + xx
                out[y, x, ch] = best
                idx[y, x, ch] = where
    return out, idx


def conv_layer(kd, bd, dtype=None):
    if dtype is not None:
        return Conv2dLayer(Tensor(kd, dtype=dtype), Tensor(bd, dtype=dtype))
    return Conv2dLayer(Tensor(kd), Tensor(bd))


class TestConv2d:
    def test_matches_naive_oracle_float32(self):
        rng = np.random.default_rng(201)
        for trial in range(50):
            h, w = rng.integers(3, 7, size=2)
            cin, cout = rng.integers(1, 4, size=2)
            kh, kw = rng.choice([1, 3, 5], size=2)
            xd = rng.normal(size=(h, w, cin)).astype(np.float32)
            kd = rng.normal(size=(kh, kw, cin, cout)).astype(np.float32)
            bd = rng.normal(size=cout).astype(np.float32)
            got = conv2d(Tensor(xd), conv_layer(kd, bd)).data
            want = naive_conv2d(xd, kd, bd)
            np.testing.assert_allclose(
                got, want, rtol=1e-6, atol=1e-6, err_msg=f"trial {trial}"
            )

    def test_matches_naive_oracle_float64(self):
        rng = np.random.default_rng(219)
        for trial in range(10):
            xd = rng.normal(size=(6, 5, 2))
            kd = rng.normal(size=(3, 3, 2, 3))
            bd = rng.normal(size=3)
            got = conv2d(Tensor(xd), conv_layer(kd, bd)).data
            np.testing.assert_allclose(
                got, naive_conv2d(xd, kd, bd), atol=1e-12, err_msg=f"trial {trial}"
            )

    def test_identity_kernel_passes_input_through(self):
        xd = np.arange(12, dtype=np.float64).reshape(3, 4, 1)
        kd = np.zeros((3, 3, 1, 1))
        kd[1, 1, 0, 0] = 1.0
        out = conv2d(Tensor(xd), conv_layer(kd, np.zeros(1)))
        np.testing.assert_allclose(out.data, xd)

    def test_ones_kernel_on_constant_image_sums_interior(self):
        v = 2.5
        xd = np.full((6, 7, 1), v)
        out = conv2d(Tensor(xd), conv_layer(np.ones((3, 3, 1, 1)), np.zeros(1)))
        np.testing.assert_allclose(out.data[1:-1, 1:-1, 0], 9 * v, rtol=1e-12)
        np.testing.assert_allclose(out.data[0, 0, 0], 4 * v, rtol=1e-12)

    def test_gradients_match_finite_differences(self):
        rng = np.random.default_rng(202)
        for trial in range(20):
            x = Tensor(rng.normal(size=(4, 4, 2)), dtype=np.float64)
            k = Tensor(rng.normal(size=(3, 3, 2, 2)) * 0.5, dtype=np.float64)
            b = Tensor(rng.normal(size=2), dtype=np.float64)
            report = grad_check(
                lambda x, k, b: tsum(square(conv2d(x, Conv2dLayer(k, b)))),
                [x, k, b],
                tolerance=1e-4,
            )
            assert report.passed, f"trial {trial}: {report}"

    def test_one_by_one_kernel_gradients(self):
        rng = np.random.default_rng(203)
        x = Tensor(rng.normal(size=(3, 3, 2)), dtype=np.float64)
        k = Tensor(rng.normal(size=(1, 1, 2, 3)), dtype=np.float64)
        b = Tensor(rng.normal(size=3), dtype=np.float64)
        report = grad_check(
            lambda x, k, b: tsum(square(conv2d(x, Conv2dLayer(k, b)))), [x, k, b], 1e-4
        )
        assert report.passed, str(report)

    def test_layer_validation(self):
        ones = lambda *s: Tensor(np.ones(s, dtype=np.float32))
        with pytest.raises(ValueError):
            Conv2dLayer(ones(2, 2, 2, 1), ones(1))  # even kernel
        with pytest.raises(ValueError):
            Conv2dLayer(ones(3, 3, 2, 4), ones(2))  # bias length
        with pytest.raises(ValueError):
            Conv2dLayer(ones(3, 3, 2), ones(1))  # missing axis
        with pytest.raises(ValueError):
            Conv2dLayer(
                Tensor(np.ones((3, 3, 2, 1), dtype=np.float64)),
                Tensor(np.ones(1, dtype=np.float32)),
            )
        with pytest.raises(ValueError):
            Conv2dLayer(ones(3, 3, 2, 1), ones(1), padding="valid")

    def test_call_validation(self):
        x = Tensor(np.ones((4, 4, 2), dtype=np.float32))
        layer = conv_layer(
            np.ones((3, 3, 3, 1), dtype=np.float32), np.ones(1, dtype=np.float32)
        )
        with pytest.raises(ValueError):
            conv2d(x, layer)  # cin mismatch
        layer64 = conv_layer(np.ones((3, 3, 2, 1)), np.ones(1), dtype=np.float64)
        with pytest.raises(ValueError):
            conv2d(x, layer64)  # dtype mixing


class TestMaxpool2:
    def test_matches_naive_oracle(self):
        rng = np.random.default_rng(210)
        for trial in range(50):
            h, w = 2 * rng.integers(1, 5, size=2)
            c = int(rng.integers(1, 4))
            xd = rng.normal(size=(h, w, c))
            out, idx = maxpool2(Tensor(xd))
            want_out, want_idx = naive_maxpool2(xd)
            np.testing.assert_allclose(out.data, want_out, err_msg=f"trial {trial}")
            np.testing.assert_array_equal(idx, want_idx, err_msg=f"trial {trial}")

    def test_single_window(self):
        out, idx = maxpool2(Tensor(np.array([[1.0, 2.0], [3.0, 4.0]]).reshape(2, 2, 1)))
        assert out.data[0, 0, 0] == 4.0
        assert idx[0, 0, 0] == 3

    def test_output_dominates_window(self):
        rng = np.random.default_rng(220)
        xd = rng.normal(size=(8, 6, 2))
        out, _ = maxpool2(Tensor(xd))
        win = xd.reshape(4, 2, 3, 2, 2).transpose(0, 2, 1, 3, 4)
        assert (out.data[:, :, None, :] >= win.reshape(4, 3, 4, 2)).all()

    def test_tie_selects_lowest_flat_position(self):
        out, idx = maxpool2(Tensor(np.ones((2, 4, 1))))
        assert idx[0, 0, 0] == 0
        assert idx[0, 1, 0] == 2

    def test_index_map_is_global_flat_position(self):
        xd = np.zeros((2, 4, 1))
        xd[1, 3, 0] = 9.0
        _, idx = maxpool2(Tensor(xd))
        assert idx[0, 1, 0] == 1 * 4 + 3

    def test_gradients_match_finite_differences(self):
        rng = np.random.default_rng(211)
        for trial in range(30):
            # wide value spread keeps windows far from ties under the probe step
            x = Tensor(rng.normal(size=(4, 4, 2)) * 50.0, dtype=np.float64)
            report = grad_check(lambda t: tsum(square(maxpool2(t)[0])), [x], 1e-4)
            assert report.passed, f"trial {trial}: {report}"

    def test_rejects_odd_extents(self):
        with pytest.raises(ValueError):
            maxpool2(Tensor(np.ones((3, 4, 1))))
        with pytest.raises(ValueError):
            maxpool2(Tensor(np.ones((4, 5, 1))))


class TestUpsample:
    def test_single_pixel_replicates(self):
        out = upsample_nearest2(Tensor(np.array([[5.0]]).reshape(1, 1, 1)))
        np.testing.assert_allclose(out.data, np.full((2, 2, 1), 5.0))

    def test_forward_repeats_blocks(self):
        xd = np.array([[1.0, 2.0], [3.0, 4.0]]).reshape(2, 2, 1)
        out = upsample_nearest2(Tensor(xd))
        want = np.array(
            [[1, 1, 2, 2], [1, 1, 2, 2], [3, 3, 4, 4], [3, 3, 4, 4]], dtype=np.float32
        ).reshape(4, 4, 1)
        np.testing.assert_allclose(out.data, want)

    def test_shape_law(self):
        out = upsample_nearest2(Tensor(np.ones((4, 4, 3))))
        assert out.shape == (8, 8, 3)

    def test_sum_scales_by_four(self):
        rng = np.random.default_rng(221)
        xd = rng.normal(size=(5, 3, 2))
        out = upsample_nearest2(Tensor(xd, dtype=np.float64))
        assert out.data.sum() == pytest.approx(4.0 * xd.sum(), rel=1e-12)

    def test_pool_of_upsample_is_identity(self):
        rng = np.random.default_rng(212)
        xd = rng.normal(size=(3, 5, 2))
        out, _ = maxpool2(upsample_nearest2(Tensor(xd)))
        np.testing.assert_allclose(out.data, xd)

    def test_gradients_match_finite_differences(self):
        rng = np.random.default_rng(213)
        for trial in range(30):
            x = Tensor(rng.normal(size=(3, 4, 2)), dtype=np.float64)
            report = grad_check(lambda t: tsum(square(upsample_nearest2(t))), [x], 1e-4)
            assert report.passed, f"trial {trial}: {report}"


class TestRelu:
    def test_forward(self):
        out = relu(Tensor([-3.0, 0.0, 5.0]))
        np.testing.assert_allclose(out.data, [0.0, 0.0, 5.0])

    def test_relu_pair_reconstructs_absolute_value(self):
        rng = np.random.default_rng(222)
        for _ in range(10):
            xd = rng.normal(size=(4, 5)) * 3.0
            x = Tensor(xd, dtype=np.float64)
            neg = Tensor(-xd, dtype=np.float64)
            np.testing.assert_allclose(
                relu(x).data + relu(neg).data, np.abs(xd), atol=1e-12
            )

    def test_gradients_match_finite_differences(self):
        rng = np.random.default_rng(214)
        for trial in range(50):
            xd = rng.normal(size=8)
            xd += 0.1 * np.sign(xd)  # keep the probe step away from the kink
            report = grad_check(lambda t: tsum(square(relu(t))), [Tensor(xd)], 1e-4)
            assert report.passed, f"trial {trial}: {report}"

    def test_zero_input_has_zero_gradient(self):
        x = Tensor([0.0], dtype=np.float64, requires_grad=True)
        with GradTape() as tape:
            y = tsum(relu(x))
        g = tape.gradient(backward(tape, y), x)
        assert g.data[0] == 0.0


class TestSigmoid:
    def test_zero_maps_to_half_in_both_forms(self):
        for form in ("standard", "literal"):
            assert sigmoid(Tensor([0.0]), form=form).data[0] == pytest.approx(0.5)

    def test_standard_value_at_one(self):
        assert sigmoid(Tensor([1.0])).data[0] == pytest.approx(0.73106, abs=1e-5)

    def test_literal_value_at_one(self):
        assert sigmoid(Tensor([1.0]), form="literal").data[0] == pytest.approx(
            0.26894, abs=1e-5
        )

    def test_forms_are_mirrored(self):
        rng = np.random.default_rng(215)
        xd = rng.normal(size=20) * 3.0
        s = sigmoid(Tensor(xd, dtype=np.float64)).data
        lit = sigmoid(Tensor(xd, dtype=np.float64), form="literal").data
        np.testing.assert_allclose(s + lit, np.ones(20), atol=1e-12)

    def test_monotone_directions(self):
        xd = np.linspace(-6, 6, 25)
        s = sigmoid(Tensor(xd, dtype=np.float64)).data
        lit = sigmoid(Tensor(xd, dtype=np.float64), form="literal").data
        assert np.all(np.diff(s) > 0)
        assert np.all(np.diff(lit) < 0)

    def test_extreme_inputs_stay_finite_and_bounded(self):
        xd = np.array([-500.0, 500.0])
        for form in ("standard", "literal"):
            out = sigmoid(Tensor(xd, dtype=np.float64), form=form).data
            assert np.all(np.isfinite(out))
            assert np.all((out >= 0.0) & (out <= 1.0))

    def test_gradients_match_finite_differences(self):
        rng = np.random.default_rng(216)
        for trial in range(50):
            x = Tensor(rng.normal(size=6) * 2.0, dtype=np.float64)
            for form in ("standard", "literal"):
                report = grad_check(
                    lambda t: tsum(square(sigmoid(t, form=form))), [x], 1e-4
                )
                assert report.passed, f"{form} trial {trial}: {report}"

    def test_unknown_form_rejected(self):
        with pytest.raises(ValueError):
            sigmoid(Tensor([0.0]), form="fast")


def _bn(channels=1, dtype=np.float32, **kwargs):
    return BatchNormLayer.create(channels, dtype=dtype, **kwargs)


def _batch123(dtype=np.float32):
    return Tensor(np.array([1.0, 2.0, 3.0], dtype=dtype).reshape(1, 1, 3, 1))


def composed_batch_norm(batch, layer, phase):
    """Oracle: batch norm built from elementary tape ops, one per step."""
    dtype = batch.data.dtype
    if phase == "train":
        mu = tmean(batch, axis=(0, 1, 2))
        centred = sub(batch, mu)
        var = tmean(square(centred), axis=(0, 1, 2))
        m = layer.momentum
        layer.running_mean = Tensor(m * layer.running_mean.data + (1.0 - m) * mu.data)
        layer.running_var = Tensor(m * layer.running_var.data + (1.0 - m) * var.data)
    else:
        mu = Tensor(layer.running_mean.data)
        var = Tensor(layer.running_var.data)
        centred = sub(batch, mu)
    eps = Tensor(np.asarray(layer.epsilon, dtype=dtype))
    if layer.mode == "literal":
        return div(centred, add(var, eps))
    normed = div(centred, sqrt(add(var, eps)))
    return add(mul(normed, layer.gamma), layer.beta)


def _bn_case(rng, mode):
    """A float64 layer with non-trivial affine and running state, plus a batch."""
    layer = _bn(3, dtype=np.float64, mode=mode)
    layer.gamma = Tensor(rng.uniform(0.5, 1.5, size=3), requires_grad=True)
    layer.beta = Tensor(rng.normal(size=3), requires_grad=True)
    layer.running_mean = Tensor(rng.normal(size=3))
    layer.running_var = Tensor(rng.uniform(0.5, 2.0, size=3))
    x = Tensor(rng.normal(size=(2, 3, 2, 3)), requires_grad=True)
    return layer, x


BN_CASES = [(mode, phase) for mode in ("standard", "literal") for phase in ("train", "infer")]


class TestBatchNorm:
    @pytest.mark.parametrize("mode,phase", BN_CASES)
    def test_matches_composed_oracle(self, mode, phase):
        rng = np.random.default_rng(229)
        for _ in range(5):
            layer, x = _bn_case(rng, mode)
            twin = BatchNormLayer(
                layer.gamma, layer.beta, layer.running_mean, layer.running_var, mode=mode
            )
            probe = Tensor(rng.normal(size=x.shape))
            with GradTape() as tape:
                out = batch_norm(x, layer, phase)
                grads = backward(tape, tsum(mul(out, probe)))
            with GradTape() as oracle_tape:
                want = composed_batch_norm(x, twin, phase)
                oracle_grads = backward(oracle_tape, tsum(mul(want, probe)))
            np.testing.assert_array_equal(out.data, want.data)
            np.testing.assert_array_equal(layer.running_mean.data, twin.running_mean.data)
            np.testing.assert_array_equal(layer.running_var.data, twin.running_var.data)
            for t in (x, layer.gamma, layer.beta):
                got = tape.gradient(grads, t).data
                if oracle_tape.on_tape(t):
                    expected = oracle_tape.gradient(oracle_grads, t).data
                else:  # literal mode never reads gamma or beta
                    expected = np.zeros_like(t.data)
                np.testing.assert_allclose(got, expected, rtol=1e-9, atol=1e-12)

    @pytest.mark.parametrize("mode,phase", BN_CASES)
    def test_fused_gradients_match_finite_differences(self, mode, phase):
        rng = np.random.default_rng(231)
        for trial in range(5):
            layer, x = _bn_case(rng, mode)
            probe = Tensor(rng.normal(size=x.shape))

            # a linear readout: the gradient of a squared one passes through
            # zero wherever an output does, where differences lose all digits
            def f(x, gamma, beta):
                layer.gamma, layer.beta = gamma, beta
                return tsum(mul(batch_norm(x, layer, phase), probe))

            report = grad_check(f, [x, layer.gamma, layer.beta], tolerance=1e-4)
            assert report.passed, f"{mode}/{phase} trial {trial}: {report}"

    @pytest.mark.parametrize("mode,phase", BN_CASES)
    def test_one_tape_entry_per_layer(self, mode, phase):
        layer, x = _bn_case(np.random.default_rng(233), mode)
        with GradTape() as tape:
            batch_norm(x, layer, phase)
        assert [entry.op for entry in tape.entries] == ["batch_norm"]

    def test_standard_normalization_of_1_2_3(self):
        out = batch_norm(_batch123(), _bn(epsilon=1e-5), phase="train")
        np.testing.assert_allclose(out.data.ravel(), [-1.2247, 0.0, 1.2247], atol=1e-4)

    def test_literal_normalization_of_1_2_3(self):
        out = batch_norm(_batch123(), _bn(mode="literal", epsilon=0.0), phase="train")
        np.testing.assert_allclose(out.data.ravel(), [-1.5, 0.0, 1.5], atol=1e-4)

    def test_literal_constant_channel_is_zero(self):
        x = Tensor(np.full((1, 2, 2, 1), 4.0))
        out = batch_norm(x, _bn(mode="literal", epsilon=1e-5), phase="train")
        np.testing.assert_allclose(out.data, 0.0, atol=1e-6)

    def test_literal_mode_ignores_affine_parameters(self):
        layer = _bn(mode="literal", epsilon=0.0)
        layer.gamma = Tensor(np.full(1, 7.0, dtype=np.float32), requires_grad=True)
        layer.beta = Tensor(np.full(1, -3.0, dtype=np.float32), requires_grad=True)
        out = batch_norm(_batch123(), layer, phase="train")
        np.testing.assert_allclose(out.data.ravel(), [-1.5, 0.0, 1.5], atol=1e-4)

    def test_standard_train_output_is_standardized(self):
        rng = np.random.default_rng(223)
        x = Tensor(rng.normal(3.0, 2.5, size=(2, 8, 8, 3)), dtype=np.float64)
        out = batch_norm(x, _bn(3, dtype=np.float64), phase="train").data
        assert np.abs(out.mean(axis=(0, 1, 2))).max() < 1e-6
        np.testing.assert_allclose(out.var(axis=(0, 1, 2)), 1.0, atol=1e-4)

    def test_running_statistics_update(self):
        layer = _bn(epsilon=0.0, momentum=0.9)
        batch_norm(_batch123(), layer, phase="train")
        np.testing.assert_allclose(layer.running_mean.data, [0.2], atol=1e-6)
        np.testing.assert_allclose(
            layer.running_var.data, [0.9 + 0.1 * (2.0 / 3.0)], atol=1e-6
        )

    def test_inference_uses_buffers_without_touching_them(self):
        layer = _bn(epsilon=0.0)
        layer.running_mean = Tensor(np.array([1.0], dtype=np.float32))
        layer.running_var = Tensor(np.array([4.0], dtype=np.float32))
        x = Tensor(np.array([1.0, 3.0, 5.0], dtype=np.float32).reshape(1, 1, 3, 1))
        out = batch_norm(x, layer, phase="infer")
        np.testing.assert_allclose(out.data.ravel(), [0.0, 1.0, 2.0], atol=1e-6)
        np.testing.assert_allclose(layer.running_mean.data, [1.0])
        np.testing.assert_allclose(layer.running_var.data, [4.0])

    def test_literal_inference_divides_by_variance(self):
        layer = _bn(mode="literal", epsilon=0.0)
        layer.running_mean = Tensor(np.array([1.0], dtype=np.float32))
        layer.running_var = Tensor(np.array([4.0], dtype=np.float32))
        x = Tensor(np.array([1.0, 3.0, 5.0], dtype=np.float32).reshape(1, 1, 3, 1))
        out = batch_norm(x, layer, phase="infer")
        np.testing.assert_allclose(out.data.ravel(), [0.0, 0.5, 1.0], atol=1e-6)

    def test_gradients_match_finite_differences(self):
        rng = np.random.default_rng(217)
        for trial in range(20):
            x = Tensor(rng.normal(size=(1, 2, 3, 2)), dtype=np.float64)
            gamma = Tensor(rng.uniform(0.5, 1.5, size=2), dtype=np.float64)
            beta = Tensor(rng.normal(size=2), dtype=np.float64)
            # an asymmetric readout; the plain sum of squares of a
            # standardized batch is nearly constant in x
            probe = Tensor(rng.normal(size=(1, 2, 3, 2)), dtype=np.float64)

            def f(x, gamma, beta):
                layer = _bn(2, dtype=np.float64)
                layer.gamma = gamma
                layer.beta = beta
                return tsum(square(mul(batch_norm(x, layer, "train"), probe)))

            report = grad_check(f, [x, gamma, beta], tolerance=1e-4)
            assert report.passed, f"trial {trial}: {report}"

    def test_inference_gradients_flow_to_input(self):
        rng = np.random.default_rng(218)
        x = Tensor(rng.normal(size=(1, 2, 2, 2)), dtype=np.float64)

        def f(x):
            return tsum(square(batch_norm(x, _bn(2, dtype=np.float64), "infer")))

        report = grad_check(f, [x], tolerance=1e-4)
        assert report.passed, str(report)

    def test_validation(self):
        with pytest.raises(ValueError):
            BatchNormLayer.create(0)
        with pytest.raises(ValueError):
            BatchNormLayer.create(1, mode="other")
        with pytest.raises(ValueError):
            BatchNormLayer.create(1, momentum=1.0)
        with pytest.raises(ValueError):
            BatchNormLayer.create(1, epsilon=-1e-3)
        layer = _bn(2)
        with pytest.raises(ValueError):
            batch_norm(Tensor(np.ones((4, 4, 2))), layer, "train")  # no batch axis
        with pytest.raises(ValueError):
            batch_norm(Tensor(np.ones((1, 4, 4, 3))), layer, "train")  # channels
        with pytest.raises(ValueError):
            batch_norm(Tensor(np.ones((1, 4, 4, 2))), layer, "test")  # phase name
        layer.running_var = Tensor(np.array([1.0, -0.5], dtype=np.float32))
        with pytest.raises(ValueError):
            batch_norm(Tensor(np.ones((1, 4, 4, 2))), layer, "infer")


class TestDropout:
    def test_training_mask_values(self):
        layer = DropoutLayer(0.5, seed=30)
        out = dropout(Tensor(np.ones((8, 8, 2), dtype=np.float32)), layer, "train")
        vals = np.unique(out.data)
        assert set(vals.tolist()) <= {0.0, 2.0}
        assert 0.0 in vals and 2.0 in vals

    def test_expected_value_is_preserved(self):
        layer = DropoutLayer(0.5, seed=31)
        x = Tensor(np.ones((100, 100, 1), dtype=np.float32))
        out = dropout(x, layer, "train")
        assert out.data.mean() == pytest.approx(1.0, abs=0.05)

    def test_inference_returns_input_unchanged(self):
        layer = DropoutLayer(0.5, seed=32)
        x = Tensor(np.ones((4, 4, 1)))
        assert dropout(x, layer, "infer") is x

    def test_zero_rate_is_identity(self):
        layer = DropoutLayer(0.0, seed=33)
        x = Tensor(np.ones((4, 4, 1)))
        assert dropout(x, layer, "train") is x

    def test_seed_replays_identical_mask_sequence(self):
        a, b = DropoutLayer(0.5, seed=34), DropoutLayer(0.5, seed=34)
        x = Tensor(np.ones((6, 6, 2), dtype=np.float32))
        for _ in range(3):
            np.testing.assert_array_equal(
                dropout(x, a, "train").data, dropout(x, b, "train").data
            )

    def test_reseed_rewinds_the_mask_stream(self):
        layer = DropoutLayer(0.5, seed=37)
        x = Tensor(np.ones((6, 6, 2), dtype=np.float32))
        first = dropout(x, layer, "train").data
        layer.reseed()
        np.testing.assert_array_equal(dropout(x, layer, "train").data, first)

    def test_consecutive_calls_draw_fresh_masks(self):
        layer = DropoutLayer(0.5, seed=35)
        x = Tensor(np.ones((8, 8, 2), dtype=np.float32))
        assert not np.array_equal(
            dropout(x, layer, "train").data, dropout(x, layer, "train").data
        )

    def test_gradient_equals_mask(self):
        layer = DropoutLayer(0.4, seed=36)
        x = Tensor(np.full((6, 6, 1), 3.0), dtype=np.float64, requires_grad=True)
        with GradTape() as tape:
            out = dropout(x, layer, "train")
            y = tsum(out)
        g = tape.gradient(backward(tape, y), x)
        np.testing.assert_allclose(g.data, out.data / 3.0, rtol=1e-12)

    def test_rate_validation(self):
        with pytest.raises(ValueError):
            DropoutLayer(1.0, seed=0)
        with pytest.raises(ValueError):
            DropoutLayer(-0.1, seed=0)
        with pytest.raises(ValueError):
            dropout(Tensor([1.0]), DropoutLayer(0.5, seed=0), "predict")


class TestBatchedSpatialOps:
    """A leading batch axis must behave exactly like stacked singles."""

    def test_conv_matches_stacked_singles(self):
        rng = np.random.default_rng(60)
        for _ in range(5):
            layer = conv_layer(
                rng.standard_normal((3, 3, 2, 3)).astype(np.float32),
                rng.standard_normal(3).astype(np.float32),
            )
            batch = rng.standard_normal((4, 6, 5, 2)).astype(np.float32)
            out = conv2d(Tensor(batch), layer).data
            singles = np.stack(
                [conv2d(Tensor(batch[i]), layer).data for i in range(4)]
            )
            np.testing.assert_array_equal(out, singles)

    def test_maxpool_matches_stacked_singles(self):
        rng = np.random.default_rng(61)
        batch = rng.standard_normal((3, 4, 6, 2)).astype(np.float32)
        out, idx = maxpool2(Tensor(batch))
        assert out.shape == (3, 2, 3, 2) and idx.shape == (3, 2, 3, 2)
        for i in range(3):
            single, sidx = maxpool2(Tensor(batch[i]))
            np.testing.assert_array_equal(out.data[i], single.data)
            np.testing.assert_array_equal(idx[i], sidx)

    def test_upsample_matches_stacked_singles(self):
        rng = np.random.default_rng(62)
        batch = rng.standard_normal((3, 2, 3, 2)).astype(np.float32)
        out = upsample_nearest2(Tensor(batch)).data
        for i in range(3):
            np.testing.assert_array_equal(
                out[i], upsample_nearest2(Tensor(batch[i])).data
            )

    def test_batched_conv_gradients(self):
        rng = np.random.default_rng(63)
        layer = conv_layer(rng.standard_normal((3, 3, 2, 2)), rng.standard_normal(2))
        x = Tensor(rng.standard_normal((2, 4, 4, 2)))

        def f(v, k, b):
            probe = Tensor(np.arange(v.data.size, dtype=np.float64).reshape(v.shape))
            return tsum(mul(conv2d(v, Conv2dLayer(kernel=k, bias=b)), probe))

        report = grad_check(f, [x, layer.kernel, layer.bias], tolerance=1e-4)
        assert report.passed, report

    def test_batched_pool_and_upsample_gradients(self):
        rng = np.random.default_rng(64)
        x = Tensor(rng.standard_normal((2, 4, 4, 2)))

        def f(v):
            pooled, _ = maxpool2(v)
            probe = Tensor(np.arange(64, dtype=np.float64).reshape(2, 4, 4, 2) / 7.0)
            return tsum(mul(upsample_nearest2(pooled), probe))

        report = grad_check(f, [x], tolerance=1e-4)
        assert report.passed, report

    def test_five_dim_input_rejected(self):
        layer = conv_layer(np.ones((1, 1, 1, 1), np.float32), np.zeros(1, np.float32))
        with pytest.raises(ValueError):
            conv2d(Tensor(np.ones((1, 1, 2, 2, 1), np.float32)), layer)
        with pytest.raises(ValueError):
            maxpool2(Tensor(np.ones((1, 1, 2, 2, 1), np.float32)))
        with pytest.raises(ValueError):
            upsample_nearest2(Tensor(np.ones((1, 1, 2, 2, 1), np.float32)))
