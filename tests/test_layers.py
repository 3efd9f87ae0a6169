"""Layer ops against naive loop oracles and finite differences."""

import tracemalloc

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
from dcn import layers
from dcn.layers import (
    BN_EPSILON,
    BN_MOMENTUM,
    BatchNormLayer,
    Conv2dLayer,
    DropoutLayer,
    batch_norm,
    conv2d,
    dropout,
    maxpool2,
    relu,
    upsample_nearest2,
)
from dcn.model import DcnConfig, _layout


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


def gradient_landing(xd):
    """Flat position ``y * w + x`` where maxpool2 routes each window's gradient.

    Runs one [h, w, c] tile as a batch of one and checks that exactly one
    input of every window receives its output's gradient.
    """
    x = Tensor(xd[None], dtype=np.float64, requires_grad=True)
    with GradTape() as tape:
        grads = backward(tape, tsum(maxpool2(x)))
    gx = tape.gradient(grads, x).data[0]
    h, w, c = gx.shape
    win = gx.reshape(h // 2, 2, w // 2, 2, c).transpose(0, 2, 1, 3, 4).reshape(h // 2, w // 2, 4, c)
    np.testing.assert_array_equal(win.sum(axis=2), 1.0)
    k = win.argmax(axis=2)
    ys = 2 * np.arange(h // 2)[:, None, None] + k // 2
    xs = 2 * np.arange(w // 2)[None, :, None] + k % 2
    return ys * w + xs


def _tied_windows(rng, shape, ties):
    """A batch whose every 2x2 window holds its maximum ``ties`` times.

    The tied maxima sit at random positions of the window. Half of the
    windows tie at zero, with random signs on the zeros and negative
    values elsewhere.
    """
    n, h, w, c = shape
    win = rng.uniform(-2.0, -0.5, size=(n, h // 2, w // 2, c, 4))
    top = np.argsort(rng.random(win.shape), axis=-1)[..., :ties]
    peak = np.where(rng.random(win.shape[:-1]) < 0.5, 1.0, 0.0)[..., None]
    np.put_along_axis(win, top, peak, axis=-1)
    zeros = win == 0.0
    win[zeros] = np.where(rng.random(zeros.sum()) < 0.5, -0.0, 0.0)
    # window entries (dy, dx) back to pixels: [n, h2, 2, w2, 2, c]
    win = win.reshape(n, h // 2, w // 2, c, 2, 2).transpose(0, 1, 4, 2, 5, 3)
    return win.reshape(n, h, w, c)


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
            got = conv2d(Tensor(xd[None]), conv_layer(kd, bd)).data[0]
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
            got = conv2d(Tensor(xd[None]), conv_layer(kd, bd)).data[0]
            np.testing.assert_allclose(
                got, naive_conv2d(xd, kd, bd), atol=1e-12, err_msg=f"trial {trial}"
            )

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_bias_on_rows_matches_a_broadcast_bias_bit_for_bit(self, dtype):
        # the bias is added on the [n * h, w * cout] row view of the output
        rng = np.random.default_rng(223)
        for n, h, w, cin, cout in [(1, 4, 4, 2, 3), (3, 8, 6, 5, 7), (2, 16, 16, 8, 16)]:
            xd = rng.normal(size=(n, h, w, cin)).astype(dtype)
            kd = rng.normal(size=(3, 3, cin, cout)).astype(dtype)
            bd = rng.normal(size=cout).astype(dtype)
            got = conv2d(Tensor(xd), conv_layer(kd, bd)).data
            want = layers._correlate(xd, kd) + bd
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_bias_gradient_sums_the_output_gradient_per_channel(self, dtype):
        rng = np.random.default_rng(227)
        layer = Conv2dLayer(
            Tensor(rng.normal(size=(3, 3, 4, 8)), dtype=dtype),
            Tensor(rng.normal(size=8), dtype=dtype, requires_grad=True),
        )
        x = Tensor(rng.normal(size=(8, 16, 16, 4)), dtype=dtype)
        probe = rng.normal(size=(8, 16, 16, 8)).astype(dtype)
        with GradTape() as tape:
            grads = backward(tape, tsum(mul(conv2d(x, layer), Tensor(probe))))
        got = tape.gradient(grads, layer.bias).data
        # the op sums rows, then channel groups, in its dtype: compare with
        # float64 sums to rounding
        want = probe.astype(np.float64).sum(axis=(0, 1, 2))
        tol = 64 * np.finfo(dtype).eps * np.abs(probe).astype(np.float64).sum(axis=(0, 1, 2))
        assert got.dtype == dtype
        assert (np.abs(got - want) <= tol).all()

    def test_identity_kernel_passes_input_through(self):
        xd = np.arange(12, dtype=np.float64).reshape(3, 4, 1)
        kd = np.zeros((3, 3, 1, 1))
        kd[1, 1, 0, 0] = 1.0
        out = conv2d(Tensor(xd[None]), conv_layer(kd, np.zeros(1)))
        np.testing.assert_allclose(out.data[0], xd)

    def test_ones_kernel_on_constant_image_sums_interior(self):
        v = 2.5
        xd = np.full((1, 6, 7, 1), v)
        out = conv2d(Tensor(xd), conv_layer(np.ones((3, 3, 1, 1)), np.zeros(1)))
        np.testing.assert_allclose(out.data[0, 1:-1, 1:-1, 0], 9 * v, rtol=1e-12)
        np.testing.assert_allclose(out.data[0, 0, 0, 0], 4 * v, rtol=1e-12)

    def test_gradients_match_finite_differences(self):
        rng = np.random.default_rng(202)
        for trial in range(20):
            x = Tensor(rng.normal(size=(1, 4, 4, 2)), dtype=np.float64)
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
        x = Tensor(rng.normal(size=(1, 3, 3, 2)), dtype=np.float64)
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

    def test_call_validation(self):
        x = Tensor(np.ones((1, 4, 4, 2), dtype=np.float32))
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
            out = maxpool2(Tensor(xd[None]))
            want_out, want_idx = naive_maxpool2(xd)
            np.testing.assert_allclose(out.data[0], want_out, err_msg=f"trial {trial}")
            np.testing.assert_array_equal(
                gradient_landing(xd), want_idx, err_msg=f"trial {trial}"
            )

    def test_single_window(self):
        xd = np.array([[1.0, 2.0], [3.0, 4.0]]).reshape(2, 2, 1)
        out = maxpool2(Tensor(xd[None]))
        assert out.data[0, 0, 0, 0] == 4.0
        assert gradient_landing(xd)[0, 0, 0] == 3

    def test_output_dominates_window(self):
        rng = np.random.default_rng(220)
        xd = rng.normal(size=(8, 6, 2))
        out = maxpool2(Tensor(xd[None]))
        win = xd.reshape(4, 2, 3, 2, 2).transpose(0, 2, 1, 3, 4)
        assert (out.data[0, :, :, None, :] >= win.reshape(4, 3, 4, 2)).all()

    def test_tie_selects_lowest_flat_position(self):
        idx = gradient_landing(np.ones((2, 4, 1)))
        assert idx[0, 0, 0] == 0
        assert idx[0, 1, 0] == 2

    def test_index_map_is_global_flat_position(self):
        xd = np.zeros((2, 4, 1))
        xd[1, 3, 0] = 9.0
        assert gradient_landing(xd)[0, 1, 0] == 1 * 4 + 3

    def test_gradients_match_finite_differences(self):
        rng = np.random.default_rng(211)
        for trial in range(30):
            # wide value spread keeps windows far from ties under the probe step
            x = Tensor(rng.normal(size=(1, 4, 4, 2)) * 50.0, dtype=np.float64)
            report = grad_check(lambda t: tsum(square(maxpool2(t))), [x], 1e-4)
            assert report.passed, f"trial {trial}: {report}"

    def test_rejects_odd_extents(self):
        with pytest.raises(ValueError):
            maxpool2(Tensor(np.ones((1, 3, 4, 1))))
        with pytest.raises(ValueError):
            maxpool2(Tensor(np.ones((1, 4, 5, 1))))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("ties", [2, 3, 4])
    def test_forced_ties_match_naive_oracle_bit_for_bit(self, dtype, ties):
        rng = np.random.default_rng(240 + ties)
        for n, h, w, c in [(3, 4, 6, 2), (2, 8, 8, 5), (1, 2, 2, 1)]:
            xd = _tied_windows(rng, (n, h, w, c), ties).astype(dtype)
            g = rng.normal(size=(n, h // 2, w // 2, c)).astype(dtype)
            x = Tensor(xd, requires_grad=True)
            with GradTape() as tape:
                out = maxpool2(x)
                grads = backward(tape, tsum(mul(out, Tensor(g))))
            gx = tape.gradient(grads, x).data
            for i in range(n):
                want_out, want_idx = naive_maxpool2(xd[i])
                want_gx = np.zeros((h * w, c), dtype=dtype)
                np.put_along_axis(want_gx, want_idx.reshape(-1, c), g[i].reshape(-1, c), axis=0)
                # bytes, so the sign of a zero counts too
                assert out.data[i].tobytes() == want_out.tobytes()
                assert gx[i].tobytes() == want_gx.reshape(h, w, c).tobytes()

    def test_gradient_has_no_negative_zero(self):
        rng = np.random.default_rng(243)
        xd = _tied_windows(rng, (2, 8, 8, 3), 2).astype(np.float32)
        x = Tensor(xd, requires_grad=True)
        probe = Tensor(-rng.uniform(0.5, 1.5, size=(2, 4, 4, 3)).astype(np.float32))
        with GradTape() as tape:
            grads = backward(tape, tsum(mul(maxpool2(x), probe)))
        gx = tape.gradient(grads, x).data
        assert (gx == 0).sum() == 3 * probe.data.size
        assert not np.signbit(gx[gx == 0]).any()


class TestUpsample:
    def test_single_pixel_replicates(self):
        out = upsample_nearest2(Tensor(np.array([[5.0]]).reshape(1, 1, 1, 1)))
        np.testing.assert_allclose(out.data, np.full((1, 2, 2, 1), 5.0))

    def test_forward_repeats_blocks(self):
        xd = np.array([[1.0, 2.0], [3.0, 4.0]]).reshape(1, 2, 2, 1)
        out = upsample_nearest2(Tensor(xd))
        want = np.array(
            [[1, 1, 2, 2], [1, 1, 2, 2], [3, 3, 4, 4], [3, 3, 4, 4]], dtype=np.float32
        ).reshape(1, 4, 4, 1)
        np.testing.assert_allclose(out.data, want)

    def test_shape_law(self):
        out = upsample_nearest2(Tensor(np.ones((1, 4, 4, 3))))
        assert out.shape == (1, 8, 8, 3)

    def test_sum_scales_by_four(self):
        rng = np.random.default_rng(221)
        xd = rng.normal(size=(1, 5, 3, 2))
        out = upsample_nearest2(Tensor(xd, dtype=np.float64))
        assert out.data.sum() == pytest.approx(4.0 * xd.sum(), rel=1e-12)

    def test_pool_of_upsample_is_identity(self):
        rng = np.random.default_rng(212)
        xd = rng.normal(size=(1, 3, 5, 2))
        out = maxpool2(upsample_nearest2(Tensor(xd)))
        np.testing.assert_allclose(out.data, xd)

    def test_gradients_match_finite_differences(self):
        rng = np.random.default_rng(213)
        for trial in range(30):
            x = Tensor(rng.normal(size=(1, 3, 4, 2)), dtype=np.float64)
            report = grad_check(lambda t: tsum(square(upsample_nearest2(t))), [x], 1e-4)
            assert report.passed, f"trial {trial}: {report}"

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_gradient_matches_reshape_sum_bit_for_bit(self, dtype):
        rng = np.random.default_rng(244)
        for n, h, w, c in [(8, 32, 32, 8), (8, 8, 8, 128), (3, 5, 3, 2), (1, 1, 1, 1), (2, 16, 4, 16)]:
            x = Tensor(rng.normal(size=(n, h, w, c)).astype(dtype), requires_grad=True)
            # magnitudes spread over decades, so the sum order shows in the bits
            g = rng.normal(size=(n, 2 * h, 2 * w, c)) * 10.0 ** rng.integers(-3, 4, size=(n, 2 * h, 2 * w, c))
            g = g.astype(dtype)
            with GradTape() as tape:
                grads = backward(tape, tsum(mul(upsample_nearest2(x), Tensor(g))))
            want = g.reshape(n, h, 2, w, 2, c).sum(axis=(2, 4))
            assert tape.gradient(grads, x).data.tobytes() == want.tobytes()


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


def _bn(channels=1, dtype=np.float32):
    return BatchNormLayer.create(channels, dtype=dtype)


def _batch123(dtype=np.float32):
    return Tensor(np.array([1.0, 2.0, 3.0], dtype=dtype).reshape(1, 1, 3, 1))


def composed_batch_norm(batch, layer, phase):
    """Oracle: batch norm built from elementary tape ops, one per step."""
    dtype = batch.data.dtype
    if phase == "train":
        mu = tmean(batch, axis=(0, 1, 2))
        centred = sub(batch, mu)
        var = tmean(square(centred), axis=(0, 1, 2))
        m = BN_MOMENTUM
        layer.running_mean = Tensor(m * layer.running_mean.data + (1.0 - m) * mu.data)
        layer.running_var = Tensor(m * layer.running_var.data + (1.0 - m) * var.data)
    else:
        mu = Tensor(layer.running_mean.data)
        var = Tensor(layer.running_var.data)
        centred = sub(batch, mu)
    eps = Tensor(np.asarray(BN_EPSILON, dtype=dtype))
    normed = div(centred, sqrt(add(var, eps)))
    return add(mul(normed, layer.gamma), layer.beta)


def _bn_case(rng):
    """A float64 layer with non-trivial affine and running state, plus a batch."""
    layer = _bn(3, dtype=np.float64)
    layer.gamma = Tensor(rng.uniform(0.5, 1.5, size=3), requires_grad=True)
    layer.beta = Tensor(rng.normal(size=3), requires_grad=True)
    layer.running_mean = Tensor(rng.normal(size=3))
    layer.running_var = Tensor(rng.uniform(0.5, 2.0, size=3))
    x = Tensor(rng.normal(size=(2, 3, 2, 3)), requires_grad=True)
    return layer, x


# the ids also name the batch-norm reading these cases cover
BN_PHASES = [pytest.param(phase, id=f"standard-{phase}") for phase in ("train", "infer")]


def _sequential_channel_sum(a, w, c):
    """Add the [n * h, w * c] rows one at a time, then the w channel groups."""
    rows = a.reshape(-1, w * c)
    acc = rows[0].copy()
    for row in rows[1:]:
        acc += row
    groups = acc.reshape(w, c)
    out = groups[0].copy()
    for group in groups[1:]:
        out += group
    return out


class TestChannelSum:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("shape", [(8, 64, 64, 8), (8, 4, 4, 128), (1, 64, 64, 8), (3, 8, 8, 5)])
    def test_order_is_rows_then_groups(self, dtype, shape):
        # one fixed order, so no BLAS build or thread count changes the bits
        a = np.random.default_rng(247).normal(size=shape).astype(dtype)
        _, _, w, c = shape
        got = layers._channel_sum(a, w, c)
        want = _sequential_channel_sum(a, w, c)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


class TestBatchNorm:
    @pytest.mark.parametrize("phase", BN_PHASES)
    def test_matches_composed_oracle(self, phase):
        rng = np.random.default_rng(229)
        for _ in range(5):
            layer, x = _bn_case(rng)
            twin = BatchNormLayer(
                layer.gamma, layer.beta, layer.running_mean, layer.running_var
            )
            probe = Tensor(rng.normal(size=x.shape))
            with GradTape() as tape:
                out = batch_norm(x, layer, phase)
                grads = backward(tape, tsum(mul(out, probe)))
            with GradTape() as oracle_tape:
                want = composed_batch_norm(x, twin, phase)
                oracle_grads = backward(oracle_tape, tsum(mul(want, probe)))
            # the op sums rows, then channel groups; the oracle's mean over
            # (n, h, w) adds in another order, so the two agree to rounding,
            # not bit for bit
            tol = 16 * np.finfo(out.data.dtype).eps
            for got, expected in (
                (out, want),
                (layer.running_mean, twin.running_mean),
                (layer.running_var, twin.running_var),
            ):
                np.testing.assert_allclose(got.data, expected.data, rtol=tol, atol=tol)
            for t in (x, layer.gamma, layer.beta):
                got = tape.gradient(grads, t).data
                expected = oracle_tape.gradient(oracle_grads, t).data
                np.testing.assert_allclose(got, expected, rtol=1e-9, atol=1e-12)

    @pytest.mark.parametrize("phase", BN_PHASES)
    def test_fused_gradients_match_finite_differences(self, phase):
        rng = np.random.default_rng(231)
        for trial in range(5):
            layer, x = _bn_case(rng)
            probe = Tensor(rng.normal(size=x.shape))

            # a linear readout: the gradient of a squared one passes through
            # zero wherever an output does, where differences lose all digits
            def f(x, gamma, beta):
                layer.gamma, layer.beta = gamma, beta
                return tsum(mul(batch_norm(x, layer, phase), probe))

            report = grad_check(f, [x, layer.gamma, layer.beta], tolerance=1e-4)
            assert report.passed, f"{phase} trial {trial}: {report}"

    @pytest.mark.parametrize("phase", BN_PHASES)
    def test_one_tape_entry_per_layer(self, phase):
        layer, x = _bn_case(np.random.default_rng(233))
        with GradTape() as tape:
            batch_norm(x, layer, phase)
        assert [entry.op for entry in tape.entries] == ["batch_norm"]

    def test_standard_normalization_of_1_2_3(self):
        out = batch_norm(_batch123(), _bn(), phase="train")
        np.testing.assert_allclose(out.data.ravel(), [-1.2247, 0.0, 1.2247], atol=1e-4)

    def test_standard_train_output_is_standardized(self):
        rng = np.random.default_rng(223)
        x = Tensor(rng.normal(3.0, 2.5, size=(2, 8, 8, 3)), dtype=np.float64)
        out = batch_norm(x, _bn(3, dtype=np.float64), phase="train").data
        assert np.abs(out.mean(axis=(0, 1, 2))).max() < 1e-6
        np.testing.assert_allclose(out.var(axis=(0, 1, 2)), 1.0, atol=1e-4)

    def test_running_statistics_update(self, monkeypatch):
        monkeypatch.setattr(layers, "BN_EPSILON", 0.0)
        layer = _bn()
        batch_norm(_batch123(), layer, phase="train")
        np.testing.assert_allclose(layer.running_mean.data, [0.2], atol=1e-6)
        np.testing.assert_allclose(
            layer.running_var.data, [0.9 + 0.1 * (2.0 / 3.0)], atol=1e-6
        )

    def test_inference_uses_buffers_without_touching_them(self, monkeypatch):
        monkeypatch.setattr(layers, "BN_EPSILON", 0.0)
        layer = _bn()
        layer.running_mean = Tensor(np.array([1.0], dtype=np.float32))
        layer.running_var = Tensor(np.array([4.0], dtype=np.float32))
        x = Tensor(np.array([1.0, 3.0, 5.0], dtype=np.float32).reshape(1, 1, 3, 1))
        out = batch_norm(x, layer, phase="infer")
        np.testing.assert_allclose(out.data.ravel(), [0.0, 1.0, 2.0], atol=1e-6)
        np.testing.assert_allclose(layer.running_mean.data, [1.0])
        np.testing.assert_allclose(layer.running_var.data, [4.0])

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

    def test_sums_stay_accurate_on_an_offset_channel(self, monkeypatch):
        # with momentum 0 the running buffers hold the batch statistics
        monkeypatch.setattr(layers, "BN_MOMENTUM", 0.0)
        rng = np.random.default_rng(245)
        # the second shape sums 2048 rows in sequence
        for shape in [(8, 64, 64, 8), (16, 128, 128, 8)]:
            xd = rng.normal(size=shape).astype(np.float32)
            xd[..., 5] += 1e3
            layer = _bn(8)
            batch_norm(Tensor(xd), layer, "train")
            ref = xd.astype(np.float64)
            np.testing.assert_allclose(layer.running_mean.data, ref.mean(axis=(0, 1, 2)), rtol=1e-4)
            np.testing.assert_allclose(layer.running_var.data, ref.var(axis=(0, 1, 2)), rtol=1e-4)

    def test_constant_channel_is_finite(self):
        rng = np.random.default_rng(246)
        xd = rng.normal(size=(2, 8, 8, 3)).astype(np.float32)
        xd[..., 1] = 0.1
        x = Tensor(xd, requires_grad=True)
        layer = _bn(3)
        probe = Tensor(rng.normal(size=xd.shape).astype(np.float32))
        with GradTape() as tape:
            out = batch_norm(x, layer, "train")
            grads = backward(tape, tsum(mul(out, probe)))
        assert np.isfinite(out.data).all()
        for t in (x, layer.gamma, layer.beta):
            assert np.isfinite(tape.gradient(grads, t).data).all()

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
    """A batch must behave exactly like its stacked batch-of-one slices."""

    def test_conv_matches_stacked_singles(self):
        rng = np.random.default_rng(60)
        for _ in range(5):
            layer = conv_layer(
                rng.standard_normal((3, 3, 2, 3)).astype(np.float32),
                rng.standard_normal(3).astype(np.float32),
            )
            batch = rng.standard_normal((4, 6, 5, 2)).astype(np.float32)
            out = conv2d(Tensor(batch), layer).data
            singles = np.concatenate(
                [conv2d(Tensor(batch[i : i + 1]), layer).data for i in range(4)]
            )
            np.testing.assert_array_equal(out, singles)

    def test_maxpool_matches_stacked_singles(self):
        rng = np.random.default_rng(61)
        batch = rng.standard_normal((3, 4, 6, 2)).astype(np.float32)

        def pool(xd):
            x = Tensor(xd, requires_grad=True)
            with GradTape() as tape:
                out = maxpool2(x)
                grads = backward(tape, tsum(out))
            return out.data, tape.gradient(grads, x).data

        out, gx = pool(batch)
        assert out.shape == (3, 2, 3, 2)
        for i in range(3):
            single, gsingle = pool(batch[i : i + 1])
            np.testing.assert_array_equal(out[i : i + 1], single)
            np.testing.assert_array_equal(gx[i : i + 1], gsingle)

    def test_upsample_matches_stacked_singles(self):
        rng = np.random.default_rng(62)
        batch = rng.standard_normal((3, 2, 3, 2)).astype(np.float32)
        out = upsample_nearest2(Tensor(batch)).data
        for i in range(3):
            np.testing.assert_array_equal(
                out[i : i + 1], upsample_nearest2(Tensor(batch[i : i + 1])).data
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
            pooled = maxpool2(v)
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

    def test_single_tile_without_batch_axis_rejected(self):
        layer = conv_layer(np.ones((1, 1, 1, 1), np.float32), np.zeros(1, np.float32))
        tile = Tensor(np.ones((2, 2, 1), np.float32))
        for op in (lambda x: conv2d(x, layer), maxpool2, upsample_nearest2):
            with pytest.raises(ValueError, match=r"\[n, h, w, c\]"):
                op(tile)


def _model_convs(channels, tile=64):
    """Every conv of a built model with the side of the tile it sees."""
    from dcn.model import DcnConfig, build

    model = build(DcnConfig(block_channels=channels, tile_size=tile))
    convs = []
    for i, blk in enumerate(model.encoder):
        convs += [(f"enc{i}.conv1", blk.conv1, tile >> i), (f"enc{i}.conv2", blk.conv2, tile >> i)]
    for i, blk in enumerate(model.decoder):
        convs.append((f"dec{i}.conv", blk.conv, tile >> (4 - i)))
    convs.append(("head", model.head, tile))
    return convs


def _conv_pass(x, layer, probe):
    """Output and input, kernel and bias gradients of one conv under a probe readout."""
    with GradTape() as tape:
        out = conv2d(x, layer)
        grads = backward(tape, tsum(mul(out, probe)))
    gk = tape.gradient(grads, layer.kernel).data
    gb = tape.gradient(grads, layer.bias).data
    return out.data, tape.gradient(grads, x), gk, gb


class TestConvFlatGemm:
    """Each conv pass is one 2-D GEMM; batching and skipped grads change no bits."""

    @pytest.mark.parametrize("channels", [(8, 16, 32, 64, 128), (32, 64, 128, 256, 512)])
    def test_batch_of_eight_matches_stacked_singles(self, channels):
        rng = np.random.default_rng(70)
        for name, layer, side in _model_convs(channels):
            cin, cout = layer.kernel.shape[2:]
            xd = rng.standard_normal((8, side, side, cin)).astype(np.float32)
            pd = rng.standard_normal((8, side, side, cout)).astype(np.float32)
            out, gx, _, _ = _conv_pass(Tensor(xd, requires_grad=True), layer, Tensor(pd))
            for i in range(8):
                one, gone, _, _ = _conv_pass(
                    Tensor(xd[i : i + 1], requires_grad=True), layer, Tensor(pd[i : i + 1])
                )
                np.testing.assert_array_equal(out[i : i + 1], one, err_msg=f"{name} tile {i}")
                np.testing.assert_array_equal(
                    gx.data[i : i + 1], gone.data, err_msg=f"{name} tile {i}"
                )

    def test_input_without_grad_leaves_kernel_and_bias_gradients(self):
        rng = np.random.default_rng(71)
        for dtype in (np.float32, np.float64):
            layer = Conv2dLayer(
                Tensor(rng.standard_normal((3, 3, 6, 5)), dtype=dtype, requires_grad=True),
                Tensor(rng.standard_normal(5), dtype=dtype, requires_grad=True),
            )
            xd = rng.standard_normal((3, 8, 8, 6)).astype(dtype)
            probe = Tensor(rng.standard_normal((3, 8, 8, 5)).astype(dtype))
            for single in (False, True):
                data = xd[:1] if single else xd
                p = Tensor(probe.data[:1]) if single else probe
                out_a, gx, gk_a, gb_a = _conv_pass(Tensor(data), layer, p)
                out_b, _, gk_b, gb_b = _conv_pass(Tensor(data, requires_grad=True), layer, p)
                assert gx is None  # no input gradient kept
                np.testing.assert_array_equal(out_a, out_b)
                np.testing.assert_array_equal(gk_a, gk_b)
                np.testing.assert_array_equal(gb_a, gb_b)

    def test_backward_rule_skips_the_input_gradient(self):
        layer = Conv2dLayer(
            Tensor(np.ones((3, 3, 2, 2)), requires_grad=True),
            Tensor(np.zeros(2), requires_grad=True),
        )
        for requires_grad in (False, True):
            x = Tensor(np.ones((1, 4, 4, 2)), requires_grad=requires_grad)
            with GradTape() as tape:
                out = conv2d(x, layer)
            (entry,) = tape.entries
            gx, gk, gb = entry.backward(np.ones_like(out.data))
            assert (gx is None) == (not requires_grad)
            assert gk.shape == (3, 3, 2, 2) and gb.shape == (2,)

    def test_data_batch_gets_no_gradient_in_a_training_step(self):
        from dcn.model import DcnConfig, build, embed_batch

        model = build(DcnConfig(block_channels=(2, 2, 2, 2, 2), embedding_dim=2, tile_size=32))
        rng = np.random.default_rng(72)
        batch = Tensor(rng.standard_normal((2, 32, 32, 6)).astype(np.float32))
        with GradTape() as tape:
            grads = backward(tape, tsum(embed_batch(model, batch, "train")))
        assert tape.gradient(grads, batch) is None
        used = [p for p in model.parameters().values() if tape.gradient(grads, p) is not None]
        assert len(used) == 5 * 2 * 4 + 5 * 4 + 2  # every conv and norm layer, the head
        assert {p.node for p in used} == set(grads)  # no dropout mask either


def explicit_columns(xd, kh, kw):
    """im2col written out tap by tap: row ``(i, y, x)``, column ``(dy, dx, c)``."""
    n, h, w, cin = xd.shape
    ph, pw = kh // 2, kw // 2
    xp = np.pad(xd, ((0, 0), (ph, ph), (pw, pw), (0, 0)))
    cols = np.empty((n * h * w, kh * kw * cin), dtype=xd.dtype)
    for dy in range(kh):
        for dx in range(kw):
            tap = (dy * kw + dx) * cin
            cols[:, tap : tap + cin] = xp[:, dy : dy + h, dx : dx + w].reshape(-1, cin)
    return cols


class TestConvKeptInput:
    """The backward keeps the conv's input and rebuilds its columns."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("k", [1, 3])
    def test_kernel_gradient_equals_explicit_im2col_gemm(self, dtype, k):
        rng = np.random.default_rng(73)
        n, h, w, cin, cout = 3, 16, 12, 6, 10
        layer = Conv2dLayer(
            Tensor(rng.standard_normal((k, k, cin, cout)), dtype=dtype, requires_grad=True),
            Tensor(rng.standard_normal(cout), dtype=dtype, requires_grad=True),
        )
        xd = rng.standard_normal((n, h, w, cin)).astype(dtype)
        g = rng.standard_normal((n, h, w, cout)).astype(dtype)
        _, _, gk, _ = _conv_pass(Tensor(xd, requires_grad=True), layer, Tensor(g))
        want = explicit_columns(xd, k, k).T @ g.reshape(n * h * w, cout)
        assert gk.dtype == dtype
        assert gk.tobytes() == want.reshape(k, k, cin, cout).tobytes()

    def test_tape_holds_no_columns_after_forward(self):
        x, tape, out, held = _held_after_forward(74, lambda x, layer: conv2d(x, layer))
        assert len(tape.entries) == 1 and out.shape == x.shape
        # the output is one input's worth; 3x3 columns would add nine
        assert held < 3 * x.data.nbytes

    def test_tape_pins_no_activation_a_backward_rule_does_not_read(self):
        norm = BatchNormLayer.create(16)
        x, tape, out, held = _held_after_forward(
            75, lambda x, layer: relu(batch_norm(conv2d(x, layer), norm, "train"))
        )
        assert len(tape.entries) == 3 and out.shape == x.shape
        # batch norm's centred input and the relu output, one input's worth
        # each; the conv output and the batch-norm output are freed
        assert held < 3 * x.data.nbytes


def _float32_conv(rng, c):
    """A trainable 3x3 float32 conv layer from c to c channels."""
    return Conv2dLayer(
        Tensor(rng.standard_normal((3, 3, c, c)), dtype=np.float32, requires_grad=True),
        Tensor(rng.standard_normal(c), dtype=np.float32, requires_grad=True),
    )


class TestConvColumnBudget:
    """Columns are built within COLUMN_BYTES, with the bits of one full GEMM."""

    # [n, h, w, c]: the first two exceed the budget (correlation runs of
    # 1 tile; kernel gradients by tap), the last fits
    SHAPES = [(8, 64, 64, 32), (8, 64, 64, 16), (2, 16, 16, 8)]

    @pytest.mark.parametrize("shape", SHAPES)
    def test_correlate_equals_the_single_gemm(self, shape):
        rng = np.random.default_rng(76)
        n, h, w, c = shape
        xd = rng.standard_normal(shape).astype(np.float32)
        kd = rng.standard_normal((3, 3, c, c)).astype(np.float32)
        splits = xd.nbytes * 9 > layers.COLUMN_BYTES
        assert splits == (shape != (2, 16, 16, 8))
        want = layers._columns(xd, 3, 3) @ kd.reshape(9 * c, c)
        assert layers._correlate(xd, kd).tobytes() == want.tobytes()

    @pytest.mark.parametrize(
        "channels", [(8, 16, 32, 64, 128), (32, 64, 128, 256, 512)], ids=["narrow", "default"]
    )
    def test_model_convs_split_within_the_budget_with_single_gemm_bits(
        self, channels, monkeypatch
    ):
        # every 3x3 conv of the model at --batch 8 --window 64: a column
        # build above the budget holds one tile (a correlation run) or one
        # tap (a kernel gradient whose kernel row is above the budget)
        builds = []
        real = layers._windows

        def windows(xp, kh, kw):
            cols = real(xp, kh, kw)
            builds.append((xp.shape[0], kh * kw, cols.nbytes))
            return cols

        monkeypatch.setattr(layers, "_windows", windows)
        rng = np.random.default_rng(79)
        n, t = 8, 64
        split_runs = tap_builds = 0
        for name, _, shape in _layout(DcnConfig(block_channels=channels, tile_size=t)):
            if shape[:2] != (3, 3):
                continue
            _, _, cin, cout = shape
            block = int(name[3])
            side = t >> (block if name.startswith("enc") else 4 - block)
            xd = rng.standard_normal((n, side, side, cin)).astype(np.float32)
            kd = rng.standard_normal(shape).astype(np.float32)
            g = rng.standard_normal((n, side, side, cout)).astype(np.float32)
            cols = layers._columns(xd, 3, 3)
            builds.clear()
            got = layers._correlate(xd, kd)
            assert all(b <= layers.COLUMN_BYTES or k == 1 for k, _, b in builds), name
            assert got.tobytes() == (cols @ kd.reshape(9 * cin, cout)).tobytes(), name
            split_runs += len(builds) > 1
            builds.clear()
            gk = layers._kernel_gradient(xd, g, 3, 3)
            assert all(b <= layers.COLUMN_BYTES or taps == 1 for _, taps, b in builds), name
            assert gk.tobytes() == (cols.T @ g.reshape(-1, cout)).tobytes(), name
            tap_builds += sum(taps == 1 for _, taps, _ in builds)
        # the 64 px convs split their correlations and go by taps
        assert split_runs >= 3 and tap_builds >= 18

    @pytest.mark.parametrize("shape", SHAPES)
    def test_kernel_gradient_equals_the_single_gemm(self, shape):
        rng = np.random.default_rng(77)
        n, h, w, c = shape
        layer = _float32_conv(rng, c)
        xd = rng.standard_normal(shape).astype(np.float32)
        g = rng.standard_normal(shape).astype(np.float32)
        _, _, gk, _ = _conv_pass(Tensor(xd, requires_grad=True), layer, Tensor(g))
        want = layers._columns(xd, 3, 3).T @ g.reshape(n * h * w, c)
        assert gk.tobytes() == want.tobytes()

    def test_forward_and_backward_stay_within_the_budget(self):
        rng = np.random.default_rng(78)
        layer = _float32_conv(rng, 32)
        x = Tensor(rng.standard_normal((8, 64, 64, 32)).astype(np.float32), requires_grad=True)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            with GradTape() as tape:
                grads = backward(tape, tsum(conv2d(x, layer)))
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert tape.gradient(grads, x).shape == x.shape
        # full-batch columns alone would be 9 * x.nbytes
        assert peak < 4 * x.data.nbytes + layers.COLUMN_BYTES


def _held_after_forward(seed, forward):
    """Bytes a recorded forward leaves allocated, for a 3x3 16-channel conv layer."""
    rng = np.random.default_rng(seed)
    c = 16
    layer = Conv2dLayer(
        Tensor(rng.standard_normal((3, 3, c, c)), dtype=np.float32, requires_grad=True),
        Tensor(np.zeros(c), dtype=np.float32, requires_grad=True),
    )
    x = Tensor(rng.standard_normal((4, 32, 32, c)).astype(np.float32), requires_grad=True)
    tracemalloc.start()
    try:
        with GradTape() as tape:
            before = tracemalloc.get_traced_memory()[0]
            out = forward(x, layer)
            held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    return x, tape, out, held
