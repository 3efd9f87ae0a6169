"""Tensor and tape behaviour, with finite differences as the oracle."""

import numpy as np
import pytest

from dcn.autodiff import (
    GradTape,
    Tensor,
    active_tape,
    add,
    backward,
    div,
    finite_difference_gradient,
    grad_check,
    mul,
    reshape,
    sqrt,
    square,
    sub,
    tmean,
    tsum,
)
from dcn.errors import NumericError


class TestFiniteDifferenceOracle:
    """The numeric oracle itself, checked against hand-derived slopes."""

    def test_sum_of_squares_gradient(self):
        # d/dx sum(x^2) = 2x, so [2, 4] maps to [4, 8]
        x = Tensor([2.0, 4.0], dtype=np.float64)
        g = finite_difference_gradient(lambda t: float((t.data ** 2).sum()), x, h=1e-5)
        np.testing.assert_allclose(g.data, [4.0, 8.0], atol=1e-6)

    def test_logistic_slope_at_zero(self):
        # the logistic has slope exactly 1/4 at the origin
        x = Tensor([0.0], dtype=np.float64)
        g = finite_difference_gradient(
            lambda t: float(1.0 / (1.0 + np.exp(-t.data[0]))), x, h=1e-5
        )
        np.testing.assert_allclose(g.data, [0.25], atol=1e-8)

    def test_linear_function_is_near_exact(self):
        rng = np.random.default_rng(11)
        x = Tensor(rng.normal(size=7), dtype=np.float64)
        g = finite_difference_gradient(lambda t: float(3.0 * t.data.sum()), x, h=1e-5)
        np.testing.assert_allclose(g.data, np.full(7, 3.0), atol=1e-10)

    def test_requires_float64(self):
        x = Tensor([1.0, 2.0])
        with pytest.raises(ValueError):
            finite_difference_gradient(lambda t: float(t.data.sum()), x, h=1e-5)

    def test_rejects_nonpositive_step(self):
        x = Tensor([1.0], dtype=np.float64)
        with pytest.raises(ValueError):
            finite_difference_gradient(lambda t: float(t.data.sum()), x, h=0.0)


class TestTensorBasics:
    def test_constructor_copies_its_input(self):
        src = np.ones((2, 2), dtype=np.float32)
        t = Tensor(src)
        src[0, 0] = 5.0
        assert t.data[0, 0] == 1.0

    def test_default_dtype_is_float32(self):
        assert Tensor([1, 2, 3]).dtype == np.float32

    def test_scalar_tensor(self):
        t = Tensor(2.5)
        assert t.shape == ()
        assert t.item() == 2.5

    def test_item_rejects_non_scalar(self):
        with pytest.raises(ValueError):
            Tensor([1.0, 2.0]).item()

    def test_zero_length_dimension_rejected(self):
        with pytest.raises(ValueError):
            Tensor(np.zeros((2, 0)))

    def test_non_finite_construction_rejected(self):
        with pytest.raises(NumericError):
            Tensor([np.nan, 1.0])
        with pytest.raises(NumericError):
            Tensor([np.inf])

    def test_dtype_mismatch_rejected(self):
        a = Tensor([1.0], dtype=np.float32)
        b = Tensor([1.0], dtype=np.float64)
        with pytest.raises(ValueError):
            add(a, b)


class TestForwardValues:
    def test_elementwise_arithmetic(self):
        a = Tensor([1.0, 2.0, 3.0])
        b = Tensor([4.0, 5.0, 6.0])
        np.testing.assert_allclose(add(a, b).data, [5.0, 7.0, 9.0])
        np.testing.assert_allclose(sub(a, b).data, [-3.0, -3.0, -3.0])
        np.testing.assert_allclose(mul(a, b).data, [4.0, 10.0, 18.0])
        np.testing.assert_allclose(div(b, a).data, [4.0, 2.5, 2.0])

    def test_python_scalar_operands(self):
        a = Tensor([1.0, 2.0])
        np.testing.assert_allclose(add(a, 1.0).data, [2.0, 3.0])
        np.testing.assert_allclose(sub(2.0, a).data, [1.0, 0.0])
        np.testing.assert_allclose(mul(3.0, a).data, [3.0, 6.0])
        np.testing.assert_allclose(div(2.0, a).data, [2.0, 1.0])

    def test_unary_maps(self):
        a = Tensor([1.0, 4.0])
        np.testing.assert_allclose(square(a).data, [1.0, 16.0])
        np.testing.assert_allclose(sqrt(a).data, [1.0, 2.0])

    def test_reductions_and_reshape(self):
        a = Tensor([[1.0, 2.0], [3.0, 4.0]])
        assert tsum(a).item() == 10.0
        assert tmean(a).item() == 2.5
        np.testing.assert_allclose(tsum(a, axis=0).data, [4.0, 6.0])
        np.testing.assert_allclose(tmean(a, axis=1).data, [1.5, 3.5])
        assert reshape(a, (4,)).shape == (4,)

    def test_channel_vector_broadcast(self):
        a = Tensor(np.ones((2, 2, 3), dtype=np.float32))
        c = Tensor([1.0, 2.0, 3.0])
        out = add(a, c)
        np.testing.assert_allclose(out.data[0, 0], [2.0, 3.0, 4.0])
        np.testing.assert_allclose(out.data[1, 1], [2.0, 3.0, 4.0])

    def test_disallowed_broadcasts_rejected(self):
        with pytest.raises(ValueError):
            add(Tensor(np.ones((2, 3))), Tensor(np.ones(2)))
        with pytest.raises(ValueError):
            add(Tensor(np.ones((2, 3))), Tensor(np.ones((3, 2))))
        with pytest.raises(ValueError):
            mul(Tensor(np.ones((4, 1))), Tensor(np.ones((4, 3))))

    def test_non_finite_op_output_rejected(self):
        with pytest.raises(NumericError):
            div(Tensor([1.0]), Tensor([0.0]))
        with pytest.raises(NumericError):
            sqrt(Tensor([-1.0]))


class TestTapeMechanics:
    def test_node_ids_are_serials_no_dropped_output_lends(self):
        w = Tensor([0.5, -1.5], dtype=np.float64, requires_grad=True)
        with GradTape() as tape:
            for _ in range(200):
                square(mul(w, 3.0))  # each output is freed at once
            x = Tensor([2.0, -3.0], dtype=np.float64, requires_grad=True)
            y = tsum(mul(x, x))
        ids = [entry.output_id for entry in tape.entries]
        assert len(set(ids)) == len(ids) == 402
        assert x.node not in ids and w.node not in ids
        grads = backward(tape, y)
        np.testing.assert_array_equal(tape.gradient(grads, x).data, [4.0, -6.0])
        np.testing.assert_array_equal(tape.gradient(grads, w).data, [0.0, 0.0])
        assert tape.gradient(grads, Tensor([1.0], dtype=np.float64)) is None

    def test_no_recording_without_tape(self):
        a = Tensor([1.0], requires_grad=True)
        assert active_tape() is None
        out = square(a)
        assert out.requires_grad

    def test_only_innermost_tape_records(self):
        a = Tensor([1.0], requires_grad=True)
        with GradTape() as outer:
            with GradTape() as inner:
                square(a)
            assert len(inner.entries) == 1
        assert len(outer.entries) == 0

    def test_ops_without_grad_inputs_are_not_recorded(self):
        a = Tensor([1.0])
        with GradTape() as tape:
            square(a)
        assert len(tape.entries) == 0

    def test_entries_are_topologically_ordered(self):
        a = Tensor([2.0], requires_grad=True)
        with GradTape() as tape:
            tsum(square(add(a, 1.0)))
        for entry in tape.entries:
            assert all(i < entry.output_id for i in entry.input_ids)

    def test_backward_requires_scalar_loss(self):
        a = Tensor([1.0, 2.0], requires_grad=True)
        with GradTape() as tape:
            y = square(a)
        with pytest.raises(ValueError):
            backward(tape, y)

    def test_backward_requires_loss_from_tape(self):
        a = Tensor(1.0, requires_grad=True)
        with GradTape() as tape:
            tape.watch(a)
        with pytest.raises(ValueError):
            backward(tape, a)

    def test_backward_consumes_the_tape_reruns_are_bit_identical(self):
        rng = np.random.default_rng(7)
        x = Tensor(rng.normal(size=(4, 3)), dtype=np.float64, requires_grad=True)
        w = Tensor(rng.normal(size=3), dtype=np.float64, requires_grad=True)
        runs = []
        for _ in range(2):
            with GradTape() as tape:
                y = tsum(square(add(mul(x, w), 0.5)))
            runs.append(backward(tape, y))
            assert tape.entries == ()
            with pytest.raises(ValueError, match="consumed"):
                backward(tape, y)
        g1, g2 = runs
        assert set(g1) == set(g2) == {x.node, w.node}
        for nid in g1:
            assert g1[nid].data.tobytes() == g2[nid].data.tobytes()

    def test_reused_input_accumulates_gradient(self):
        x = Tensor([1.0, 2.0, 3.0], dtype=np.float64, requires_grad=True)
        with GradTape() as tape:
            y = tsum(mul(x, x))
        g = tape.gradient(backward(tape, y), x)
        np.testing.assert_allclose(g.data, 2.0 * x.data, rtol=1e-12)

    def test_unused_watched_leaf_gets_zero_gradient(self):
        x = Tensor([1.0], dtype=np.float64, requires_grad=True)
        z = Tensor([5.0, 6.0], dtype=np.float64, requires_grad=True)
        with GradTape() as tape:
            tape.watch(z)
            y = tsum(square(x))
        g = tape.gradient(backward(tape, y), z)
        assert g.shape == (2,)
        assert np.all(g.data == 0.0)

    def test_chain_rule_known_value(self):
        # y = sum((2x + 1)^2), dy/dx = 4(2x + 1); at x = [1, 2] that is [12, 20]
        x = Tensor([1.0, 2.0], dtype=np.float64, requires_grad=True)
        with GradTape() as tape:
            y = tsum(square(add(mul(x, 2.0), 1.0)))
        g = tape.gradient(backward(tape, y), x)
        np.testing.assert_allclose(g.data, [12.0, 20.0], rtol=1e-12)


def _check(f, inputs, seed_note=""):
    report = grad_check(f, inputs, tolerance=1e-4)
    assert report.passed, f"{seed_note}: {report}"


class TestPerOpGradients:
    """Every op's backward rule against finite differences, many trials."""

    def test_add_and_sub(self):
        rng = np.random.default_rng(101)
        for trial in range(100):
            a = Tensor(rng.normal(size=(2, 3)), dtype=np.float64)
            b = Tensor(rng.normal(size=(2, 3)), dtype=np.float64)
            _check(lambda a, b: tsum(add(a, b)), [a, b], f"add trial {trial}")
            _check(lambda a, b: tsum(sub(a, b)), [a, b], f"sub trial {trial}")

    def test_mul(self):
        rng = np.random.default_rng(102)
        for trial in range(100):
            a = Tensor(rng.normal(size=(2, 3)), dtype=np.float64)
            b = Tensor(rng.normal(size=(2, 3)), dtype=np.float64)
            _check(lambda a, b: tsum(mul(a, b)), [a, b], f"mul trial {trial}")

    def test_div(self):
        rng = np.random.default_rng(103)
        for trial in range(100):
            a = Tensor(rng.normal(size=(2, 3)), dtype=np.float64)
            b = Tensor(rng.uniform(0.5, 2.5, size=(2, 3)), dtype=np.float64)
            _check(lambda a, b: tsum(div(a, b)), [a, b], f"div trial {trial}")

    def test_unary_ops(self):
        rng = np.random.default_rng(104)
        for trial in range(100):
            x = Tensor(rng.normal(size=5), dtype=np.float64)
            p = Tensor(rng.uniform(0.5, 3.0, size=5), dtype=np.float64)
            _check(lambda t: tsum(square(t)), [x], f"square trial {trial}")
            _check(lambda t: tsum(sqrt(t)), [p], f"sqrt trial {trial}")

    def test_reductions(self):
        rng = np.random.default_rng(105)
        for trial in range(100):
            x = Tensor(rng.normal(size=(2, 3)), dtype=np.float64)
            axis = [None, 0, 1, -1, (0, 1)][trial % 5]
            _check(lambda t: tsum(tsum(t, axis)), [x], f"sum axis={axis} trial {trial}")
            _check(lambda t: tsum(tmean(t, axis)), [x], f"mean axis={axis} trial {trial}")

    def test_reshape(self):
        rng = np.random.default_rng(106)
        for trial in range(100):
            x = Tensor(rng.normal(size=(2, 3)), dtype=np.float64)
            _check(
                lambda t: tsum(square(reshape(t, (3, 2)))),
                [x],
                f"reshape trial {trial}",
            )

    def test_channel_broadcast_gradients(self):
        rng = np.random.default_rng(107)
        for trial in range(100):
            a = Tensor(rng.normal(size=(2, 2, 3)), dtype=np.float64)
            c = Tensor(rng.normal(size=3), dtype=np.float64)
            _check(lambda a, c: tsum(mul(a, c)), [a, c], f"bcast mul trial {trial}")
            _check(lambda a, c: tsum(add(a, c)), [a, c], f"bcast add trial {trial}")
            d = Tensor(rng.uniform(0.5, 2.0, size=3), dtype=np.float64)
            _check(lambda a, d: tsum(div(a, d)), [a, d], f"bcast div trial {trial}")

    def test_scalar_tensor_broadcast_gradients(self):
        rng = np.random.default_rng(108)
        for trial in range(50):
            a = Tensor(rng.normal(size=(2, 3)), dtype=np.float64)
            s = Tensor(rng.uniform(0.5, 2.0), dtype=np.float64)
            _check(lambda a, s: tsum(mul(a, s)), [a, s], f"scalar mul trial {trial}")
            _check(lambda a, s: tsum(div(a, s)), [a, s], f"scalar div trial {trial}")

    def test_composite_expression(self):
        rng = np.random.default_rng(109)
        for trial in range(50):
            x = Tensor(rng.uniform(0.5, 1.5, size=(2, 3)), dtype=np.float64)
            w = Tensor(rng.normal(size=3), dtype=np.float64)

            def f(x, w):
                z = add(mul(x, w), 0.25)
                return add(tmean(square(z)), tsum(sqrt(x)))

            _check(f, [x, w], f"composite trial {trial}")


class TestGradCheckApi:
    def test_report_carries_per_input_errors(self):
        x = Tensor([1.0, 2.0], dtype=np.float64)
        w = Tensor([3.0], dtype=np.float64)
        report = grad_check(lambda x, w: add(tsum(mul(x, 2.0)), tsum(w)), [x, w], 1e-4)
        assert report.passed
        assert set(report.per_input) == {0, 1}
        assert "PASS" in str(report)

    def test_rejects_float32_inputs(self):
        with pytest.raises(ValueError):
            grad_check(lambda t: tsum(t), [Tensor([1.0])], 1e-4)

    def test_rejects_non_scalar_objective(self):
        x = Tensor([1.0, 2.0], dtype=np.float64)
        with pytest.raises(ValueError):
            grad_check(lambda t: square(t), [x], 1e-4)

    def test_rejects_nonpositive_tolerance(self):
        x = Tensor([1.0], dtype=np.float64)
        with pytest.raises(ValueError):
            grad_check(lambda t: tsum(t), [x], 0.0)


class TestBackwardExamplesAndProperties:
    def test_sum_gives_unit_gradient(self):
        x = Tensor([4.0, -1.0, 2.0], dtype=np.float64, requires_grad=True)
        with GradTape() as tape:
            y = tsum(x)
        g = tape.gradient(backward(tape, y), x)
        np.testing.assert_array_equal(g.data, [1.0, 1.0, 1.0])

    def test_zero_scaled_loss_gives_zero_gradient(self):
        x = Tensor([4.0, -1.0, 2.0], dtype=np.float64, requires_grad=True)
        with GradTape() as tape:
            y = mul(tsum(x), 0.0)
        g = tape.gradient(backward(tape, y), x)
        np.testing.assert_array_equal(g.data, [0.0, 0.0, 0.0])

    def test_gradient_is_linear_in_the_loss(self):
        rng = np.random.default_rng(150)
        for trial in range(20):
            xd = rng.uniform(0.5, 2.0, size=6)
            a, b = rng.normal(size=2)

            def grads(build):
                x = Tensor(xd, dtype=np.float64, requires_grad=True)
                with GradTape() as tape:
                    y = build(x)
                return tape.gradient(backward(tape, y), x).data

            gf = grads(lambda x: tsum(square(x)))
            gg = grads(lambda x: tsum(mul(sqrt(x), 2.0)))
            combined = grads(
                lambda x: add(mul(tsum(square(x)), a), mul(tsum(mul(sqrt(x), 2.0)), b))
            )
            np.testing.assert_allclose(
                combined, a * gf + b * gg, atol=1e-10, err_msg=f"trial {trial}"
            )

    def test_corrupted_backward_rule_is_caught(self):
        from dcn.autodiff import _apply

        def bad_square(t):
            out = t.data ** 2

            def bwd(g):
                return (3.0 * g * t.data,)  # wrong factor on purpose

            return _apply("bad_square", (t,), out, bwd)

        x = Tensor([1.3, -0.7, 2.1], dtype=np.float64)
        report = grad_check(lambda t: tsum(bad_square(t)), [x], 1e-4)
        assert not report.passed
        assert report.max_rel_error > report.tolerance


class TestBackwardReleasesGradients:
    def test_map_holds_watched_leaves_and_no_produced_node(self):
        rng = np.random.default_rng(160)
        x = Tensor(rng.normal(size=(4, 3)), dtype=np.float64, requires_grad=True)
        w = Tensor(rng.normal(size=3), dtype=np.float64, requires_grad=True)
        const = Tensor(rng.normal(size=(4, 3)), dtype=np.float64)
        unused = Tensor(rng.normal(size=2), dtype=np.float64, requires_grad=True)
        with GradTape() as tape:
            tape.watch(unused)
            h = mul(add(mul(x, w), const), x)
            y = tsum(square(h))
        produced = {entry.output_id for entry in tape.entries}
        grads = backward(tape, y)
        assert set(grads) == {t.node for t in (x, w, unused)}
        assert not produced & set(grads)
        assert tape.gradient(grads, const) is None
        np.testing.assert_array_equal(tape.gradient(grads, unused).data, [0.0, 0.0])
        assert tape.gradient(grads, h) is None
        assert tape.gradient(grads, y) is None

    def test_mul_rule_skips_the_operand_without_grad(self):
        rng = np.random.default_rng(161)
        x = Tensor(np.full((2, 4, 4, 3), 1.5, dtype=np.float32), requires_grad=True)
        mask = Tensor((rng.random(x.shape) < 0.5).astype(np.float32) * 2)
        with GradTape() as tape:
            out = mul(x, mask)
        (entry,) = tape.entries
        assert entry.op == "mul"
        gx, gmask = entry.backward(np.ones_like(out.data))
        assert gmask is None
        np.testing.assert_array_equal(gx, out.data / 1.5)

    def test_dropout_rule_keeps_the_mask_and_matches_mul(self):
        from dcn.layers import DropoutLayer, dropout

        rng = np.random.default_rng(162)
        x = Tensor(rng.normal(size=(2, 4, 4, 3)).astype(np.float32), requires_grad=True)
        g = rng.normal(size=x.shape).astype(np.float32)
        with GradTape() as tape:
            out = dropout(x, DropoutLayer(0.5, seed=161), "train")
        (entry,) = tape.entries
        assert entry.op == "dropout" and entry.input_ids == (x.node,)
        mask = DropoutLayer(0.5, seed=161).rng.random(x.shape) < 0.5
        scaled = mask.astype(np.float32) / np.float32(0.5)
        assert out.data.tobytes() == (x.data * scaled).tobytes()
        (gx,) = entry.backward(g)
        # the same bits as mul's rule for the input times the mask
        assert gx.tobytes() == (g * scaled).tobytes()
        # the rule reads the mask alone, so it keeps no input
        cells = [c.cell_contents for c in entry.backward.__closure__]
        assert not any(c is x.data for c in cells)
