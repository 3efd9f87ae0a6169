"""Competition layer: frozen hand values, argmin agreement, prototype pull."""

import numpy as np
import pytest

from dcn.autodiff import GradTape, Tensor, backward, grad_check, mul, square, tsum
from dcn.competition import (
    Codebook,
    class_distances,
    competition_loss,
    softmin_probs,
    winner,
)
from dcn.errors import NumericError

def book(rows, dtype=np.float64):
    return Codebook(Tensor(np.asarray(rows), dtype=dtype))


class TestCodebook:
    def test_create_is_symmetric_inside_unit_box(self):
        cb = Codebook.create(4)
        np.testing.assert_allclose(cb.prototypes.data[0], 0.25)
        np.testing.assert_allclose(cb.prototypes.data[1], 0.75)
        assert cb.prototypes.requires_grad
        assert cb.dim == 4

    def test_validation(self):
        with pytest.raises(ValueError):
            Codebook.create(0)
        with pytest.raises(ValueError):
            Codebook(Tensor(np.ones((3, 4))))
        with pytest.raises(ValueError):
            Codebook(Tensor(np.ones(4)))


class TestClassDistances:
    def test_frozen_two_dimensional_example(self):
        # activation [0.9, 0.8] against corners [0,0] and [1,1]
        x = Tensor(np.log([9.0, 4.0]), dtype=np.float64)
        d = class_distances(x, book([[0.0, 0.0], [1.0, 1.0]]))
        np.testing.assert_allclose(d.data, [0.725, 0.025], atol=1e-12)

    def test_activated_form_zero_iff_prototype_matches_activation(self):
        rng = np.random.default_rng(401)
        x = Tensor(rng.normal(size=5), dtype=np.float64)
        act = 1.0 / (1.0 + np.exp(-x.data))
        d = class_distances(x, book(np.stack([act, act + 0.1])))
        assert d.data[0] == 0.0
        assert d.data[1] > 0.0

    def test_distances_are_never_negative(self):
        rng = np.random.default_rng(402)
        for _ in range(50):
            x = Tensor(rng.normal(size=4) * 3.0, dtype=np.float64)
            cb = book(rng.normal(size=(2, 4)))
            assert (class_distances(x, cb).data >= 0.0).all()

    def test_extreme_embeddings_saturate_without_overflow(self):
        x = Tensor([-500.0, 500.0], dtype=np.float64)
        with np.errstate(over="raise", invalid="raise"):
            d = class_distances(x, book([[0.0, 1.0], [1.0, 0.0]]))
        np.testing.assert_array_equal(d.data, [0.0, 1.0])

    def test_matrix_input_matches_per_row_calls(self):
        rng = np.random.default_rng(403)
        X = rng.normal(size=(6, 3))
        cb = book(rng.normal(size=(2, 3)))
        d = class_distances(Tensor(X, dtype=np.float64), cb)
        assert d.shape == (6, 2)
        for s in range(6):
            row = class_distances(Tensor(X[s], dtype=np.float64), cb)
            np.testing.assert_allclose(d.data[s], row.data, atol=1e-12)

    def test_validation(self):
        cb = book(np.ones((2, 3)))
        with pytest.raises(ValueError):
            class_distances(Tensor(np.ones(4), dtype=np.float64), cb)
        with pytest.raises(ValueError):
            class_distances(Tensor(np.ones((2, 2, 3)), dtype=np.float64), cb)
        with pytest.raises(ValueError):
            class_distances(Tensor(np.ones(3, dtype=np.float32)), cb)

    def test_gradients_match_finite_differences(self):
        rng = np.random.default_rng(404)
        for trial in range(20):
            x = Tensor(rng.normal(size=4), dtype=np.float64)
            proto = Tensor(rng.uniform(-0.5, 1.5, size=(2, 4)), dtype=np.float64)
            report = grad_check(
                lambda x, p: tsum(square(class_distances(x, Codebook(p)))),
                [x, proto],
                tolerance=1e-4,
            )
            assert report.passed, f"trial {trial}: {report}"

    def test_matrix_gradients_match_finite_differences(self):
        rng = np.random.default_rng(405)
        X = Tensor(rng.normal(size=(5, 3)), dtype=np.float64)
        proto = Tensor(rng.uniform(0.1, 0.9, size=(2, 3)), dtype=np.float64)
        report = grad_check(
            lambda X, p: tsum(square(class_distances(X, Codebook(p)))),
            [X, proto],
            tolerance=1e-4,
        )
        assert report.passed, str(report)


class TestWinner:
    def test_frozen_example(self):
        assert winner(np.array([0.725, 0.025])) == 1

    def test_tie_goes_to_class_zero(self):
        assert winner(np.array([0.3, 0.3])) == 0

    def test_zero_distance_wins(self):
        assert winner(np.array([0.0, 0.7])) == 0

    def test_matrix_input(self):
        d = np.array([[0.1, 0.2], [5.0, 1.0], [2.0, 2.0]])
        np.testing.assert_array_equal(winner(d), [0, 1, 0])

    def test_tensor_input(self):
        assert winner(Tensor([3.0, 1.0])) == 1

    def test_nan_rejected(self):
        with pytest.raises(NumericError):
            winner(np.array([np.nan, 1.0]))

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            winner(np.array([1.0, 2.0, 3.0]))


class TestSoftminProbs:
    def test_equal_distances_split_evenly(self):
        for c in (-3.0, 0.0, 7.5):
            p = softmin_probs(Tensor([c, c], dtype=np.float64))
            np.testing.assert_allclose(p.data, [0.5, 0.5], atol=1e-15)

    def test_frozen_example(self):
        p = softmin_probs(Tensor([0.725, 0.025], dtype=np.float64))
        want = 1.0 / (1.0 + np.exp(-0.7))
        np.testing.assert_allclose(p.data[1], want, atol=1e-12)

    def test_extreme_gap_saturates_without_overflow(self):
        with np.errstate(over="raise", invalid="raise"):
            p = softmin_probs(Tensor([0.0, 1000.0], dtype=np.float64))
        np.testing.assert_allclose(p.data, [1.0, 0.0], atol=1e-300)

    def test_rows_sum_to_one(self):
        rng = np.random.default_rng(406)
        d = Tensor(rng.uniform(0, 20, size=(50, 2)), dtype=np.float64)
        p = softmin_probs(d)
        np.testing.assert_allclose(p.data.sum(axis=1), 1.0, atol=1e-12)

    def test_argmax_agrees_with_winner_everywhere(self):
        rng = np.random.default_rng(407)
        d = rng.uniform(0, 10, size=(10000, 2))
        ties = np.array([[c, c + eps] for c in (0.0, 1.0, 5.0) for eps in (0.0, 1e-12, -1e-12)])
        for batch in (d, ties):
            p = softmin_probs(Tensor(batch, dtype=np.float64))
            np.testing.assert_array_equal(p.data.argmax(axis=1), winner(batch))

    def test_shift_invariance(self):
        rng = np.random.default_rng(408)
        for _ in range(50):
            d = rng.uniform(0, 5, size=2)
            c = rng.normal() * 100
            base = softmin_probs(Tensor(d, dtype=np.float64)).data
            shifted = softmin_probs(Tensor(d + c, dtype=np.float64)).data
            np.testing.assert_allclose(base, shifted, atol=1e-12)
            assert winner(d) == winner(d + c)

    def test_gradients_match_finite_differences(self):
        rng = np.random.default_rng(409)
        probe = Tensor(np.array([[1.0, 3.0]] * 4), dtype=np.float64)
        for trial in range(20):
            d = Tensor(rng.uniform(0.1, 4.0, size=(4, 2)), dtype=np.float64)
            # asymmetric readout; the row sums of a softmax are constant
            report = grad_check(
                lambda t: tsum(mul(softmin_probs(t), probe)), [d], 1e-4
            )
            assert report.passed, f"trial {trial}: {report}"


class TestCompetitionLoss:
    def test_perfect_probabilities_give_zero_loss(self):
        probs = Tensor(np.array([[1.0, 0.0], [0.0, 1.0]]), dtype=np.float64)
        loss = competition_loss(probs, np.array([0, 1]))
        assert loss.data == pytest.approx(0.0, abs=1e-12)

    def test_uniform_probabilities_give_log_two(self):
        probs = Tensor(np.full((5, 2), 0.5), dtype=np.float64)
        loss = competition_loss(probs, np.array([0, 1, 1, 0, 1]))
        assert loss.data == pytest.approx(np.log(2.0), rel=1e-12)

    def test_pixel_count_weighting(self):
        probs = Tensor(np.array([[0.9, 0.1], [0.2, 0.8]]), dtype=np.float64)
        truth = np.array([0, 1])
        w = np.array([3.0, 1.0])
        got = competition_loss(probs, truth, w)
        want = (3.0 * -np.log(0.9) + 1.0 * -np.log(0.8)) / 4.0
        assert got.data == pytest.approx(want, rel=1e-12)

    def test_zero_probability_is_floored(self):
        probs = Tensor(np.array([[0.0, 1.0]]), dtype=np.float64)
        loss = competition_loss(probs, np.array([0]))
        assert loss.data == pytest.approx(-np.log(1e-12), rel=1e-12)
        assert np.isfinite(loss.data)

    def test_validation(self):
        good = Tensor(np.full((2, 2), 0.5), dtype=np.float64)
        with pytest.raises(ValueError):
            competition_loss(Tensor(np.array([[0.9, 0.4]]), dtype=np.float64), [0])
        with pytest.raises(ValueError):
            competition_loss(good, np.array([0, 2]))
        with pytest.raises(ValueError):
            competition_loss(good, np.array([0]))
        with pytest.raises(ValueError):
            competition_loss(good, np.array([0, 1]), np.array([1.0, -1.0]))
        with pytest.raises(ValueError):
            competition_loss(Tensor(np.full(2, 0.5), dtype=np.float64), np.array([0]))

    def test_end_to_end_gradients_match_finite_differences(self):
        rng = np.random.default_rng(410)
        truth = np.array([1, 0, 1])
        weights = np.array([4.0, 2.0, 6.0])
        X = Tensor(rng.normal(size=(3, 4)), dtype=np.float64)
        proto = Tensor(rng.uniform(0.1, 0.9, size=(2, 4)), dtype=np.float64)

        def f(X, p):
            d = class_distances(X, Codebook(p))
            return competition_loss(softmin_probs(d), truth, weights)

        report = grad_check(f, [X, proto], tolerance=1e-4)
        assert report.passed, str(report)


class TestPrototypePull:
    def test_gradient_step_moves_true_prototype_closer(self):
        rng = np.random.default_rng(411)
        lr = 1e-3
        for trial in range(100):
            xd = rng.normal(size=4)
            wd = rng.uniform(0.1, 0.9, size=(2, 4))
            t = int(rng.integers(0, 2))
            proto = Tensor(wd, dtype=np.float64, requires_grad=True)
            X = Tensor(xd[None, :], dtype=np.float64)
            with GradTape() as tape:
                d = class_distances(X, Codebook(proto))
                loss = competition_loss(softmin_probs(d), np.array([t]))
            g = tape.gradient(backward(tape, loss), proto).data
            stepped = book(wd - lr * g)
            before = class_distances(Tensor(xd, dtype=np.float64), book(wd))
            after = class_distances(Tensor(xd, dtype=np.float64), stepped)
            assert after.data[t] < before.data[t], f"trial {trial}"
