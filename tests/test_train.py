import importlib
import json
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from dcn.autodiff import Tensor
from dcn.data import (
    Band,
    RasterStack,
    SyntheticSceneSpec,
    compute_ndvi,
    normalize,
    synth_scene,
    tile,
)
from dcn import model as model_module
from dcn.errors import DataError, NumericError
from dcn.model import DcnConfig, build, forward, load_checkpoint, save_checkpoint
from dcn.superpixel import SlicParams, SuperpixelMap, slic_segment, zscore_features
from dcn.train import (
    ADAM_SLICE,
    AdamState,
    ConfusionCounts,
    TrainConfig,
    adam_step,
    computational_cost,
    confusion,
    error_map,
    iou,
    overall_accuracy,
    report_json,
    superpixel_truth,
    train,
    write_ppm,
)

BANDS = ("RED", "GREEN", "BLUE", "NIR", "NDVI", "DSM")


def harness_records(n_tiles, size=64, seed0=100):
    """Synthetic training tiles with superpixel maps attached."""
    records = []
    for i in range(n_tiles):
        spec = SyntheticSceneSpec(
            height=size,
            width=size,
            buildings=(2, 4),
            building_size=(10, 20),
            building_height=(10.0, 30.0),
            vegetation=(1, 2),
            vegetation_radius=(4, 8),
            noise_std=0.01,
            seed=seed0 + i,
        )
        scene = normalize(compute_ndvi(synth_scene(spec)))[0]
        record = tile(scene, window=size, stride=size).tiles[0]
        spmap = slic_segment(
            zscore_features(record.stack.select(BANDS)),
            SlicParams(k_desired=(size * size) // 64, m=2.0),
        )
        records.append(replace(record, spmap=spmap))
    return records


def harness_config(**overrides):
    base = dict(
        input_bands=BANDS,
        block_channels=(8, 16, 32, 64, 128),
        embedding_dim=8,
        dropout_rate=0.0,
        dropout_blocks=(),
        tile_size=64,
        seed=0,
    )
    base.update(overrides)
    return DcnConfig(**base)


def pixel_iou(model, records):
    counts = ConfusionCounts(0, 0, 0, 0)
    for rec in records:
        data = rec.stack.select(model.config.input_bands).astype(np.float32)
        _, raster = forward(model, Tensor(data), rec.spmap, "infer")
        counts = counts + confusion(raster, rec.stack.band("MASK").astype(np.int64))
    return iou(counts)


def oracle_tally(pred, truth):
    tp = fp = fn = tn = 0
    for y in range(pred.shape[0]):
        for x in range(pred.shape[1]):
            p, t = pred[y, x], truth[y, x]
            if p == 1 and t == 1:
                tp += 1
            elif p == 1 and t == 0:
                fp += 1
            elif p == 0 and t == 1:
                fn += 1
            else:
                tn += 1
    return tp, fp, fn, tn


class TestAdam:
    def _param(self, value, name="w", dtype=np.float64):
        return {name: Tensor(np.asarray(value, dtype=dtype), requires_grad=True)}

    def test_zero_gradient_keeps_parameters(self):
        params = self._param([0.5, -1.5])
        state = AdamState.create(params)
        updated, state = adam_step(params, {"w": np.zeros(2)}, state)
        assert state.t == 1
        assert updated["w"].data.tobytes() == params["w"].data.tobytes()

    def test_first_step_moves_by_learning_rate(self):
        params = self._param([0.5])
        state = AdamState.create(params)
        updated, _ = adam_step(params, {"w": np.ones(1)}, state)
        assert abs(updated["w"].data[0] - (0.5 - 0.001)) < 1e-6

    def test_epsilon_sits_outside_the_root(self):
        # with g = eps the update is lr*g/(|g| + eps) = lr/2; an epsilon
        # inside the root would shrink it to about lr*1e-4
        params = self._param([0.0])
        state = AdamState.create(params)
        updated, _ = adam_step(params, {"w": np.full(1, 1e-8)}, state)
        assert abs(-updated["w"].data[0] - 0.001 / 2) < 1e-5 * 0.001

    def test_moment_recursion_matches_manual_oracle(self):
        rng = np.random.default_rng(30)
        params = self._param(rng.standard_normal(4))
        state = AdamState.create(params)
        value = params["w"].data.copy()
        m = np.zeros(4)
        v = np.zeros(4)
        for t in range(1, 4):
            g = rng.standard_normal(4)
            updated, state = adam_step(params, {"w": g}, state)
            m = 0.9 * m + 0.1 * g
            v = 0.999 * v + 0.001 * g * g
            mhat = m / (1 - 0.9**t)
            vhat = v / (1 - 0.999**t)
            value = value - 0.001 * mhat / (np.sqrt(vhat) + 1e-8)
            np.testing.assert_allclose(updated["w"].data, value, atol=1e-12)
            params = updated

    def test_ten_steps_bit_identical(self):
        outputs = []
        for _ in range(2):
            rng = np.random.default_rng(31)
            params = {"w": Tensor(rng.standard_normal(6).astype(np.float32), requires_grad=True)}
            state = AdamState.create(params)
            for _step in range(10):
                params, state = adam_step(params, {"w": rng.standard_normal(6)}, state)
            outputs.append(params["w"].data.tobytes())
        assert outputs[0] == outputs[1]

    def test_nan_gradient_names_parameter(self):
        params = self._param([1.0], name="enc0.conv1.kernel")
        state = AdamState.create(params)
        with pytest.raises(NumericError, match="enc0.conv1.kernel"):
            adam_step(params, {"enc0.conv1.kernel": np.array([np.nan])}, state)

    def test_non_finite_gradient_leaves_state_unchanged(self):
        # the inf sits on the later parameter: the earlier one's moments
        # and the step counter must not move before it is found
        params = {**self._param([1.0], name="a"), **self._param([2.0], name="b")}
        state = AdamState.create(params)
        _, state = adam_step(params, {"a": np.ones(1), "b": np.ones(1)}, state)
        m = {n: a.tobytes() for n, a in state.m.items()}
        v = {n: a.tobytes() for n, a in state.v.items()}
        with pytest.raises(NumericError, match="parameter b"):
            adam_step(params, {"a": np.full(1, 3.0), "b": np.array([np.inf])}, state)
        assert state.t == 1
        assert {n: a.tobytes() for n, a in state.m.items()} == m
        assert {n: a.tobytes() for n, a in state.v.items()} == v

    def test_codebook_rows_stay_in_unit_box(self):
        params = {
            "codebook.prototypes": Tensor(
                np.array([[0.9995, 0.0005], [0.5, 0.5]]), requires_grad=True
            )
        }
        state = AdamState.create(params)
        grads = {"codebook.prototypes": np.array([[-1.0, 1.0], [0.0, 0.0]])}
        updated, _ = adam_step(params, grads, state)
        book = updated["codebook.prototypes"].data
        assert book[0, 0] == 1.0 and book[0, 1] == 0.0
        assert book.min() >= 0.0 and book.max() <= 1.0

    def test_shape_mismatch_rejected(self):
        params = self._param([1.0, 2.0])
        state = AdamState.create(params)
        with pytest.raises(ValueError, match="shape"):
            adam_step(params, {"w": np.ones(3)}, state)

    def test_missing_gradient_names_parameter(self):
        params = {**self._param([1.0], name="a"), **self._param([2.0], name="b")}
        state = AdamState.create(params)
        with pytest.raises(ValueError, match="parameter b"):
            adam_step(params, {"a": np.ones(1)}, state)
        assert state.t == 0

    def test_state_coverage_mismatch_rejected(self):
        params = self._param([1.0])
        state = AdamState.create(self._param([1.0], name="other"))
        with pytest.raises(ValueError, match="state"):
            adam_step(params, {}, state)

    @staticmethod
    def _oracle_step(params, grads, m, v, t):
        """The Adam update as first written, one fresh array per term (frozen)."""
        b1, b2, lr, eps = 0.9, 0.999, 0.001, 1e-8
        c1 = 1.0 - b1**t
        c2 = 1.0 - b2**t
        out = {}
        for name, p in params.items():
            g = grads[name]
            m[name] = b1 * m[name] + (1.0 - b1) * g
            v[name] = b2 * v[name] + (1.0 - b2) * g * g
            step = lr * (m[name] / c1) / (np.sqrt(v[name] / c2) + eps)
            data = p - step.astype(p.dtype, copy=False)
            if name == "codebook.prototypes":
                data = np.clip(data, 0.0, 1.0)
            out[name] = data
        return out

    def _ten_steps_against_the_oracle(self, rng, values):
        """Ten ``adam_step`` calls equal ``_oracle_step`` bit for bit; returns the parameters."""
        params = {n: Tensor(a.copy(), requires_grad=True) for n, a in values.items()}
        state = AdamState.create(params)
        m = {n: np.zeros_like(a) for n, a in values.items()}
        v = {n: np.zeros_like(a) for n, a in values.items()}
        for t in range(1, 11):
            grads = {n: rng.standard_normal(a.shape).astype(a.dtype) for n, a in values.items()}
            # the codebook's first column is pushed up, its second down
            grads["codebook.prototypes"][:, 0] = -np.abs(grads["codebook.prototypes"][:, 0])
            grads["codebook.prototypes"][:, 1] = np.abs(grads["codebook.prototypes"][:, 1])
            given = {n: p.data.tobytes() for n, p in params.items()}
            updated, state = adam_step(params, grads, state)
            assert {n: p.data.tobytes() for n, p in params.items()} == given
            values = self._oracle_step(values, grads, m, v, t)
            for name in values:
                assert updated[name].data.dtype == values[name].dtype
                assert updated[name].data.tobytes() == values[name].tobytes(), (name, t)
                assert state.m[name].tobytes() == m[name].tobytes(), (name, t)
                assert state.v[name].tobytes() == v[name].tobytes(), (name, t)
            params = updated
        return params

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_ten_steps_match_the_frozen_oracle_bit_for_bit(self, dtype):
        rng = np.random.default_rng(32)
        values = {
            "w": rng.standard_normal((3, 4)).astype(dtype),
            # rows at the box edges, pushed outwards, so the clamp engages
            "codebook.prototypes": np.array([[0.9995, 0.0005], [0.5, 0.001]], dtype=dtype),
        }
        book = self._ten_steps_against_the_oracle(rng, values)["codebook.prototypes"].data
        assert book[0, 0] == 1.0 and book[0, 1] == 0.0

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_parameters_across_slices_match_the_frozen_oracle(self, dtype):
        # two whole slices and a remainder of 5; the codebook spans a slice
        # boundary, with its first row at the box edges
        rng = np.random.default_rng(33)
        book = rng.uniform(0.0, 1.0, (2, ADAM_SLICE // 2 + 5)).astype(dtype)
        book[0, :2] = 0.9995, 0.0005
        values = {
            "w": rng.standard_normal(2 * ADAM_SLICE + 5).astype(dtype),
            "codebook.prototypes": book,
        }
        book = self._ten_steps_against_the_oracle(rng, values)["codebook.prototypes"].data
        assert book[0, 0] == 1.0 and book[0, 1] == 0.0

    def test_requires_grad_preserved(self):
        params = self._param([1.0])
        updated, _ = adam_step(params, {"w": np.ones(1)}, AdamState.create(params))
        assert updated["w"].requires_grad


class TestTrainConfig:
    def test_defaults_follow_training_protocol(self):
        cfg = TrainConfig()
        assert cfg.batch_size == 64 and cfg.epochs == 250

    def test_bounds(self):
        with pytest.raises(ValueError):
            TrainConfig(batch_size=0)
        with pytest.raises(ValueError):
            TrainConfig(epochs=0)


class TestConfusion:
    def test_equal_masks_have_no_errors(self):
        rng = np.random.default_rng(32)
        mask = rng.integers(0, 2, (16, 16))
        c = confusion(mask, mask)
        assert c.fp == 0 and c.fn == 0
        assert c.total == 256

    def test_inverted_masks_have_no_hits(self):
        rng = np.random.default_rng(33)
        mask = rng.integers(0, 2, (16, 16))
        c = confusion(1 - mask, mask)
        assert c.tp == 0 and c.tn == 0

    def test_matches_double_loop_oracle(self):
        rng = np.random.default_rng(34)
        for _ in range(100):
            pred = rng.integers(0, 2, (16, 16))
            truth = rng.integers(0, 2, (16, 16))
            c = confusion(pred, truth)
            tp, fp, fn, tn = oracle_tally(pred, truth)
            assert (c.tp, c.fp, c.fn, c.tn) == (tp, fp, fn, tn)
            assert overall_accuracy(c) == (tp + tn) / 256
            assert iou(c) == tp / (tp + fn + fp + 1e-15)

    def test_non_binary_rejected(self):
        with pytest.raises(ValueError, match="binary"):
            confusion(np.array([[0, 2]]), np.array([[0, 1]]))
        with pytest.raises(ValueError, match="binary"):
            confusion(np.array([[0, 1]]), np.array([[0.5, 1.0]]))

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError, match="shape"):
            confusion(np.zeros((2, 2)), np.zeros((2, 3)))

    def test_negative_counts_rejected(self):
        with pytest.raises(ValueError):
            ConfusionCounts(tp=-1, fp=0, fn=0, tn=0)


class TestMetricFormulas:
    def test_overall_accuracy_example(self):
        assert overall_accuracy(ConfusionCounts(tp=3, fp=2, fn=1, tn=4)) == 0.7

    def test_overall_accuracy_extremes(self):
        assert overall_accuracy(ConfusionCounts(tp=5, fp=0, fn=0, tn=5)) == 1.0
        assert overall_accuracy(ConfusionCounts(tp=0, fp=5, fn=5, tn=0)) == 0.0

    def test_overall_accuracy_needs_pixels(self):
        with pytest.raises(ValueError):
            overall_accuracy(ConfusionCounts(0, 0, 0, 0))

    def test_iou_example(self):
        assert abs(iou(ConfusionCounts(tp=3, fp=2, fn=1, tn=4)) - 0.5) < 1e-12

    def test_iou_empty_intersection_guarded(self):
        assert iou(ConfusionCounts(tp=0, fp=0, fn=0, tn=9)) == 0.0

    def test_iou_perfect_mask(self):
        assert abs(iou(ConfusionCounts(tp=40, fp=0, fn=0, tn=24)) - 1.0) < 1e-12

    def test_iou_is_one_exactly_when_clean_and_nonempty(self):
        rng = np.random.default_rng(35)
        for _ in range(200):
            c = ConfusionCounts(*(int(v) for v in rng.integers(0, 4, 4)))
            near_one = abs(iou(c) - 1.0) < 1e-12
            assert near_one == (c.fp == 0 and c.fn == 0 and c.tp > 0)


class TestErrorMap:
    def test_all_hits_white(self):
        ones = np.ones((3, 3), dtype=np.int64)
        assert np.array_equal(error_map(ones, ones), np.full((3, 3, 3), 255, np.uint8))

    def test_all_false_alarms_red(self):
        img = error_map(np.ones((2, 2), np.int64), np.zeros((2, 2), np.int64))
        assert np.array_equal(img, np.tile(np.array([255, 0, 0], np.uint8), (2, 2, 1)))

    def test_misses_blue_and_rejections_black(self):
        pred = np.array([[0, 0]])
        truth = np.array([[1, 0]])
        img = error_map(pred, truth)
        assert np.array_equal(img[0, 0], [0, 0, 255])
        assert np.array_equal(img[0, 1], [0, 0, 0])

    def test_colors_reconcile_with_confusion(self):
        rng = np.random.default_rng(36)
        colors = {
            (255, 255, 255): "tp",
            (255, 0, 0): "fp",
            (0, 0, 255): "fn",
            (0, 0, 0): "tn",
        }
        for _ in range(20):
            pred = rng.integers(0, 2, (12, 12))
            truth = rng.integers(0, 2, (12, 12))
            img = error_map(pred, truth)
            c = confusion(pred, truth)
            for rgb, field in colors.items():
                count = int((img == np.array(rgb, np.uint8)).all(axis=2).sum())
                assert count == getattr(c, field)

    def test_non_binary_rejected(self):
        with pytest.raises(ValueError, match="binary"):
            error_map(np.array([[3]]), np.array([[1]]))

    def test_ppm_layout(self, tmp_path):
        rng = np.random.default_rng(37)
        img = error_map(rng.integers(0, 2, (5, 7)), rng.integers(0, 2, (5, 7)))
        path = str(tmp_path / "map.ppm")
        write_ppm(img, path)
        blob = open(path, "rb").read()
        header = b"P6\n7 5\n255\n"
        assert blob.startswith(header)
        assert blob[len(header) :] == img.tobytes()
        assert len(blob) == len(header) + 5 * 7 * 3

    def test_ppm_input_validation(self, tmp_path):
        with pytest.raises(ValueError):
            write_ppm(np.zeros((2, 2, 3), dtype=np.float32), str(tmp_path / "x.ppm"))
        with pytest.raises(ValueError):
            write_ppm(np.zeros((2, 2, 4), dtype=np.uint8), str(tmp_path / "x.ppm"))


class TestComputationalCost:
    def test_sixty_second_epochs(self):
        assert computational_cost(60, 1.0).cc_minutes == 1.0

    def test_published_budget(self):
        report = computational_cost(250, 110.64)
        assert abs(report.cc_minutes - 461.0) < 1e-9

    def test_zero_time(self):
        assert computational_cost(10, 0.0).cc_minutes == 0.0

    def test_negative_inputs_rejected(self):
        with pytest.raises(ValueError):
            computational_cost(0, 1.0)
        with pytest.raises(ValueError):
            computational_cost(10, -1.0)


class TestSuperpixelTruth:
    def test_majority_vote(self):
        labels = np.array([[0, 0, 1, 1], [0, 0, 1, 1], [2, 2, 3, 3], [2, 2, 3, 3]])
        spmap = SuperpixelMap.from_labels(labels, labels[:, :, None].astype(float))
        mask = np.zeros((4, 4), dtype=np.int64)
        mask[0, 2:] = 1  # half of segment 1: not a majority
        mask[2:, :2] = 1  # all of segment 2
        mask[2, 2] = 1  # quarter of segment 3
        truth = superpixel_truth(spmap, mask)
        assert truth.tolist() == [0, 1, 1, 0]


class TestTrainLoop:
    def test_single_epoch_single_tile(self):
        records = harness_records(1)
        model = build(harness_config(block_channels=(2, 2, 2, 2, 2), embedding_dim=2))
        history, report = train(model, records, [], TrainConfig(batch_size=1, epochs=1, seed=0))
        assert history.epoch == [0]
        assert len(history.loss) == 1 and np.isfinite(history.loss[0])
        assert history.val_iou == [None]
        assert report.ne == 1
        assert report.cc_minutes == report.ne * report.tt_seconds / 60.0

    def test_empty_training_set_rejected(self):
        model = build(harness_config())
        with pytest.raises(DataError, match="empty"):
            train(model, [], [], TrainConfig(epochs=1))

    def test_missing_superpixels_rejected(self):
        records = [replace(harness_records(1)[0], spmap=None)]
        model = build(harness_config())
        with pytest.raises(DataError, match="superpixel"):
            train(model, records, [], TrainConfig(epochs=1))

    def test_missing_mask_rejected(self):
        record = harness_records(1)[0]
        bands = tuple(b for b in record.stack.bands if b.role != "MASK")
        stripped = RasterStack(
            width=record.stack.width,
            height=record.stack.height,
            gsd=record.stack.gsd,
            bands=bands,
        )
        model = build(harness_config())
        with pytest.raises(DataError, match="MASK"):
            train(model, [replace(record, stack=stripped)], [], TrainConfig(epochs=1))

    def test_fixed_seed_is_bit_identical(self):
        records = harness_records(3)
        cfg = harness_config(block_channels=(2, 4, 4, 4, 4), embedding_dim=2)
        runs = []
        for _ in range(2):
            model = build(cfg)
            history, _ = train(
                model, records, records[:1], TrainConfig(batch_size=2, epochs=2, seed=9)
            )
            params = {n: t.data.tobytes() for n, t in model.parameters().items()}
            runs.append((history.loss, history.val_iou, params))
        assert runs[0] == runs[1]

    def test_validation_iou_equals_per_tile_forward(self, monkeypatch):
        # validation runs in chunks of two over five tiles; each epoch's
        # score must be the per-tile forward IoU of the model after that
        # epoch, which a run stopped there leaves behind
        monkeypatch.setattr(model_module, "INFER_CHUNK_BYTES", 2 * 9 * 8 * 64 * 64 * 4)
        records = harness_records(7)
        train_tiles, val_tiles = records[:2], records[2:]
        cfg = harness_config()
        config = TrainConfig(batch_size=2, epochs=3, seed=4)
        history, _ = train(build(cfg), train_tiles, val_tiles, config)
        want = []
        for epochs in (1, 2, 3):
            model = build(cfg)
            train(model, train_tiles, [], replace(config, epochs=epochs))
            want.append(pixel_iou(model, val_tiles))
        assert history.val_iou == want
        assert len(set(want)) > 1, want

    def test_epoch_cadence_checkpointing(self, tmp_path):
        records = harness_records(2)
        cfg = harness_config(block_channels=(2, 2, 2, 2, 2), embedding_dim=2)
        path = str(tmp_path / "latest.dcnw")
        model = build(cfg)
        train(
            model,
            records,
            [],
            TrainConfig(batch_size=2, epochs=4, seed=0, checkpoint_path=path),
        )
        loaded = load_checkpoint(path)
        assert loaded.global_step == 4
        assert loaded.config == cfg


    def test_non_finite_gradient_saves_the_pre_step_model(self, tmp_path, monkeypatch):
        # backward lets an inf gradient through; the second step's Adam
        # update refuses it, and the checkpoint holds the model after one step
        train_module = importlib.import_module("dcn.train")
        calls = []

        def gradients(model, prepared, indexes):
            grads = {n: np.zeros_like(p.data) for n, p in model.parameters().items()}
            if calls:
                grads["codebook.prototypes"][0, 0] = np.inf
            calls.append(indexes)
            return 0.5, grads

        monkeypatch.setattr(train_module, "_batch_gradients", gradients)
        cfg = harness_config(block_channels=(2, 2, 2, 2, 2), embedding_dim=2)
        path, want = str(tmp_path / "latest.dcnw"), str(tmp_path / "want.dcnw")
        fixture = build(cfg)
        fixture.global_step = 1
        save_checkpoint(fixture, want)  # zero gradients leave the weights
        config = TrainConfig(batch_size=1, epochs=1, checkpoint_path=path)
        with pytest.raises(NumericError, match="codebook.prototypes"):
            train(build(cfg), harness_records(2), [], config)
        assert len(calls) == 2
        assert open(path, "rb").read() == open(want, "rb").read()

    def test_refused_step_saves_the_pre_step_buffers(self, tmp_path, monkeypatch):
        # the real forward pass moves the batch-norm running statistics
        # before Adam refuses the inf gradient of the first step
        train_module = importlib.import_module("dcn.train")
        real = train_module._batch_gradients

        def gradients(model, prepared, indexes):
            loss, grads = real(model, prepared, indexes)
            grads["codebook.prototypes"][0, 0] = np.inf
            return loss, grads

        monkeypatch.setattr(train_module, "_batch_gradients", gradients)
        cfg = harness_config(block_channels=(2, 2, 2, 2, 2), embedding_dim=2)
        path = str(tmp_path / "latest.dcnw")
        config = TrainConfig(batch_size=2, epochs=1, checkpoint_path=path)
        with pytest.raises(NumericError, match="codebook.prototypes"):
            train(build(cfg), harness_records(2), [], config)
        saved, fresh = load_checkpoint(path), build(cfg)
        assert len(fresh.buffers()) == 30
        for name, tensor in fresh.buffers().items():
            np.testing.assert_array_equal(saved.buffers()[name].data, tensor.data, err_msg=name)
        for name, tensor in fresh.parameters().items():
            np.testing.assert_array_equal(saved.parameters()[name].data, tensor.data, err_msg=name)


def _traced_steps(monkeypatch, records):
    """Three-step ``train`` under tracemalloc, the model built inside the trace.

    Returns the traced bytes before ``build``, each step's (bytes at the
    entry of its ``_batch_gradients``, traced peak within it), and the
    parameter bytes.
    """
    train_module = importlib.import_module("dcn.train")
    real = train_module._batch_gradients
    steps = []

    def gradients(model, prepared, indexes):
        entry = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        result = real(model, prepared, indexes)
        steps.append((entry, tracemalloc.get_traced_memory()[1]))
        return result

    monkeypatch.setattr(train_module, "_batch_gradients", gradients)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        model = build(harness_config())
        param_bytes = sum(p.data.nbytes for p in model.parameters().values())
        train(model, records, [], TrainConfig(batch_size=2, epochs=1, seed=0))
    finally:
        tracemalloc.stop()
    return base, steps, param_bytes


class TestTrainMemory:
    """A step holds its own batch, the model and the Adam moments: no
    earlier step's gradients and no second copy of a training tile."""

    @pytest.fixture(scope="class")
    def records(self):
        return harness_records(6)

    def test_step_peak_excludes_the_previous_gradients(self, records, monkeypatch):
        _, steps, param_bytes = _traced_steps(monkeypatch, records)
        peaks = [peak for _, peak in steps]
        assert len(peaks) == 3
        # a step that held the previous step's gradients would peak a full
        # parameter set above the first step, which follows none
        assert max(peaks[1:]) - peaks[0] < param_bytes / 4, (peaks, param_bytes)

    def test_training_tiles_are_held_once(self, records, monkeypatch):
        base, steps, param_bytes = _traced_steps(monkeypatch, records)
        # held at the first step: the model, the two Adam moments and what
        # training keeps per tile beside the caller's record, its
        # per-segment truth and counts; an int64 MASK would add 8 bytes a
        # pixel and a float32 input copy 24
        per_tile = (steps[0][0] - base - 3 * param_bytes) / len(records)
        t = records[0].stack.width
        assert per_tile < 8 * t * t, per_tile


@pytest.fixture(scope="module")
def overfit_run():
    records = harness_records(8)
    model = build(harness_config())
    history, report = train(
        model, records, [], TrainConfig(batch_size=8, epochs=140, seed=0)
    )
    return model, records, history, report


class TestOverfitHarness:
    """End-to-end learning check: separable scenes must be memorized."""

    def test_training_iou_reaches_memorization(self, overfit_run):
        model, records, _, _ = overfit_run
        assert pixel_iou(model, records) >= 0.95

    def test_smoothed_loss_descends(self, overfit_run):
        _, _, history, _ = overfit_run
        window = 5
        smoothed = [
            float(np.mean(history.loss[i : i + window])) for i in range(20 - window + 1)
        ]
        drops = [b <= a + 1e-12 for a, b in zip(smoothed, smoothed[1:])]
        assert all(drops), smoothed

    def test_history_is_epoch_indexed(self, overfit_run):
        _, _, history, report = overfit_run
        assert history.epoch == list(range(140))
        assert len(history.loss) == 140
        assert report.ne == 140


class TestReportJson:
    def test_history_only_document(self):
        from dcn.train import TrainHistory

        doc = json.loads(report_json(TrainHistory(epoch=[0], loss=[1.0], val_iou=[None])))
        assert set(doc) == {"epoch", "loss", "val_iou"}
