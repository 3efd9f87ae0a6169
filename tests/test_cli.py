import importlib
import json
import os
import re
import shutil
import struct
import subprocess
import sys
import time
from dataclasses import replace

import numpy as np
import pytest

import dcn
from dcn import cli
from dcn import model as model_module
from dcn.data import read_bmsr, write_bmsr
from dcn.errors import NumericError
from dcn.model import load_checkpoint
from dcn.train import confusion


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """A synthesized corpus plus one trained checkpoint, shared read-only."""
    root = tmp_path_factory.mktemp("cli")
    data = str(root / "data")
    model = str(root / "model.dcnw")
    hist = str(root / "hist.json")
    assert cli.run(["synth", "--seed", "0", "--count", "2", "--size", "64", "--out", data]) == 0
    assert (
        cli.run(
            [
                "train",
                "--data", data,
                "--epochs", "2",
                "--batch", "2",
                "--seed", "3",
                "--window", "64",
                "--stride", "64",
                "--channels", "2,2,2,2,2",
                "--dim", "2",
                "--dropout", "0.0",
                "--out", model,
                "--history", hist,
            ]
        )
        == 0
    )
    return {"root": root, "data": data, "model": model, "hist": hist}


def _scene(workspace, index):
    return os.path.join(workspace["data"], f"scene_{index:03d}.bmsr")


def _mask(workspace, index):
    return os.path.join(workspace["data"], f"mask_{index:03d}.bmsr")


def _patched_copy(src, dst, value):
    """Copy a raster with its first payload value replaced by ``value``."""
    blob = bytearray(open(src, "rb").read())
    first = 4 + struct.calcsize("<IIIIBf") + 16  # magic, header, role tag
    blob[first : first + 4] = struct.pack("<f", value)
    open(dst, "wb").write(bytes(blob))
    return dst


def _without(src, dst, role):
    """Copy a raster without its ``role`` band."""
    stack = read_bmsr(src)
    write_bmsr(replace(stack, bands=tuple(b for b in stack.bands if b.role != role)), dst)
    return dst


def _assert_data_error_names(capsys, code, path, what):
    err = capsys.readouterr().err
    assert code == 2, err
    assert err.startswith("data error:") and path in err and what in err


class TestSynth:
    def test_writes_scene_and_mask_pairs(self, workspace):
        names = sorted(os.listdir(workspace["data"]))
        assert names == ["mask_000.bmsr", "mask_001.bmsr", "scene_000.bmsr", "scene_001.bmsr"]
        scene = read_bmsr(_scene(workspace, 0))
        assert scene.roles == ("RED", "GREEN", "BLUE", "NIR", "DSM", "MASK", "LABELS")
        assert (scene.height, scene.width) == (64, 64)
        mask = read_bmsr(_mask(workspace, 0))
        assert mask.roles == ("MASK",)
        assert np.array_equal(mask.band("MASK"), scene.band("MASK"))
        assert scene.band("MASK").sum() > 0

    def test_same_seed_bit_identical(self, tmp_path):
        dirs = [str(tmp_path / name) for name in ("a", "b")]
        for out in dirs:
            assert cli.run(["synth", "--seed", "7", "--count", "1", "--size", "64", "--out", out]) == 0
        blobs = [open(os.path.join(d, "scene_000.bmsr"), "rb").read() for d in dirs]
        assert blobs[0] == blobs[1]

    def test_seed_changes_scene(self, tmp_path, workspace):
        out = str(tmp_path / "c")
        assert cli.run(["synth", "--seed", "8", "--count", "1", "--size", "64", "--out", out]) == 0
        fresh = open(os.path.join(out, "scene_000.bmsr"), "rb").read()
        assert fresh != open(_scene(workspace, 0), "rb").read()

    def test_flag_validation(self, tmp_path, capsys):
        out = str(tmp_path / "d")
        assert cli.run(["synth", "--count", "0", "--size", "64", "--out", out]) == 1
        assert "--count" in capsys.readouterr().err
        assert cli.run(["synth", "--count", "1", "--size", "10", "--out", out]) == 1
        assert "--size" in capsys.readouterr().err
        assert cli.run(["synth", "--count", "1", "--size", "64"]) == 1
        assert "--out" in capsys.readouterr().err
        assert cli.run(["synth", "--count", "1", "--size", "64", "--out", out, "--bogus"]) == 1
        assert "--bogus" in capsys.readouterr().err


class TestSlic:
    def test_writes_labels_raster(self, workspace, tmp_path):
        out = str(tmp_path / "labels.bmsr")
        code = cli.run(["slic", "--input", _scene(workspace, 0), "--k", "64",
                        "--compactness", "2.0", "--out", out])
        assert code == 0
        stack = read_bmsr(out)
        assert stack.roles == ("LABELS",)
        labels = stack.band("LABELS")
        assert labels.shape == (64, 64)
        ids = np.unique(labels)
        assert ids[0] == 0 and np.array_equal(ids, np.arange(len(ids)))
        assert 20 <= len(ids) <= 100

    def test_deterministic(self, workspace, tmp_path):
        outs = [str(tmp_path / f"{name}.bmsr") for name in ("a", "b")]
        for out in outs:
            cli.run(["slic", "--input", _scene(workspace, 0), "--k", "32", "--out", out])
        assert open(outs[0], "rb").read() == open(outs[1], "rb").read()

    def test_missing_input_names_path(self, tmp_path, capsys):
        out = str(tmp_path / "labels.bmsr")
        code = cli.run(["slic", "--input", "/nonexistent/x.bmsr", "--k", "8", "--out", out])
        assert code == 2
        assert "/nonexistent/x.bmsr" in capsys.readouterr().err

    def test_bad_k(self, workspace, tmp_path, capsys):
        out = str(tmp_path / "labels.bmsr")
        assert cli.run(["slic", "--input", _scene(workspace, 0), "--k", "0", "--out", out]) == 1
        assert "--k" in capsys.readouterr().err

    def test_k_above_pixel_count_names_flag(self, workspace, tmp_path, capsys):
        out = str(tmp_path / "labels.bmsr")
        code = cli.run(["slic", "--input", _scene(workspace, 0), "--k", "4097", "--out", out])
        assert code == 1
        assert "--k 4097 exceeds" in capsys.readouterr().err
        assert not os.path.exists(out)


    def test_non_finite_input_is_a_data_error(self, workspace, tmp_path, capsys):
        bad = _patched_copy(_scene(workspace, 0), str(tmp_path / "nan.bmsr"), float("nan"))
        out = str(tmp_path / "labels.bmsr")
        code = cli.run(["slic", "--input", bad, "--k", "16", "--out", out])
        _assert_data_error_names(capsys, code, bad, "non-finite")
        assert not os.path.exists(out)


class TestTrain:
    def test_writes_checkpoint_and_history(self, workspace):
        model = load_checkpoint(workspace["model"])
        assert model.global_step == 2
        assert model.config.block_channels == (2, 2, 2, 2, 2)
        assert model.config.tile_size == 64
        doc = json.loads(open(workspace["hist"]).read())
        assert doc["epoch"] == [0, 1]
        assert len(doc["loss"]) == 2 and all(np.isfinite(doc["loss"]))
        assert doc["val_iou"] == [None, None]

    def test_identical_flags_bit_identical_outputs(self, workspace, tmp_path):
        model = str(tmp_path / "model.dcnw")
        hist = str(tmp_path / "hist.json")
        code = cli.run(
            [
                "train",
                "--data", workspace["data"],
                "--epochs", "2",
                "--batch", "2",
                "--seed", "3",
                "--window", "64",
                "--stride", "64",
                "--channels", "2,2,2,2,2",
                "--dim", "2",
                "--dropout", "0.0",
                "--out", model,
                "--history", hist,
            ]
        )
        assert code == 0
        assert open(model, "rb").read() == open(workspace["model"], "rb").read()
        assert open(hist).read() == open(workspace["hist"]).read()

    def test_segmentation_chunks_leave_outputs_unchanged(self, tmp_path, monkeypatch):
        # two 128 px scenes give eight 64 px tiles, segmented one at a time
        # or in chunks of three that cross the scene boundary (3, 3 and 2)
        data = str(tmp_path / "data")
        assert cli.run(["synth", "--seed", "2", "--count", "2", "--size", "128", "--out", data]) == 0
        argv = ["train", "--data", data, "--epochs", "1", "--batch", "4", "--window", "64",
                "--stride", "64", "--channels", "2,2,2,2,2", "--dim", "2", "--dropout", "0.0"]
        outputs = []
        for chunk in (1, 3):
            monkeypatch.setattr(model_module, "INFER_CHUNK_BYTES", chunk * 9 * 6 * 64 * 64 * 4)
            out, hist = str(tmp_path / f"m{chunk}.dcnw"), str(tmp_path / f"h{chunk}.json")
            assert cli.run(argv + ["--out", out, "--history", hist]) == 0
            outputs.append((open(out, "rb").read(), open(hist).read()))
        assert outputs[0] == outputs[1]

    def test_scene_without_a_needed_band_is_skipped(self, workspace, tmp_path):
        # a DSM-less scene among the workspace's scenes changes nothing
        data = str(tmp_path / "data")
        shutil.copytree(workspace["data"], data)
        _without(_scene(workspace, 0), os.path.join(data, "scene_000_nodsm.bmsr"), "DSM")
        model, hist = str(tmp_path / "model.dcnw"), str(tmp_path / "hist.json")
        code = cli.run(["train", "--data", data, "--epochs", "2", "--batch", "2", "--seed", "3",
                        "--window", "64", "--stride", "64", "--channels", "2,2,2,2,2",
                        "--dim", "2", "--dropout", "0.0", "--out", model, "--history", hist])
        assert code == 0
        assert open(model, "rb").read() == open(workspace["model"], "rb").read()
        assert open(hist).read() == open(workspace["hist"]).read()

    def test_flag_validation(self, workspace, tmp_path, capsys):
        out = str(tmp_path / "m.dcnw")
        base = ["train", "--data", workspace["data"], "--out", out]
        assert cli.run(base + ["--window", "100"]) == 1
        assert "--window" in capsys.readouterr().err
        assert cli.run(base + ["--channels", "2,2"]) == 1
        assert "--channels" in capsys.readouterr().err
        assert cli.run(base + ["--epochs", "nope"]) == 1
        assert "--epochs" in capsys.readouterr().err
        assert cli.run(base + ["--dropout", "1.5"]) == 1
        assert "--dropout" in capsys.readouterr().err

    def test_slic_k_above_window_pixels_names_flag(self, workspace, tmp_path, capsys):
        out = str(tmp_path / "m.dcnw")
        code = cli.run(["train", "--data", workspace["data"], "--out", out,
                        "--window", "32", "--slic-k", "1025"])
        assert code == 1
        assert "--slic-k 1025 exceeds" in capsys.readouterr().err
        assert not os.path.exists(out)

    def test_empty_data_directory(self, tmp_path, capsys):
        data = str(tmp_path / "empty")
        os.makedirs(data)
        out = str(tmp_path / "m.dcnw")
        assert cli.run(["train", "--data", data, "--out", out]) == 2
        assert data in capsys.readouterr().err

    def test_missing_data_directory(self, tmp_path, capsys):
        out = str(tmp_path / "m.dcnw")
        assert cli.run(["train", "--data", str(tmp_path / "nope"), "--out", out]) == 2
        assert "--data" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", ["--out", "--history"])
    def test_output_in_a_missing_directory_fails_before_training(
        self, workspace, tmp_path, capsys, monkeypatch, flag
    ):
        entered = []
        monkeypatch.setattr(sys.modules["dcn.train"], "train", lambda *a: entered.append(a))
        paths = {"--out": str(tmp_path / "m.dcnw"), "--history": str(tmp_path / "h.json")}
        paths[flag] = str(tmp_path / "nope" / os.path.basename(paths[flag]))
        argv = ["train", "--data", workspace["data"], "--window", "64", "--stride", "64",
                "--channels", "2,2,2,2,2", "--dim", "2"]
        code = cli.run(argv + [arg for pair in paths.items() for arg in pair])
        err = capsys.readouterr().err
        assert code == 2, err
        assert flag in err and paths[flag] in err
        assert not entered


class TestOutputDirectories:
    """An output in a missing directory fails before any raster is segmented."""

    @pytest.fixture(autouse=True)
    def no_segmentation(self, monkeypatch):
        def refuse(*_):
            raise AssertionError("segmentation ran before the output check")

        for name in ("slic_segment", "slic_segment_batch"):
            monkeypatch.setattr(sys.modules["dcn.superpixel"], name, refuse)

    @pytest.mark.parametrize("flag", ["--out", "--errmap"])
    def test_predict(self, workspace, tmp_path, capsys, flag):
        paths = {"--out": str(tmp_path / "p.bmsr"), "--errmap": str(tmp_path / "e.ppm")}
        paths[flag] = str(tmp_path / "nope" / os.path.basename(paths[flag]))
        argv = ["predict", "--model", workspace["model"], "--input", _scene(workspace, 0),
                "--truth", _mask(workspace, 0)]
        code = cli.run(argv + [arg for pair in paths.items() for arg in pair])
        err = capsys.readouterr().err
        assert code == 2, err
        assert flag in err and paths[flag] in err
        assert not os.path.exists(paths["--out"])

    def test_slic(self, workspace, tmp_path, capsys):
        out = str(tmp_path / "nope" / "labels.bmsr")
        code = cli.run(["slic", "--input", _scene(workspace, 0), "--k", "16", "--out", out])
        err = capsys.readouterr().err
        assert code == 2, err
        assert "--out" in err and out in err
        assert not os.path.exists(out)


class TestPredict:
    def test_writes_mask_and_errmap(self, workspace, tmp_path, capsys):
        pred = str(tmp_path / "pred.bmsr")
        ppm = str(tmp_path / "err.ppm")
        code = cli.run(
            [
                "predict",
                "--model", workspace["model"],
                "--input", _scene(workspace, 0),
                "--out", pred,
                "--truth", _mask(workspace, 0),
                "--errmap", ppm,
            ]
        )
        assert code == 0
        captured = capsys.readouterr().out
        assert "oa=" in captured and "iou=" in captured
        stack = read_bmsr(pred)
        assert stack.roles == ("MASK",)
        mask = stack.band("MASK")
        assert mask.shape == (64, 64)
        assert set(np.unique(mask)) <= {0.0, 1.0}
        blob = open(ppm, "rb").read()
        assert blob.startswith(b"P6\n64 64\n255\n")
        pixels = np.frombuffer(blob[len(b"P6\n64 64\n255\n"):], np.uint8).reshape(64, 64, 3)
        truth = read_bmsr(_mask(workspace, 0)).band("MASK").astype(np.int64)
        counts = confusion(mask.astype(np.int64), truth)
        white = int((pixels == 255).all(axis=2).sum())
        assert white == counts.tp

    def test_deterministic(self, workspace, tmp_path):
        outs = [str(tmp_path / f"{name}.bmsr") for name in ("a", "b")]
        for out in outs:
            code = cli.run(
                ["predict", "--model", workspace["model"],
                 "--input", _scene(workspace, 1), "--out", out]
            )
            assert code == 0
        assert open(outs[0], "rb").read() == open(outs[1], "rb").read()

    @pytest.mark.parametrize(
        "value,message", [(float("nan"), "non-finite"), (-1.0, "must be non-negative")]
    )
    def test_bad_checkpoint_values_fail_at_load(
        self, workspace, tmp_path, monkeypatch, capsys, value, message
    ):
        # the file's last float32 is an entry of dec4.bn.running_var
        path = str(tmp_path / "m.dcnw")
        blob = open(workspace["model"], "rb").read()
        open(path, "wb").write(blob[:-4] + struct.pack("<f", value))

        def slic(features, params):
            raise AssertionError("the scene was segmented")

        monkeypatch.setattr(sys.modules["dcn.superpixel"], "slic_segment_batch", slic)
        out = str(tmp_path / "p.bmsr")
        code = cli.run(["predict", "--model", path, "--input", _scene(workspace, 0), "--out", out])
        err = capsys.readouterr().err
        assert code == 2 and err.startswith("data error:"), err
        assert path in err and "dec4.bn" in err and "running_var" in err and message in err
        assert not os.path.exists(out)

    def test_slic_k_above_tile_pixels_names_flag(self, workspace, tmp_path, capsys):
        out = str(tmp_path / "p.bmsr")
        code = cli.run(["predict", "--model", workspace["model"], "--input", _scene(workspace, 0),
                        "--out", out, "--slic-k", "4097"])
        assert code == 1
        assert "--slic-k 4097 exceeds" in capsys.readouterr().err
        assert not os.path.exists(out)

    def test_errmap_requires_truth(self, workspace, tmp_path, capsys):
        code = cli.run(
            ["predict", "--model", workspace["model"], "--input", _scene(workspace, 0),
             "--out", str(tmp_path / "p.bmsr"), "--errmap", str(tmp_path / "e.ppm")]
        )
        assert code == 1
        assert "--errmap" in capsys.readouterr().err

    def test_indivisible_scene_is_a_data_error(self, workspace, tmp_path, capsys):
        data = str(tmp_path / "wide")
        assert cli.run(["synth", "--seed", "1", "--count", "1", "--size", "96", "--out", data]) == 0
        code = cli.run(
            ["predict", "--model", workspace["model"],
             "--input", os.path.join(data, "scene_000.bmsr"),
             "--out", str(tmp_path / "p.bmsr")]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert "divide" in err and "scene_000.bmsr" in err

    def test_non_finite_input_is_a_data_error(self, workspace, tmp_path, capsys):
        bad = _patched_copy(_scene(workspace, 0), str(tmp_path / "nan.bmsr"), float("nan"))
        out = str(tmp_path / "p.bmsr")
        code = cli.run(["predict", "--model", workspace["model"], "--input", bad, "--out", out])
        _assert_data_error_names(capsys, code, bad, "non-finite")
        assert not os.path.exists(out)

    @pytest.mark.parametrize("role", ["DSM", "NIR"])
    def test_missing_band_names_flag_and_file(self, workspace, tmp_path, capsys, role):
        scene = _without(_scene(workspace, 0), str(tmp_path / "partial.bmsr"), role)
        out = str(tmp_path / "p.bmsr")
        code = cli.run(["predict", "--model", workspace["model"], "--input", scene, "--out", out])
        _assert_data_error_names(capsys, code, f"--input {scene}", role)
        assert not os.path.exists(out)

    def test_mask_equals_per_tile_reference(self, tmp_path, monkeypatch):
        # 16 tiles of 64 px in chunks of three: the last chunk holds one
        # tile; the reference segments and infers tile by tile, then stitches
        data = str(tmp_path / "scene")
        assert cli.run(["synth", "--seed", "5", "--count", "1", "--size", "256", "--out", data]) == 0
        config = dcn.DcnConfig(
            block_channels=(8, 16, 32, 64, 128), embedding_dim=8, dropout_rate=0.0, tile_size=64
        )
        model = dcn.build(config)
        checkpoint = str(tmp_path / "m.dcnw")
        dcn.save_checkpoint(model, checkpoint)
        monkeypatch.setattr(model_module, "INFER_CHUNK_BYTES", 3 * 9 * 8 * 64 * 64 * 4)
        assert model_module.infer_chunk(config) == 3
        scene = os.path.join(data, "scene_000.bmsr")
        pred = str(tmp_path / "pred.bmsr")
        assert cli.run(["predict", "--model", checkpoint, "--input", scene, "--out", pred]) == 0

        tiles = dcn.tile(dcn.normalize(dcn.compute_ndvi(read_bmsr(scene)))[0], window=64, stride=64)
        params = dcn.SlicParams(k_desired=64, m=2.0)
        out = []
        for record in tiles.tiles:
            bands = record.stack.select(config.input_bands)
            spmap = dcn.slic_segment(dcn.zscore_features(bands), params)
            _, raster = dcn.forward(model, dcn.Tensor(bands.astype(np.float32)), spmap, "infer")
            stack = dcn.RasterStack(64, 64, record.stack.gsd, (dcn.Band("MASK", raster.astype(np.float32)),))
            out.append(replace(record, stack=stack))
        want = dcn.stitch(replace(tiles, tiles=tuple(out))).band("MASK")
        got = read_bmsr(pred).band("MASK")
        assert len(tiles.tiles) == 16 and set(np.unique(want)) == {0.0, 1.0}
        np.testing.assert_array_equal(got, want)

    def test_missing_model_file(self, workspace, tmp_path, capsys):
        code = cli.run(
            ["predict", "--model", str(tmp_path / "nope.dcnw"),
             "--input", _scene(workspace, 0), "--out", str(tmp_path / "p.bmsr")]
        )
        assert code == 2
        assert "nope.dcnw" in capsys.readouterr().err

    @staticmethod
    def _corrupt_first_tensor(src, dst, name_byte=None, dims=None):
        """Copy a checkpoint, replacing its first tensor's name byte or dims."""
        blob = bytearray(open(src, "rb").read())
        (cfg_len,) = struct.unpack_from("<I", blob, 8)
        pos = 12 + cfg_len + 8  # magic, version, config length, config, step
        (name_len,) = struct.unpack_from("<I", blob, pos)
        if name_byte is not None:
            blob[pos + 4] = name_byte
        rank_at = pos + 4 + name_len
        if dims is not None:
            (rank,) = struct.unpack_from("<I", blob, rank_at)
            header = struct.pack(f"<I{len(dims)}I", len(dims), *dims)
            blob[rank_at : rank_at + 4 + 4 * rank] = header
        open(dst, "wb").write(bytes(blob))
        return dst

    @pytest.mark.parametrize(
        "corruption, what",
        [
            ({"dims": (2**32 - 1, 2**32 - 1)}, "truncated"),
            ({"name_byte": 0xFF}, "unreadable tensor name"),
        ],
        ids=["dims-overflow-int64", "non-utf8-name"],
    )
    def test_corrupt_checkpoint_is_a_data_error(
        self, workspace, tmp_path, capsys, corruption, what
    ):
        bad = self._corrupt_first_tensor(
            workspace["model"], str(tmp_path / "bad.dcnw"), **corruption
        )
        out = str(tmp_path / "p.bmsr")
        code = cli.run(["predict", "--model", bad, "--input", _scene(workspace, 0), "--out", out])
        _assert_data_error_names(capsys, code, bad, what)
        assert not os.path.exists(out)


class TestEval:
    def test_self_comparison_is_perfect(self, workspace, tmp_path, capsys):
        out = str(tmp_path / "metrics.json")
        code = cli.run(
            ["eval", "--pred", _mask(workspace, 0), "--truth", _mask(workspace, 0),
             "--json", out]
        )
        assert code == 0
        assert capsys.readouterr().out.startswith("oa=1.000000")
        doc = json.loads(open(out).read())
        assert doc["oa"] == 1.0
        assert doc["fp"] == 0 and doc["fn"] == 0
        assert doc["tp"] + doc["tn"] == 64 * 64

    def test_counts_match_library(self, workspace, tmp_path):
        out = str(tmp_path / "metrics.json")
        code = cli.run(
            ["eval", "--pred", _mask(workspace, 0), "--truth", _mask(workspace, 1),
             "--json", out]
        )
        assert code == 0
        doc = json.loads(open(out).read())
        pred = read_bmsr(_mask(workspace, 0)).band("MASK").astype(np.int64)
        truth = read_bmsr(_mask(workspace, 1)).band("MASK").astype(np.int64)
        counts = confusion(pred, truth)
        assert (doc["tp"], doc["fp"], doc["fn"], doc["tn"]) == (
            counts.tp, counts.fp, counts.fn, counts.tn
        )

    def test_shape_mismatch(self, workspace, tmp_path, capsys):
        data = str(tmp_path / "small")
        assert cli.run(["synth", "--seed", "2", "--count", "1", "--size", "32", "--out", data]) == 0
        code = cli.run(
            ["eval", "--pred", os.path.join(data, "mask_000.bmsr"),
             "--truth", _mask(workspace, 0), "--json", str(tmp_path / "m.json")]
        )
        assert code == 2
        assert "shape" in capsys.readouterr().err

    def test_missing_pred_file(self, workspace, tmp_path, capsys):
        code = cli.run(
            ["eval", "--pred", str(tmp_path / "gone.bmsr"),
             "--truth", _mask(workspace, 0), "--json", str(tmp_path / "m.json")]
        )
        assert code == 2
        assert "gone.bmsr" in capsys.readouterr().err

    @pytest.mark.parametrize("value,what", [(float("nan"), "non-finite"), (0.5, "MASK")])
    def test_malformed_pred_is_a_data_error(self, workspace, tmp_path, capsys, value, what):
        bad = _patched_copy(_mask(workspace, 0), str(tmp_path / "bad.bmsr"), value)
        out = str(tmp_path / "m.json")
        code = cli.run(["eval", "--pred", bad, "--truth", _mask(workspace, 0), "--json", out])
        _assert_data_error_names(capsys, code, bad, what)
        assert not os.path.exists(out)

    def test_json_in_a_missing_directory_is_a_data_error(self, workspace, tmp_path, capsys):
        out = str(tmp_path / "nope" / "m.json")
        code = cli.run(["eval", "--pred", _mask(workspace, 0), "--truth", _mask(workspace, 0),
                        "--json", out])
        assert code == 2
        assert out in capsys.readouterr().err
        assert not list(tmp_path.rglob("*.tmp"))

    def test_no_mask_band_names_flag(self, workspace, tmp_path, capsys):
        labels = str(tmp_path / "labels.bmsr")
        assert cli.run(["slic", "--input", _scene(workspace, 0), "--k", "16",
                        "--out", labels]) == 0
        capsys.readouterr()
        code = cli.run(
            ["eval", "--pred", labels, "--truth", _mask(workspace, 0),
             "--json", str(tmp_path / "m.json")]
        )
        assert code == 2
        assert "--pred" in capsys.readouterr().err


class TestExitCodes:
    def test_help_exits_zero(self):
        assert cli.run(["--help"]) == 0

    def test_missing_subcommand(self, capsys):
        assert cli.run([]) == 1
        capsys.readouterr()

    def test_unknown_subcommand(self, capsys):
        assert cli.run(["bogus"]) == 1
        capsys.readouterr()

    def test_numeric_failures_map_to_three(self, monkeypatch, capsys):
        def blow_up(args):
            raise NumericError("non-finite loss at epoch 0")

        monkeypatch.setattr(cli, "cmd_eval", blow_up)
        code = cli.run(["eval", "--pred", "a", "--truth", "b", "--json", "c"])
        assert code == 3
        assert "non-finite" in capsys.readouterr().err

    def test_internal_value_error_is_not_a_usage_error(self, monkeypatch, capsys):
        def blow_up(args):
            raise ValueError("shape bug deep inside the library")

        monkeypatch.setattr(cli, "cmd_eval", blow_up)
        with pytest.raises(ValueError, match="shape bug"):
            cli.run(["eval", "--pred", "a", "--truth", "b", "--json", "c"])
        assert "usage error" not in capsys.readouterr().err

    def test_out_of_memory_is_a_data_error_naming_the_flags(self, workspace, tmp_path, capsys):
        # the head kernel of --dim 10**12 asks numpy for 14.6 TiB, which
        # fails at once, before any of it is committed
        out = str(tmp_path / "m.dcnw")
        code = cli.run(
            ["train", "--data", workspace["data"], "--window", "64", "--stride", "64",
             "--channels", "2,2,2,2,2", "--dim", str(10**12), "--epochs", "1", "--out", out]
        )
        err = capsys.readouterr().err
        assert code == 2, err
        assert err.startswith("out of memory:") and "TiB" in err
        for flag in ("--batch", "--window", "--channels", "--dim"):
            assert flag in err
        assert not os.path.exists(out)

    def test_negative_seed_and_nan_compactness_are_usage_errors(self, workspace, tmp_path, capsys):
        out = str(tmp_path / "x")
        runs = [
            (["synth", "--seed", "-1", "--count", "1", "--size", "32", "--out", out], "--seed"),
            (["train", "--data", workspace["data"], "--seed", "-1", "--out", out], "--seed"),
            (["train", "--data", workspace["data"], "--slic-m", "nan", "--out", out], "--slic-m"),
            (["slic", "--input", _scene(workspace, 0), "--k", "4", "--compactness", "nan",
              "--out", out], "--compactness"),
            (["predict", "--model", workspace["model"], "--input", _scene(workspace, 0),
              "--slic-m", "nan", "--out", out], "--slic-m"),
        ]
        for argv, flag in runs:
            assert cli.run(argv) == 1, argv
            assert flag in capsys.readouterr().err
            assert not os.path.exists(out)


    def test_compactness_with_an_infinite_square_is_a_usage_error(
        self, workspace, tmp_path, capsys
    ):
        # the spatial weight squares m: 1e300 used to overflow, inf to
        # degenerate into one superpixel with numpy warnings
        out = str(tmp_path / "x")
        runs = [
            (["slic", "--input", _scene(workspace, 0), "--k", "4", "--compactness", "1e300",
              "--out", out], "--compactness"),
            (["train", "--data", workspace["data"], "--slic-m", "1e200", "--out", out],
             "--slic-m"),
            (["slic", "--input", _scene(workspace, 0), "--k", "4", "--compactness", "inf",
              "--out", out], "--compactness"),
            (["predict", "--model", workspace["model"], "--input", _scene(workspace, 0),
              "--slic-m", "inf", "--out", out], "--slic-m"),
        ]
        for argv, flag in runs:
            assert cli.run(argv) == 1, argv
            assert flag in capsys.readouterr().err
            assert not os.path.exists(out)

    def test_compactness_past_the_spatial_term_bound_is_a_usage_error(
        self, workspace, tmp_path, capsys
    ):
        # m * m is finite here, but a sweep's spatial term reaches 18 * m * m,
        # which overflowed at k=64 and k=4 on a 64 px scene
        out = str(tmp_path / "x")
        runs = [
            (["slic", "--input", _scene(workspace, 0), "--k", "64", "--compactness", "1.3e154",
              "--out", out], "--compactness"),
            (["slic", "--input", _scene(workspace, 0), "--k", "4", "--compactness", "1e154",
              "--out", out], "--compactness"),
            (["predict", "--model", workspace["model"], "--input", _scene(workspace, 0),
              "--slic-m", "1.3e154", "--out", out], "--slic-m"),
            # refused before any raster is read
            (["slic", "--input", str(tmp_path / "missing.bmsr"), "--k", "4",
              "--compactness", "1e154", "--out", out], "--compactness"),
            (["predict", "--model", workspace["model"], "--input", str(tmp_path / "missing.bmsr"),
              "--slic-m", "1.3e154", "--out", out], "--slic-m"),
        ]
        for argv, flag in runs:
            assert cli.run(argv) == 1, argv
            err = capsys.readouterr().err
            assert flag in err and "32 * m * m" in err, err
            assert not os.path.exists(out)

class TestThreadCap:
    def test_cap_exported_to_blas_pools(self, monkeypatch, tmp_path):
        for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                    "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
            monkeypatch.setenv(var, "1")
        monkeypatch.setenv("DCN_THREADS", "3")
        out = str(tmp_path / "scenes")
        assert cli.run(["synth", "--seed", "0", "--count", "1", "--size", "32", "--out", out]) == 0
        assert os.environ["OMP_NUM_THREADS"] == "3"
        assert os.environ["OPENBLAS_NUM_THREADS"] == "3"

    def test_invalid_cap_is_a_usage_error(self, monkeypatch, tmp_path, capsys):
        monkeypatch.setenv("DCN_THREADS", "many")
        out = str(tmp_path / "scenes")
        assert cli.run(["synth", "--seed", "0", "--count", "1", "--size", "32", "--out", out]) == 1
        assert "DCN_THREADS" in capsys.readouterr().err
        monkeypatch.setenv("DCN_THREADS", "0")
        assert cli.run(["synth", "--seed", "0", "--count", "1", "--size", "32", "--out", out]) == 1
        capsys.readouterr()

    def test_thread_count_changes_no_training_output(self, tmp_path):
        # the cap must be set before numpy loads, so each run is its own
        # process; 16 channels and up are wide enough for BLAS to split work
        data = str(tmp_path / "scenes")
        assert cli.run(["synth", "--seed", "0", "--count", "2", "--size", "128", "--out", data]) == 0
        outputs = []
        for threads in ("1", "2"):
            model = str(tmp_path / f"model_{threads}.dcnw")
            hist = str(tmp_path / f"hist_{threads}.json")
            proc = subprocess.run(
                [sys.executable, "-m", "dcn", "train", "--data", data, "--epochs", "1",
                 "--batch", "8", "--window", "64", "--stride", "64",
                 "--channels", "16,32,64,128,256", "--dim", "8", "--dropout", "0.0",
                 "--out", model, "--history", hist],
                capture_output=True,
                text=True,
                env={**os.environ, "DCN_THREADS": threads},
            )
            assert proc.returncode == 0, proc.stderr
            outputs.append((open(model, "rb").read(), open(hist, "rb").read()))
        assert outputs[0] == outputs[1]


class TestSegmentWorkers:
    """Chunks segmented in forked processes give the outputs of one process."""

    @pytest.fixture
    def scene(self, tmp_path_factory):
        # 256 px: 16 tiles of 64 px
        data = str(tmp_path_factory.mktemp("workers"))
        assert cli.run(["synth", "--seed", "5", "--count", "1", "--size", "256", "--out", data]) == 0
        return os.path.join(data, "scene_000.bmsr")

    @pytest.fixture
    def checkpoint(self, tmp_path_factory):
        config = dcn.DcnConfig(
            block_channels=(8, 16, 32, 64, 128), embedding_dim=8, dropout_rate=0.0, tile_size=64
        )
        path = str(tmp_path_factory.mktemp("workers") / "m.dcnw")
        dcn.save_checkpoint(dcn.build(config), path)
        return path

    @staticmethod
    def _workers(monkeypatch, count):
        """Let ``count`` cores be usable; returns the list the forked pids go to."""
        monkeypatch.delenv("DCN_THREADS", raising=False)
        monkeypatch.setattr(cli, "_usable_cores", lambda: count)
        forked, real_fork = [], os.fork

        def fork():
            pid = real_fork()
            if pid:
                forked.append(pid)
            return pid

        monkeypatch.setattr(os, "fork", fork)
        return forked

    @staticmethod
    def _chunk_tiles(monkeypatch, tiles):
        monkeypatch.setattr(model_module, "INFER_CHUNK_BYTES", tiles * 9 * 8 * 64 * 64 * 4)

    @staticmethod
    def _assert_no_child_left():
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_predict_output_is_the_same_for_one_two_and_three_workers(
        self, scene, checkpoint, tmp_path, monkeypatch
    ):
        # chunks of 3, 3, 3, 3, 3 and 1 tiles
        self._chunk_tiles(monkeypatch, 3)
        outputs = []
        for count in (1, 2, 3):
            forked = self._workers(monkeypatch, count)
            pred, err = str(tmp_path / f"p{count}.bmsr"), str(tmp_path / f"e{count}.ppm")
            argv = ["predict", "--model", checkpoint, "--input", scene, "--out", pred,
                    "--truth", scene.replace("scene_", "mask_"), "--errmap", err]
            assert cli.run(argv) == 0
            assert len(forked) == count - 1
            outputs.append((open(pred, "rb").read(), open(err, "rb").read()))
        self._assert_no_child_left()
        assert outputs[0] == outputs[1] == outputs[2]

    def test_train_output_is_the_same_for_one_and_two_workers(self, tmp_path, monkeypatch):
        # two 128 px scenes give 8 tiles, in chunks of 3, 3 and 2 across scenes
        data = str(tmp_path / "data")
        assert cli.run(["synth", "--seed", "2", "--count", "2", "--size", "128", "--out", data]) == 0
        self._chunk_tiles(monkeypatch, 3)
        argv = ["train", "--data", data, "--epochs", "1", "--batch", "4", "--window", "64",
                "--stride", "64", "--channels", "8,16,32,64,128", "--dim", "2", "--dropout", "0.0"]
        outputs = []
        for count in (1, 2):
            forked = self._workers(monkeypatch, count)
            out, hist = str(tmp_path / f"m{count}.dcnw"), str(tmp_path / f"h{count}.json")
            assert cli.run(argv + ["--out", out, "--history", hist]) == 0
            assert len(forked) == count - 1
            outputs.append((open(out, "rb").read(), open(hist).read()))
        self._assert_no_child_left()
        assert outputs[0] == outputs[1]

    @pytest.mark.parametrize(
        "chunk, failing",
        # 16 tiles in chunks of 3: the 1-tile chunk is chunk 5, a child's with
        # two workers; in chunks of 7: the 2-tile chunk is chunk 2, the parent's
        [(3, 1), (7, 2)],
    )
    def test_a_failing_chunk_gives_the_exit_of_one_worker(
        self, scene, checkpoint, tmp_path, monkeypatch, capsys, chunk, failing
    ):
        real = sys.modules["dcn.superpixel"].slic_segment_batch

        def slic(features, params):
            if len(features) == failing:
                raise dcn.DataError(f"chunk of {failing} refused")
            return real(features, params)

        monkeypatch.setattr(sys.modules["dcn.superpixel"], "slic_segment_batch", slic)
        self._chunk_tiles(monkeypatch, chunk)
        pred = str(tmp_path / "p.bmsr")
        results = []
        for count in (1, 2):
            forked = self._workers(monkeypatch, count)
            code = cli.run(["predict", "--model", checkpoint, "--input", scene, "--out", pred])
            assert len(forked) == count - 1
            results.append((code, capsys.readouterr().err))
            self._assert_no_child_left()
        assert results[0] == results[1] == (2, f"data error: chunk of {failing} refused\n")
        assert not os.path.exists(pred)

    def test_every_chunk_is_segmented_before_any_is_inferred(
        self, scene, checkpoint, tmp_path, monkeypatch, capsys
    ):
        # the last chunk fails SLIC, and inference fails numerically: the
        # SLIC error is reported whatever the worker count
        real = sys.modules["dcn.superpixel"].slic_segment_batch

        def slic(features, params):
            if len(features) == 1:
                raise dcn.DataError("chunk of 1 refused")
            return real(features, params)

        def infer(*args):
            raise NumericError("inference ran")

        monkeypatch.setattr(sys.modules["dcn.superpixel"], "slic_segment_batch", slic)
        monkeypatch.setattr(model_module, "infer_rasters", infer)
        self._chunk_tiles(monkeypatch, 3)
        for count in (1, 2):
            self._workers(monkeypatch, count)
            argv = ["predict", "--model", checkpoint, "--input", scene,
                    "--out", str(tmp_path / "p.bmsr")]
            assert cli.run(argv) == 2
            assert capsys.readouterr().err == "data error: chunk of 1 refused\n"
        self._assert_no_child_left()

    @pytest.mark.parametrize(
        "cpu_max, cores",
        [(None, 4), ("max 100000\n", 4), ("150000 100000\n", 2), ("50000 100000\n", 1),
         ("800000 100000\n", 4)],
    )
    def test_a_cgroup_cpu_quota_caps_the_usable_cores(self, tmp_path, monkeypatch, cpu_max, cores):
        path = tmp_path / "cpu.max"
        if cpu_max is not None:
            path.write_text(cpu_max)
        monkeypatch.setattr(cli, "_CPU_MAX", str(path))
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2, 3})
        assert cli._usable_cores() == cores

    def test_a_dead_child_is_an_error_and_is_reaped(self, scene, checkpoint, tmp_path, monkeypatch):
        real = sys.modules["dcn.superpixel"].slic_segment_batch
        parent = os.getpid()

        def slic(features, params):
            if os.getpid() != parent:
                os._exit(3)
            return real(features, params)

        monkeypatch.setattr(sys.modules["dcn.superpixel"], "slic_segment_batch", slic)
        self._workers(monkeypatch, 2)
        pred = str(tmp_path / "p.bmsr")
        with pytest.raises(RuntimeError, match="exited with status 3"):
            cli.run(["predict", "--model", checkpoint, "--input", scene, "--out", pred])
        self._assert_no_child_left()

    def test_an_interrupted_parent_kills_and_reaps_its_children(
        self, scene, checkpoint, tmp_path, monkeypatch
    ):
        real = sys.modules["dcn.superpixel"].slic_segment_batch
        parent = os.getpid()

        def slic(features, params):
            if os.getpid() == parent:
                raise KeyboardInterrupt
            time.sleep(60)  # a child still busy when the parent gives up
            return real(features, params)

        monkeypatch.setattr(sys.modules["dcn.superpixel"], "slic_segment_batch", slic)
        forked = self._workers(monkeypatch, 3)
        start = time.monotonic()
        with pytest.raises(KeyboardInterrupt):
            cli.run(["predict", "--model", checkpoint, "--input", scene,
                     "--out", str(tmp_path / "p.bmsr")])
        assert len(forked) == 2 and time.monotonic() - start < 30
        self._assert_no_child_left()

    def test_one_thread_forks_nothing(self, scene, checkpoint, tmp_path, monkeypatch):
        def no_fork():
            raise AssertionError("DCN_THREADS=1 forked")

        for var in cli._THREAD_VARS:
            monkeypatch.setenv(var, os.environ.get(var, "1"))
        monkeypatch.setenv("DCN_THREADS", "1")
        monkeypatch.setattr(cli, "_usable_cores", lambda: 4)
        monkeypatch.setattr(os, "fork", no_fork)
        assert cli.run(["predict", "--model", checkpoint, "--input", scene,
                        "--out", str(tmp_path / "p.bmsr")]) == 0


class TestLazyPackage:
    """``import dcn.cli`` must not load numpy, or DCN_THREADS would come too late."""

    def _python(self, code):
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        return proc.stdout.strip()

    def test_cli_import_leaves_numpy_unloaded(self):
        assert self._python("import sys, dcn.cli; print('numpy' in sys.modules)") == "False"

    def test_cap_is_set_before_numpy_loads(self, tmp_path):
        code = (
            "import os, sys, dcn.cli\n"
            "os.environ['DCN_THREADS'] = '1'\n"
            "seen = []\n"
            "class Probe:\n"
            "    def find_spec(self, name, path=None, target=None):\n"
            "        if name == 'numpy':\n"
            "            seen.append(os.environ.get('OPENBLAS_NUM_THREADS'))\n"
            "sys.meta_path.insert(0, Probe())\n"
            f"code = dcn.cli.run(['synth', '--count', '1', '--size', '32', '--out', {str(tmp_path)!r}])\n"
            "print(code, seen[:1])\n"
        )
        assert self._python(code).splitlines()[-1] == "0 ['1']"

    def test_train_stays_the_function_after_cmd_train_imports_it(self, tmp_path):
        # cmd_train's relative import loads the dcn.train submodule, which
        # binds it on the package; ``dcn.train`` must stay the function
        out = str(tmp_path / "m.dcnw")
        code = (
            "import dcn.cli, dcn\n"
            f"code = dcn.cli.run(['train', '--data', {str(tmp_path)!r}, '--out', {out!r},"
            " '--window', '33'])\n"
            "print(code, getattr(dcn.train, '__module__', type(dcn.train).__name__))\n"
        )
        assert self._python(code).splitlines()[-1] == "1 dcn.train"

    def test_every_public_name_imports(self):
        code = (
            "import dcn, sys, types\n"
            "assert 'numpy' not in sys.modules\n"
            "for name in dcn.__all__:\n"
            "    exec(f'from dcn import {name}')\n"
            "    assert not isinstance(getattr(dcn, name), types.ModuleType), name\n"
            "import dcn.train\n"
            "print(dcn.train.__module__, len(dcn.__all__))\n"
        )
        assert self._python(code) == "dcn.train 52"


class TestSubprocessEntryPoint:
    def test_console_script_resolves_to_a_callable(self):
        # Python 3.10 has no tomllib, so the table is read with a regex
        pyproject = os.path.join(os.path.dirname(__file__), os.pardir, "pyproject.toml")
        text = open(pyproject, encoding="utf-8").read()
        table = re.search(r"^\[project\.scripts\]\n(.*?)(?=^\[|\Z)", text, flags=re.M | re.S)
        scripts = dict(re.findall(r'^(\S+)\s*=\s*"([^"]+)"', table.group(1), flags=re.M))
        module, attr = scripts["dcn"].split(":")
        assert callable(getattr(importlib.import_module(module), attr, None))

    def test_module_invocation(self, workspace, tmp_path):
        out = str(tmp_path / "metrics.json")
        proc = subprocess.run(
            [sys.executable, "-m", "dcn", "eval", "--pred", _mask(workspace, 0),
             "--truth", _mask(workspace, 0), "--json", out],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.startswith("oa=1.000000")
        assert json.loads(open(out).read())["fp"] == 0

    def test_no_arguments_is_usage_error(self):
        proc = subprocess.run(
            [sys.executable, "-m", "dcn"], capture_output=True, text=True
        )
        assert proc.returncode == 1
