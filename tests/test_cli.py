import json
import os
import struct
import subprocess
import sys

import numpy as np
import pytest

from dcn import cli
from dcn.data import read_bmsr
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

    def test_missing_model_file(self, workspace, tmp_path, capsys):
        code = cli.run(
            ["predict", "--model", str(tmp_path / "nope.dcnw"),
             "--input", _scene(workspace, 0), "--out", str(tmp_path / "p.bmsr")]
        )
        assert code == 2
        assert "nope.dcnw" in capsys.readouterr().err


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
        assert self._python(code) == "dcn.train 53"


class TestSubprocessEntryPoint:
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
