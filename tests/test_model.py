import hashlib
import os
import struct
import tracemalloc

import numpy as np
import pytest

from dcn.autodiff import Tensor, grad_check
from dcn.competition import competition_loss, softmin_probs, winner
from dcn.errors import DataError
from dcn import model as model_module
from dcn.model import (
    CHECKPOINT_MAGIC,
    INFER_CHUNK_BYTES,
    READING,
    DcnConfig,
    build,
    embed,
    embed_batch,
    forward,
    forward_batch,
    infer_chunk,
    infer_rasters,
    load_checkpoint,
    save_checkpoint,
)
from dcn.superpixel import SuperpixelMap


def tiny_config(**overrides):
    base = dict(
        input_bands=("A", "B"),
        block_channels=(2, 2, 2, 2, 2),
        embedding_dim=2,
        dropout_rate=0.25,
        tile_size=32,
        seed=3,
    )
    base.update(overrides)
    return DcnConfig(**base)


def rewrite_config(path, old, new):
    """Replace ``old`` by ``new`` in a checkpoint's config block, fixing its length."""
    blob = open(path, "rb").read()
    (cfg_len,) = struct.unpack_from("<I", blob, 8)
    text = blob[12 : 12 + cfg_len]
    assert text.count(old) == 1
    text = text.replace(old, new)
    open(path, "wb").write(blob[:8] + struct.pack("<I", len(text)) + text + blob[12 + cfg_len :])


def quadrant_map(size):
    rows, cols = np.indices((size, size))
    labels = 2 * (rows >= size // 2) + (cols >= size // 2)
    feat = labels[:, :, None].astype(np.float64)
    return SuperpixelMap.from_labels(labels, feat)


def param_bytes(model):
    return {n: t.data.tobytes() for n, t in model.parameters().items()}


def closed_form_count(config):
    # Convs carry kh*kw*cin*cout weights plus cout biases; each batch
    # norm adds gamma and beta; the codebook holds one row per class.
    bc = config.block_channels
    total = 0
    cin = config.input_channels
    for c in bc:
        total += 9 * cin * c + c + 2 * c
        total += 9 * c * c + c + 2 * c
        cin = c
    dec_out = [bc[3], bc[2], bc[1], bc[0], bc[0]]
    cin = bc[4]
    for c in dec_out:
        total += 9 * cin * c + c + 2 * c
        cin = c
    total += bc[0] * config.embedding_dim + config.embedding_dim
    total += 2 * config.embedding_dim
    return total


class TestDcnConfig:
    def test_defaults(self):
        cfg = DcnConfig()
        assert cfg.input_channels == 6
        assert cfg.block_channels == (32, 64, 128, 256, 512)
        assert cfg.tile_size == 128

    def test_four_block_widths_rejected(self):
        with pytest.raises(ValueError, match="5"):
            DcnConfig(block_channels=(32, 64, 128, 256))

    def test_six_block_widths_rejected(self):
        with pytest.raises(ValueError):
            DcnConfig(block_channels=(8, 8, 8, 8, 8, 8))

    def test_tile_size_must_divide_by_32(self):
        with pytest.raises(ValueError, match="32"):
            DcnConfig(tile_size=100)

    def test_tile_size_multiples_accepted(self):
        for size in (32, 64, 96, 128, 160):
            assert DcnConfig(tile_size=size).tile_size == size

    def test_dropout_rate_bounds(self):
        with pytest.raises(ValueError):
            DcnConfig(dropout_rate=1.0)
        with pytest.raises(ValueError):
            DcnConfig(dropout_rate=-0.1)

    def test_dropout_block_index_bounds(self):
        with pytest.raises(ValueError):
            DcnConfig(dropout_blocks=(5,))

    def test_duplicate_bands_rejected(self):
        with pytest.raises(ValueError):
            DcnConfig(input_bands=("RED", "RED"))

    def test_embedding_dim_positive(self):
        with pytest.raises(ValueError):
            DcnConfig(embedding_dim=0)


class TestBuild:
    def test_same_seed_bit_identical(self):
        a = build(tiny_config(seed=9))
        b = build(tiny_config(seed=9))
        assert param_bytes(a) == param_bytes(b)

    def test_different_seed_differs(self):
        a = build(tiny_config(seed=1))
        b = build(tiny_config(seed=2))
        assert param_bytes(a) != param_bytes(b)

    def test_parameter_count_matches_closed_form(self):
        for cfg in (DcnConfig(), tiny_config(), tiny_config(block_channels=(4, 8, 8, 4, 16))):
            model = build(cfg)
            total = sum(int(np.prod(t.shape)) for t in model.parameters().values())
            assert total == closed_form_count(cfg)

    def test_count_independent_of_seed(self):
        counts = {
            sum(int(np.prod(t.shape)) for t in build(tiny_config(seed=s)).parameters().values())
            for s in range(5)
        }
        assert len(counts) == 1

    def test_biases_and_norm_parameters_at_identity(self):
        model = build(tiny_config())
        for name, tensor in model.parameters().items():
            if name.endswith(".bias") or name.endswith(".beta"):
                assert not tensor.data.any()
            if name.endswith(".gamma"):
                assert np.array_equal(tensor.data, np.ones_like(tensor.data))
        book = model.parameters()["codebook.prototypes"].data
        assert np.allclose(book[0], 0.25) and np.allclose(book[1], 0.75)

    def test_kernel_scale_tracks_fan_in(self):
        model = build(DcnConfig(seed=4))
        kernel = model.parameters()["enc4.conv2.kernel"].data
        expected = np.sqrt(2.0 / (9 * kernel.shape[2]))
        assert abs(kernel.std() / expected - 1) < 0.05

    def test_parameter_names_unique_and_stable(self):
        model = build(tiny_config())
        names = list(model.parameters())
        assert len(names) == len(set(names))
        assert names[0] == "enc0.conv1.kernel"
        assert names[-1] == "codebook.prototypes"

    def test_buffers_separate_from_parameters(self):
        model = build(tiny_config())
        assert not set(model.parameters()) & set(model.buffers())
        assert "enc0.bn1.running_mean" in model.buffers()

    def test_setters_keep_parameters_and_buffers_apart(self):
        model = build(tiny_config())
        mean = model.buffers()["enc0.bn1.running_mean"]
        kernel = model.parameters()["head.kernel"]
        with pytest.raises(KeyError):
            model.set_parameter("enc0.bn1.running_mean", mean)
        with pytest.raises(KeyError):
            model.set_buffer("head.kernel", kernel)
        with pytest.raises(ValueError, match="shape mismatch for head.kernel"):
            model.set_parameter("head.kernel", model.parameters()["enc0.conv1.kernel"])

    @pytest.mark.parametrize(
        "cfg",
        [tiny_config(), tiny_config(block_channels=(4, 8, 8, 4, 16), embedding_dim=3), DcnConfig()],
        ids=["tiny", "uneven", "default"],
    )
    def test_derived_shapes_match_build(self, cfg):
        model = build(cfg)
        tensors = {**model.parameters(), **model.buffers()}
        assert model_module._tensor_shapes(cfg) == {n: t.shape for n, t in tensors.items()}


class TestForward:
    def setup_method(self):
        self.cfg = tiny_config()
        self.model = build(self.cfg)
        rng = np.random.default_rng(7)
        self.tile = Tensor(rng.standard_normal((32, 32, 2)).astype(np.float32))
        self.spmap = quadrant_map(32)

    def test_shapes(self):
        distances, raster = forward(self.model, self.tile, self.spmap, "infer")
        assert distances.shape == (4, 2)
        assert raster.shape == (32, 32)

    def test_raster_codomain_is_binary(self):
        _, raster = forward(self.model, self.tile, self.spmap, "infer")
        assert np.issubdtype(raster.dtype, np.integer)
        assert set(np.unique(raster)) <= {0, 1}

    def test_single_superpixel_gives_constant_raster(self):
        labels = np.zeros((32, 32), dtype=np.int64)
        spmap = SuperpixelMap.from_labels(labels, labels[:, :, None].astype(float))
        distances, raster = forward(self.model, self.tile, spmap, "infer")
        assert distances.shape == (1, 2)
        assert len(np.unique(raster)) == 1

    def test_raster_agrees_with_winner(self):
        distances, raster = forward(self.model, self.tile, self.spmap, "infer")
        assert np.array_equal(raster, winner(distances)[self.spmap.labels])

    def test_infer_is_deterministic(self):
        d1, r1 = forward(self.model, self.tile, self.spmap, "infer")
        d2, r2 = forward(self.model, self.tile, self.spmap, "infer")
        assert d1.data.tobytes() == d2.data.tobytes()
        assert np.array_equal(r1, r2)

    def test_train_pass_reproducible_across_builds(self):
        d1, _ = forward(build(self.cfg), self.tile, self.spmap, "train")
        d2, _ = forward(build(self.cfg), self.tile, self.spmap, "train")
        assert d1.data.tobytes() == d2.data.tobytes()

    def test_embedding_shape(self):
        emb = embed(self.model, self.tile, "infer")
        assert emb.shape == (32, 32, self.cfg.embedding_dim)

    def test_wrong_tile_shape_rejected(self):
        with pytest.raises(ValueError, match="tile"):
            forward(self.model, Tensor(np.ones((16, 16, 2), np.float32)), self.spmap, "infer")

    def test_wrong_channel_count_rejected(self):
        with pytest.raises(ValueError, match="channels"):
            forward(self.model, Tensor(np.ones((32, 32, 3), np.float32)), self.spmap, "infer")

    def test_wrong_map_shape_rejected(self):
        with pytest.raises(ValueError, match="map"):
            forward(self.model, self.tile, quadrant_map(16), "infer")

    def test_bad_phase_rejected(self):
        with pytest.raises(ValueError, match="phase"):
            forward(self.model, self.tile, self.spmap, "test")

    def test_train_pass_updates_running_stats(self):
        model = build(self.cfg)
        before = model.buffers()["enc0.bn1.running_mean"].data.copy()
        forward(model, self.tile, self.spmap, "train")
        after = model.buffers()["enc0.bn1.running_mean"].data
        assert not np.array_equal(before, after)

    def test_infer_pass_leaves_running_stats(self):
        model = build(self.cfg)
        before = model.buffers()["enc0.bn1.running_var"].data.copy()
        forward(model, self.tile, self.spmap, "infer")
        assert np.array_equal(before, model.buffers()["enc0.bn1.running_var"].data)


def moved_running_stats(model, rng):
    """Set every norm's running statistics off their identity start."""
    for name, buf in model.buffers().items():
        if name.endswith("running_mean"):
            value = rng.normal(scale=0.1, size=buf.shape)
        else:
            value = rng.uniform(0.5, 2.0, size=buf.shape)
        model.set_buffer(name, Tensor(value.astype(buf.data.dtype)))
    return model


class TestBatchedInference:
    """An infer pass over a batch gives every tile its batch-of-one outputs, bit for bit."""

    @pytest.mark.parametrize(
        "channels, dim, rate",
        [((8, 16, 32, 64, 128), 8, 0.0), ((32, 64, 128, 256, 512), 16, 0.5)],
        ids=["narrow", "wide"],
    )
    def test_embed_batch_equals_embed_per_tile(self, channels, dim, rate):
        # the benchmark's predict and train-wide models at 64 px
        cfg = DcnConfig(block_channels=channels, embedding_dim=dim, dropout_rate=rate, tile_size=64)
        rng = np.random.default_rng(60)
        model = moved_running_stats(build(cfg), rng)
        tiles = rng.standard_normal((5, 64, 64, 6)).astype(np.float32)
        single = [embed(model, Tensor(t), "infer").data.tobytes() for t in tiles]
        for lo, hi in ((0, 4), (4, 5), (0, 5)):
            out = embed_batch(model, Tensor(tiles[lo:hi]), "infer").data
            assert [o.tobytes() for o in out] == single[lo:hi], (lo, hi)

    def test_forward_batch_equals_forward_per_tile(self):
        rng = np.random.default_rng(61)
        model = moved_running_stats(build(tiny_config()), rng)
        tiles = rng.standard_normal((3, 32, 32, 2)).astype(np.float32)
        labels = rng.integers(0, 5, size=(32, 32))
        labels.ravel()[:5] = np.arange(5)
        maps = [quadrant_map(32), SuperpixelMap.from_labels(np.zeros((32, 32), np.int64)),
                SuperpixelMap.from_labels(labels)]
        distances, rasters = forward_batch(model, Tensor(tiles), maps, "infer")
        parts = [forward(model, Tensor(t), sp, "infer") for t, sp in zip(tiles, maps)]
        want = np.concatenate([d.data for d, _ in parts])
        assert distances.data.tobytes() == want.tobytes()
        for raster, (_, one) in zip(rasters, parts):
            np.testing.assert_array_equal(raster, one)

    def test_infer_rasters_in_chunks_equal_forward_per_tile(self, monkeypatch):
        # chunks of two over five tiles: the last chunk holds one
        cfg = tiny_config()
        monkeypatch.setattr(model_module, "INFER_CHUNK_BYTES", 2 * 9 * 2 * 32 * 32 * 4)
        assert infer_chunk(cfg) == 2
        rng = np.random.default_rng(62)
        model = moved_running_stats(build(cfg), rng)
        # a steep head spreads the embeddings, so rasters mix both classes
        model.set_parameter("head.kernel", Tensor(model.head.kernel.data * 30, requires_grad=True))
        tiles = list(rng.standard_normal((5, 32, 32, 2)).astype(np.float32))
        stripes = [np.tile(np.arange(32) // width, (32, 1)) for width in (4, 5, 8, 4, 5)]
        maps = [SuperpixelMap.from_labels(labels) for labels in stripes]
        rasters = infer_rasters(model, tiles, maps)
        assert len(rasters) == 5
        for tile, spmap, raster in zip(tiles, maps, rasters):
            np.testing.assert_array_equal(raster, forward(model, Tensor(tile), spmap, "infer")[1])
        assert 0 < np.mean(rasters) < 1

    def test_chunk_follows_the_widest_columns(self):
        # the CLI default model at --window 128 runs one tile at a time
        assert infer_chunk(DcnConfig(tile_size=128)) == 1
        # the narrow model's widest columns are its 8-channel convs at full side
        narrow = DcnConfig(block_channels=(8, 16, 32, 64, 128), embedding_dim=8, tile_size=64)
        assert infer_chunk(narrow) == INFER_CHUNK_BYTES // (9 * 8 * 64 * 64 * 4) == 4
        # a wide deeper block can set it: 512 channels at side 32
        deep = DcnConfig(block_channels=(2, 512, 2, 2, 2), tile_size=64)
        assert infer_chunk(deep) == 1 < infer_chunk(DcnConfig(block_channels=(2,) * 5, tile_size=64))

    def test_map_count_must_match_batch(self):
        model = build(tiny_config())
        batch = Tensor(np.ones((2, 32, 32, 2), np.float32))
        with pytest.raises(ValueError, match="maps"):
            forward_batch(model, batch, [quadrant_map(32)], "infer")


class TestCheckpoint:
    def setup_method(self):
        self.cfg = tiny_config(seed=21)
        self.model = build(self.cfg)
        rng = np.random.default_rng(13)
        self.tile = Tensor(rng.standard_normal((32, 32, 2)).astype(np.float32))
        self.spmap = quadrant_map(32)
        forward(self.model, self.tile, self.spmap, "train")  # move BN buffers

    def test_round_trip_bit_exact(self, tmp_path):
        path = str(tmp_path / "model.dcnw")
        self.model.global_step = 17
        save_checkpoint(self.model, path)
        loaded = load_checkpoint(path)
        assert loaded.config == self.cfg
        assert loaded.global_step == 17
        assert param_bytes(loaded) == param_bytes(self.model)
        for name, tensor in self.model.buffers().items():
            assert loaded.buffers()[name].data.tobytes() == tensor.data.tobytes()

    def test_round_trip_preserves_forward(self, tmp_path):
        path = str(tmp_path / "model.dcnw")
        d_before, r_before = forward(self.model, self.tile, self.spmap, "infer")
        save_checkpoint(self.model, path)
        loaded = load_checkpoint(path)
        d_after, r_after = forward(loaded, self.tile, self.spmap, "infer")
        assert d_before.data.tobytes() == d_after.data.tobytes()
        assert np.array_equal(r_before, r_after)

    def test_layout_parses_independently(self, tmp_path):
        import struct

        path = str(tmp_path / "model.dcnw")
        self.model.global_step = 5
        save_checkpoint(self.model, path)
        blob = open(path, "rb").read()
        assert blob[:4] == CHECKPOINT_MAGIC
        (version,) = struct.unpack_from("<I", blob, 4)
        assert version == 1
        (cfg_len,) = struct.unpack_from("<I", blob, 8)
        text = blob[12 : 12 + cfg_len].decode("utf-8")
        assert "tile_size=32" in text and "embedding_dim=2" in text
        for line in ("sigmoid_form=standard", "batchnorm_mode=standard",
                     "competition_form=activated_difference"):
            assert line in text.splitlines()
        pos = 12 + cfg_len
        (step,) = struct.unpack_from("<Q", blob, pos)
        assert step == 5
        pos += 8
        seen = {}
        while pos < len(blob):
            (name_len,) = struct.unpack_from("<I", blob, pos)
            pos += 4
            name = blob[pos : pos + name_len].decode("utf-8")
            pos += name_len
            (rank,) = struct.unpack_from("<I", blob, pos)
            pos += 4
            dims = struct.unpack_from(f"<{rank}I", blob, pos)
            pos += 4 * rank
            count = int(np.prod(dims))
            seen[name] = (dims, blob[pos : pos + 4 * count])
            pos += 4 * count
        assert pos == len(blob)
        expected = {**self.model.parameters(), **self.model.buffers()}
        assert set(seen) == set(expected)
        for name, (dims, payload) in seen.items():
            assert dims == expected[name].shape
            assert payload == expected[name].data.astype("<f4").tobytes()

    def test_bad_magic_rejected(self, tmp_path):
        path = str(tmp_path / "model.dcnw")
        save_checkpoint(self.model, path)
        blob = bytearray(open(path, "rb").read())
        blob[0] ^= 0xFF
        open(path, "wb").write(bytes(blob))
        with pytest.raises(DataError, match="magic"):
            load_checkpoint(path)

    def test_version_mismatch_rejected(self, tmp_path):
        import struct

        path = str(tmp_path / "model.dcnw")
        save_checkpoint(self.model, path)
        blob = bytearray(open(path, "rb").read())
        blob[4:8] = struct.pack("<I", 2)
        open(path, "wb").write(bytes(blob))
        with pytest.raises(DataError, match="version"):
            load_checkpoint(path)

    def test_truncated_file_rejected(self, tmp_path):
        path = str(tmp_path / "model.dcnw")
        save_checkpoint(self.model, path)
        blob = open(path, "rb").read()
        open(path, "wb").write(blob[:-7])
        with pytest.raises(DataError, match="truncated"):
            load_checkpoint(path)

    def test_missing_tensors_rejected(self, tmp_path):
        import struct

        path = str(tmp_path / "model.dcnw")
        save_checkpoint(self.model, path)
        blob = open(path, "rb").read()
        (cfg_len,) = struct.unpack_from("<I", blob, 8)
        open(path, "wb").write(blob[: 12 + cfg_len + 8])
        with pytest.raises(DataError, match="missing"):
            load_checkpoint(path)

    def test_shape_mismatch_against_config_rejected(self, tmp_path):
        path = str(tmp_path / "model.dcnw")
        save_checkpoint(self.model, path)
        blob = open(path, "rb").read()
        assert blob.count(b"embedding_dim=2") == 1
        open(path, "wb").write(blob.replace(b"embedding_dim=2", b"embedding_dim=4"))
        with pytest.raises(DataError, match="shape"):
            load_checkpoint(path)

    @pytest.mark.parametrize(
        "key,value",
        [
            ("sigmoid_form", "literal"),
            ("batchnorm_mode", "literal"),
            ("competition_form", "difference_activated"),
        ],
    )
    def test_other_reading_rejected(self, tmp_path, capsys, key, value):
        from dcn import cli

        path = str(tmp_path / "model.dcnw")
        save_checkpoint(self.model, path)
        supported = dict(READING)[key]
        rewrite_config(path, f"{key}={supported}\n".encode(), f"{key}={value}\n".encode())
        with pytest.raises(DataError) as err:
            load_checkpoint(path)
        assert key in str(err.value) and value in str(err.value) and path in str(err.value)
        # the checkpoint loads before the scene is read, so no scene is needed
        out = str(tmp_path / "pred.bmsr")
        code = cli.run(["predict", "--model", path, "--input", str(tmp_path / "scene.bmsr"),
                        "--out", out])
        stderr = capsys.readouterr().err
        assert code == 2 and stderr.startswith("data error:") and key in stderr and path in stderr
        assert not os.path.exists(out)

    def test_widths_the_tensors_lack_are_rejected_before_allocating(self, tmp_path, capsys):
        # a 99999-wide last block would need a 671 GiB kernel; the file's
        # tensors must be checked against the config before anything is built
        from dcn import cli

        path = str(tmp_path / "model.dcnw")
        save_checkpoint(self.model, path)
        rewrite_config(path, b"block_channels=2,2,2,2,2\n", b"block_channels=2,2,2,2,99999\n")
        out = str(tmp_path / "pred.bmsr")
        code = cli.run(["predict", "--model", path, "--input", str(tmp_path / "scene.bmsr"),
                        "--out", out])
        stderr = capsys.readouterr().err
        assert code == 2 and stderr.startswith("data error:"), stderr
        assert path in stderr and "enc4.conv1.kernel" in stderr and "99999" in stderr
        assert not os.path.exists(out)

    def test_missing_reading_key_rejected(self, tmp_path):
        path = str(tmp_path / "model.dcnw")
        save_checkpoint(self.model, path)
        rewrite_config(path, b"batchnorm_mode=standard\n", b"")
        with pytest.raises(DataError, match="batchnorm_mode"):
            load_checkpoint(path)

    @pytest.mark.parametrize(
        "old,new,message",
        [
            (b"seed=21", b"seed_0", "malformed config line 'seed_0'"),
            (b"tile_size=32", b"tile_size=48",
             "tile_size must be a positive multiple of 32, got 48"),
        ],
        ids=["malformed_line", "invalid_value"],
    )
    def test_config_errors_name_the_file(self, tmp_path, old, new, message):
        path = str(tmp_path / "model.dcnw")
        save_checkpoint(self.model, path)
        rewrite_config(path, old, new)
        with pytest.raises(DataError) as err:
            load_checkpoint(path)
        assert str(err.value).startswith(f"checkpoint {path}:") and message in str(err.value)

    def test_load_draws_no_initialization(self, tmp_path, monkeypatch):
        path = str(tmp_path / "model.dcnw")
        save_checkpoint(self.model, path)

        def refuse(*args, **kwargs):
            raise AssertionError("load_checkpoint built a model")

        monkeypatch.setattr(model_module, "build", refuse)
        loaded = load_checkpoint(path)
        assert param_bytes(loaded) == param_bytes(self.model)
        for name, tensor in self.model.buffers().items():
            assert loaded.buffers()[name].data.tobytes() == tensor.data.tobytes()

    def test_save_overwrites_atomically(self, tmp_path):
        path = str(tmp_path / "model.dcnw")
        open(path, "wb").write(b"garbage")
        save_checkpoint(self.model, path)
        assert load_checkpoint(path).config == self.cfg
        leftovers = [f for f in os.listdir(tmp_path) if f.endswith(".tmp")]
        assert leftovers == []

    def test_missing_file_rejected(self, tmp_path):
        with pytest.raises(DataError, match="read"):
            load_checkpoint(str(tmp_path / "absent.dcnw"))

    @pytest.mark.parametrize(
        "cfg",
        [DcnConfig(block_channels=(8, 16, 32, 64, 128), embedding_dim=8), DcnConfig()],
        ids=["narrow", "default"],
    )
    def test_save_load_save_is_byte_identical(self, tmp_path, cfg):
        first, second = str(tmp_path / "a.dcnw"), str(tmp_path / "b.dcnw")
        model = build(cfg)
        model.global_step = 5
        save_checkpoint(model, first)
        save_checkpoint(load_checkpoint(first), second)
        digests = [hashlib.sha256(open(p, "rb").read()).hexdigest() for p in (first, second)]
        assert digests[0] == digests[1]

    def test_save_streams_the_tensors_without_a_copy(self, tmp_path):
        model = build(DcnConfig())
        tensors = list(model.parameters().values()) + list(model.buffers().values())
        payload = sum(t.data.nbytes for t in tensors)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            save_checkpoint(model, str(tmp_path / "model.dcnw"))
            rise = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert os.path.getsize(tmp_path / "model.dcnw") > payload
        assert rise < payload / 4


class TestEndToEndGradient:
    def test_loss_gradient_reaches_first_kernel(self):
        cfg = tiny_config(
            block_channels=(2, 3, 3, 2, 2),
            dropout_rate=0.0,
            dropout_blocks=(),
            seed=11,
        )
        model = build(cfg, dtype=np.float64)
        rng = np.random.default_rng(5)
        tile = Tensor(rng.standard_normal((32, 32, 2)))
        spmap = quadrant_map(32)
        truth = rng.integers(0, 2, size=4)

        def objective(kernel, prototypes):
            model.set_parameter("enc0.conv1.kernel", kernel)
            model.set_parameter("codebook.prototypes", prototypes)
            distances, _ = forward(model, tile, spmap, "train")
            return competition_loss(softmin_probs(distances), truth)

        params = model.parameters()
        report = grad_check(
            objective,
            [params["enc0.conv1.kernel"], params["codebook.prototypes"]],
            tolerance=1e-3,
        )
        assert report.passed, f"max relative error {report.max_rel_error}"
