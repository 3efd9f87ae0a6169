import os
import struct
import tracemalloc

import numpy as np
import pytest

from dcn.data import (
    Band,
    RasterStack,
    SplitSpec,
    SyntheticSceneSpec,
    TileRecord,
    TileSet,
    compute_ndvi,
    normalize,
    read_bmsr,
    split_dataset,
    stitch,
    synth_scene,
    tile,
    write_bmsr,
)
from dcn.errors import DataError

HEADER_BYTES = 4 + struct.calcsize("<IIIIBf")
ROLE_BYTES = 16
_VEG_CEILING = 2.0  # vegetation canopy plus noise stays under this DSM mean


def random_stack(rng, height, width, roles=("RED", "GREEN", "NIR"), gsd=0.5):
    bands = tuple(Band(r, rng.random((height, width)).astype(np.float32)) for r in roles)
    return RasterStack(width=width, height=height, gsd=gsd, bands=bands)


def stack_bytes(stack):
    return tuple((b.role, b.data.tobytes()) for b in stack.bands)


def flood_components(mask):
    """4-connected component labels of a boolean mask, scan order."""
    labels = np.full(mask.shape, -1, dtype=np.int64)
    h, w = mask.shape
    count = 0
    for sy in range(h):
        for sx in range(w):
            if not mask[sy, sx] or labels[sy, sx] >= 0:
                continue
            stack = [(sy, sx)]
            labels[sy, sx] = count
            while stack:
                y, x = stack.pop()
                for ny, nx in ((y - 1, x), (y + 1, x), (y, x - 1), (y, x + 1)):
                    if 0 <= ny < h and 0 <= nx < w and mask[ny, nx] and labels[ny, nx] < 0:
                        labels[ny, nx] = count
                        stack.append((ny, nx))
            count += 1
    return labels, count


class TestRasterStack:
    def test_band_lookup_and_select(self):
        rng = np.random.default_rng(0)
        stack = random_stack(rng, 4, 6)
        assert stack.band("RED").shape == (4, 6)
        assert stack.select(("NIR", "RED")).shape == (4, 6, 2)
        assert stack.has("GREEN") and not stack.has("DSM")

    def test_missing_band_named_in_error(self):
        stack = random_stack(np.random.default_rng(0), 4, 4)
        with pytest.raises(DataError, match="DSM"):
            stack.band("DSM")

    def test_unknown_role_rejected(self):
        with pytest.raises(ValueError, match="role"):
            Band("HEAT", np.zeros((2, 2)))

    def test_duplicate_roles_rejected(self):
        bands = (Band("RED", np.zeros((2, 2))), Band("RED", np.ones((2, 2))))
        with pytest.raises(ValueError, match="duplicate"):
            RasterStack(width=2, height=2, gsd=0.5, bands=bands)

    def test_mismatched_dims_rejected(self):
        bands = (Band("RED", np.zeros((2, 2))), Band("NIR", np.zeros((3, 2))))
        with pytest.raises(ValueError):
            RasterStack(width=2, height=2, gsd=0.5, bands=bands)

    def test_mask_values_restricted(self):
        with pytest.raises(ValueError, match="MASK"):
            Band("MASK", np.full((2, 2), 0.5))
        Band("MASK", np.array([[0.0, 1.0], [1.0, 0.0]]))

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            Band("RED", np.array([[np.nan, 0.0]]))

    def test_with_band_appends(self):
        stack = random_stack(np.random.default_rng(1), 3, 3)
        grown = stack.with_band("DSM", np.ones((3, 3)))
        assert grown.roles == ("RED", "GREEN", "NIR", "DSM")
        assert stack.roles == ("RED", "GREEN", "NIR")

    def test_data_stored_as_float32(self):
        band = Band("RED", np.ones((2, 2), dtype=np.float64))
        assert band.data.dtype == np.float32


class TestBmsr:
    def test_round_trip_small(self, tmp_path):
        rng = np.random.default_rng(3)
        stack = random_stack(rng, 7, 5, roles=("RED", "NIR", "DSM"))
        path = str(tmp_path / "scene.bmsr")
        write_bmsr(stack, path)
        loaded = read_bmsr(path)
        assert (loaded.width, loaded.height) == (5, 7)
        assert loaded.gsd == stack.gsd
        assert stack_bytes(loaded) == stack_bytes(stack)

    def test_round_trip_randomized(self, tmp_path):
        rng = np.random.default_rng(4)
        role_pool = ["RED", "GREEN", "BLUE", "NIR", "DSM", "NDVI", "LABELS"]
        for trial in range(10):
            h = int(rng.integers(1, 40))
            w = int(rng.integers(1, 40))
            n = int(rng.integers(1, len(role_pool) + 1))
            roles = tuple(rng.permutation(role_pool)[:n])
            stack = random_stack(rng, h, w, roles=roles, gsd=float(rng.random()) + 0.1)
            path = str(tmp_path / f"trial{trial}.bmsr")
            write_bmsr(stack, path)
            loaded = read_bmsr(path)
            assert stack_bytes(loaded) == stack_bytes(stack)
            assert loaded.gsd == stack.gsd

    def test_file_size_arithmetic(self, tmp_path):
        roles = ("RED", "GREEN", "BLUE", "NIR", "DSM", "NDVI")
        bands = tuple(Band(r, np.zeros((1024, 1024))) for r in roles)
        stack = RasterStack(width=1024, height=1024, gsd=0.5, bands=bands)
        path = str(tmp_path / "big.bmsr")
        write_bmsr(stack, path)
        expected = HEADER_BYTES + 6 * (ROLE_BYTES + 1024 * 1024 * 4)
        assert os.path.getsize(path) == expected

    def test_bad_magic_rejected(self, tmp_path):
        path = str(tmp_path / "bad.bmsr")
        write_bmsr(random_stack(np.random.default_rng(0), 3, 3), path)
        blob = bytearray(open(path, "rb").read())
        blob[:4] = b"XXXX"
        open(path, "wb").write(bytes(blob))
        with pytest.raises(DataError, match="magic"):
            read_bmsr(path)

    def test_version_mismatch_rejected(self, tmp_path):
        path = str(tmp_path / "bad.bmsr")
        write_bmsr(random_stack(np.random.default_rng(0), 3, 3), path)
        blob = bytearray(open(path, "rb").read())
        blob[4:8] = struct.pack("<I", 9)
        open(path, "wb").write(bytes(blob))
        with pytest.raises(DataError, match="version"):
            read_bmsr(path)

    def test_unknown_dtype_rejected(self, tmp_path):
        path = str(tmp_path / "bad.bmsr")
        write_bmsr(random_stack(np.random.default_rng(0), 3, 3), path)
        blob = bytearray(open(path, "rb").read())
        blob[20] = 7
        open(path, "wb").write(bytes(blob))
        with pytest.raises(DataError, match="dtype"):
            read_bmsr(path)

    def test_unknown_role_tag_rejected(self, tmp_path):
        path = str(tmp_path / "bad.bmsr")
        write_bmsr(random_stack(np.random.default_rng(0), 3, 3), path)
        blob = bytearray(open(path, "rb").read())
        blob[HEADER_BYTES : HEADER_BYTES + ROLE_BYTES] = b"ROOF".ljust(ROLE_BYTES, b"\x00")
        open(path, "wb").write(bytes(blob))
        with pytest.raises(DataError, match="role"):
            read_bmsr(path)

    def test_truncated_payload_rejected(self, tmp_path):
        path = str(tmp_path / "bad.bmsr")
        write_bmsr(random_stack(np.random.default_rng(0), 3, 3), path)
        blob = open(path, "rb").read()
        open(path, "wb").write(blob[:-5])
        with pytest.raises(DataError, match="truncated"):
            read_bmsr(path)

    def test_trailing_bytes_rejected(self, tmp_path):
        path = str(tmp_path / "bad.bmsr")
        write_bmsr(random_stack(np.random.default_rng(0), 3, 3), path)
        with open(path, "ab") as fh:
            fh.write(b"\x00" * 3)
        with pytest.raises(DataError, match="trailing"):
            read_bmsr(path)

    def test_dim_overflow_rejected(self, tmp_path):
        path = str(tmp_path / "bad.bmsr")
        write_bmsr(random_stack(np.random.default_rng(0), 3, 3), path)
        blob = bytearray(open(path, "rb").read())
        blob[8:12] = struct.pack("<I", 2**20)
        blob[12:16] = struct.pack("<I", 2**21)
        open(path, "wb").write(bytes(blob))
        with pytest.raises(DataError, match="overflow"):
            read_bmsr(path)

    def test_non_finite_band_is_a_data_error_naming_the_file(self, tmp_path):
        path = str(tmp_path / "nan.bmsr")
        write_bmsr(random_stack(np.random.default_rng(0), 3, 3), path)
        blob = bytearray(open(path, "rb").read())
        first = HEADER_BYTES + ROLE_BYTES
        blob[first : first + 4] = struct.pack("<f", float("nan"))
        open(path, "wb").write(bytes(blob))
        with pytest.raises(DataError, match="nan.bmsr.*non-finite"):
            read_bmsr(path)

    def test_non_binary_mask_is_a_data_error_naming_the_file(self, tmp_path):
        path = str(tmp_path / "mask.bmsr")
        mask = RasterStack(3, 3, 0.5, (Band("MASK", np.zeros((3, 3))),))
        write_bmsr(mask, path)
        blob = bytearray(open(path, "rb").read())
        first = HEADER_BYTES + ROLE_BYTES
        blob[first : first + 4] = struct.pack("<f", 0.5)
        open(path, "wb").write(bytes(blob))
        with pytest.raises(DataError, match="mask.bmsr.*MASK"):
            read_bmsr(path)

    def test_missing_file_rejected(self, tmp_path):
        with pytest.raises(DataError, match="read"):
            read_bmsr(str(tmp_path / "absent.bmsr"))

    def test_write_is_atomic_overwrite(self, tmp_path):
        path = str(tmp_path / "scene.bmsr")
        open(path, "wb").write(b"junk")
        stack = random_stack(np.random.default_rng(5), 4, 4)
        write_bmsr(stack, path)
        assert stack_bytes(read_bmsr(path)) == stack_bytes(stack)
        assert [f for f in os.listdir(tmp_path) if f.endswith(".tmp")] == []

    @pytest.mark.parametrize(
        "umask, mode", [(0o022, 0o644), (0o077, 0o600)], ids=["umask022", "umask077"]
    )
    def test_written_file_gets_the_umask_mode(self, tmp_path, umask, mode):
        # open(path, "wb") would create the file 0o666 less the umask;
        # mkstemp's temporary file starts owner-only
        path = str(tmp_path / "scene.bmsr")
        old = os.umask(umask)
        try:
            write_bmsr(random_stack(np.random.default_rng(6), 4, 4), path)
        finally:
            os.umask(old)
        assert os.stat(path).st_mode & 0o777 == mode


class TestComputeNdvi:
    def _stack(self, nir, red):
        bands = (Band("RED", red), Band("NIR", nir))
        return RasterStack(width=red.shape[1], height=red.shape[0], gsd=0.5, bands=bands)

    def test_equal_bands_give_zero(self):
        data = np.random.default_rng(0).random((5, 5))
        out = compute_ndvi(self._stack(data, data))
        assert np.allclose(out.band("NDVI"), 0.0, atol=1e-6)

    def test_known_value(self):
        out = compute_ndvi(self._stack(np.full((2, 2), 0.8), np.full((2, 2), 0.2)))
        assert np.allclose(out.band("NDVI"), 0.6, atol=1e-6)

    def test_zero_over_zero_guarded(self):
        out = compute_ndvi(self._stack(np.zeros((3, 3)), np.zeros((3, 3))))
        assert np.array_equal(out.band("NDVI"), np.zeros((3, 3)))

    def test_values_clamped(self):
        out = compute_ndvi(self._stack(np.full((2, 2), 1.0), np.full((2, 2), -0.5)))
        assert np.allclose(out.band("NDVI"), 1.0)

    def test_range_invariant(self):
        rng = np.random.default_rng(6)
        for _ in range(20):
            nir = rng.normal(0, 1, (8, 8))
            red = rng.normal(0, 1, (8, 8))
            ndvi = compute_ndvi(self._stack(nir, red)).band("NDVI")
            assert ndvi.min() >= -1.0 and ndvi.max() <= 1.0

    def test_missing_band_rejected(self):
        stack = RasterStack(width=2, height=2, gsd=0.5, bands=(Band("RED", np.ones((2, 2))),))
        with pytest.raises(DataError, match="NIR"):
            compute_ndvi(stack)

    def test_existing_ndvi_rejected(self):
        stack = self._stack(np.ones((2, 2)), np.ones((2, 2))).with_band("NDVI", np.zeros((2, 2)))
        with pytest.raises(DataError, match="NDVI"):
            compute_ndvi(stack)


class TestNormalize:
    def test_two_point_band(self):
        stack = RasterStack(
            width=2, height=1, gsd=0.5, bands=(Band("DSM", np.array([[2.0, 4.0]])),)
        )
        out, stats = normalize(stack)
        assert np.allclose(out.band("DSM"), [[0.0, 1.0]], atol=1e-6)
        assert stats["DSM"] == (2.0, 4.0)

    def test_constant_band_maps_to_zero(self):
        stack = RasterStack(width=3, height=3, gsd=0.5, bands=(Band("RED", np.full((3, 3), 7.0)),))
        out, _ = normalize(stack)
        assert np.array_equal(out.band("RED"), np.zeros((3, 3)))

    def test_reusing_stats_reproduces(self):
        stack = random_stack(np.random.default_rng(7), 6, 6)
        first, stats = normalize(stack)
        second, _ = normalize(stack, stats)
        assert stack_bytes(first) == stack_bytes(second)

    def test_renormalizing_is_idempotent(self):
        stack = random_stack(np.random.default_rng(8), 6, 6)
        once, _ = normalize(stack)
        twice, _ = normalize(once)
        for role in once.roles:
            assert np.allclose(once.band(role), twice.band(role), atol=1e-6)

    def test_mask_band_untouched(self):
        mask = np.zeros((4, 4))
        mask[1:3, 1:3] = 1.0
        stack = RasterStack(
            width=4,
            height=4,
            gsd=0.5,
            bands=(Band("DSM", np.arange(16.0).reshape(4, 4)), Band("MASK", mask)),
        )
        out, stats = normalize(stack)
        assert np.array_equal(out.band("MASK"), mask)
        assert "MASK" not in stats

    def test_foreign_stats_clamped_to_unit_range(self):
        stack = RasterStack(
            width=2, height=1, gsd=0.5, bands=(Band("DSM", np.array([[5.0, 50.0]])),)
        )
        out, _ = normalize(stack, {"DSM": (10.0, 20.0)})
        band = out.band("DSM")
        assert band.min() >= 0.0 and band.max() <= 1.0

    def test_missing_stats_role_rejected(self):
        stack = random_stack(np.random.default_rng(9), 3, 3)
        with pytest.raises(DataError, match="GREEN"):
            normalize(stack, {"RED": (0.0, 1.0), "NIR": (0.0, 1.0)})

    def test_output_in_unit_interval(self):
        rng = np.random.default_rng(10)
        for _ in range(10):
            stack = random_stack(rng, 5, 5)
            out, _ = normalize(stack)
            for role in out.roles:
                band = out.band(role)
                assert band.min() >= 0.0 and band.max() <= 1.0


class TestTile:
    def test_survey_scale_count(self):
        stack = RasterStack(
            width=1024, height=1024, gsd=0.5, bands=(Band("RED", np.zeros((1024, 1024))),)
        )
        tiles = tile(stack, window=128, stride=128)
        assert len(tiles) == 64

    def test_identity_single_tile(self):
        rng = np.random.default_rng(11)
        stack = random_stack(rng, 128, 128)
        tiles = tile(stack, window=128, stride=128)
        assert len(tiles) == 1
        only = tiles.tiles[0]
        assert (only.x, only.y) == (0, 0)
        assert stack_bytes(only.stack) == stack_bytes(stack)

    def test_indivisible_scene_rejected(self):
        stack = RasterStack(
            width=1000, height=1000, gsd=0.5, bands=(Band("RED", np.zeros((1000, 1000))),)
        )
        with pytest.raises(DataError, match="divide"):
            tile(stack, window=128, stride=128)

    def test_row_major_origins(self):
        stack = random_stack(np.random.default_rng(12), 8, 12)
        tiles = tile(stack, window=4, stride=4)
        assert [(t.x, t.y) for t in tiles.tiles] == [
            (0, 0), (4, 0), (8, 0), (0, 4), (4, 4), (8, 4),
        ]

    def test_tiles_match_source_windows(self):
        rng = np.random.default_rng(13)
        for _ in range(5):
            stack = random_stack(rng, 12, 16)
            tiles = tile(stack, window=4, stride=4)
            for t in tiles.tiles:
                for role in stack.roles:
                    window = stack.band(role)[t.y : t.y + 4, t.x : t.x + 4]
                    assert np.array_equal(t.stack.band(role), window)

    def test_overlapping_stride_counts(self):
        stack = random_stack(np.random.default_rng(14), 256, 256)
        tiles = tile(stack, window=128, stride=64)
        assert len(tiles) == 9

    def test_window_larger_than_scene_rejected(self):
        stack = random_stack(np.random.default_rng(15), 16, 16)
        with pytest.raises(DataError, match="window"):
            tile(stack, window=32, stride=32)

    def test_tileset_requires_full_grid(self):
        stack = random_stack(np.random.default_rng(16), 8, 8)
        tiles = tile(stack, window=4, stride=4)
        with pytest.raises(ValueError, match="grid"):
            TileSet(height=8, width=8, window=4, stride=4, tiles=tiles.tiles[:-1])


class TestStitch:
    def test_round_trip_survey_scale(self):
        rng = np.random.default_rng(17)
        roles = ("RED", "GREEN", "BLUE", "NIR", "DSM", "NDVI")
        stack = random_stack(rng, 1024, 1024, roles=roles)
        rebuilt = stitch(tile(stack, window=128, stride=128))
        assert stack_bytes(rebuilt) == stack_bytes(stack)

    def test_single_tile_round_trip(self):
        stack = random_stack(np.random.default_rng(18), 64, 64)
        rebuilt = stitch(tile(stack, window=64, stride=64))
        assert stack_bytes(rebuilt) == stack_bytes(stack)

    def test_overlap_of_constant_tiles_averages_exactly(self):
        stack = RasterStack(
            width=256, height=256, gsd=0.5, bands=(Band("DSM", np.full((256, 256), 0.7)),)
        )
        rebuilt = stitch(tile(stack, window=128, stride=64))
        assert np.array_equal(rebuilt.band("DSM"), np.full((256, 256), np.float32(0.7)))

    def test_gaps_rejected(self):
        stack = random_stack(np.random.default_rng(19), 24, 24)
        tiles = tile(stack, window=8, stride=16)
        with pytest.raises(DataError, match="covered"):
            stitch(tiles)

    def test_inconsistent_bands_rejected(self):
        a = random_stack(np.random.default_rng(20), 8, 8, roles=("RED",))
        b = random_stack(np.random.default_rng(21), 8, 8, roles=("NIR",))
        tiles = TileSet(
            height=8,
            width=16,
            window=8,
            stride=8,
            tiles=(
                TileRecord(x=0, y=0, stack=a),
                TileRecord(x=8, y=0, stack=b),
            ),
        )
        with pytest.raises(DataError, match="bands"):
            stitch(tiles)


class TestSplitDataset:
    def _tiles(self):
        stack = RasterStack(
            width=184,
            height=104,
            gsd=0.5,
            bands=(Band("RED", np.random.default_rng(22).random((104, 184))),),
        )
        return tile(stack, window=8, stride=8)

    def test_published_split_sizes(self):
        tiles = self._tiles()
        assert len(tiles) == 299
        train, val, test = split_dataset(tiles, SplitSpec(256, 40, 3, seed=1))
        assert (len(train), len(val), len(test)) == (256, 40, 3)

    def test_same_seed_reproduces(self):
        tiles = self._tiles()
        a = split_dataset(tiles, SplitSpec(256, 40, 3, seed=5))
        b = split_dataset(tiles, SplitSpec(256, 40, 3, seed=5))
        for part_a, part_b in zip(a, b):
            assert [(t.x, t.y) for t in part_a] == [(t.x, t.y) for t in part_b]

    def test_different_seed_differs(self):
        tiles = self._tiles()
        a, _, _ = split_dataset(tiles, SplitSpec(256, 40, 3, seed=0))
        b, _, _ = split_dataset(tiles, SplitSpec(256, 40, 3, seed=1))
        assert [(t.x, t.y) for t in a] != [(t.x, t.y) for t in b]

    def test_partition_is_disjoint_and_exhaustive(self):
        tiles = self._tiles()
        train, val, test = split_dataset(tiles, SplitSpec(256, 40, 3, seed=2))
        ids = [id(t) for t in train + val + test]
        assert len(set(ids)) == 299
        assert set(ids) == {id(t) for t in tiles.tiles}

    def test_count_mismatch_rejected(self):
        with pytest.raises(DataError, match="299"):
            split_dataset(self._tiles(), SplitSpec(250, 40, 3))


def full_raster_synth_scene(spec):
    """``synth_scene`` as it painted each vegetation disc: a test over the whole raster."""
    from dcn import data

    rng = np.random.default_rng(spec.seed)
    shape = (spec.height, spec.width)
    spectral = {role: np.full(shape, value) for role, value in data._BACKGROUND.items()}
    dsm = np.zeros(shape)
    mask = np.zeros(shape)
    labels = np.full(shape, data.LABEL_BACKGROUND)
    for y, x, bh, bw in data._place_buildings(rng, spec):
        height = rng.uniform(*spec.building_height)
        window = (slice(y, y + bh), slice(x, x + bw))
        for role in spectral:
            spectral[role][window] = data._ROOF[role]
        dsm[window] = height
        mask[window] = 1.0
        labels[window] = data.LABEL_BUILDING
    rows, cols = np.indices(shape)
    for _ in range(int(rng.integers(spec.vegetation[0], spec.vegetation[1] + 1))):
        cy = rng.uniform(0, spec.height)
        cx = rng.uniform(0, spec.width)
        ry = rng.uniform(spec.vegetation_radius[0], spec.vegetation_radius[1])
        rx = rng.uniform(spec.vegetation_radius[0], spec.vegetation_radius[1])
        blob = ((rows - cy) / ry) ** 2 + ((cols - cx) / rx) ** 2 <= 1.0
        blob &= mask == 0.0
        for role in spectral:
            spectral[role][blob] = data._VEGETATION[role]
        dsm[blob] = data._VEGETATION_DSM
        labels[blob] = data.LABEL_VEGETATION
    for role in spectral:
        spectral[role] = np.clip(spectral[role] + rng.normal(0.0, spec.noise_std, shape), 0.0, 1.0)
    dsm = dsm + rng.normal(0.0, spec.noise_std, shape)
    return [spectral["RED"], spectral["GREEN"], spectral["BLUE"], spectral["NIR"], dsm, mask, labels]


class TestSynthScene:
    @pytest.mark.parametrize(
        "spec",
        [SyntheticSceneSpec(seed=seed) for seed in range(3)]
        + [
            # discs wider than the scene, and many discs clipped at its edges
            SyntheticSceneSpec(height=24, width=40, buildings=(1, 2), building_size=(4, 8),
                               vegetation=(3, 3), vegetation_radius=(30, 50), seed=4),
            SyntheticSceneSpec(height=96, width=64, vegetation=(40, 60),
                               vegetation_radius=(1, 9), seed=5),
        ],
    )
    def test_discs_on_their_boxes_equal_the_full_raster_paint(self, spec):
        scene = synth_scene(spec)
        want = full_raster_synth_scene(spec)
        for band, expected in zip(scene.bands, want):
            assert band.data.tobytes() == expected.astype(np.float32).tobytes(), band.role

    @pytest.mark.parametrize("strip", [1, 1000])
    @pytest.mark.parametrize(
        "spec",
        [
            SyntheticSceneSpec(seed=8),
            SyntheticSceneSpec(height=77, width=130, noise_std=0.0, seed=9),
            SyntheticSceneSpec(height=50, width=90, buildings=(2, 4), building_size=(4, 12),
                               noise_std=0.4, vegetation=(10, 20), seed=10),
        ],
    )
    def test_row_strips_equal_the_full_plane_draws(self, spec, strip, monkeypatch):
        # one-row strips, and strips whose last one is short; the oracle
        # draws each band's noise as one full-size plane
        from dcn import data

        monkeypatch.setattr(data, "_STRIP_PIXELS", strip)
        scene = synth_scene(spec)
        want = full_raster_synth_scene(spec)
        for band, expected in zip(scene.bands, want):
            assert band.data.tobytes() == expected.astype(np.float32).tobytes(), band.role

    def test_peak_memory_per_pixel(self):
        # the finished stack alone is 7 float32 bands, 28 bytes a pixel;
        # full-size float64 planes for every band took about 97
        spec = SyntheticSceneSpec(height=512, width=384, seed=1)
        tracemalloc.start()
        try:
            scene = synth_scene(spec)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(scene.bands) == 7
        assert peak < 60 * spec.height * spec.width

    def test_zero_buildings_zero_mask(self):
        spec = SyntheticSceneSpec(height=64, width=64, buildings=(0, 0), seed=1)
        scene = synth_scene(spec)
        assert not scene.band("MASK").any()

    def test_single_building_area(self):
        spec = SyntheticSceneSpec(
            height=64,
            width=64,
            buildings=(1, 1),
            building_size=(10, 10),
            vegetation=(0, 0),
            seed=2,
        )
        assert synth_scene(spec).band("MASK").sum() == 100

    def test_dsm_contrast(self):
        for seed in range(20):
            spec = SyntheticSceneSpec(seed=seed)
            scene = synth_scene(spec)
            mask = scene.band("MASK") == 1.0
            dsm = scene.band("DSM")
            gap = dsm[mask].mean() - dsm[~mask].mean()
            assert gap >= spec.building_height[0] - 3 * spec.noise_std - _VEG_CEILING

    def test_buildings_are_disjoint_interior_rectangles(self):
        for seed in range(5):
            spec = SyntheticSceneSpec(seed=seed)
            mask = synth_scene(spec).band("MASK") == 1.0
            assert not mask[0, :].any() and not mask[-1, :].any()
            assert not mask[:, 0].any() and not mask[:, -1].any()
            labels, count = flood_components(mask)
            assert spec.buildings[0] <= count <= spec.buildings[1]
            for comp in range(count):
                ys, xs = np.nonzero(labels == comp)
                bbox = (ys.max() - ys.min() + 1) * (xs.max() - xs.min() + 1)
                assert len(ys) == bbox

    def test_vegetation_is_green_and_low(self):
        spec = SyntheticSceneSpec(seed=3)
        scene = compute_ndvi(synth_scene(spec))
        veg = scene.band("LABELS") == 2.0
        assert veg.sum() > 0
        assert scene.band("NDVI")[veg].mean() > 0.4
        assert scene.band("DSM")[veg].mean() < 3.0
        mask = scene.band("MASK") == 1.0
        assert scene.band("NDVI")[mask].mean() < 0.0

    def test_spectral_bands_in_unit_range(self):
        scene = synth_scene(SyntheticSceneSpec(seed=4))
        for role in ("RED", "GREEN", "BLUE", "NIR"):
            band = scene.band(role)
            assert band.min() >= 0.0 and band.max() <= 1.0

    def test_determinism(self):
        spec = SyntheticSceneSpec(seed=5)
        assert stack_bytes(synth_scene(spec)) == stack_bytes(synth_scene(spec))

    def test_seed_changes_scene(self):
        a = synth_scene(SyntheticSceneSpec(seed=6))
        b = synth_scene(SyntheticSceneSpec(seed=7))
        assert stack_bytes(a) != stack_bytes(b)

    def test_infeasible_packing_rejected(self):
        spec = SyntheticSceneSpec(
            height=16,
            width=16,
            buildings=(20, 20),
            building_size=(10, 10),
            vegetation=(0, 0),
            seed=8,
        )
        with pytest.raises(DataError, match="place"):
            synth_scene(spec)

    def test_round_trips_through_file(self, tmp_path):
        spec = SyntheticSceneSpec(
            height=48,
            width=48,
            buildings=(2, 3),
            building_size=(6, 10),
            vegetation_radius=(3, 6),
            seed=9,
        )
        scene = synth_scene(spec)
        path = str(tmp_path / "scene.bmsr")
        write_bmsr(scene, path)
        assert stack_bytes(read_bmsr(path)) == stack_bytes(scene)

    def test_bad_ranges_rejected(self):
        with pytest.raises(ValueError, match="lo > hi"):
            SyntheticSceneSpec(buildings=(5, 2))
        with pytest.raises(ValueError):
            SyntheticSceneSpec(height=4)
        with pytest.raises(ValueError):
            SyntheticSceneSpec(building_size=(200, 300), height=64, width=64)
