"""Raster containers, BMSR file I/O, band math, tiling, and scene synthesis.

A scene lives in a RasterStack: a set of same-sized named bands (RED,
GREEN, BLUE, NIR, DSM, derived NDVI, ground-truth MASK, and LABELS for
annotations or predictions). Stacks serialize to the BMSR container, a
flat little-endian format chosen over GeoTIFF so round trips stay
bit-exact without geospatial dependencies.

The tiler cuts a scene into fixed windows for memory-bounded training;
the stitcher inverts it. The synthesizer builds scenes with rectangular
elevated "buildings" and high-NIR near-ground vegetation blobs, the
classic confuser that motivates feeding NDVI alongside the DSM.
"""

from __future__ import annotations

import os
import struct
import tempfile
from dataclasses import dataclass, replace

import numpy as np

from .errors import DataError
from .superpixel import SuperpixelMap

ROLES = ("RED", "GREEN", "BLUE", "NIR", "DSM", "NDVI", "MASK", "LABELS")

BMSR_MAGIC = b"BMSR"
BMSR_VERSION = 1
_ROLE_FIELD = 16
_MAX_PIXELS = 2**40  # refuse absurd headers before allocating

NDVI_EPS = 1e-12
NORM_EPS = 1e-12

_BACKGROUND = {"RED": 0.30, "GREEN": 0.34, "BLUE": 0.26, "NIR": 0.42}
_ROOF = {"RED": 0.52, "GREEN": 0.48, "BLUE": 0.46, "NIR": 0.22}
_VEGETATION = {"RED": 0.16, "GREEN": 0.38, "BLUE": 0.20, "NIR": 0.74}
_VEGETATION_DSM = 1.5

LABEL_BACKGROUND = 0.0
LABEL_BUILDING = 1.0
LABEL_VEGETATION = 2.0


@dataclass(frozen=True)
class Band:
    role: str
    data: np.ndarray

    def __post_init__(self) -> None:
        if self.role not in ROLES:
            raise ValueError(f"unknown band role {self.role!r}, expected one of {ROLES}")
        data = np.array(self.data, dtype=np.float32, order="C")
        if data.ndim != 2 or data.size == 0:
            raise ValueError(f"band data must be a non-empty 2-d array, got {data.shape}")
        if not np.all(np.isfinite(data)):
            raise ValueError(f"band {self.role} contains non-finite values")
        if self.role == "MASK" and not np.isin(data, (0.0, 1.0)).all():
            raise ValueError("MASK band values must lie in {0, 1}")
        object.__setattr__(self, "data", data)


@dataclass(frozen=True)
class RasterStack:
    """Ordered same-sized bands plus the ground sampling distance."""

    width: int
    height: int
    gsd: float
    bands: tuple[Band, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "bands", tuple(self.bands))
        if self.width < 1 or self.height < 1:
            raise ValueError(f"stack dims must be positive, got {self.width}x{self.height}")
        if not self.gsd > 0:
            raise ValueError(f"gsd must be positive, got {self.gsd}")
        # gsd is stored at file precision so round trips compare equal
        object.__setattr__(self, "gsd", float(np.float32(self.gsd)))
        if not self.bands:
            raise ValueError("stack must hold at least one band")
        roles = [b.role for b in self.bands]
        if len(set(roles)) != len(roles):
            raise ValueError(f"duplicate band roles: {roles}")
        for band in self.bands:
            if band.data.shape != (self.height, self.width):
                raise ValueError(
                    f"band {band.role} is {band.data.shape}, stack is "
                    f"{(self.height, self.width)}"
                )

    @property
    def roles(self) -> tuple[str, ...]:
        return tuple(b.role for b in self.bands)

    def has(self, role: str) -> bool:
        return any(b.role == role for b in self.bands)

    def band(self, role: str) -> np.ndarray:
        for b in self.bands:
            if b.role == role:
                return b.data
        raise DataError(f"stack has no {role} band (present: {self.roles})")

    def with_band(self, role: str, data: np.ndarray) -> "RasterStack":
        return replace(self, bands=self.bands + (Band(role, data),))

    def select(self, roles) -> np.ndarray:
        """Stack the named bands into an [h, w, len(roles)] array."""
        return np.stack([self.band(r) for r in roles], axis=-1)


@dataclass(frozen=True)
class TileRecord:
    x: int
    y: int
    stack: RasterStack
    spmap: SuperpixelMap | None = None


@dataclass(frozen=True)
class TileSet:
    """Row-major windows over a source scene, origin order fixed."""

    height: int
    width: int
    window: int
    stride: int
    tiles: tuple[TileRecord, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "tiles", tuple(self.tiles))
        if self.window < 1 or self.stride < 1:
            raise ValueError("window and stride must be positive")
        if self.window > self.height or self.window > self.width:
            raise ValueError(
                f"window {self.window} exceeds source {self.height}x{self.width}"
            )
        if (self.height - self.window) % self.stride or (self.width - self.window) % self.stride:
            raise ValueError(
                f"source {self.height}x{self.width} is not an exact grid of "
                f"window {self.window} stride {self.stride} tiles"
            )
        expected = [
            (x, y)
            for y in range(0, self.height - self.window + 1, self.stride)
            for x in range(0, self.width - self.window + 1, self.stride)
        ]
        got = [(t.x, t.y) for t in self.tiles]
        if got != expected:
            raise ValueError(
                f"tiles must enumerate the full grid row-major: expected "
                f"{len(expected)} origins, got {got[:4]}..."
            )
        for t in self.tiles:
            if (t.stack.height, t.stack.width) != (self.window, self.window):
                raise ValueError(f"tile at ({t.x}, {t.y}) is not {self.window} square")
            if t.spmap is not None and t.spmap.shape != (self.window, self.window):
                raise ValueError(f"superpixel map at ({t.x}, {t.y}) does not cover the tile")

    def __len__(self) -> int:
        return len(self.tiles)


@dataclass(frozen=True)
class SplitSpec:
    train: int
    validation: int
    test: int
    seed: int = 0

    def __post_init__(self) -> None:
        if min(self.train, self.validation, self.test) < 0:
            raise ValueError("split counts must be non-negative")


@dataclass(frozen=True)
class SyntheticSceneSpec:
    """Recipe for a desk-scale scene with known building footprints."""

    height: int = 256
    width: int = 256
    gsd: float = 0.5
    buildings: tuple[int, int] = (4, 9)
    building_size: tuple[int, int] = (12, 40)
    building_height: tuple[float, float] = (10.0, 35.0)
    vegetation: tuple[int, int] = (2, 6)
    vegetation_radius: tuple[int, int] = (6, 20)
    noise_std: float = 0.02
    seed: int = 0

    def __post_init__(self) -> None:
        if self.height < 8 or self.width < 8:
            raise ValueError("scene must be at least 8x8")
        if not self.gsd > 0:
            raise ValueError("gsd must be positive")
        for name in ("buildings", "building_size", "building_height", "vegetation", "vegetation_radius"):
            lo, hi = getattr(self, name)
            if lo > hi:
                raise ValueError(f"{name} range ({lo}, {hi}) has lo > hi")
        if self.buildings[0] < 0 or self.vegetation[0] < 0:
            raise ValueError("counts must be non-negative")
        if self.building_size[0] < 1 or self.vegetation_radius[0] < 1:
            raise ValueError("sizes must be positive")
        if self.building_size[1] > min(self.height, self.width) - 2:
            raise ValueError("buildings larger than the scene cannot be placed")
        if self.building_height[0] <= 0:
            raise ValueError("building heights must be positive")
        if self.noise_std < 0:
            raise ValueError("noise_std must be non-negative")


def write_atomic(path: str, blob: bytes) -> None:
    """Write ``blob`` to ``path`` atomically.

    The bytes go to a temporary file in the same directory, which then
    replaces ``path``; on failure the temporary file is removed, so no
    partial file is left behind.
    """
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(blob)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


class BlobReader:
    """Bounds-checked cursor over the bytes of a file.

    ``what`` names the file in every error ("raster file x.bmsr"). A
    length that runs past the end of the blob, or is negative, and text
    that does not decode are data errors, never numpy or codec errors.
    """

    def __init__(self, blob: bytes, what: str):
        self.blob = blob
        self.pos = 0
        self.what = what

    def take(self, n: int) -> bytes:
        if n < 0 or self.pos + n > len(self.blob):
            raise DataError(f"truncated {self.what}")
        out = self.blob[self.pos : self.pos + n]
        self.pos += n
        return out

    def unpack(self, fmt: str) -> tuple:
        return struct.unpack(fmt, self.take(struct.calcsize(fmt)))

    def u32(self) -> int:
        return self.unpack("<I")[0]

    def text(self, n: int, field: str, encoding: str = "utf-8") -> str:
        try:
            return self.take(n).decode(encoding)
        except UnicodeDecodeError as err:
            raise DataError(f"unreadable {field} in {self.what}") from err


def write_bmsr(stack: RasterStack, path: str) -> None:
    """Serialize a stack to ``path`` atomically in the BMSR layout."""
    if max(stack.width, stack.height, len(stack.bands)) > 0xFFFFFFFF:
        raise DataError("stack dimensions overflow the 32-bit header fields")
    chunks = [
        BMSR_MAGIC,
        struct.pack(
            "<IIIIBf",
            BMSR_VERSION,
            stack.width,
            stack.height,
            len(stack.bands),
            0,
            stack.gsd,
        ),
    ]
    for band in stack.bands:
        tag = band.role.encode("ascii")
        chunks.append(tag.ljust(_ROLE_FIELD, b"\x00"))
        chunks.append(np.ascontiguousarray(band.data, dtype="<f4").tobytes())
    write_atomic(path, b"".join(chunks))


def read_bmsr(path: str) -> RasterStack:
    try:
        with open(path, "rb") as fh:
            blob = fh.read()
    except OSError as err:
        raise DataError(f"cannot read raster {path}: {err}") from err

    r = BlobReader(blob, f"raster file {path}")
    if r.take(4) != BMSR_MAGIC:
        raise DataError(f"bad magic in {path}: not a BMSR file")
    version, width, height, n_bands, dtype_code, gsd = r.unpack("<IIIIBf")
    if version != BMSR_VERSION:
        raise DataError(f"unsupported BMSR version {version} in {path}")
    if dtype_code != 0:
        raise DataError(f"unknown dtype code {dtype_code} in {path}")
    if width < 1 or height < 1 or n_bands < 1:
        raise DataError(f"degenerate dimensions {width}x{height}x{n_bands} in {path}")
    if width * height * n_bands > _MAX_PIXELS:
        raise DataError(f"dimensions {width}x{height}x{n_bands} overflow sane bounds in {path}")

    bands = []
    for _ in range(n_bands):
        role = r.text(_ROLE_FIELD, "role tag", "ascii").rstrip("\x00")
        if role not in ROLES:
            raise DataError(f"unknown role tag {role!r} in {path}")
        data = np.frombuffer(r.take(4 * width * height), dtype="<f4").reshape(height, width)
        try:
            bands.append(Band(role, data))
        except ValueError as err:
            raise DataError(f"invalid raster in {path}: {err}") from err
    if r.pos != len(blob):
        raise DataError(f"{len(blob) - r.pos} trailing bytes after last band in {path}")
    try:
        return RasterStack(width=width, height=height, gsd=gsd, bands=tuple(bands))
    except ValueError as err:
        raise DataError(f"invalid raster in {path}: {err}") from err


def compute_ndvi(stack: RasterStack) -> RasterStack:
    """Append NDVI = (NIR - RED) / (NIR + RED), guarded and clamped."""
    if stack.has("NDVI"):
        raise DataError("stack already has an NDVI band")
    nir = stack.band("NIR").astype(np.float64)
    red = stack.band("RED").astype(np.float64)
    ndvi = np.clip((nir - red) / (nir + red + NDVI_EPS), -1.0, 1.0)
    return stack.with_band("NDVI", ndvi)


def normalize(stack: RasterStack, stats: dict | None = None) -> tuple[RasterStack, dict]:
    """Min-max map every non-MASK band to [0, 1].

    ``stats`` maps role -> (min, max). When omitted, per-band stats are
    computed from this stack and returned so inference can reuse them.
    """
    computed = stats is None
    if computed:
        stats = {
            b.role: (float(b.data.min()), float(b.data.max()))
            for b in stack.bands
            if b.role != "MASK"
        }
    bands = []
    for band in stack.bands:
        if band.role == "MASK":
            bands.append(band)
            continue
        if band.role not in stats:
            raise DataError(f"normalization stats missing band {band.role}")
        lo, hi = stats[band.role]
        scaled = (band.data.astype(np.float64) - lo) / (hi - lo + NORM_EPS)
        bands.append(Band(band.role, np.clip(scaled, 0.0, 1.0)))
    return replace(stack, bands=tuple(bands)), dict(stats)


def tile(stack: RasterStack, window: int = 128, stride: int = 128) -> TileSet:
    """Cut the scene into a row-major grid of square windows."""
    if window < 1 or stride < 1:
        raise DataError("window and stride must be positive")
    if window > stack.height or window > stack.width:
        raise DataError(
            f"window {window} exceeds scene {stack.height}x{stack.width}"
        )
    if (stack.height - window) % stride or (stack.width - window) % stride:
        raise DataError(
            f"scene {stack.height}x{stack.width} does not divide into "
            f"window {window} stride {stride} tiles; no implicit padding"
        )
    tiles = []
    for y in range(0, stack.height - window + 1, stride):
        for x in range(0, stack.width - window + 1, stride):
            bands = tuple(
                Band(b.role, b.data[y : y + window, x : x + window]) for b in stack.bands
            )
            tiles.append(
                TileRecord(x=x, y=y, stack=RasterStack(window, window, stack.gsd, bands))
            )
    return TileSet(
        height=stack.height, width=stack.width, window=window, stride=stride, tiles=tuple(tiles)
    )


def stitch(tiles: TileSet) -> RasterStack:
    """Reassemble a scene; overlapping windows average their claims."""
    if not tiles.tiles:
        raise DataError("cannot stitch an empty tile set")
    roles = tiles.tiles[0].stack.roles
    gsd = tiles.tiles[0].stack.gsd
    for t in tiles.tiles:
        if t.stack.roles != roles:
            raise DataError(f"tile at ({t.x}, {t.y}) has bands {t.stack.roles}, expected {roles}")
    accum = np.zeros((len(roles), tiles.height, tiles.width), dtype=np.float64)
    counts = np.zeros((tiles.height, tiles.width), dtype=np.int64)
    for t in tiles.tiles:
        w = tiles.window
        counts[t.y : t.y + w, t.x : t.x + w] += 1
        for i, role in enumerate(roles):
            accum[i, t.y : t.y + w, t.x : t.x + w] += t.stack.band(role)
    if not counts.all():
        raise DataError(
            f"{int((counts == 0).sum())} pixels are covered by no tile; "
            "stitching needs stride <= window"
        )
    bands = tuple(Band(role, accum[i] / counts) for i, role in enumerate(roles))
    return RasterStack(width=tiles.width, height=tiles.height, gsd=gsd, bands=bands)


def split_dataset(
    tiles: TileSet, spec: SplitSpec
) -> tuple[list[TileRecord], list[TileRecord], list[TileRecord]]:
    """Seeded shuffle, then cut into train/validation/test lists."""
    total = spec.train + spec.validation + spec.test
    if total != len(tiles):
        raise DataError(
            f"split counts {spec.train}+{spec.validation}+{spec.test} != {len(tiles)} tiles"
        )
    order = np.random.default_rng(spec.seed).permutation(len(tiles))
    shuffled = [tiles.tiles[i] for i in order]
    train = shuffled[: spec.train]
    validation = shuffled[spec.train : spec.train + spec.validation]
    test = shuffled[spec.train + spec.validation :]
    return train, validation, test


def _place_buildings(rng, spec: SyntheticSceneSpec):
    """Sample non-overlapping interior rectangles, or fail loudly."""
    count = int(rng.integers(spec.buildings[0], spec.buildings[1] + 1))
    occupied = np.zeros((spec.height, spec.width), dtype=bool)
    rects = []
    for _ in range(count):
        for _ in range(200):
            bh = int(rng.integers(spec.building_size[0], spec.building_size[1] + 1))
            bw = int(rng.integers(spec.building_size[0], spec.building_size[1] + 1))
            if spec.height - bh - 2 < 1 or spec.width - bw - 2 < 1:
                continue
            y = int(rng.integers(1, spec.height - bh - 1))
            x = int(rng.integers(1, spec.width - bw - 1))
            y0, x0 = max(0, y - 2), max(0, x - 2)
            if occupied[y0 : y + bh + 2, x0 : x + bw + 2].any():
                continue
            occupied[y : y + bh, x : x + bw] = True
            rects.append((y, x, bh, bw))
            break
        else:
            raise DataError(
                f"could not place building {len(rects) + 1} of {count} after 200 tries; "
                "scene too small or buildings too large"
            )
    return rects


def synth_scene(spec: SyntheticSceneSpec) -> RasterStack:
    """Build a scene: noisy background, elevated rectangular buildings,
    high-NIR near-ground vegetation, exact MASK and LABELS rasters."""
    rng = np.random.default_rng(spec.seed)
    shape = (spec.height, spec.width)
    spectral = {role: np.full(shape, value) for role, value in _BACKGROUND.items()}
    dsm = np.zeros(shape)
    mask = np.zeros(shape)
    labels = np.full(shape, LABEL_BACKGROUND)

    for y, x, bh, bw in _place_buildings(rng, spec):
        height = rng.uniform(*spec.building_height)
        window = (slice(y, y + bh), slice(x, x + bw))
        for role in spectral:
            spectral[role][window] = _ROOF[role]
        dsm[window] = height
        mask[window] = 1.0
        labels[window] = LABEL_BUILDING

    rows, cols = np.indices(shape)
    veg_count = int(rng.integers(spec.vegetation[0], spec.vegetation[1] + 1))
    for _ in range(veg_count):
        cy = rng.uniform(0, spec.height)
        cx = rng.uniform(0, spec.width)
        ry = rng.uniform(spec.vegetation_radius[0], spec.vegetation_radius[1])
        rx = rng.uniform(spec.vegetation_radius[0], spec.vegetation_radius[1])
        blob = ((rows - cy) / ry) ** 2 + ((cols - cx) / rx) ** 2 <= 1.0
        blob &= mask == 0.0  # vegetation never paints over a roof
        for role in spectral:
            spectral[role][blob] = _VEGETATION[role]
        dsm[blob] = _VEGETATION_DSM
        labels[blob] = LABEL_VEGETATION

    for role in spectral:
        noisy = spectral[role] + rng.normal(0.0, spec.noise_std, shape)
        spectral[role] = np.clip(noisy, 0.0, 1.0)
    dsm = dsm + rng.normal(0.0, spec.noise_std, shape)

    bands = tuple(
        Band(role, data)
        for role, data in (
            ("RED", spectral["RED"]),
            ("GREEN", spectral["GREEN"]),
            ("BLUE", spectral["BLUE"]),
            ("NIR", spectral["NIR"]),
            ("DSM", dsm),
            ("MASK", mask),
            ("LABELS", labels),
        )
    )
    return RasterStack(width=spec.width, height=spec.height, gsd=spec.gsd, bands=bands)
