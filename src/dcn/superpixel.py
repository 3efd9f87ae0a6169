"""Superpixel segmentation and per-segment feature pooling.

A from-scratch SLIC clusterer produces compact, near-uniform segments
on a multi-channel feature image. Pixels are assigned to the nearest
seeded cluster center under a combined feature/spatial distance, centers
move to their segment means, and tiny or disconnected fragments are
merged into neighbouring segments afterwards. A stack of equally sized
tiles is clustered at once, each tile as it would be on its own.
``superpixel_mean`` pools
per-pixel descriptors into per-segment descriptors differentiably, so a
loss on segments backpropagates to every member pixel.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, field

import numpy as np

from .autodiff import Tensor, _apply

MAX_ITERS = 10
"""Assignment sweeps every tile runs: the fixed 10 iterations of Achanta
et al. (TPAMI 2012)."""

MIN_SIZE_FACTOR = 0.25
"""Fragment-merge threshold as a share of the mean segment area
``h*w/k_desired``; see ``_merge_fragments``."""

SWEEP_BLOCK_CELLS = 1 << 15
"""Window cells an assignment sweep scores at once. Centers are taken in
blocks of about this many cells, so each per-sweep temporary stays near
256 KiB whatever the stack size and center count. On 64x64 tiles with
64 centers each (17x17-cell windows), segmented in the chunks of 4 tiles
``dcn predict`` uses for the narrow model, blocks of half or twice the
size were no faster by more than the run-to-run spread of perfbench's
predict-scenes workload on a 2-core VM."""


@dataclass(frozen=True)
class SlicParams:
    """Clustering knobs: segment count target and compactness trade-off.

    ``m`` weights spatial distance against feature distance; larger
    values yield more compact, grid-like segments. ``m * m`` must be
    finite: the spatial weight ``(m / S)**2`` uses it, and S >= 1.
    """

    k_desired: int
    m: float = 10.0

    def __post_init__(self) -> None:
        if self.k_desired < 1:
            raise ValueError(f"k_desired must be positive, got {self.k_desired}")
        if not (self.m > 0 and math.isfinite(self.m * self.m)):  # also rejects nan
            raise ValueError(f"compactness m must be positive with a finite square, got {self.m}")


@dataclass
class SuperpixelMap:
    """Dense segmentation of one image: labels and segment sizes.

    ``labels`` maps each pixel to a segment id in ``[0, n_segments)``;
    ids are dense and ordered by first appearance in row-major scan.
    ``counts`` holds each segment's pixel count.
    ``center_motion`` records the summed Euclidean center displacement
    of each clustering sweep, ``MAX_ITERS`` of them for a SLIC map.
    ``converged`` says the last sweep moved no center.
    """

    labels: np.ndarray
    counts: np.ndarray
    center_motion: tuple[float, ...] = field(default_factory=tuple)

    @property
    def converged(self) -> bool:
        return bool(self.center_motion) and self.center_motion[-1] == 0.0

    @property
    def n_segments(self) -> int:
        return len(self.counts)

    @property
    def shape(self) -> tuple[int, int]:
        return self.labels.shape

    @classmethod
    def from_labels(
        cls,
        labels: np.ndarray,
        features: np.ndarray | None = None,
        center_motion: tuple[float, ...] = (),
    ) -> "SuperpixelMap":
        """Build a map from a label raster, validating the partition.

        ``features``, when given, must be an [h, w, c] raster covering
        the labels; it is checked, not kept.
        """
        labels = np.asarray(labels)
        if labels.ndim != 2:
            raise ValueError(f"labels must be [h, w], got shape {labels.shape}")
        if features is not None:
            shape = np.shape(features)
            if len(shape) != 3 or shape[:2] != labels.shape:
                raise ValueError(
                    f"features shape {shape} does not cover labels {labels.shape}"
                )
        if not np.issubdtype(labels.dtype, np.integer):
            raise ValueError(f"labels must be integers, got dtype {labels.dtype}")
        n = int(labels.max()) + 1
        counts = np.bincount(labels.ravel(), minlength=n)
        if labels.min() < 0 or (counts == 0).any():
            raise ValueError("labels must be dense in [0, S) with no empty segment")
        return cls(
            labels=labels.astype(np.int64), counts=counts, center_motion=tuple(center_motion)
        )


def stack_maps(spmaps) -> SuperpixelMap:
    """One tall map of equally wide maps laid top to bottom.

    Each map's labels are offset by the segment count of the maps above
    it, so segment ids stay dense and keep their order tile by tile.
    """
    offsets = np.cumsum([0] + [sp.n_segments for sp in spmaps[:-1]])
    labels = np.concatenate([sp.labels + off for sp, off in zip(spmaps, offsets)])
    counts = np.concatenate([sp.counts for sp in spmaps])
    return SuperpixelMap(labels=labels, counts=counts)


def zscore_features(tile: np.ndarray) -> np.ndarray:
    """Standardize each channel of [h, w, c] to zero mean, unit spread."""
    if tile.ndim != 3:
        raise ValueError(f"expected [h, w, c] features, got shape {tile.shape}")
    mu = tile.mean(axis=(0, 1), keepdims=True)
    sd = tile.std(axis=(0, 1), keepdims=True)
    return (tile - mu) / (sd + 1e-12)


def _gradient_magnitude(feat: np.ndarray) -> np.ndarray:
    """Squared central-difference magnitude per pixel, summed over channels.

    Takes [..., h, w, c] and returns [..., h, w]. Border pixels get +inf
    so seed perturbation never lands on them.
    """
    *lead, h, w, _ = feat.shape
    g = np.full((*lead, h, w), np.inf)
    if h >= 3 and w >= 3:
        dy = feat[..., 2:, 1:-1, :] - feat[..., :-2, 1:-1, :]
        dx = feat[..., 1:-1, 2:, :] - feat[..., 1:-1, :-2, :]
        inner = np.zeros((*lead, h - 2, w - 2))
        inner += (dy ** 2).sum(axis=-1) + (dx ** 2).sum(axis=-1)
        g[..., 1:-1, 1:-1] = inner
    return g


def seed_centers(feat: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray, float]:
    """Grid-seed the cluster centers of every tile of a [t, h, w, c] stack.

    Each grid point, in row-major order, moves to the lowest-gradient
    pixel of its 3x3 neighbourhood clipped to the tile; the first
    minimum in row-major order wins.

    Returns (positions [t, n, 2] as float (y, x), features [t, n, c],
    S_grid); every tile gets the same n centers and spacing.
    """
    t, h, w, _ = feat.shape
    s_grid = float(np.sqrt(h * w / k))
    nx = max(1, int(round(w / s_grid)))
    ny = max(1, int(round(h / s_grid)))
    grad = _gradient_magnitude(feat)

    gy = np.clip(((np.arange(ny) + 0.5) * h / ny).astype(np.int64), 0, h - 1)
    gx = np.clip(((np.arange(nx) + 0.5) * w / nx).astype(np.int64), 0, w - 1)
    step = np.array([-1, 0, 1])
    ys = np.repeat(gy, nx)[:, None] + np.repeat(step, 3)  # [n, 9], row-major 3x3
    xs = np.tile(gx, ny)[:, None] + np.tile(step, 3)
    inside = (ys >= 0) & (ys < h) & (xs >= 0) & (xs < w)
    g = np.where(inside, grad[:, np.clip(ys, 0, h - 1), np.clip(xs, 0, w - 1)], np.inf)
    # np.argmin semantics within the clipped window: a NaN counts as the minimum
    low = g.min(axis=2, keepdims=True)
    pick = (inside & ((g == low) | np.isnan(g))).argmax(axis=2)  # [t, n]
    seeds = np.arange(len(ys))
    py, px = ys[seeds, pick], xs[seeds, pick]
    positions = np.stack([py, px], axis=2).astype(np.float64)
    return positions, feat[np.arange(t)[:, None], py, px].astype(np.float64), s_grid


def assign_pixels(
    feat: np.ndarray,
    positions: np.ndarray,
    center_feats: np.ndarray,
    s_grid: float,
    m: float,
) -> np.ndarray:
    """One assignment sweep over a [t, h, w, c] stack: [t, h, w] labels.

    Tile i's pixels join the nearest of its own centers,
    ``positions[i]`` ([n, 2]) with features ``center_feats[i]``
    ([n, c]), and labels count those centers from 0 in every tile. A
    center searches the 2S x 2S window of Achanta et al. (TPAMI 2012):
    the pixels within ``s_grid`` of it along each axis. The combined
    distance is ``sqrt(d_feat + (m / s_grid)**2 * d_xy)`` with ``d_xy``
    the squared spatial distance; ``d_feat`` adds the
    per-channel squared feature differences one channel at a time, in
    channel order (below 8 channels, the same bits as numpy's last-axis
    ``sum``). A pixel joins the center at the smallest distance, exact
    ties resolve to the lowest center index and a NaN distance never
    wins. Pixels outside every search window of their tile fall back to
    a nearest-center pass over all that tile's centers, which sums
    channels with numpy's ``sum``.

    The centers of all tiles are numbered tile after tile and scored in
    blocks (about ``SWEEP_BLOCK_CELLS`` cells): per channel, a
    [centers, wy, wx] array gathered from a strided view of the tiles'
    zero-padded feature planes, built once per call. A scatter-min over
    the block's span of pixels, numbered ``tile * h * w + y * w + x``,
    picks each pixel's winner in the block, and a later block takes a
    pixel over only when strictly closer. Each tile's labels are those
    it would get on its own.
    """
    t, h, w, c = feat.shape
    n = positions.shape[1]
    spatial_w = (m / s_grid) ** 2
    reach = s_grid
    cy, cx = positions[..., 0].ravel(), positions[..., 1].ravel()
    tile_of = np.repeat(np.arange(t), n)
    # np.trunc, like int(), rounds toward zero for centers off the image
    y0 = np.maximum(0, np.trunc(cy - reach).astype(np.int64))
    y1 = np.minimum(h, np.trunc(cy + reach).astype(np.int64) + 1)
    x0 = np.maximum(0, np.trunc(cx - reach).astype(np.int64))
    x1 = np.minimum(w, np.trunc(cx + reach).astype(np.int64) + 1)
    live = np.flatnonzero((y0 < y1) & (x0 < x1))

    best = np.full(t * h * w, np.inf)  # per pixel: best distance, winning center
    winner = np.full(t * h * w, -1)
    if live.size:
        wy, wx = int((y1 - y0)[live].max()), int((x1 - x0)[live].max())
        planes = np.zeros((c, t, h + wy - 1, w + wx - 1))
        planes[:, :, :h, :w] = np.moveaxis(feat, 3, 0)
        windows = np.lib.stride_tricks.sliding_window_view(planes, (wy, wx), axis=(2, 3))
        flat_positions = positions.reshape(-1, 2)
        flat_feats = center_feats.reshape(-1, c)
        # first pixel of each center's window row, on the tile-major pixel axis
        row_start = tile_of * (h * w) + y0 * w
        rows = np.arange(wy)
        step = max(1, SWEEP_BLOCK_CELLS // (wy * wx))
        for lo in range(0, live.size, step):
            idx = live[lo : lo + step]
            d = _window_distances(
                windows,
                flat_positions[idx],
                flat_feats[idx],
                tile_of[idx],
                y0[idx],
                x0[idx],
                spatial_w,
            ).ravel()
            # the block's windows lie in pixels [top, bottom); cells outside
            # their own center's window go to the spare slot `band`
            top = int(row_start[idx].min())
            bottom = int((row_start[idx] + (y1[idx] - y0[idx]) * w).max())
            band = bottom - top
            row_at = np.where(
                rows < (y1 - y0)[idx, None], row_start[idx, None] - top + rows * w, band
            )
            cols = x0[idx, None] + np.arange(wx)
            col_at = np.where(cols < x1[idx, None], cols, band)
            pix = row_at[:, :, None] + col_at[:, None, :]
            pix = np.minimum(pix, band, out=pix).ravel()
            block_best = np.full(band + 1, np.inf)
            np.fmin.at(block_best, pix, d)  # a NaN distance is skipped
            tied = np.flatnonzero(d == block_best[pix])
            block_winner = np.full(band + 1, t * n)
            np.minimum.at(block_winner, pix[tied], idx[tied // (wy * wx)])
            # a block takes a pixel over only when strictly closer, since
            # earlier blocks hold the lower center indices
            span = slice(top, bottom)
            closer = block_best[:-1] < best[span]
            best[span][closer] = block_best[:-1][closer]
            winner[span][closer] = block_winner[:-1][closer]
    labels = winner.reshape(t, h, w)
    missed = labels < 0
    labels -= np.arange(t)[:, None, None] * n  # each tile counts its centers from 0
    if missed.any():
        ts, ys, xs = np.nonzero(missed)
        pts = feat[missed]
        d_feat = ((pts[:, None, :] - center_feats[ts]) ** 2).sum(axis=-1)
        d_xy = (ys[:, None] - positions[ts, :, 0]) ** 2 + (xs[:, None] - positions[ts, :, 1]) ** 2
        d = np.sqrt(d_feat + spatial_w * d_xy)
        labels[missed] = d.argmin(axis=1)
    return labels


def _window_distances(
    windows: np.ndarray,
    positions: np.ndarray,
    center_feats: np.ndarray,
    tiles: np.ndarray,
    y0: np.ndarray,
    x0: np.ndarray,
    spatial_w: float,
) -> np.ndarray:
    """Combined distance from each center to each cell of its window block.

    ``windows`` is the [c, t, ., ., wy, wx] sliding view of the
    zero-padded channel planes; block i starts at (y0[i], x0[i]) of tile
    ``tiles[i]``. Returns [n, wy, wx].
    """
    wy, wx = windows.shape[-2:]
    d = np.zeros((len(y0), wy, wx))
    for j in range(windows.shape[0]):
        sq = windows[j][tiles, y0, x0]
        sq -= center_feats[:, j, None, None]
        sq *= sq
        d += sq
    ys = y0[:, None] + np.arange(wy) - positions[:, 0, None]
    xs = x0[:, None] + np.arange(wx) - positions[:, 1, None]
    d_xy = ys[:, :, None] ** 2 + xs[:, None, :] ** 2
    d_xy *= spatial_w
    d += d_xy
    np.sqrt(d, out=d)
    return d


def _distinct(values: np.ndarray) -> np.ndarray:
    """Sorted distinct values; ``np.unique`` would load ``numpy.ma`` (1.7 MiB)."""
    values = np.sort(values)
    keep = np.ones(len(values), dtype=bool)
    keep[1:] = values[1:] != values[:-1]
    return values[keep]


def _find_root(parent: list[int], x: int) -> int:
    """Union-find root of ``x``, halving the path on the way."""
    while parent[x] != x:
        parent[x] = parent[parent[x]]
        x = parent[x]
    return x


def _components(labels: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """4-connected components of equal labels, by union-find over row runs.

    Returns (component id per pixel, first pixel of each component as a
    row-major index). Ids are dense and ordered by first pixel.
    """
    h, w = labels.shape
    starts = np.ones((h, w), dtype=bool)
    starts[:, 1:] = labels[:, 1:] != labels[:, :-1]
    run = np.cumsum(starts.ravel()).reshape(h, w) - 1  # runs in row-major order
    n_runs = int(run[-1, -1]) + 1
    same = labels[1:] == labels[:-1]
    links = _distinct(run[:-1][same] * n_runs + run[1:][same])

    # each root is the lowest run of its component, the one that holds
    # the component's first pixel
    parent = list(range(n_runs))
    for a, b in zip((links // n_runs).tolist(), (links % n_runs).tolist()):
        a, b = _find_root(parent, a), _find_root(parent, b)
        if a < b:
            parent[b] = a
        elif b < a:
            parent[a] = b
    root = np.asarray(parent)
    while True:
        hop = root[root]
        if np.array_equal(hop, root):
            break
        root = hop
    is_root = root == np.arange(n_runs)
    comp_of_run = (np.cumsum(is_root) - 1)[root]
    return comp_of_run[run], np.flatnonzero(starts)[is_root]


def _merge_fragments(labels: np.ndarray, min_size: float) -> np.ndarray:
    """Merge disconnected fragments and undersized segments.

    Connected components (4-neighbour, equal label) smaller than
    ``min_size`` are absorbed, smallest first, into their largest
    adjacent component; ties pick the lowest component id. The result
    is renumbered densely in row-major order of first appearance.
    """
    if labels.ndim != 2:
        raise ValueError(f"labels must be [h, w], got shape {labels.shape}")
    comp, first_pixel = _components(labels)
    n = len(first_pixel)
    comp_sizes = np.bincount(comp.ravel(), minlength=n)
    right = comp[:, :-1] != comp[:, 1:]
    down = comp[:-1, :] != comp[1:, :]
    a = np.concatenate([comp[:, :-1][right], comp[:-1, :][down]])
    b = np.concatenate([comp[:, 1:][right], comp[1:, :][down]])
    pairs = _distinct(np.minimum(a, b) * n + np.maximum(a, b))
    merged_adj: dict[int, set[int]] = {i: set() for i in range(n)}
    for lo, hi in zip((pairs // n).tolist(), (pairs % n).tolist()):
        merged_adj[lo].add(hi)
        merged_adj[hi].add(lo)

    # union-find over components; small ones dissolve into neighbours.
    # The heap holds a (size, id) entry for every undersized component;
    # an entry whose component has since merged away or grown is stale
    # and skipped. A component without neighbours never gains any.
    parent = list(range(n))
    sizes = dict(enumerate(comp_sizes.tolist()))
    firsts = dict(enumerate(first_pixel.tolist()))
    heap = [(s, r) for r, s in sizes.items() if s < min_size]
    heapq.heapify(heap)

    while heap:
        size, victim = heapq.heappop(heap)
        if sizes.get(victim) != size or not merged_adj[victim]:
            continue
        target = max(merged_adj[victim], key=lambda r: (sizes[r], -r))
        parent[victim] = target
        sizes[target] += sizes.pop(victim)
        firsts[target] = min(firsts[target], firsts.pop(victim))
        neighbours = merged_adj.pop(victim)
        neighbours.discard(target)
        merged_adj[target].discard(victim)
        merged_adj[target].update(neighbours)
        for nb in neighbours:
            merged_adj[nb].discard(victim)
            merged_adj[nb].add(target)
        if sizes[target] < min_size:
            heapq.heappush(heap, (sizes[target], target))

    roots = sorted(sizes, key=lambda r: firsts[r])
    rank = {r: i for i, r in enumerate(roots)}
    root_of = np.array([rank[_find_root(parent, i)] for i in range(n)], dtype=np.int64)
    return root_of[comp]


def slic_segment(features: np.ndarray, params: SlicParams) -> SuperpixelMap:
    """Cluster an [h, w, c] feature image into about ``k_desired`` segments.

    The one-tile case of ``slic_segment_batch``.
    """
    feat = np.asarray(features, dtype=np.float64)
    if feat.ndim != 3:
        raise ValueError(f"expected [h, w, c] features, got shape {feat.shape}")
    return slic_segment_batch(feat[None], params)[0]


def slic_segment_batch(features, params: SlicParams) -> list[SuperpixelMap]:
    """Cluster every tile of a [t, h, w, c] stack into about ``k_desired`` segments.

    Every tile runs ``MAX_ITERS`` sweeps. Each sweep assigns the pixels
    to their centers (``assign_pixels``) and moves every occupied center,
    position and features at once, to its members' mean. Fragments are
    merged afterwards, tile by tile. Every tile's map and motion are
    those it gets when segmented on its own.
    """
    feat = np.asarray(features, dtype=np.float64)
    if feat.ndim != 4:
        raise ValueError(f"expected [t, h, w, c] features, got shape {feat.shape}")
    if feat.size == 0:
        raise ValueError("features must be non-empty")
    t, h, w, c = feat.shape
    k = params.k_desired
    if k > h * w:
        raise ValueError(f"k_desired {k} exceeds pixel count {h * w}")

    positions, cfeats, s_grid = seed_centers(feat, k)
    n = positions.shape[1]
    # Achanta's 5-D center vector, position (y, x) then features; tile i
    # owns rows i*n + [0, n), and every pixel is a point in the same space
    per_tile = np.concatenate([positions, cfeats], axis=2)
    centers = per_tile.reshape(t * n, 2 + c)  # a view: updates reach per_tile
    grid = np.stack(np.mgrid[0:h, 0:w], axis=2).astype(np.float64)
    points = np.concatenate([np.broadcast_to(grid, (t, h, w, 2)), feat], axis=3)
    points = points.reshape(-1, 2 + c)
    offsets = (np.arange(t) * n)[:, None, None]
    motion = np.empty((MAX_ITERS, t))

    for sweep in range(MAX_ITERS):
        labels = assign_pixels(feat, per_tile[..., :2], per_tile[..., 2:], s_grid, params.m)
        flat = (labels + offsets).ravel()
        counts = np.bincount(flat, minlength=t * n)
        occupied = counts > 0
        old = centers[:, :2].copy()
        sums = _label_sums(flat, points, t * n)
        centers[occupied] = sums[occupied] / counts[occupied, None]
        step = np.sqrt(((centers[:, :2] - old) ** 2).sum(axis=1))
        motion[sweep] = step.reshape(t, n).sum(axis=1)

    min_size = MIN_SIZE_FACTOR * (h * w / k)
    return [
        SuperpixelMap.from_labels(
            _merge_fragments(labels[i], min_size), center_motion=tuple(motion[:, i].tolist())
        )
        for i in range(t)
    ]


def _label_sums(flat: np.ndarray, values: np.ndarray, n: int) -> np.ndarray:
    """Float64 per-label sums of [pixels, c] values: [n, c].

    One ``np.bincount`` per channel; each adds in pixel order in float64,
    the same sequence of additions as ``np.add.at`` on a float64 buffer.
    """
    return np.stack(
        [np.bincount(flat, weights=values[:, j], minlength=n) for j in range(values.shape[1])],
        axis=1,
    )


def segment_means(values: np.ndarray, labels: np.ndarray, n_segments: int) -> np.ndarray:
    """Mean of ``values`` ([h, w] or [h, w, c]) over each label."""
    if labels.shape != values.shape[:2]:
        raise ValueError(
            f"labels shape {labels.shape} does not match values shape {values.shape}"
        )
    flat = labels.ravel()
    if flat.min() < 0 or flat.max() >= n_segments:
        raise ValueError("labels fall outside [0, n_segments)")
    counts = np.bincount(flat, minlength=n_segments)
    if (counts == 0).any():
        raise ValueError("every segment must own at least one pixel")
    means = _label_sums(flat, values.reshape(flat.size, -1), n_segments) / counts[:, None]
    return means if values.ndim == 3 else means[:, 0]


def superpixel_mean(spmap: SuperpixelMap, features: Tensor) -> Tensor:
    """Differentiable per-segment mean pooling: [h, w, c] -> [n_segments, c].

    The backward pass hands each pixel an equal share of its segment's
    gradient: grad_pixel = grad_segment / segment_size.
    """
    if features.data.ndim != 3:
        raise ValueError(f"expected [h, w, c] input, got shape {features.shape}")
    if features.shape[:2] != spmap.shape:
        raise ValueError(
            f"features shape {features.shape} does not cover map {spmap.shape}"
        )
    h, w, c = features.shape
    labels, n_segments = spmap.labels, spmap.n_segments
    means = segment_means(features.data, labels, n_segments).astype(features.data.dtype)
    flat = labels.ravel()
    counts = spmap.counts.astype(features.data.dtype)

    def bwd(g):
        share = g / counts[:, None]
        return (share[flat].reshape(h, w, c),)

    return _apply("superpixel_mean", (features,), means, bwd)


def broadcast_labels(spmap: SuperpixelMap, per_superpixel: np.ndarray) -> np.ndarray:
    """Paint per-segment values back onto pixels: [S(,c)] -> [h, w(,c)]."""
    if per_superpixel.shape[0] != spmap.n_segments:
        raise ValueError(
            f"expected {spmap.n_segments} per-segment values, got {per_superpixel.shape[0]}"
        )
    return per_superpixel[spmap.labels]
