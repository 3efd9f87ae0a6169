"""Superpixel segmentation and per-segment feature pooling.

A from-scratch SLIC clusterer produces compact, near-uniform segments
on a multi-channel feature image. Pixels are assigned to the nearest
seeded cluster center under a combined feature/spatial distance, centers
move to their segment means, and tiny or disconnected fragments are
merged into neighbouring segments afterwards. ``superpixel_mean`` pools
per-pixel descriptors into per-segment descriptors differentiably, so a
loss on segments backpropagates to every member pixel.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

import numpy as np

from .autodiff import Tensor, _apply

CONVERGENCE_EPS = 1e-3


@dataclass(frozen=True)
class SlicParams:
    """Clustering knobs: segment count target and compactness trade-off.

    ``m`` weights spatial distance against feature distance; larger
    values yield more compact, grid-like segments. ``min_size_factor``
    scales the fragment-merge threshold relative to the mean segment
    area ``h*w/k_desired``.
    """

    k_desired: int
    m: float = 10.0
    max_iters: int = 10
    min_size_factor: float = 0.25

    def __post_init__(self) -> None:
        if self.k_desired < 1:
            raise ValueError(f"k_desired must be positive, got {self.k_desired}")
        if not self.m > 0:
            raise ValueError(f"compactness m must be positive, got {self.m}")
        if self.max_iters < 1:
            raise ValueError(f"max_iters must be at least 1, got {self.max_iters}")
        if not 0 < self.min_size_factor <= 1:
            raise ValueError(
                f"min_size_factor must lie in (0, 1], got {self.min_size_factor}"
            )


@dataclass
class SuperpixelMap:
    """Dense segmentation of one image plus per-segment statistics.

    ``labels`` maps each pixel to a segment id in ``[0, n_segments)``;
    ids are dense and ordered by first appearance in row-major scan.
    ``counts`` and ``feature_means`` hold each segment's pixel count and
    mean feature vector; ``features`` keeps the source raster so the
    statistics can be recomputed after segments are reshaped. A map
    built from labels alone (a pooling partition) has neither: both
    are None.
    ``center_motion`` records the summed Euclidean center displacement
    of each clustering iteration that ran.
    """

    labels: np.ndarray
    n_segments: int
    counts: np.ndarray
    feature_means: np.ndarray | None
    features: np.ndarray | None
    center_motion: tuple[float, ...] = field(default_factory=tuple)
    converged: bool = False

    @property
    def shape(self) -> tuple[int, int]:
        return self.labels.shape

    @classmethod
    def from_labels(
        cls,
        labels: np.ndarray,
        features: np.ndarray | None = None,
        center_motion: tuple[float, ...] = (),
        converged: bool = False,
    ) -> "SuperpixelMap":
        """Build a map from a label raster, validating the partition.

        Without ``features`` the map carries labels and counts only,
        which is all that pooling needs.
        """
        labels = np.asarray(labels)
        if labels.ndim != 2:
            raise ValueError(f"labels must be [h, w], got shape {labels.shape}")
        if features is not None:
            features = np.asarray(features, dtype=np.float64)
            if features.ndim != 3 or features.shape[:2] != labels.shape:
                raise ValueError(
                    f"features shape {features.shape} does not cover labels {labels.shape}"
                )
        if not np.issubdtype(labels.dtype, np.integer):
            raise ValueError(f"labels must be integers, got dtype {labels.dtype}")
        n = int(labels.max()) + 1
        counts = np.bincount(labels.ravel(), minlength=n)
        if labels.min() < 0 or (counts == 0).any():
            raise ValueError("labels must be dense in [0, S) with no empty segment")
        means = None if features is None else segment_means(features, labels, n)
        return cls(
            labels=labels.astype(np.int64),
            n_segments=n,
            counts=counts,
            feature_means=means,
            features=features,
            center_motion=tuple(center_motion),
            converged=converged,
        )


def zscore_features(tile: np.ndarray) -> np.ndarray:
    """Standardize each channel of [h, w, c] to zero mean, unit spread."""
    if tile.ndim != 3:
        raise ValueError(f"expected [h, w, c] features, got shape {tile.shape}")
    mu = tile.mean(axis=(0, 1), keepdims=True)
    sd = tile.std(axis=(0, 1), keepdims=True)
    return (tile - mu) / (sd + 1e-12)


def _gradient_magnitude(feat: np.ndarray) -> np.ndarray:
    """Squared central-difference magnitude per pixel, summed over channels.

    Border pixels get +inf so seed perturbation never lands on them.
    """
    h, w, _ = feat.shape
    g = np.full((h, w), np.inf)
    if h >= 3 and w >= 3:
        inner = np.zeros((h - 2, w - 2))
        dy = feat[2:, 1:-1, :] - feat[:-2, 1:-1, :]
        dx = feat[1:-1, 2:, :] - feat[1:-1, :-2, :]
        inner += (dy ** 2).sum(axis=-1) + (dx ** 2).sum(axis=-1)
        g[1:-1, 1:-1] = inner
    return g


def seed_centers(feat: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray, float]:
    """Grid-seed cluster centers, nudged off high-gradient pixels.

    Returns (positions [n, 2] as float (y, x), features [n, c], S_grid).
    """
    h, w, c = feat.shape
    s_grid = float(np.sqrt(h * w / k))
    nx = max(1, int(round(w / s_grid)))
    ny = max(1, int(round(h / s_grid)))
    grad = _gradient_magnitude(feat)

    positions = np.zeros((ny * nx, 2))
    features = np.zeros((ny * nx, c))
    for j in range(ny):
        for i in range(nx):
            cy = (j + 0.5) * h / ny
            cx = (i + 0.5) * w / nx
            py = min(h - 1, max(0, int(cy)))
            px = min(w - 1, max(0, int(cx)))
            y0, y1 = max(0, py - 1), min(h, py + 2)
            x0, x1 = max(0, px - 1), min(w, px + 2)
            window = grad[y0:y1, x0:x1]
            flat = int(np.argmin(window))
            py = y0 + flat // window.shape[1]
            px = x0 + flat % window.shape[1]
            idx = j * nx + i
            positions[idx] = (py, px)
            features[idx] = feat[py, px]
    return positions, features, s_grid


def assign_pixels(
    feat: np.ndarray,
    positions: np.ndarray,
    center_feats: np.ndarray,
    s_grid: float,
    m: float,
) -> np.ndarray:
    """One assignment sweep: each pixel joins its nearest center.

    Centers are visited in index order and only a strictly smaller
    combined distance displaces an earlier assignment, so exact ties
    resolve to the lowest center index. Pixels outside every search
    window fall back to a global nearest-center pass.
    """
    h, w, _ = feat.shape
    best = np.full((h, w), np.inf)
    labels = np.full((h, w), -1, dtype=np.int64)
    spatial_w = (m / s_grid) ** 2
    reach = 2.0 * s_grid

    for idx in range(len(positions)):
        cy, cx = positions[idx]
        y0, y1 = max(0, int(cy - reach)), min(h, int(cy + reach) + 1)
        x0, x1 = max(0, int(cx - reach)), min(w, int(cx + reach) + 1)
        if y0 >= y1 or x0 >= x1:
            continue
        window = feat[y0:y1, x0:x1]
        d_feat = ((window - center_feats[idx]) ** 2).sum(axis=-1)
        ys = np.arange(y0, y1)[:, None] - cy
        xs = np.arange(x0, x1)[None, :] - cx
        d = np.sqrt(d_feat + spatial_w * (ys ** 2 + xs ** 2))
        closer = d < best[y0:y1, x0:x1]
        best[y0:y1, x0:x1] = np.where(closer, d, best[y0:y1, x0:x1])
        labels[y0:y1, x0:x1] = np.where(closer, idx, labels[y0:y1, x0:x1])

    missed = labels < 0
    if missed.any():
        pts = feat[missed]
        ys, xs = np.nonzero(missed)
        d_feat = ((pts[:, None, :] - center_feats[None, :, :]) ** 2).sum(axis=-1)
        d_xy = (ys[:, None] - positions[None, :, 0]) ** 2 + (
            xs[:, None] - positions[None, :, 1]
        ) ** 2
        d = np.sqrt(d_feat + spatial_w * d_xy)
        labels[missed] = d.argmin(axis=1)
    return labels


def _merge_fragments(labels: np.ndarray, min_size: float) -> np.ndarray:
    """Merge disconnected fragments and undersized segments.

    Connected components (4-neighbour, equal label) smaller than
    ``min_size`` are absorbed, smallest first, into their largest
    adjacent component; ties pick the lowest component id. The result
    is renumbered densely in row-major order of first appearance.
    """
    if labels.ndim != 2:
        raise ValueError(f"labels must be [h, w], got shape {labels.shape}")
    h, w = labels.shape
    comp = np.full((h, w), -1, dtype=np.int64)
    comp_sizes: list[int] = []
    first_pixel: list[int] = []

    for sy in range(h):
        for sx in range(w):
            if comp[sy, sx] >= 0:
                continue
            cid = len(comp_sizes)
            lab = labels[sy, sx]
            queue = deque([(sy, sx)])
            comp[sy, sx] = cid
            size = 0
            while queue:
                y, x = queue.popleft()
                size += 1
                for ny, nx in ((y - 1, x), (y + 1, x), (y, x - 1), (y, x + 1)):
                    if 0 <= ny < h and 0 <= nx < w:
                        if comp[ny, nx] < 0 and labels[ny, nx] == lab:
                            comp[ny, nx] = cid
                            queue.append((ny, nx))
            comp_sizes.append(size)
            first_pixel.append(sy * w + sx)

    n = len(comp_sizes)
    adj: list[set[int]] = [set() for _ in range(n)]
    right = comp[:, :-1] != comp[:, 1:]
    for a, b in zip(comp[:, :-1][right], comp[:, 1:][right]):
        adj[a].add(int(b))
        adj[b].add(int(a))
    down = comp[:-1, :] != comp[1:, :]
    for a, b in zip(comp[:-1, :][down], comp[1:, :][down]):
        adj[a].add(int(b))
        adj[b].add(int(a))

    # union-find over components; small ones dissolve into neighbours
    parent = list(range(n))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    sizes = dict(enumerate(comp_sizes))
    firsts = dict(enumerate(first_pixel))
    merged_adj = {i: set(s) for i, s in enumerate(adj)}

    while True:
        active = [r for r in sizes if sizes[r] < min_size and merged_adj[r]]
        if not active:
            break
        victim = min(active, key=lambda r: (sizes[r], r))
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

    roots = sorted(sizes, key=lambda r: firsts[r])
    rank = {r: i for i, r in enumerate(roots)}
    root_of = np.array([rank[find(i)] for i in range(n)], dtype=np.int64)
    return root_of[comp]


def enforce_connectivity(spmap: SuperpixelMap, min_size: float) -> SuperpixelMap:
    """Split stray islands into their own segments and absorb small ones.

    Every output label is a single 4-connected component; components
    below ``min_size`` pixels merge into their largest adjacent
    component. Segment statistics are recomputed from the stored
    feature raster.
    """
    merged = _merge_fragments(spmap.labels, min_size)
    return SuperpixelMap.from_labels(
        merged,
        spmap.features,
        center_motion=spmap.center_motion,
        converged=spmap.converged,
    )


def slic_segment(features, params: SlicParams) -> SuperpixelMap:
    """Cluster an [h, w, c] feature image into about ``k_desired`` segments."""
    if isinstance(features, Tensor):
        features = features.data
    feat = np.asarray(features, dtype=np.float64)
    if feat.ndim != 3:
        raise ValueError(f"expected [h, w, c] features, got shape {feat.shape}")
    if feat.size == 0:
        raise ValueError("features must be non-empty")
    h, w, _ = feat.shape
    k = params.k_desired
    if k > h * w:
        raise ValueError(f"k_desired {k} exceeds pixel count {h * w}")

    positions, cfeats, s_grid = seed_centers(feat, k)
    ys, xs = np.mgrid[0:h, 0:w]
    ys, xs = ys.ravel(), xs.ravel()
    pixels = feat.reshape(-1, feat.shape[2])
    motion_history: list[float] = []
    converged = False
    labels = None

    for _ in range(params.max_iters):
        labels = assign_pixels(feat, positions, cfeats, s_grid, params.m)
        flat = labels.ravel()
        counts = np.bincount(flat, minlength=len(positions))
        csum = _label_sums(flat, pixels, len(positions))
        ysum = np.bincount(flat, weights=ys, minlength=len(positions))
        xsum = np.bincount(flat, weights=xs, minlength=len(positions))

        occupied = counts > 0
        new_positions = positions.copy()
        new_positions[occupied, 0] = ysum[occupied] / counts[occupied]
        new_positions[occupied, 1] = xsum[occupied] / counts[occupied]
        cfeats[occupied] = csum[occupied] / counts[occupied, None]

        motion = float(np.sqrt(((new_positions - positions) ** 2).sum(axis=1)).sum())
        motion_history.append(motion)
        positions = new_positions
        if motion < CONVERGENCE_EPS:
            converged = True
            break

    min_size = params.min_size_factor * (h * w / k)
    merged = _merge_fragments(labels, min_size)
    return SuperpixelMap.from_labels(
        merged, feat, center_motion=tuple(motion_history), converged=converged
    )


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
    if not isinstance(features, Tensor):
        features = Tensor(features)
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
    if isinstance(per_superpixel, Tensor):
        per_superpixel = per_superpixel.data
    values = np.asarray(per_superpixel)
    if values.shape[0] != spmap.n_segments:
        raise ValueError(
            f"expected {spmap.n_segments} per-segment values, got {values.shape[0]}"
        )
    return values[spmap.labels]
