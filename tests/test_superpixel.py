"""Superpixel clustering and pooling against flood-fill and loop oracles."""

import math
import sys
import warnings
from collections import deque
from functools import reduce

import numpy as np
import pytest

import dcn
from dcn import superpixel
from dcn.autodiff import GradTape, Tensor, backward, grad_check, square, tsum
from dcn.cli import _scene_spec
from dcn.superpixel import (
    SlicParams,
    SuperpixelMap,
    _gradient_magnitude,
    _merge_fragments,
    assign_pixels,
    broadcast_labels,
    seed_centers,
    segment_means,
    slic_segment,
    slic_segment_batch,
    stack_maps,
    superpixel_mean,
    zscore_features,
)


def flood_components(labels):
    """Oracle: stack-based flood fill, one entry (label, size) per component."""
    h, w = labels.shape
    seen = np.zeros((h, w), dtype=bool)
    comps = []
    for y in range(h):
        for x in range(w):
            if seen[y, x]:
                continue
            lab = labels[y, x]
            stack = [(y, x)]
            seen[y, x] = True
            size = 0
            while stack:
                cy, cx = stack.pop()
                size += 1
                for ny, nx in ((cy - 1, cx), (cy + 1, cx), (cy, cx - 1), (cy, cx + 1)):
                    if 0 <= ny < h and 0 <= nx < w:
                        if not seen[ny, nx] and labels[ny, nx] == lab:
                            seen[ny, nx] = True
                            stack.append((ny, nx))
            comps.append((int(lab), size))
    return comps


def boundary_mask(labels):
    b = np.zeros(labels.shape, dtype=bool)
    change_x = labels[:, :-1] != labels[:, 1:]
    change_y = labels[:-1, :] != labels[1:, :]
    b[:, :-1] |= change_x
    b[:, 1:] |= change_x
    b[:-1, :] |= change_y
    b[1:, :] |= change_y
    return b


def boundary_recall(true_labels, pred_labels, tol=2):
    true_b = boundary_mask(true_labels)
    pred_b = boundary_mask(pred_labels)
    padded = np.pad(pred_b, tol)
    win = np.lib.stride_tricks.sliding_window_view(padded, (2 * tol + 1, 2 * tol + 1))
    near_pred = win.any(axis=(-1, -2))
    return (true_b & near_pred).sum() / true_b.sum()


def rectangle_scene(rng, h=128, w=128, n_rects=3, noise=0.005):
    """Flat ground with a few separated rectangles, contrasting in all bands."""
    bands = np.zeros((h, w, 6))
    mask = np.zeros((h, w), dtype=np.int64)
    bands[:] = np.array([0.55, 0.5, 0.45, 0.4, 0.2, 0.0])
    roof = np.array([0.25, 0.22, 0.2, -0.1, 0.6, 18.0])
    placed = tries = 0
    while placed < n_rects and tries < 200:
        tries += 1
        bh, bw = rng.integers(12, 28, 2)
        y, x = rng.integers(2, h - bh - 2), rng.integers(2, w - bw - 2)
        if mask[max(0, y - 6) : y + bh + 6, max(0, x - 6) : x + bw + 6].any():
            continue
        mask[y : y + bh, x : x + bw] = 1
        bands[y : y + bh, x : x + bw] = roof
        placed += 1
    bands += rng.normal(0, noise, bands.shape) * np.array([1, 1, 1, 1, 1, 10])
    return bands, mask


def _dense_random_labels(rng, h, w, n):
    labels = rng.integers(0, n, size=(h, w))
    labels.ravel()[:n] = np.arange(n)  # force every segment non-empty
    return labels


def _map_of(labels):
    labels = np.asarray(labels)
    feat = labels[:, :, None].astype(np.float64)
    return SuperpixelMap.from_labels(labels, feat)


def _connected(labels, min_size):
    """The map of ``labels`` after SLIC's fragment merge."""
    return SuperpixelMap.from_labels(_merge_fragments(np.asarray(labels), min_size))


def _segment_means_add_at(values, labels, n):
    """Oracle: float64 scatter-add in pixel order, then divide by counts."""
    counts = np.bincount(labels.ravel(), minlength=n)
    sums = np.zeros((n,) + values.shape[2:])
    np.add.at(sums, labels.ravel(), values.reshape((labels.size,) + values.shape[2:]))
    return sums / (counts[:, None] if values.ndim == 3 else counts)


def _seed_one(feat, k):
    """seed_centers on a stack of one [h, w, c] tile, unstacked."""
    positions, cfeats, s_grid = seed_centers(feat[None], k)
    return positions[0], cfeats[0], s_grid


def _assign_one(feat, positions, center_feats, s_grid, m, labels=None):
    """assign_pixels on a stack of one [h, w, c] tile, unstacked.

    ``labels`` defaults to the seed-grid cells, the labels before sweep 1.
    """
    if labels is None:
        labels = _seed_grid_cells(feat.shape[0], feat.shape[1], s_grid)
    stack = feat[None], positions[None], center_feats[None]
    return assign_pixels(*stack, s_grid, m, labels[None])[0]


def _seed_grid_cells(h, w, s_grid):
    """Frozen oracle: each pixel's cell of the ny x nx seed grid, numbered row-major.

    Cell (j, i) holds the pixels with j*h/ny <= y < (j+1)*h/ny and
    i*w/nx <= x < (i+1)*w/nx, compared in integers.
    """
    ny = max(1, int(round(h / s_grid)))
    nx = max(1, int(round(w / s_grid)))
    ys, xs = np.mgrid[0:h, 0:w]
    cells = np.full((h, w), -1, dtype=np.int64)
    for j in range(ny):
        for i in range(nx):
            inside = (j * h <= ys * ny) & (ys * ny < (j + 1) * h)
            inside &= (i * w <= xs * nx) & (xs * nx < (i + 1) * w)
            cells[inside] = j * nx + i
    assert (cells >= 0).all()
    return cells


def _seed_centers_loop(feat, k):
    """Frozen oracle: one Python iteration per grid point, 3x3 np.argmin nudge."""
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


def _channel_sum(sq):
    """numpy's last-axis sum, the window reduction of the frozen loop."""
    return sq.sum(axis=-1)


def _sequential_channel_sum(sq):
    """Squared differences added one channel at a time, in channel order."""
    return reduce(np.add, np.moveaxis(sq, -1, 0))


def _assign_pixels_loop(
    feat, positions, center_feats, s_grid, m, labels, window_sum=_channel_sum
):
    """Frozen oracle: one Python iteration per center, strict < keeps the lower index.

    A pixel outside every window keeps its label in ``labels``.
    """
    h, w, _ = feat.shape
    best = np.full((h, w), np.inf)
    labels = np.array(labels, dtype=np.int64)
    spatial_w = (m / s_grid) ** 2
    reach = s_grid

    for idx in range(len(positions)):
        cy, cx = positions[idx]
        y0, y1 = max(0, int(cy - reach)), min(h, int(cy + reach) + 1)
        x0, x1 = max(0, int(cx - reach)), min(w, int(cx + reach) + 1)
        if y0 >= y1 or x0 >= x1:
            continue
        window = feat[y0:y1, x0:x1]
        d_feat = window_sum((window - center_feats[idx]) ** 2)
        ys = np.arange(y0, y1)[:, None] - cy
        xs = np.arange(x0, x1)[None, :] - cx
        d = np.sqrt(d_feat + spatial_w * (ys ** 2 + xs ** 2))
        closer = d < best[y0:y1, x0:x1]
        best[y0:y1, x0:x1] = np.where(closer, d, best[y0:y1, x0:x1])
        labels[y0:y1, x0:x1] = np.where(closer, idx, labels[y0:y1, x0:x1])
    return labels


def _kept_pixels(feat, positions, center_feats, s_grid, m):
    """Pixels the frozen loop leaves on their prior label -1: those in no window."""
    no_label = np.full(feat.shape[:2], -1)
    return _assign_pixels_loop(feat, positions, center_feats, s_grid, m, no_label) < 0


def _merge_fragments_bfs(labels, min_size):
    """Frozen oracle: per-pixel BFS labelling, then the smallest-first merge."""
    h, w = labels.shape
    comp = np.full((h, w), -1, dtype=np.int64)
    comp_sizes = []
    first_pixel = []

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
    adj = [set() for _ in range(n)]
    right = comp[:, :-1] != comp[:, 1:]
    for a, b in zip(comp[:, :-1][right], comp[:, 1:][right]):
        adj[a].add(int(b))
        adj[b].add(int(a))
    down = comp[:-1, :] != comp[1:, :]
    for a, b in zip(comp[:-1, :][down], comp[1:, :][down]):
        adj[a].add(int(b))
        adj[b].add(int(a))

    parent = list(range(n))

    def find(x):
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


def _synth_tiles(seeds, size=128, tile=64):
    """z-scored 64x64x6 feature tiles cut from synthetic scenes, as dcn predict sees them."""
    bands = ("RED", "GREEN", "BLUE", "NIR", "NDVI", "DSM")
    tiles = []
    for seed in seeds:
        spec = dcn.SyntheticSceneSpec(height=size, width=size, seed=seed)
        scene = dcn.normalize(dcn.compute_ndvi(dcn.synth_scene(spec)))[0]
        full = np.stack([scene.band(b) for b in bands], -1)
        for y in range(0, size, tile):
            for x in range(0, size, tile):
                tiles.append(zscore_features(full[y : y + tile, x : x + tile]))
    return tiles


def _spiral(n):
    """n x n grid whose 1-labelled path winds inwards; the 0 gap winds alongside."""
    grid = np.zeros((n, n), dtype=np.int64)
    y = x = 0
    dy, dx = 0, 1
    grid[y, x] = 1
    turns = 0
    while turns < 2:
        ny, nx = y + dy, x + dx
        ay, ax = y + 2 * dy, x + 2 * dx
        free = 0 <= ny < n and 0 <= nx < n and not grid[ny, nx]
        clear = not (0 <= ay < n and 0 <= ax < n) or not grid[ay, ax]
        if free and clear:
            y, x = ny, nx
            grid[y, x] = 1
            turns = 0
        else:
            dy, dx = dx, -dy
            turns += 1
    return grid


def _slic_add_at(feat, params):
    """Oracle: the SLIC loop on the frozen loops with np.add.at center sums.

    Returns labels, motion and converged (the last sweep moved no center).
    """
    h, w, _ = feat.shape
    positions, cfeats, s_grid = _seed_centers_loop(feat, params.k_desired)
    labels = _seed_grid_cells(h, w, s_grid)
    motion = []
    for _ in range(superpixel.MAX_ITERS):
        labels = _assign_pixels_loop(feat, positions, cfeats, s_grid, params.m, labels)
        flat = labels.ravel()
        counts = np.bincount(flat, minlength=len(positions))
        csum = np.zeros_like(cfeats)
        np.add.at(csum, flat, feat.reshape(-1, feat.shape[2]))
        ys, xs = np.mgrid[0:h, 0:w]
        ysum = np.bincount(flat, weights=ys.ravel(), minlength=len(positions))
        xsum = np.bincount(flat, weights=xs.ravel(), minlength=len(positions))
        occupied = counts > 0
        new_positions = positions.copy()
        new_positions[occupied, 0] = ysum[occupied] / counts[occupied]
        new_positions[occupied, 1] = xsum[occupied] / counts[occupied]
        cfeats[occupied] = csum[occupied] / counts[occupied, None]
        motion.append(float(np.sqrt(((new_positions - positions) ** 2).sum(axis=1)).sum()))
        positions = new_positions
    min_size = superpixel.MIN_SIZE_FACTOR * (h * w / params.k_desired)
    return _merge_fragments_bfs(labels, min_size), tuple(motion), motion[-1] == 0.0


class TestSlicParams:
    def test_defaults(self):
        p = SlicParams(k_desired=16)
        assert p.m == 10.0

    def test_validation(self):
        with pytest.raises(ValueError):
            SlicParams(k_desired=0)
        with pytest.raises(ValueError):
            SlicParams(k_desired=4, m=0.0)
        with pytest.raises(ValueError):
            SlicParams(k_desired=4, m=-1.0)
        # a sweep's spatial term reaches 18 * m * m
        largest = math.sqrt(sys.float_info.max / 32)
        assert SlicParams(k_desired=4, m=largest).m == largest
        too_large = (1e200, 1.3e154, 1e154, np.float64(1e154), math.nextafter(largest, math.inf))
        for m in (float("inf"), *too_large):
            with pytest.raises(ValueError, match=r"32 \* m \* m finite"):
                SlicParams(k_desired=4, m=m)


class TestSuperpixelMapConstruction:
    def test_counts_and_means_match_oracle(self):
        rng = np.random.default_rng(300)
        labels = _dense_random_labels(rng, 6, 7, 5)
        feat = rng.normal(size=(6, 7, 3))
        sp = SuperpixelMap.from_labels(labels, feat)
        assert sp.n_segments == 5
        np.testing.assert_array_equal(sp.counts, np.bincount(labels.ravel()))

    def test_partition_accounting(self):
        rng = np.random.default_rng(312)
        labels = _dense_random_labels(rng, 9, 8, 6)
        sp = SuperpixelMap.from_labels(labels, np.ones((9, 8, 1)))
        assert sp.counts.sum() == 9 * 8
        assert sp.labels.min() == 0 and sp.labels.max() == sp.n_segments - 1

    def test_labels_alone_give_counts_without_features(self):
        rng = np.random.default_rng(313)
        labels = _dense_random_labels(rng, 5, 6, 4)
        sp = SuperpixelMap.from_labels(labels)
        np.testing.assert_array_equal(sp.counts, np.bincount(labels.ravel()))
        with pytest.raises(ValueError):
            SuperpixelMap.from_labels(np.array([[0, 2], [0, 2]]))  # gap at 1

    def test_rejects_bad_partitions(self):
        feat = np.ones((2, 2, 1))
        with pytest.raises(ValueError):
            SuperpixelMap.from_labels(np.array([[0, 2], [0, 2]]), feat)  # gap at 1
        with pytest.raises(ValueError):
            SuperpixelMap.from_labels(np.array([[-1, 0], [0, 0]]), feat)
        with pytest.raises(ValueError):
            SuperpixelMap.from_labels(np.array([[0.5, 0.0]]), np.ones((1, 2, 1)))
        with pytest.raises(ValueError):
            SuperpixelMap.from_labels(np.zeros((2, 2), dtype=np.int64), np.ones((3, 3, 1)))


class TestEnforceConnectivity:
    def test_island_merges_into_largest_neighbour(self):
        labels = np.array([[0, 0, 1, 1], [0, 2, 1, 1], [0, 0, 1, 1]])
        out = _connected(labels, 2)
        want = np.array([[0, 0, 1, 1], [0, 1, 1, 1], [0, 0, 1, 1]])
        np.testing.assert_array_equal(out.labels, want)

    def test_disconnected_fragments_get_distinct_labels(self):
        out = _connected([[0, 1, 0]], 0.5)
        np.testing.assert_array_equal(out.labels, [[0, 1, 2]])

    def test_already_connected_map_only_renumbers(self):
        labels = np.array([[1, 1, 0], [1, 0, 0]])
        out = _connected(labels, 0.5)
        np.testing.assert_array_equal(out.labels, [[0, 0, 1], [0, 1, 1]])

    def test_smallest_components_dissolve_first(self):
        # sizes: label 0 covers 6, label 1 covers 2, label 2 covers 1;
        # both small ones must end up inside the big one
        labels = np.array([[0, 0, 0], [0, 2, 1], [0, 0, 1]])
        out = _connected(labels, 3)
        np.testing.assert_array_equal(out.labels, np.zeros((3, 3), dtype=np.int64))

    def test_single_component_without_neighbours_survives(self):
        labels = np.zeros((2, 2), dtype=np.int64)
        out = _connected(labels, 100)
        np.testing.assert_array_equal(out.labels, labels)

    def test_checkerboard_minsize_two(self):
        yy, xx = np.mgrid[0:8, 0:8]
        board = ((yy + xx) % 2).astype(np.int64)
        out = _connected(board, 2)
        comps = flood_components(out.labels)
        per_label = np.bincount([lab for lab, _ in comps])
        for lab, size in comps:
            assert size >= 2 or per_label[lab] == 1

    def test_idempotent(self):
        rng = np.random.default_rng(301)
        labels = rng.integers(0, 5, size=(12, 12))
        labels.ravel()[:5] = np.arange(5)
        once = _connected(labels, 4)
        twice = _connected(once.labels, 4)
        np.testing.assert_array_equal(once.labels, twice.labels)

    def test_every_output_label_is_one_connected_component(self):
        rng = np.random.default_rng(302)
        for _ in range(10):
            labels = _dense_random_labels(rng, 10, 14, 6)
            out = _connected(labels, 3)
            comps = flood_components(out.labels)
            assert len(comps) == out.n_segments
            assert sorted(lab for lab, _ in comps) == list(range(out.n_segments))

    def test_statistics_recomputed_after_merge(self):
        rng = np.random.default_rng(313)
        labels = _dense_random_labels(rng, 10, 10, 8)
        out = _connected(labels, 4)
        assert out.counts.sum() == 100
        np.testing.assert_array_equal(out.counts, np.bincount(out.labels.ravel()))


class TestMergeFragmentsAgainstBfs:
    """Run-based union-find labelling must reproduce the BFS oracle exactly."""

    @staticmethod
    def _check(labels, min_sizes):
        labels = np.asarray(labels)
        for min_size in min_sizes:
            np.testing.assert_array_equal(
                _merge_fragments(labels, min_size),
                _merge_fragments_bfs(labels, min_size),
                err_msg=f"shape {labels.shape} min_size {min_size}",
            )

    def test_spiral(self):
        for n in (5, 16, 33):
            grid = _spiral(n)
            assert len(flood_components(grid)) == 2  # one winding path per label
            self._check(grid, (0.5, 3, grid.sum(), n * n))

    def test_one_row_strip(self):
        rng = np.random.default_rng(340)
        strip = rng.integers(0, 3, size=(1, 200))
        self._check(strip, (0.5, 2, 4, 50))

    def test_one_column_strip(self):
        rng = np.random.default_rng(341)
        strip = rng.integers(0, 3, size=(200, 1))
        self._check(strip, (0.5, 2, 4, 50))

    def test_all_distinct_labels(self):
        self._check(np.arange(9 * 11).reshape(9, 11), (0.5, 2, 5, 99))

    def test_checkerboard(self):
        yy, xx = np.mgrid[0:12, 0:13]
        self._check((yy + xx) % 2, (0.5, 2, 3, 156))

    def test_seeded_corpus(self):
        # blocky and noisy rasters, every merge threshold from none to all
        rng = np.random.default_rng(342)
        for case in range(300):
            h, w = int(rng.integers(1, 40)), int(rng.integers(1, 40))
            n = int(rng.integers(1, 8))
            if case % 2:
                f = int(rng.integers(2, 6))
                cells = rng.integers(0, n, size=(h // f + 1, w // f + 1))
                labels = np.repeat(np.repeat(cells, f, 0), f, 1)[:h, :w]
            else:
                labels = rng.integers(0, n, size=(h, w))
            min_size = float(rng.choice([0.5, 2.0, 5.0, 20.0, h * w / 4]))
            np.testing.assert_array_equal(
                _merge_fragments(labels, min_size),
                _merge_fragments_bfs(labels, min_size),
                err_msg=f"case {case}",
            )


class TestMergeFragmentsOnWhiteNoise:
    """The heap-ordered merge must reproduce the frozen loop on >1,000 fragments."""

    def test_first_sweep_labels_of_noise_tiles(self):
        rng = np.random.default_rng(343)
        params = SlicParams(k_desired=64, m=2.0)
        min_size = superpixel.MIN_SIZE_FACTOR * 64 * 64 / params.k_desired
        for _ in range(3):
            feat = rng.standard_normal((64, 64, 6))
            positions, cfeats, s_grid = _seed_one(feat, params.k_desired)
            labels = _assign_one(feat, positions, cfeats, s_grid, params.m)
            assert len(flood_components(labels)) > 1000
            np.testing.assert_array_equal(
                _merge_fragments(labels, min_size), _merge_fragments_bfs(labels, min_size)
            )

    def test_random_label_rasters(self):
        rng = np.random.default_rng(344)
        for n_labels, min_size in ((3, 2.0), (8, 64.0)):
            labels = rng.integers(0, n_labels, size=(64, 64))
            assert len(flood_components(labels)) > 1000
            np.testing.assert_array_equal(
                _merge_fragments(labels, min_size), _merge_fragments_bfs(labels, min_size)
            )


class TestSeedCenters:
    def test_matches_frozen_loop(self):
        # tiny images have an all-inf gradient; rounded and constant ones
        # tie inside the 3x3 window, where the first minimum must win
        rng = np.random.default_rng(343)
        for case in range(120):
            h, w = int(rng.integers(1, 71)), int(rng.integers(1, 71))
            feat = rng.normal(size=(h, w, int(rng.integers(1, 8))))
            if case % 3 == 1:
                feat = np.round(feat, 1)
            elif case % 3 == 2:
                feat = np.zeros_like(feat)
            k = int(rng.integers(1, h * w + 1))
            got = _seed_one(feat, k)
            want = _seed_centers_loop(feat, k)
            np.testing.assert_array_equal(got[0], want[0], err_msg=f"case {case}")
            np.testing.assert_array_equal(got[1], want[1], err_msg=f"case {case}")
            assert got[2] == want[2]

    def test_stacked_tiles_match_frozen_loop_per_tile(self):
        rng = np.random.default_rng(353)
        for case in range(30):
            t, h, w = int(rng.integers(1, 6)), int(rng.integers(1, 41)), int(rng.integers(1, 41))
            feat = np.round(rng.normal(size=(t, h, w, int(rng.integers(1, 8)))), 1)
            k = int(rng.integers(1, h * w + 1))
            positions, cfeats, s_grid = seed_centers(feat, k)
            for i in range(t):
                want = _seed_centers_loop(feat[i], k)
                np.testing.assert_array_equal(positions[i], want[0], err_msg=f"case {case}")
                np.testing.assert_array_equal(cfeats[i], want[1], err_msg=f"case {case}")
                assert s_grid == want[2]


class TestAssignPixels:
    def test_matches_frozen_loop_with_jittered_centers(self):
        # centers off the grid, some off the image, so some pixels lie in
        # no window and keep their prior label; half the cases rounded to
        # one decimal to force exact ties
        rng = np.random.default_rng(344)
        uncovered = 0
        for case in range(200):
            h, w = int(rng.integers(6, 71)), int(rng.integers(6, 71))
            feat = rng.normal(size=(h, w, int(rng.integers(1, 8))))
            if case % 2:
                feat = np.round(feat, 1)
            k = int(rng.integers(1, h * w // 8 + 2))
            positions, cfeats, s_grid = _seed_one(feat, k)
            positions = positions + rng.normal(scale=rng.choice([0.5, s_grid]), size=positions.shape)
            if case % 3 == 0:
                shift = rng.choice([-1.0, 1.0], size=2) * rng.uniform(s_grid, 4 * s_grid)
                positions[: max(1, len(positions) // 3)] += shift
            if not case % 2:
                cfeats = cfeats + rng.normal(scale=0.1, size=cfeats.shape)
            m = float(rng.choice([0.5, 2.0, 10.0]))
            prior = rng.integers(0, len(positions), size=(h, w))
            uncovered += bool(_kept_pixels(feat, positions, cfeats, s_grid, m).any())
            np.testing.assert_array_equal(
                _assign_one(feat, positions, cfeats, s_grid, m, prior),
                _assign_pixels_loop(feat, positions, cfeats, s_grid, m, prior),
                err_msg=f"case {case}",
            )
        assert uncovered >= 10, uncovered

    def test_pixels_in_no_window_keep_their_labels(self):
        # a third of the centers jump by S to 4S, leaving pixels that no
        # window covers; those keep the labels they came in with, the rest
        # get the frozen loop's labels
        rng = np.random.default_rng(352)
        kept = 0
        for case in range(60):
            h, w = int(rng.integers(6, 41)), int(rng.integers(6, 41))
            feat = np.round(rng.normal(size=(h, w, int(rng.integers(1, 8)))), 1)
            positions, cfeats, s_grid = _seed_one(feat, int(rng.integers(1, h * w // 8 + 2)))
            shift = rng.choice([-1.0, 1.0], size=2) * rng.uniform(s_grid, 4 * s_grid)
            positions[: max(1, len(positions) // 3)] += shift
            prior = rng.integers(0, len(positions), size=(h, w))
            uncovered = _kept_pixels(feat, positions, cfeats, s_grid, 2.0)
            got = _assign_one(feat, positions, cfeats, s_grid, 2.0, prior)
            np.testing.assert_array_equal(got[uncovered], prior[uncovered], err_msg=f"case {case}")
            np.testing.assert_array_equal(
                got, _assign_pixels_loop(feat, positions, cfeats, s_grid, 2.0, prior)
            )
            kept += int(uncovered.sum())
        assert kept >= 100, kept

    def test_blocks_of_centers_match_one_block(self, monkeypatch):
        # a block smaller than one window scores each center on its own,
        # as the frozen loop does; 300 cells split the centers unevenly;
        # 2**30 cells hold every center in one block
        rng = np.random.default_rng(349)
        for case in range(40):
            h, w = int(rng.integers(6, 41)), int(rng.integers(6, 41))
            feat = np.round(rng.normal(size=(h, w, int(rng.integers(1, 8)))), 1)
            positions, cfeats, s_grid = _seed_one(feat, int(rng.integers(1, h * w // 8 + 2)))
            positions = positions + rng.normal(scale=s_grid, size=positions.shape)
            prior = rng.integers(0, len(positions), size=(h, w))
            want = _assign_pixels_loop(feat, positions, cfeats, s_grid, 2.0, prior)
            for cells in (1, 300, 1 << 30):
                monkeypatch.setattr(superpixel, "SWEEP_BLOCK_CELLS", cells)
                got = _assign_one(feat, positions, cfeats, s_grid, 2.0, prior)
                np.testing.assert_array_equal(got, want, err_msg=f"case {case} cells {cells}")

    def test_stacked_tiles_match_frozen_loop_per_tile(self, monkeypatch):
        # each tile of a stack gets the frozen loop's labels on its own; in
        # every other stack a third of the first tile's centers leave the
        # image, so its pixels in no window keep their labels beside tiles
        # without any; blocks of 300 cells split the centers unevenly and
        # cross tile borders
        rng = np.random.default_rng(350)
        uncovered = 0
        for case in range(40):
            t, h, w = int(rng.integers(1, 6)), int(rng.integers(6, 41)), int(rng.integers(6, 41))
            feat = rng.normal(size=(t, h, w, int(rng.integers(1, 8))))
            if case % 2:
                feat = np.round(feat, 1)
            positions, cfeats, s_grid = seed_centers(feat, int(rng.integers(1, h * w // 8 + 2)))
            positions = positions + rng.normal(scale=rng.choice([0.5, s_grid]), size=positions.shape)
            if case % 2 == 0:
                shift = rng.choice([-1.0, 1.0], size=2) * rng.uniform(s_grid, 4 * s_grid)
                positions[0, : max(1, positions.shape[1] // 3)] += shift
            m = float(rng.choice([0.5, 2.0, 10.0]))
            monkeypatch.setattr(superpixel, "SWEEP_BLOCK_CELLS", int(rng.choice([300, 1 << 15])))
            prior = rng.integers(0, positions.shape[1], size=(t, h, w))
            got = assign_pixels(feat, positions, cfeats, s_grid, m, prior)
            for i in range(t):
                uncovered += bool(_kept_pixels(feat[i], positions[i], cfeats[i], s_grid, m).any())
                want = _assign_pixels_loop(feat[i], positions[i], cfeats[i], s_grid, m, prior[i])
                np.testing.assert_array_equal(got[i], want, err_msg=f"case {case} tile {i}")
        assert uncovered >= 5, uncovered

    def test_every_center_off_the_image(self):
        rng = np.random.default_rng(345)
        feat = rng.normal(size=(12, 10, 3))
        positions = np.array([[-30.0, 4.0], [5.0, 40.0], [-12.5, -9.0]])
        cfeats = rng.normal(size=(3, 3))
        prior = rng.integers(0, 3, size=(12, 10))
        np.testing.assert_array_equal(_assign_one(feat, positions, cfeats, 2.0, 1.0, prior), prior)

    def test_sums_channels_in_order_from_eight_channels_on(self):
        # past 7 channels numpy's last-axis sum pairs terms up; the sweep
        # keeps adding one channel at a time
        rng = np.random.default_rng(346)
        for c in (8, 9, 10):
            for trial in range(8):
                h, w = int(rng.integers(6, 41)), int(rng.integers(6, 41))
                feat = rng.normal(scale=3.0, size=(h, w, c))
                positions, cfeats, s_grid = _seed_one(feat, int(rng.integers(1, h * w // 8 + 2)))
                positions = positions + rng.normal(scale=1.0, size=positions.shape)
                cfeats = cfeats + rng.normal(scale=0.3, size=cfeats.shape)
                grid = _seed_grid_cells(h, w, s_grid)
                want = _assign_pixels_loop(
                    feat, positions, cfeats, s_grid, 2.0, grid, window_sum=_sequential_channel_sum
                )
                got = _assign_one(feat, positions, cfeats, s_grid, 2.0)
                np.testing.assert_array_equal(got, want, err_msg=f"c {c} trial {trial}")

    def test_channel_order_decides_an_exact_tie(self):
        # center 0 differs from center 1 only by four 2**-26 channels: added
        # one at a time each squared term rounds away against 1.5**2 and
        # the centers tie (lower index wins); summed pairwise they add up
        # to 2**-50 and center 1 would win
        for c in (8, 9, 10):
            feat = np.zeros((3, 3, c))
            cfeats = np.zeros((2, c))
            cfeats[:, 0] = 1.5
            cfeats[0, 4:8] = 2.0 ** -26
            positions = np.array([[1.0, 1.0], [1.0, 1.0]])
            prior = _seed_grid_cells(3, 3, 1.0)  # every pixel lies in both windows
            got = _assign_one(feat, positions, cfeats, 1.0, 1.0, prior)
            want = _assign_pixels_loop(
                feat, positions, cfeats, 1.0, 1.0, prior, window_sum=_sequential_channel_sum
            )
            np.testing.assert_array_equal(got, want)
            assert (got == 0).all()
            assert (_assign_pixels_loop(feat, positions, cfeats, 1.0, 1.0, prior) == 1).any()


class TestSlicSegment:
    def test_constant_image_four_grid_quadrants(self):
        sp = slic_segment(np.zeros((32, 32, 1)), SlicParams(k_desired=4, m=10.0))
        assert sp.n_segments == 4
        sizes = np.bincount(sp.labels.ravel())
        assert (np.abs(sizes - 256) <= 25.6).all()
        quadrants = np.zeros((32, 32), dtype=np.int64)
        quadrants[:16, 16:] = 1
        quadrants[16:, :16] = 2
        quadrants[16:, 16:] = 3
        np.testing.assert_array_equal(sp.labels, quadrants)

    def test_constant_image_sixteen_equal_cells(self):
        sp = slic_segment(np.zeros((32, 32, 2)), SlicParams(k_desired=16))
        assert sp.n_segments == 16
        assert sp.converged
        np.testing.assert_array_equal(np.bincount(sp.labels.ravel()), np.full(16, 64))

    def test_bit_identical_to_add_at_oracle_on_seeded_corpus(self, monkeypatch):
        # random sizes and channel counts; every other image is rounded to
        # one decimal so distances and center sums hit many exact ties
        rng = np.random.default_rng(331)
        for case in range(24):
            h, w = int(rng.integers(6, 33)), int(rng.integers(6, 33))
            feat = rng.normal(size=(h, w, int(rng.integers(1, 7))))
            if case % 2:
                feat = np.round(feat, 1)
            params = SlicParams(
                k_desired=int(rng.integers(1, h * w // 8 + 2)),
                m=float(rng.choice([0.5, 2.0, 10.0])),
            )
            monkeypatch.setattr(superpixel, "MAX_ITERS", int(rng.integers(1, 11)))
            labels, motion, converged = _slic_add_at(feat.copy(), params)
            sp = slic_segment(feat, params)
            np.testing.assert_array_equal(sp.labels, labels, err_msg=f"case {case}")
            assert sp.center_motion == motion, f"case {case}"
            assert sp.converged == converged, f"case {case}"

    def test_bit_identical_to_frozen_loops_on_synth_tiles(self):
        params = SlicParams(k_desired=64, m=2.0)
        for i, feat in enumerate(_synth_tiles(seeds=(0, 1))):
            labels, motion, converged = _slic_add_at(feat, params)
            sp = slic_segment(feat, params)
            np.testing.assert_array_equal(sp.labels, labels, err_msg=f"tile {i}")
            assert sp.center_motion == motion, f"tile {i}"
            assert sp.converged == converged, f"tile {i}"

    def test_bit_identical_to_frozen_loops_on_random_sizes(self, monkeypatch):
        rng = np.random.default_rng(347)
        for case in range(30):
            h, w = int(rng.integers(6, 71)), int(rng.integers(6, 71))
            feat = rng.normal(size=(h, w, int(rng.integers(1, 8))))
            if case % 2:
                feat = np.round(feat, 1)
            params = SlicParams(
                k_desired=int(rng.integers(1, h * w // 16 + 2)),
                m=float(rng.choice([0.5, 2.0, 10.0])),
            )
            monkeypatch.setattr(superpixel, "MAX_ITERS", int(rng.integers(1, 11)))
            labels, motion, converged = _slic_add_at(feat.copy(), params)
            sp = slic_segment(feat, params)
            np.testing.assert_array_equal(sp.labels, labels, err_msg=f"case {case}")
            assert sp.center_motion == motion, f"case {case}"
            assert sp.converged == converged, f"case {case}"

    def test_half_split_never_mixes_sides(self):
        # inter-half feature gap of 1.0 dwarfs the m=1 spatial term, so no
        # segment may straddle the midline; verified per segment by scanning
        # every pixel's side
        feat = np.zeros((32, 32, 1))
        feat[:, 16:] = 1.0
        sp = slic_segment(feat, SlicParams(k_desired=8, m=1.0))
        left = np.unique(sp.labels[:, :16])
        right = np.unique(sp.labels[:, 16:])
        assert len(np.intersect1d(left, right)) == 0

    def test_one_assignment_iteration_matches_bruteforce(self):
        rng = np.random.default_rng(314)
        for trial in range(5):
            feat = rng.normal(size=(16, 16, 3))
            positions, cfeats, s_grid = _seed_one(feat, 4)
            got = _assign_one(feat, positions, cfeats, s_grid, m=10.0)

            h, w, _ = feat.shape
            reach = s_grid
            spatial_w = (10.0 / s_grid) ** 2
            want = np.full((h, w), -1, dtype=np.int64)
            best = np.full((h, w), np.inf)
            for y in range(h):
                for x in range(w):
                    for idx, (cy, cx) in enumerate(positions):
                        in_window = (
                            max(0, int(cy - reach)) <= y < min(h, int(cy + reach) + 1)
                            and max(0, int(cx - reach)) <= x < min(w, int(cx + reach) + 1)
                        )
                        if not in_window:
                            continue
                        d = np.sqrt(
                            ((feat[y, x] - cfeats[idx]) ** 2).sum()
                            + spatial_w * ((y - cy) ** 2 + (x - cx) ** 2)
                        )
                        if d < best[y, x]:
                            best[y, x] = d
                            want[y, x] = idx
            assert (want >= 0).all()
            np.testing.assert_array_equal(got, want, err_msg=f"trial {trial}")

    def test_segment_count_tracks_k(self):
        rng = np.random.default_rng(303)
        for h, w, k in [(32, 32, 16), (48, 32, 24), (64, 64, 64)]:
            base = rng.normal(size=(h, w, 3))
            smooth = np.cumsum(np.cumsum(base, axis=0), axis=1)  # correlated field
            sp = slic_segment(zscore_features(smooth), SlicParams(k_desired=k))
            assert abs(sp.n_segments - k) / k <= 0.3, (h, w, k, sp.n_segments)

    def test_step_edge_is_recovered(self):
        # two flat regions split off the seed grid's natural boundary
        feat = np.full((40, 40, 1), -1.0)
        feat[:, 17:] = 1.0
        truth = (feat[:, :, 0] > 0).astype(np.int64)
        sp = slic_segment(zscore_features(feat), SlicParams(k_desired=16, m=2.0))
        assert boundary_recall(truth, sp.labels, tol=2) >= 0.9

    def test_rectangle_scene_boundary_recall(self):
        rng = np.random.default_rng(299)
        for scene in range(10):
            bands, mask = rectangle_scene(rng)
            params = SlicParams(k_desired=bands.shape[0] * bands.shape[1] // 256)
            sp = slic_segment(zscore_features(bands), params)
            r = boundary_recall(mask, sp.labels, tol=2)
            assert r >= 0.9, f"scene {scene}: recall {r:.3f}"

    def test_segments_are_connected_and_dense(self):
        rng = np.random.default_rng(304)
        feat = rng.normal(size=(40, 40, 2)) * 0.05
        feat[10:25, 8:30, 0] += 2.0
        sp = slic_segment(zscore_features(feat), SlicParams(k_desired=25))
        comps = flood_components(sp.labels)
        assert len(comps) == sp.n_segments
        assert sp.labels.min() == 0
        assert sp.labels.max() == sp.n_segments - 1
        np.testing.assert_array_equal(sp.counts, np.bincount(sp.labels.ravel()))

    def test_center_motion_settles_after_second_iteration(self):
        # displacement drops sharply from the first sweep and then stays at
        # or below the second sweep's level while centers drift locally
        rng = np.random.default_rng(305)
        bounded = dropped = 0
        for _ in range(100):
            feat = rng.normal(size=(64, 64, 3))
            sp = slic_segment(feat, SlicParams(k_desired=16))
            motion = sp.center_motion
            assert 1 <= len(motion) <= 10
            if len(motion) >= 2:
                dropped += motion[1] < motion[0]
                bounded += all(motion[i] <= motion[1] for i in range(2, len(motion)))
            else:
                dropped += 1
                bounded += 1
        assert bounded >= 95, bounded
        assert dropped >= 95, dropped

    def test_constant_image_converges_early(self):
        sp = slic_segment(np.zeros((32, 32, 1)), SlicParams(k_desired=16))
        assert sp.converged
        assert sp.center_motion[-1] < 1e-3

    def test_largest_compactness_segments_without_a_warning(self):
        # the spatial term of the largest accepted m stays finite at every
        # scored cell, whether a tile holds 64 centers or 4
        params = [SlicParams(k_desired=k, m=math.sqrt(sys.float_info.max / 32)) for k in (64, 4)]
        feat = _synth_tiles(seeds=(3,))[0]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for p in params:
                sp = slic_segment(feat, p)
                assert sp.n_segments >= 1
                assert all(math.isfinite(step) for step in sp.center_motion)

    def test_min_size_factor_controls_fragment_merging(self, monkeypatch):
        rng = np.random.default_rng(306)
        feat = rng.normal(size=(24, 24, 1))
        monkeypatch.setattr(superpixel, "MIN_SIZE_FACTOR", 1e-6)
        loose = slic_segment(feat, SlicParams(k_desired=9))
        monkeypatch.setattr(superpixel, "MIN_SIZE_FACTOR", 0.25)
        tight = slic_segment(feat, SlicParams(k_desired=9))
        assert loose.n_segments >= tight.n_segments

    def test_validation(self):
        feat = np.zeros((8, 8, 1))
        with pytest.raises(ValueError):
            slic_segment(feat, SlicParams(k_desired=65))
        with pytest.raises(ValueError):
            slic_segment(np.zeros((8, 8)), SlicParams(k_desired=4))
        with pytest.raises(ValueError):
            slic_segment(np.zeros((0, 8, 1)), SlicParams(k_desired=4))


class TestSlicSegmentBatch:
    """Each tile of a stack gets the oracle's labels, motion and convergence."""

    @staticmethod
    def _check_against_oracle(stack, params, tag):
        maps = slic_segment_batch(stack, params)
        assert len(maps) == len(stack)
        for i, sp in enumerate(maps):
            labels, motion, converged = _slic_add_at(stack[i].copy(), params)
            np.testing.assert_array_equal(sp.labels, labels, err_msg=f"{tag} tile {i}")
            assert sp.center_motion == motion, f"{tag} tile {i}"
            assert sp.converged == converged, f"{tag} tile {i}"
        return maps

    def test_seeded_stacks_of_one_to_seven_channels(self, monkeypatch):
        rng = np.random.default_rng(351)
        for c in range(1, 8):
            for trial in range(3):
                t, h, w = int(rng.integers(1, 6)), int(rng.integers(6, 33)), int(rng.integers(6, 33))
                feat = rng.normal(size=(t, h, w, c))
                if trial % 2:
                    feat = np.round(feat, 1)
                params = SlicParams(
                    k_desired=int(rng.integers(1, h * w // 8 + 2)),
                    m=float(rng.choice([0.5, 2.0, 10.0])),
                )
                monkeypatch.setattr(superpixel, "MAX_ITERS", int(rng.integers(1, 11)))
                monkeypatch.setattr(superpixel, "SWEEP_BLOCK_CELLS", int(rng.choice([300, 1 << 15])))
                self._check_against_oracle(feat, params, f"c {c} trial {trial}")

    def test_early_and_never_converging_tiles_share_a_stack(self, monkeypatch):
        # constant tiles settle after two sweeps; synthetic tiles keep
        # moving beside them; every tile runs MAX_ITERS sweeps
        synth = _synth_tiles(seeds=(2,))
        flat = np.zeros((64, 64, 6))
        stack = np.stack([synth[0], flat, synth[1], flat + 0.5])
        params = SlicParams(k_desired=64, m=2.0)
        maps = self._check_against_oracle(stack, params, "mixed")
        assert [sp.converged for sp in maps] == [False, True, False, True]
        assert [len(sp.center_motion) for sp in maps] == [10, 10, 10, 10]
        # a fixed point stays fixed: sweeps past the first that moved no
        # center move none and change no label
        for i, sp in enumerate(maps):
            if not sp.converged:
                continue
            settled = sp.center_motion.index(0.0) + 1
            assert sp.center_motion[settled:] == (0.0,) * (10 - settled), f"tile {i}"
            monkeypatch.setattr(superpixel, "MAX_ITERS", settled)
            early = slic_segment(stack[i], params)
            np.testing.assert_array_equal(sp.labels, early.labels, err_msg=f"tile {i}")

    def test_labels_before_sweep_one_are_the_seed_grid_cells(self, monkeypatch):
        # the first sweep gets every pixel on the seed of its grid cell,
        # on sizes the grid does not divide evenly
        seen = []
        real = superpixel.assign_pixels

        def spy(feat, positions, center_feats, s_grid, m, labels):
            seen.append((s_grid, positions.shape[1], np.array(labels)))
            return real(feat, positions, center_feats, s_grid, m, labels)

        monkeypatch.setattr(superpixel, "assign_pixels", spy)
        monkeypatch.setattr(superpixel, "MAX_ITERS", 1)
        rng = np.random.default_rng(354)
        for t, h, w, k in ((1, 64, 64, 64), (3, 30, 17, 9), (2, 7, 40, 5), (2, 1, 9, 3)):
            seen.clear()
            slic_segment_batch(rng.normal(size=(t, h, w, 2)), SlicParams(k_desired=k))
            (s_grid, n, labels), = seen
            want = _seed_grid_cells(h, w, s_grid)
            assert want.max() == n - 1
            np.testing.assert_array_equal(labels, np.broadcast_to(want, (t, h, w)))

    def test_chunks_of_a_stack_match_the_whole_stack(self):
        # seven tiles in chunks of three: the last chunk holds one tile
        tiles = np.stack(_synth_tiles(seeds=(0, 1))[:7])
        params = SlicParams(k_desired=64, m=2.0)
        whole = slic_segment_batch(tiles, params)
        chunked = [sp for lo in range(0, 7, 3) for sp in slic_segment_batch(tiles[lo : lo + 3], params)]
        for i, (a, b) in enumerate(zip(whole, chunked)):
            np.testing.assert_array_equal(a.labels, b.labels, err_msg=f"tile {i}")
            assert (a.center_motion, a.converged) == (b.center_motion, b.converged)
            np.testing.assert_array_equal(a.labels, slic_segment(tiles[i], params).labels)

    def test_validation(self):
        with pytest.raises(ValueError, match=r"\[t, h, w, c\]"):
            slic_segment_batch(np.zeros((8, 8, 1)), SlicParams(k_desired=4))
        with pytest.raises(ValueError):
            slic_segment_batch(np.zeros((0, 8, 8, 1)), SlicParams(k_desired=4))
        with pytest.raises(ValueError):
            slic_segment_batch(np.zeros((2, 8, 8, 1)), SlicParams(k_desired=65))
        for bad in (np.nan, np.inf, -np.inf):
            feat = np.zeros((2, 8, 8, 3))
            feat[1, 4, 5, 2] = bad
            with pytest.raises(ValueError, match="finite"):
                slic_segment_batch(feat, SlicParams(k_desired=4))


class TestSuperpixelQuality:
    """SLIC on 32 tiles of `dcn synth` scenes against their MASK."""

    def test_boundary_recall_undersegmentation_and_asa(self):
        # pooled over the corpus; the floors leave margin below both the
        # 2S x 2S window (BR 0.9990, UE 0.0033, ASA 0.99948) and a 4S x 4S
        # window (0.9996, 0.0021, 0.99968)
        bands = ("RED", "GREEN", "BLUE", "NIR", "NDVI", "DSM")
        feats, masks = [], []
        for seed in range(100, 108):
            scene = dcn.normalize(dcn.compute_ndvi(dcn.synth_scene(_scene_spec(128, seed))))[0]
            full = np.stack([scene.band(b) for b in bands], -1)
            for y in range(0, 128, 64):
                for x in range(0, 128, 64):
                    feats.append(zscore_features(full[y : y + 64, x : x + 64]))
                    masks.append(scene.band("MASK")[y : y + 64, x : x + 64].astype(np.int64))
        maps = slic_segment_batch(np.stack(feats), SlicParams(k_desired=64, m=2.0))

        recalled = boundaries = leaked = best = pixels = 0
        for sp, mask in zip(maps, masks):
            truth = boundary_mask(mask)
            near = np.lib.stride_tricks.sliding_window_view(
                np.pad(boundary_mask(sp.labels), 2), (5, 5)
            ).any(axis=(-1, -2))
            recalled += (truth & near).sum()
            boundaries += truth.sum()
            # per segment: pixels inside and outside the footprints
            inside = np.bincount(sp.labels.ravel(), weights=mask.ravel(), minlength=sp.n_segments)
            outside = sp.counts - inside
            # Achanta et al. (TPAMI 2012): a segment counts against every
            # truth region holding more than 5% of it
            leaked += sum(sp.counts[part > 0.05 * sp.counts].sum() for part in (inside, outside))
            leaked -= sp.counts.sum()
            best += np.maximum(inside, outside).sum()
            pixels += sp.counts.sum()
        assert boundaries > 1000
        assert recalled / boundaries >= 0.99
        assert leaked / pixels <= 0.01
        assert best / pixels >= 0.998


class TestStackMaps:
    def test_offsets_labels_tile_by_tile(self):
        rng = np.random.default_rng(354)
        maps = [_map_of(_dense_random_labels(rng, 4, 5, n)) for n in (3, 1, 4)]
        tall = stack_maps(maps)
        want = SuperpixelMap.from_labels(
            np.vstack([maps[0].labels, maps[1].labels + 3, maps[2].labels + 4])
        )
        np.testing.assert_array_equal(tall.labels, want.labels)
        np.testing.assert_array_equal(tall.counts, want.counts)
        assert tall.n_segments == want.n_segments == 8


class TestSegmentMeans:
    def test_matches_loop_oracle(self):
        rng = np.random.default_rng(307)
        for _ in range(20):
            labels = _dense_random_labels(rng, 6, 5, 4)
            values = rng.normal(size=(6, 5, 3))
            got = segment_means(values, labels, 4)
            want = np.zeros((4, 3))
            for s in range(4):
                want[s] = values[labels == s].mean(axis=0)
            np.testing.assert_allclose(got, want, atol=1e-12)

    def test_bit_identical_to_add_at_oracle(self):
        rng = np.random.default_rng(308)
        for dtype in (np.float32, np.float64):
            for trial in range(12):
                h, w = int(rng.integers(1, 20)), int(rng.integers(1, 20))
                n = int(rng.integers(1, h * w + 1))
                labels = _dense_random_labels(rng, h, w, n)
                for shape in ((h, w, int(rng.integers(1, 9))), (h, w)):
                    values = rng.normal(scale=10.0, size=shape).astype(dtype)
                    got = segment_means(values, labels, n)
                    want = _segment_means_add_at(values, labels, n)
                    assert got.dtype == np.float64
                    np.testing.assert_array_equal(got, want, err_msg=f"{dtype} trial {trial}")

    def test_two_dimensional_values(self):
        labels = np.array([[0, 0], [1, 1]])
        values = np.array([[1.0, 3.0], [5.0, 7.0]])
        np.testing.assert_allclose(segment_means(values, labels, 2), [2.0, 6.0])

    def test_empty_segment_rejected(self):
        labels = np.zeros((2, 2), dtype=np.int64)
        with pytest.raises(ValueError):
            segment_means(np.ones((2, 2)), labels, 2)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            segment_means(np.ones((3, 3)), np.zeros((2, 2), dtype=np.int64), 1)


class TestSuperpixelMean:
    def test_forward_matches_accumulation_oracle(self):
        rng = np.random.default_rng(308)
        for _ in range(10):
            labels = _dense_random_labels(rng, 8, 8, 6)
            feat = rng.normal(size=(8, 8, 4))
            sp = SuperpixelMap.from_labels(labels, feat)
            out = superpixel_mean(sp, Tensor(feat, dtype=np.float64))
            want = np.zeros((6, 4))
            cnt = np.zeros(6)
            for y in range(8):
                for x in range(8):
                    want[labels[y, x]] += feat[y, x]
                    cnt[labels[y, x]] += 1
            np.testing.assert_allclose(out.data, want / cnt[:, None], atol=1e-6)

    def test_constant_features_give_constant_rows(self):
        rng = np.random.default_rng(315)
        labels = _dense_random_labels(rng, 6, 6, 4)
        feat = np.full((6, 6, 3), 2.5)
        sp = SuperpixelMap.from_labels(labels, feat)
        out = superpixel_mean(sp, Tensor(feat))
        np.testing.assert_allclose(out.data, 2.5, rtol=1e-7)

    def test_single_segment_gives_global_mean(self):
        rng = np.random.default_rng(316)
        feat = rng.normal(size=(5, 7, 2))
        sp = SuperpixelMap.from_labels(np.zeros((5, 7), dtype=np.int64), feat)
        out = superpixel_mean(sp, Tensor(feat, dtype=np.float64))
        np.testing.assert_allclose(out.data, feat.mean(axis=(0, 1))[None, :], atol=1e-12)

    def test_gradients_match_finite_differences(self):
        rng = np.random.default_rng(309)
        for trial in range(20):
            labels = _dense_random_labels(rng, 5, 4, 3)
            sp = SuperpixelMap.from_labels(labels, np.zeros((5, 4, 2)))
            x = Tensor(rng.normal(size=(5, 4, 2)), dtype=np.float64)
            report = grad_check(
                lambda t: tsum(square(superpixel_mean(sp, t))), [x], 1e-4
            )
            assert report.passed, f"trial {trial}: {report}"

    def test_gradient_is_shared_equally(self):
        labels = np.array([[0, 0], [0, 1]])
        sp = SuperpixelMap.from_labels(labels, np.ones((2, 2, 1)))
        x = Tensor(np.ones((2, 2, 1)), dtype=np.float64, requires_grad=True)
        with GradTape() as tape:
            y = tsum(superpixel_mean(sp, x))
        g = tape.gradient(backward(tape, y), x)
        want = np.array([[1 / 3, 1 / 3], [1 / 3, 1.0]]).reshape(2, 2, 1)
        np.testing.assert_allclose(g.data, want, rtol=1e-12)

    def test_shape_mismatch_rejected(self):
        sp = _map_of(np.zeros((2, 2), dtype=np.int64))
        with pytest.raises(ValueError):
            superpixel_mean(sp, Tensor(np.ones((3, 3, 1))))


class TestBroadcastLabels:
    def test_round_trip_through_segment_means(self):
        rng = np.random.default_rng(310)
        labels = _dense_random_labels(rng, 7, 6, 5)
        sp = SuperpixelMap.from_labels(labels, np.ones((7, 6, 1)))
        values = rng.normal(size=(5, 2))
        painted = broadcast_labels(sp, values)
        assert painted.shape == (7, 6, 2)
        np.testing.assert_allclose(segment_means(painted, labels, 5), values, atol=1e-12)

    def test_matches_lookup_oracle(self):
        rng = np.random.default_rng(317)
        labels = _dense_random_labels(rng, 6, 9, 7)
        sp = SuperpixelMap.from_labels(labels, np.ones((6, 9, 1)))
        values = rng.normal(size=7)
        out = broadcast_labels(sp, values)
        for y in range(6):
            for x in range(9):
                assert out[y, x] == values[labels[y, x]]

    def test_single_segment_paints_everything(self):
        sp = SuperpixelMap.from_labels(np.zeros((3, 4), dtype=np.int64), np.ones((3, 4, 1)))
        np.testing.assert_array_equal(broadcast_labels(sp, np.array([7.0])), np.full((3, 4), 7.0))

    def test_onehot_identity(self):
        rng = np.random.default_rng(318)
        labels = _dense_random_labels(rng, 5, 5, 4)
        feat = rng.normal(size=(5, 5, 1))
        sp = SuperpixelMap.from_labels(labels, feat)
        onehot = Tensor((labels == 2).astype(np.float64)[:, :, None], dtype=np.float64)
        indicator = broadcast_labels(sp, superpixel_mean(sp, onehot).data[:, 0])
        np.testing.assert_allclose(indicator, (labels == 2).astype(np.float64), atol=1e-12)

    def test_length_mismatch_rejected(self):
        sp = _map_of(np.array([[0, 1], [1, 0]]))
        with pytest.raises(ValueError):
            broadcast_labels(sp, np.ones(3))


class TestZscore:
    def test_standardizes_each_channel(self):
        rng = np.random.default_rng(311)
        feat = rng.normal(loc=5.0, scale=3.0, size=(16, 16, 3))
        z = zscore_features(feat)
        np.testing.assert_allclose(z.mean(axis=(0, 1)), 0.0, atol=1e-10)
        np.testing.assert_allclose(z.std(axis=(0, 1)), 1.0, atol=1e-10)

    def test_constant_channel_maps_to_zero(self):
        z = zscore_features(np.full((4, 4, 1), 7.0))
        np.testing.assert_allclose(z, 0.0)
