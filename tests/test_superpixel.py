"""Superpixel clustering and pooling against flood-fill and loop oracles."""

import numpy as np
import pytest

from dcn.autodiff import GradTape, Tensor, backward, grad_check, square, tsum
from dcn.superpixel import (
    CONVERGENCE_EPS,
    SlicParams,
    SuperpixelMap,
    _merge_fragments,
    assign_pixels,
    broadcast_labels,
    enforce_connectivity,
    seed_centers,
    segment_means,
    slic_segment,
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


def _segment_means_add_at(values, labels, n):
    """Oracle: float64 scatter-add in pixel order, then divide by counts."""
    counts = np.bincount(labels.ravel(), minlength=n)
    sums = np.zeros((n,) + values.shape[2:])
    np.add.at(sums, labels.ravel(), values.reshape((labels.size,) + values.shape[2:]))
    return sums / (counts[:, None] if values.ndim == 3 else counts)


def _slic_add_at(feat, params):
    """Oracle: the SLIC loop with np.add.at center sums, as labels, motion, converged."""
    h, w, _ = feat.shape
    positions, cfeats, s_grid = seed_centers(feat, params.k_desired)
    motion, converged = [], False
    for _ in range(params.max_iters):
        labels = assign_pixels(feat, positions, cfeats, s_grid, params.m)
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
        if motion[-1] < CONVERGENCE_EPS:
            converged = True
            break
    min_size = params.min_size_factor * (h * w / params.k_desired)
    return _merge_fragments(labels, min_size), tuple(motion), converged


class TestSlicParams:
    def test_defaults(self):
        p = SlicParams(k_desired=16)
        assert (p.m, p.max_iters, p.min_size_factor) == (10.0, 10, 0.25)

    def test_validation(self):
        with pytest.raises(ValueError):
            SlicParams(k_desired=0)
        with pytest.raises(ValueError):
            SlicParams(k_desired=4, m=0.0)
        with pytest.raises(ValueError):
            SlicParams(k_desired=4, m=-1.0)
        with pytest.raises(ValueError):
            SlicParams(k_desired=4, max_iters=0)
        with pytest.raises(ValueError):
            SlicParams(k_desired=4, min_size_factor=0.0)
        with pytest.raises(ValueError):
            SlicParams(k_desired=4, min_size_factor=1.5)


class TestSuperpixelMapConstruction:
    def test_counts_and_means_match_oracle(self):
        rng = np.random.default_rng(300)
        labels = _dense_random_labels(rng, 6, 7, 5)
        feat = rng.normal(size=(6, 7, 3))
        sp = SuperpixelMap.from_labels(labels, feat)
        assert sp.n_segments == 5
        np.testing.assert_array_equal(sp.counts, np.bincount(labels.ravel()))
        np.testing.assert_allclose(sp.feature_means, segment_means(feat, labels, 5))

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
        assert sp.features is None and sp.feature_means is None
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
        out = enforce_connectivity(_map_of(labels), min_size=2)
        want = np.array([[0, 0, 1, 1], [0, 1, 1, 1], [0, 0, 1, 1]])
        np.testing.assert_array_equal(out.labels, want)

    def test_disconnected_fragments_get_distinct_labels(self):
        out = enforce_connectivity(_map_of([[0, 1, 0]]), min_size=0.5)
        np.testing.assert_array_equal(out.labels, [[0, 1, 2]])

    def test_already_connected_map_only_renumbers(self):
        labels = np.array([[1, 1, 0], [1, 0, 0]])
        out = enforce_connectivity(_map_of(labels), min_size=0.5)
        np.testing.assert_array_equal(out.labels, [[0, 0, 1], [0, 1, 1]])

    def test_smallest_components_dissolve_first(self):
        # sizes: label 0 covers 6, label 1 covers 2, label 2 covers 1;
        # both small ones must end up inside the big one
        labels = np.array([[0, 0, 0], [0, 2, 1], [0, 0, 1]])
        out = enforce_connectivity(_map_of(labels), min_size=3)
        np.testing.assert_array_equal(out.labels, np.zeros((3, 3), dtype=np.int64))

    def test_single_component_without_neighbours_survives(self):
        labels = np.zeros((2, 2), dtype=np.int64)
        out = enforce_connectivity(_map_of(labels), min_size=100)
        np.testing.assert_array_equal(out.labels, labels)

    def test_checkerboard_minsize_two(self):
        yy, xx = np.mgrid[0:8, 0:8]
        board = ((yy + xx) % 2).astype(np.int64)
        out = enforce_connectivity(_map_of(board), min_size=2)
        comps = flood_components(out.labels)
        per_label = np.bincount([lab for lab, _ in comps])
        for lab, size in comps:
            assert size >= 2 or per_label[lab] == 1

    def test_idempotent(self):
        rng = np.random.default_rng(301)
        labels = rng.integers(0, 5, size=(12, 12))
        labels.ravel()[:5] = np.arange(5)
        once = enforce_connectivity(_map_of(labels), min_size=4)
        twice = enforce_connectivity(once, min_size=4)
        np.testing.assert_array_equal(once.labels, twice.labels)

    def test_every_output_label_is_one_connected_component(self):
        rng = np.random.default_rng(302)
        for _ in range(10):
            labels = _dense_random_labels(rng, 10, 14, 6)
            out = enforce_connectivity(_map_of(labels), min_size=3)
            comps = flood_components(out.labels)
            assert len(comps) == out.n_segments
            assert sorted(lab for lab, _ in comps) == list(range(out.n_segments))

    def test_statistics_recomputed_after_merge(self):
        rng = np.random.default_rng(313)
        labels = _dense_random_labels(rng, 10, 10, 8)
        feat = rng.normal(size=(10, 10, 2))
        out = enforce_connectivity(SuperpixelMap.from_labels(labels, feat), min_size=4)
        assert out.counts.sum() == 100
        np.testing.assert_allclose(
            out.feature_means, segment_means(feat, out.labels, out.n_segments)
        )


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

    def test_bit_identical_to_add_at_oracle_on_seeded_corpus(self):
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
                max_iters=int(rng.integers(1, 11)),
            )
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
            positions, cfeats, s_grid = seed_centers(feat, 4)
            got = assign_pixels(feat, positions, cfeats, s_grid, m=10.0)

            h, w, _ = feat.shape
            reach = 2.0 * s_grid
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

    def test_min_size_factor_controls_fragment_merging(self):
        rng = np.random.default_rng(306)
        feat = rng.normal(size=(24, 24, 1))
        loose = slic_segment(feat, SlicParams(k_desired=9, min_size_factor=1e-6))
        tight = slic_segment(feat, SlicParams(k_desired=9, min_size_factor=0.25))
        assert loose.n_segments >= tight.n_segments

    def test_validation(self):
        feat = np.zeros((8, 8, 1))
        with pytest.raises(ValueError):
            slic_segment(feat, SlicParams(k_desired=65))
        with pytest.raises(ValueError):
            slic_segment(np.zeros((8, 8)), SlicParams(k_desired=4))
        with pytest.raises(ValueError):
            slic_segment(np.zeros((0, 8, 1)), SlicParams(k_desired=4))

    def test_accepts_tensor_features(self):
        sp = slic_segment(Tensor(np.zeros((16, 16, 1))), SlicParams(k_desired=4))
        assert sp.n_segments == 4


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
