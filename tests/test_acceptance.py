"""End-to-end acceptance checks; each test prints one PASS/FAIL line."""

import json
import os
import subprocess
import sys
import time
from contextlib import contextmanager
from dataclasses import replace

import numpy as np

from dcn.autodiff import Tensor, grad_check, mul, square, tsum
from dcn.competition import (
    Codebook,
    _stable_logistic,
    class_distances,
    competition_loss,
    softmin_probs,
    winner,
)
from dcn.data import (
    RasterStack,
    SplitSpec,
    SyntheticSceneSpec,
    compute_ndvi,
    normalize,
    read_bmsr,
    split_dataset,
    stitch,
    synth_scene,
    tile,
    write_bmsr,
)
from dcn.layers import (
    BatchNormLayer,
    Conv2dLayer,
    DropoutLayer,
    batch_norm,
    conv2d,
    dropout,
    maxpool2,
    relu,
    upsample_nearest2,
)
from dcn.model import DcnConfig, build, forward, load_checkpoint, save_checkpoint
from dcn.superpixel import (
    SlicParams,
    SuperpixelMap,
    slic_segment,
    superpixel_mean,
    zscore_features,
)
from dcn.train import (
    ConfusionCounts,
    TrainConfig,
    computational_cost,
    confusion,
    error_map,
    iou,
    overall_accuracy,
    report_json,
    train,
)

BANDS = ("RED", "GREEN", "BLUE", "NIR", "NDVI", "DSM")

# sensor-level value ranges: reflectance, index, and metres of elevation
DOMAIN_STATS = {
    "RED": (0.0, 1.0),
    "GREEN": (0.0, 1.0),
    "BLUE": (0.0, 1.0),
    "NIR": (0.0, 1.0),
    "NDVI": (-1.0, 1.0),
    "DSM": (0.0, 35.0),
}


@contextmanager
def criterion(capsys, number, label):
    ok = False
    try:
        yield
        ok = True
    finally:
        with capsys.disabled():
            print(f"[criterion {number}] {label}: {'PASS' if ok else 'FAIL'}")


def dense_scene_spec(size, seed):
    """Buildings at constant area density, vegetation confusers included."""
    area = size * size
    return SyntheticSceneSpec(
        height=size,
        width=size,
        buildings=(max(1, area // 2048), max(2, area // 1024)),
        building_size=(10, 20),
        building_height=(10.0, 30.0),
        vegetation=(1, max(1, area // 2048)),
        vegetation_radius=(4, 8),
        noise_std=0.01,
        seed=seed,
    )


def prepared_scene(seed, size):
    """NDVI-extended scene rescaled by fixed sensor ranges, plus raw labels."""
    raw = synth_scene(dense_scene_spec(size, seed))
    full = compute_ndvi(raw)
    keep = RasterStack(
        width=full.width,
        height=full.height,
        gsd=full.gsd,
        bands=tuple(b for b in full.bands if b.role != "LABELS"),
    )
    return normalize(keep, stats=DOMAIN_STATS)[0], raw.band("LABELS")


def tile_records(seeds, size, window, stride):
    records, labels = [], []
    for seed in seeds:
        scene, lab = prepared_scene(seed, size)
        for record in tile(scene, window=window, stride=stride).tiles:
            spmap = slic_segment(
                zscore_features(record.stack.select(BANDS)),
                SlicParams(k_desired=(window * window) // 64, m=2.0),
            )
            records.append(replace(record, spmap=spmap))
            labels.append(lab[record.y : record.y + window, record.x : record.x + window])
    return records, labels


def pooled_prediction(model, records, labels):
    counts = ConfusionCounts(0, 0, 0, 0)
    veg_fp = veg_area = 0
    for record, lab in zip(records, labels):
        data = record.stack.select(BANDS).astype(np.float32)
        _, raster = forward(model, Tensor(data), record.spmap, "infer")
        counts = counts + confusion(raster, record.stack.band("MASK").astype(np.int64))
        veg = lab == 2.0
        veg_area += int(veg.sum())
        veg_fp += int(((raster == 1) & veg).sum())
    return counts, veg_fp, veg_area


def flood_components(labels):
    h, w = labels.shape
    seen = np.zeros((h, w), dtype=bool)
    count = 0
    for y in range(h):
        for x in range(w):
            if seen[y, x]:
                continue
            count += 1
            lab = labels[y, x]
            stack = [(y, x)]
            seen[y, x] = True
            while stack:
                cy, cx = stack.pop()
                for ny, nx in ((cy - 1, cx), (cy + 1, cx), (cy, cx - 1), (cy, cx + 1)):
                    if 0 <= ny < h and 0 <= nx < w:
                        if not seen[ny, nx] and labels[ny, nx] == lab:
                            seen[ny, nx] = True
                            stack.append((ny, nx))
    return count


def boundary_mask(labels):
    b = np.zeros(labels.shape, dtype=bool)
    cx = labels[:, :-1] != labels[:, 1:]
    cy = labels[:-1, :] != labels[1:, :]
    b[:, :-1] |= cx
    b[:, 1:] |= cx
    b[:-1, :] |= cy
    b[1:, :] |= cy
    return b


def boundary_recall(true_labels, pred_labels, tol=2):
    true_b = boundary_mask(true_labels)
    padded = np.pad(boundary_mask(pred_labels), tol)
    win = np.lib.stride_tricks.sliding_window_view(padded, (2 * tol + 1, 2 * tol + 1))
    return (true_b & win.any(axis=(-1, -2))).sum() / true_b.sum()


def rectangle_scene(rng, h=128, w=128, n_rects=3):
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
    bands += rng.normal(0, 0.005, bands.shape) * np.array([1, 1, 1, 1, 1, 10])
    return bands, mask


def run_cli(argv):
    return subprocess.run(
        [sys.executable, "-m", "dcn", *argv], capture_output=True, text=True
    )


def test_criterion_1_gradient_suite(capsys):
    with criterion(capsys, 1, "finite-difference gradients, layers and model"):
        start = time.perf_counter()

        def check(name, make, tolerance=1e-4, trials=100, h=1e-5):
            for trial in range(trials):
                f, inputs = make(np.random.default_rng(5000 + trial))
                report = grad_check(f, inputs, tolerance=tolerance, h=h)
                assert report.passed, f"{name} trial {trial}: {report}"

        def t64(rng, shape, scale=1.0):
            return Tensor(rng.normal(size=shape) * scale, dtype=np.float64)

        def away_from_kink(rng, shape):
            data = rng.normal(size=shape)
            data[np.abs(data) < 0.02] = 0.1
            return Tensor(data, dtype=np.float64)

        def probe_for(rng, shape):
            return Tensor(rng.normal(size=shape) + 0.5, dtype=np.float64)

        def make_conv(rng):
            x, k, b = t64(rng, (1, 4, 4, 2)), t64(rng, (3, 3, 2, 2), 0.5), t64(rng, (2,))
            return lambda x, k, b: tsum(square(conv2d(x, Conv2dLayer(k, b)))), [x, k, b]

        def make_pool(rng):
            x = t64(rng, (1, 4, 4, 2))
            probe = probe_for(rng, (1, 2, 2, 2))
            return lambda x: tsum(mul(maxpool2(x), probe)), [x]

        def make_upsample(rng):
            x = t64(rng, (1, 3, 3, 2))
            probe = probe_for(rng, (1, 6, 6, 2))
            return lambda x: tsum(mul(upsample_nearest2(x), probe)), [x]

        def make_relu(rng):
            x = away_from_kink(rng, (4, 3))
            probe = probe_for(rng, (4, 3))
            return lambda x: tsum(mul(relu(x), probe)), [x]

        def make_batch_norm(rng):
            x = t64(rng, (2, 3, 3, 2))
            g = Tensor(rng.uniform(0.5, 1.5, 2), dtype=np.float64)
            b = t64(rng, (2,))
            probe = probe_for(rng, (2, 3, 3, 2))

            def f(x, g, b):
                layer = BatchNormLayer(
                    gamma=g,
                    beta=b,
                    running_mean=Tensor(np.zeros(2)),
                    running_var=Tensor(np.ones(2)),
                )
                return tsum(mul(batch_norm(x, layer, "train"), probe))

            return f, [x, g, b]

        def make_dropout(rng):
            x = t64(rng, (4, 4, 2))
            probe = probe_for(rng, (4, 4, 2))
            layer = DropoutLayer(0.3, seed=int(rng.integers(1 << 30)))

            def f(x):
                layer.reseed()
                return tsum(mul(dropout(x, layer, "train"), probe))

            return f, [x]

        def make_distances(rng):
            feat = t64(rng, (4, 3))
            protos = Tensor(rng.uniform(0.05, 0.95, (2, 3)), dtype=np.float64)
            probe = probe_for(rng, (4, 2))

            def f(feat, protos):
                d = class_distances(feat, Codebook(protos))
                return tsum(mul(d, probe))

            return f, [feat, protos]

        def make_loss(rng):
            d = Tensor(rng.uniform(0.1, 3.0, (5, 2)), dtype=np.float64)
            truth = rng.integers(0, 2, 5)
            w = rng.uniform(0.2, 1.0, 5)
            w = w / w.sum()
            return lambda d: competition_loss(softmin_probs(d), truth, w), [d]

        def make_superpixel_mean(rng):
            labels = np.zeros((6, 6), dtype=np.int64)
            labels[3:, :] += 2
            labels[:, 3:] += 1
            spmap = SuperpixelMap.from_labels(labels, labels[:, :, None].astype(float))
            emb = t64(rng, (6, 6, 3))
            probe = probe_for(rng, (4, 3))
            return lambda emb: tsum(mul(superpixel_mean(spmap, emb), probe)), [emb]

        check("conv2d", make_conv)
        check("maxpool2", make_pool)
        check("upsample_nearest2", make_upsample)
        check("relu", make_relu)
        check("batch_norm", make_batch_norm)
        check("dropout", make_dropout)
        check("distances activated_difference", make_distances)
        check("softmin competition_loss", make_loss)
        check("superpixel_mean", make_superpixel_mean)

        model = build(
            DcnConfig(
                input_bands=("A", "B"),
                block_channels=(2, 3, 3, 2, 2),
                embedding_dim=2,
                dropout_rate=0.0,
                dropout_blocks=(),
                tile_size=32,
                seed=11,
            ),
            dtype=np.float64,
        )
        quad = np.zeros((32, 32), dtype=np.int64)
        quad[16:, :] += 2
        quad[:, 16:] += 1
        spmap = SuperpixelMap.from_labels(quad, quad[:, :, None].astype(float))

        def randomize_parameters(rng):
            # zero-init biases park dead channels exactly on the relu kink,
            # where central differences are invalid; probe generic points
            for name, param in model.parameters().items():
                if name.endswith(".gamma"):
                    fresh = rng.uniform(0.7, 1.3, param.shape)
                elif name == "codebook.prototypes":
                    fresh = rng.uniform(0.05, 0.95, param.shape)
                elif name.endswith(".kernel"):
                    fresh = rng.normal(0.0, 0.25, param.shape)
                else:
                    fresh = rng.normal(0.0, 0.2, param.shape)
                model.set_parameter(name, Tensor(fresh, requires_grad=True))

        def decision_signature(data, kernel_data):
            # relu sign patterns and pool argmax choices; equality between
            # two nearby points means the network is one linear-softmax
            # composite on the segment joining them
            model.set_parameter(
                "enc0.conv1.kernel", Tensor(kernel_data, requires_grad=True)
            )
            x = Tensor(data[None, ...], dtype=np.float64)
            sigs = []
            for blk in model.encoder:
                for conv, bn in ((blk.conv1, blk.bn1), (blk.conv2, blk.bn2)):
                    pre = batch_norm(conv2d(x, conv), bn, "train")
                    sigs.append(pre.data > 0.0)
                    x = relu(pre)
                n, h, w, c = x.shape
                windows = x.data.reshape(n, h // 2, 2, w // 2, 2, c).transpose(0, 1, 3, 2, 4, 5)
                sigs.append(windows.reshape(n, h // 2, w // 2, 4, c).argmax(axis=3))
                x = maxpool2(x)
            for blk in model.decoder:
                pre = batch_norm(
                    conv2d(upsample_nearest2(x), blk.conv), blk.bn, "train"
                )
                sigs.append(pre.data > 0.0)
                x = relu(pre)
            return sigs

        def probe_is_clean(data, kernel_data, h):
            # central differences are valid only if no relu or pool
            # decision flips anywhere a probe lands
            base = decision_signature(data, kernel_data)
            flat = kernel_data.ravel()
            for c in range(flat.size):
                for delta in (h, -h):
                    probed = kernel_data.copy()
                    probed.ravel()[c] = flat[c] + delta
                    sig = decision_signature(data, probed)
                    if not all(np.array_equal(a, b) for a, b in zip(base, sig)):
                        return False
            return True

        def make_end_to_end(rng):
            while True:
                randomize_parameters(rng)
                data = rng.normal(size=(32, 32, 2))
                kdata = model.encoder[0].conv1.kernel.data.copy()
                if probe_is_clean(data, kdata, 1e-5):
                    break
            tile_t = Tensor(data, dtype=np.float64)
            truth = rng.integers(0, 2, 4)
            kernel = Tensor(kdata.copy())
            protos = Tensor(model.codebook.prototypes.data.copy())

            def f(kernel, protos):
                model.set_parameter("enc0.conv1.kernel", kernel)
                model.set_parameter("codebook.prototypes", protos)
                distances, _ = forward(model, tile_t, spmap, "train")
                return competition_loss(softmin_probs(distances), truth)

            return f, [kernel, protos]

        check("end-to-end 32x32", make_end_to_end, tolerance=1e-3, h=1e-5)
        elapsed = time.perf_counter() - start
        assert elapsed < 300.0, f"gradient suite took {elapsed:.1f}s"


def test_criterion_2_metric_oracle(capsys):
    with criterion(capsys, 2, "metrics equal brute-force pixel counting"):
        rng = np.random.default_rng(42)
        for _ in range(100):
            pred = rng.integers(0, 2, (64, 64))
            truth = rng.integers(0, 2, (64, 64))
            tp = fp = fn = tn = 0
            for y in range(64):
                for x in range(64):
                    p, t = pred[y, x], truth[y, x]
                    if p == 1 and t == 1:
                        tp += 1
                    elif p == 1:
                        fp += 1
                    elif t == 1:
                        fn += 1
                    else:
                        tn += 1
            counts = confusion(pred, truth)
            assert (counts.tp, counts.fp, counts.fn, counts.tn) == (tp, fp, fn, tn)
            assert overall_accuracy(counts) == (tp + tn) / 4096
            assert iou(counts) == tp / (tp + fn + fp + 1e-15)
        worked = ConfusionCounts(tp=3, fp=2, fn=1, tn=4)
        assert overall_accuracy(worked) == 0.7
        assert abs(iou(worked) - 0.5) < 1e-12


def test_criterion_3_competition_equivalence(capsys):
    with criterion(capsys, 3, "softmin, argmin and the winner rule agree"):
        rng = np.random.default_rng(43)
        d = rng.uniform(0.0, 5.0, (10000, 2))
        probs = softmin_probs(Tensor(d)).data
        by_probs = np.argmax(probs, axis=1)
        by_argmin = np.argmin(d, axis=1)
        by_winner = winner(d)
        assert np.array_equal(by_probs, by_argmin)
        assert np.array_equal(by_winner, by_argmin)

        base = rng.uniform(0.5, 2.0, 500)
        ties = np.stack([base, base + np.where(rng.random(500) < 0.5, 1e-12, -1e-12)], 1)
        probs = softmin_probs(Tensor(ties)).data
        assert np.array_equal(np.argmax(probs, axis=1), np.argmin(ties, axis=1))
        assert np.array_equal(winner(ties), np.argmin(ties, axis=1))

        for trial in range(200):
            trial_rng = np.random.default_rng(6000 + trial)
            v = trial_rng.normal(size=4)
            act = _stable_logistic(v)
            other = np.clip(act + 0.25, 0.0, 1.0) % 1.0
            book = Codebook(Tensor(np.stack([act, other])))
            d = class_distances(Tensor(v, dtype=np.float64), book).data
            assert d[0] == 0.0
            assert d[1] > 0.0
            nudged = act.copy()
            nudged[0] += 1e-9
            book2 = Codebook(Tensor(np.stack([nudged, other])))
            d2 = class_distances(Tensor(v, dtype=np.float64), book2).data
            assert d2[0] > 0.0


def test_criterion_4_slic_properties(capsys):
    with criterion(capsys, 4, "SLIC partition, connectivity, recall, count"):
        k = 64
        for seed in range(10):
            rng = np.random.default_rng(900 + seed)
            bands, mask = rectangle_scene(rng)
            spmap = slic_segment(zscore_features(bands), SlicParams(k_desired=k, m=10.0))
            s = spmap.n_segments
            ids = np.unique(spmap.labels)
            assert ids[0] == 0 and len(ids) == s and ids[-1] == s - 1
            assert spmap.counts.sum() == 128 * 128
            assert flood_components(spmap.labels) == s
            assert abs(s - k) / k <= 0.3, f"seed {seed}: {s} segments"
            recall = boundary_recall(mask, spmap.labels, tol=2)
            assert recall >= 0.9, f"seed {seed}: recall {recall:.3f}"


def test_criterion_5_overfit_harness_cli(capsys, tmp_path):
    with criterion(capsys, 5, "8-scene overfit via the command line"):
        start = time.perf_counter()
        data = str(tmp_path / "data")
        model = str(tmp_path / "model.dcnw")
        hist = str(tmp_path / "hist.json")
        proc = run_cli(["synth", "--seed", "100", "--count", "8", "--size", "64",
                        "--out", data])
        assert proc.returncode == 0, proc.stderr
        proc = run_cli([
            "train", "--data", data, "--epochs", "150", "--batch", "8",
            "--seed", "0", "--window", "64", "--stride", "64",
            "--channels", "8,16,32,64,128", "--dim", "8", "--dropout", "0.0",
            "--out", model, "--history", hist,
        ])
        assert proc.returncode == 0, proc.stderr
        total = ConfusionCounts(0, 0, 0, 0)
        for i in range(8):
            pred = str(tmp_path / f"pred_{i}.bmsr")
            metrics = str(tmp_path / f"metrics_{i}.json")
            proc = run_cli(["predict", "--model", model,
                            "--input", os.path.join(data, f"scene_{i:03d}.bmsr"),
                            "--out", pred])
            assert proc.returncode == 0, proc.stderr
            proc = run_cli(["eval", "--pred", pred,
                            "--truth", os.path.join(data, f"mask_{i:03d}.bmsr"),
                            "--json", metrics])
            assert proc.returncode == 0, proc.stderr
            doc = json.loads(open(metrics).read())
            total = total + ConfusionCounts(doc["tp"], doc["fp"], doc["fn"], doc["tn"])
        pooled = iou(total)
        elapsed = time.perf_counter() - start
        assert pooled >= 0.95, f"training-set IoU {pooled:.4f}"
        assert elapsed < 600.0, f"harness took {elapsed:.1f}s"


def test_criterion_6_generalization(capsys):
    with criterion(capsys, 6, "held-out IoU and vegetation suppression"):
        train_records, _ = tile_records(range(100, 132), size=128, window=64, stride=32)
        held_records, held_labels = tile_records(range(200, 208), 128, 64, 64)
        model = build(
            DcnConfig(
                input_bands=BANDS,
                block_channels=(8, 16, 32, 64, 128),
                embedding_dim=8,
                dropout_rate=0.0,
                dropout_blocks=(),
                tile_size=64,
                seed=0,
            )
        )
        train(model, train_records, [], TrainConfig(batch_size=32, epochs=70, seed=0))
        counts, veg_fp, veg_area = pooled_prediction(model, held_records, held_labels)
        held_iou = iou(counts)
        assert held_iou >= 0.80, f"held-out IoU {held_iou:.4f}"
        assert veg_area > 0
        rate = veg_fp / veg_area
        assert rate < 0.10, f"vegetation false-positive rate {rate:.4f}"


def test_criterion_7_protocol_fidelity(capsys):
    with criterion(capsys, 7, "tiling, stitching and split protocol"):
        scene = synth_scene(SyntheticSceneSpec(height=1024, width=1024, seed=0))
        tiles = tile(scene, window=128, stride=128)
        assert len(tiles) == 64
        rebuilt = stitch(tiles)
        for band in scene.bands:
            assert np.array_equal(rebuilt.band(band.role), band.data)

        strip = synth_scene(SyntheticSceneSpec(height=104, width=184, seed=1))
        parts = tile(strip, window=8, stride=8)
        assert len(parts) == 299
        split = split_dataset(parts, SplitSpec(train=256, validation=40, test=3))
        sizes = tuple(len(part) for part in split)
        assert sizes == (256, 40, 3)
        seen = set()
        for part in split:
            seen.update(id(record) for record in part)
        assert len(seen) == 299
        assert seen == {id(record) for record in parts.tiles}


def test_criterion_8_cost_formula(capsys):
    with criterion(capsys, 8, "computational cost CC = NE*TT/60"):
        report = computational_cost(250, 110.64)
        assert report.cc_minutes == 250 * 110.64 / 60
        assert abs(report.cc_minutes - 461.0) <= 0.5
        assert abs(461.0 * 60 / 250 - 110.64) < 1e-9
        rng = np.random.default_rng(44)
        for _ in range(100):
            ne = int(rng.integers(1, 1000))
            tt = float(rng.uniform(0.0, 500.0))
            report = computational_cost(ne, tt)
            assert report.cc_minutes == ne * tt / 60


def test_criterion_9_determinism_and_formats(capsys, tmp_path):
    with criterion(capsys, 9, "bit-identical reruns and exact round trips"):
        records, _ = tile_records(range(100, 102), size=64, window=64, stride=64)
        config = DcnConfig(
            input_bands=BANDS,
            block_channels=(2, 2, 2, 2, 2),
            embedding_dim=2,
            dropout_rate=0.0,
            dropout_blocks=(),
            tile_size=64,
            seed=5,
        )
        runs = []
        for name in ("one", "two"):
            model = build(config)
            history, _ = train(
                model, records, [], TrainConfig(batch_size=2, epochs=3, seed=7)
            )
            path = str(tmp_path / f"{name}.dcnw")
            save_checkpoint(model, path)
            runs.append((open(path, "rb").read(), report_json(history)))
        assert runs[0][0] == runs[1][0]
        assert runs[0][1] == runs[1][1]

        loaded = load_checkpoint(str(tmp_path / "one.dcnw"))
        again = str(tmp_path / "again.dcnw")
        save_checkpoint(loaded, again)
        assert open(again, "rb").read() == runs[0][0]

        rng = np.random.default_rng(45)
        for i in range(5):
            scene, _ = prepared_scene(300 + i, 64)
            path = str(tmp_path / f"scene_{i}.bmsr")
            write_bmsr(scene, path)
            first = open(path, "rb").read()
            back = read_bmsr(path)
            write_bmsr(back, path)
            assert open(path, "rb").read() == first
            for band in scene.bands:
                assert np.array_equal(back.band(band.role), band.data)

        for _ in range(30):
            pred = rng.integers(0, 2, (32, 32))
            truth = rng.integers(0, 2, (32, 32))
            counts = confusion(pred, truth)
            image = error_map(pred, truth)
            colors = {
                (255, 255, 255): counts.tp,
                (255, 0, 0): counts.fp,
                (0, 0, 255): counts.fn,
                (0, 0, 0): counts.tn,
            }
            for rgb, expected in colors.items():
                found = int((image == np.array(rgb, np.uint8)).all(axis=2).sum())
                assert found == expected
