"""Command-line pipeline: synthesize, superpixel, train, predict, evaluate.

Heavy modules are imported inside the subcommand handlers so that the
DCN_THREADS cap can be written into the BLAS environment variables before
numpy first loads.
"""

import argparse
import json
import math
import os
import sys

from .errors import DataError, DcnError, NumericError

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_NUMERIC = 3

DEFAULT_CHANNELS = "32,64,128,256,512"

_THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


class UsageError(DcnError):
    """Bad flag values or combinations; maps to exit code 1."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _apply_thread_cap():
    raw = os.environ.get("DCN_THREADS")
    if raw is None:
        return
    try:
        cap = int(raw)
    except ValueError:
        raise UsageError(f"DCN_THREADS must be a positive integer, got {raw!r}") from None
    if cap < 1:
        raise UsageError(f"DCN_THREADS must be a positive integer, got {raw!r}")
    for var in _THREAD_VARS:
        os.environ[var] = str(cap)


def _scene_spec(size, seed):
    """Synthetic-scene parameters at constant object density for any size."""
    from .data import SyntheticSceneSpec

    area = size * size
    return SyntheticSceneSpec(
        height=size,
        width=size,
        buildings=(max(1, area // 2048), max(2, area // 1024)),
        building_size=(min(10, max(4, size // 4)), min(20, max(6, size // 3))),
        building_height=(10.0, 30.0),
        vegetation=(1, max(1, area // 2048)),
        vegetation_radius=(4, 8),
        noise_std=0.01,
        seed=seed,
    )


def _with_ndvi(stack):
    """The stack with NDVI derived when it lacks NDVI but has NIR and RED."""
    from .data import compute_ndvi

    if not stack.has("NDVI") and stack.has("NIR") and stack.has("RED"):
        return compute_ndvi(stack)
    return stack


def _scene_tiles(path, flag, bands, window, stride, need_mask=False):
    """Read the scene at ``path``, prepare ``bands`` and cut it into tiles.

    NDVI is derived from NIR and RED when the scene lacks it. A scene
    still missing a band of ``bands``, or MASK when ``need_mask``, returns
    None when ``need_mask`` (training skips it) and is otherwise a
    DataError naming ``flag``, the file and the missing roles. The kept
    bands are rescaled; errors from tiling name ``flag`` and the file.
    Tiles copy their windows, so the full-size raw and prepared scenes
    are freed before the caller's tile loop.
    """
    from .data import RasterStack, normalize, read_bmsr, tile

    scene = _with_ndvi(read_bmsr(path))
    keep = (*bands, "MASK")
    missing = [role for role in (keep if need_mask else bands) if not scene.has(role)]
    if missing:
        if need_mask:
            return None
        raise DataError(
            f"{flag} {path} has no {'/'.join(missing)} band "
            f"(present: {scene.roles}; NDVI needs NIR and RED)"
        )
    subset = RasterStack(
        width=scene.width,
        height=scene.height,
        gsd=scene.gsd,
        bands=tuple(band for band in scene.bands if band.role in keep),
    )
    try:
        return tile(normalize(subset)[0], window=window, stride=stride)
    except DataError as err:
        raise DataError(f"{flag} {path}: {err}") from err


def _mask_band(path, flag):
    import numpy as np

    from .data import read_bmsr

    stack = read_bmsr(path)
    if not stack.has("MASK"):
        raise DataError(f"{flag} {path} has no MASK band (present: {stack.roles})")
    return stack.band("MASK").astype(np.int64)


def _segmented(records, bands, params, chunk):
    """Yield (tile records, their ``bands`` arrays, superpixel maps) per chunk.

    The tiles of a chunk are z-scored one by one, then segmented by one
    stacked SLIC; each map is the one the tile gets on its own.
    """
    import numpy as np

    from .superpixel import slic_segment_batch, zscore_features

    for lo in range(0, len(records), chunk):
        part = records[lo : lo + chunk]
        data = [record.stack.select(bands) for record in part]
        features = np.stack([zscore_features(d) for d in data])
        yield part, data, slic_segment_batch(features, params)


def _at_most_pixels(k, flag, pixels):
    """A superpixel count must not exceed the pixels it segments."""
    if k > pixels:
        raise UsageError(f"{flag} {k} exceeds the {pixels} pixels to segment")


def _positive(value, flag):
    if value < 1:
        raise UsageError(f"{flag} must be >= 1, got {value}")
    return value


def _compactness(value, flag):
    """A SLIC compactness m: positive, with the finite square SlicParams needs."""
    if not (value > 0 and math.isfinite(value * value)):  # also rejects nan and inf
        raise UsageError(f"{flag} must be positive with a finite square, got {value}")


def _non_negative(value, flag):
    if value < 0:
        raise UsageError(f"{flag} must be >= 0, got {value}")


def _check_output_dirs(*outputs):
    """Fail on a (flag, path) whose directory is missing before any work, not at the write."""
    for flag, path in outputs:
        if path is not None and not os.path.isdir(os.path.dirname(os.path.abspath(path))):
            raise DataError(f"{flag} {path}: no such directory")


def _slic_params(args, window):
    """SlicParams from --slic-k (default: one superpixel per 64 pixels) and --slic-m."""
    from .superpixel import SlicParams

    pixels = window * window
    k = args.slic_k if args.slic_k is not None else pixels // 64
    _positive(k, "--slic-k")
    _at_most_pixels(k, "--slic-k", pixels)
    _compactness(args.slic_m, "--slic-m")
    return SlicParams(k_desired=k, m=args.slic_m)


def cmd_synth(args):
    from .data import Band, RasterStack, synth_scene, write_bmsr

    _positive(args.count, "--count")
    _non_negative(args.seed, "--seed")
    if args.size < 32:
        raise UsageError(f"--size must be >= 32 to fit the object palette, got {args.size}")
    os.makedirs(args.out, exist_ok=True)
    for i in range(args.count):
        scene = synth_scene(_scene_spec(args.size, args.seed + i))
        write_bmsr(scene, os.path.join(args.out, f"scene_{i:03d}.bmsr"))
        mask = RasterStack(
            width=scene.width,
            height=scene.height,
            gsd=scene.gsd,
            bands=(Band("MASK", scene.band("MASK")),),
        )
        write_bmsr(mask, os.path.join(args.out, f"mask_{i:03d}.bmsr"))
    print(f"wrote {args.count} scene/mask pairs to {args.out}")
    return EXIT_OK


def cmd_slic(args):
    import numpy as np

    from .data import Band, RasterStack, read_bmsr, write_bmsr
    from .superpixel import SlicParams, slic_segment, zscore_features

    _positive(args.k, "--k")
    _compactness(args.compactness, "--compactness")
    _check_output_dirs(("--out", args.out))
    stack = _with_ndvi(read_bmsr(args.input))
    _at_most_pixels(args.k, "--k", stack.width * stack.height)
    roles = tuple(r for r in stack.roles if r not in ("MASK", "LABELS"))
    if not roles:
        raise DataError(f"--input {args.input} has no feature bands")
    features = zscore_features(stack.select(roles))
    spmap = slic_segment(features, SlicParams(k_desired=args.k, m=args.compactness))
    labels = RasterStack(
        width=stack.width,
        height=stack.height,
        gsd=stack.gsd,
        bands=(Band("LABELS", spmap.labels.astype(np.float32)),),
    )
    write_bmsr(labels, args.out)
    print(f"{spmap.n_segments} superpixels -> {args.out}")
    return EXIT_OK


def _parse_channels(text):
    try:
        channels = tuple(int(part) for part in text.split(","))
    except ValueError:
        raise UsageError(f"--channels must be comma-separated integers, got {text!r}") from None
    if len(channels) != 5 or min(channels) < 1:
        raise UsageError(f"--channels needs five positive widths, got {text!r}")
    return channels


def cmd_train(args):
    from dataclasses import replace

    from .data import write_atomic
    from .model import DcnConfig, build, infer_chunk, save_checkpoint
    from .train import TrainConfig, report_json, train

    channels = _parse_channels(args.channels)
    if args.window < 32 or args.window % 32:
        raise UsageError(f"--window must be a positive multiple of 32, got {args.window}")
    _positive(args.stride, "--stride")
    _positive(args.epochs, "--epochs")
    _positive(args.batch, "--batch")
    _positive(args.dim, "--dim")
    _non_negative(args.seed, "--seed")
    if not 0.0 <= args.dropout < 1.0:
        raise UsageError(f"--dropout must lie in [0, 1), got {args.dropout}")
    params = _slic_params(args, args.window)

    config = DcnConfig(
        block_channels=channels,
        embedding_dim=args.dim,
        dropout_rate=args.dropout,
        tile_size=args.window,
        seed=args.seed,
    )
    if not os.path.isdir(args.data):
        raise DataError(f"--data {args.data} is not a directory")
    _check_output_dirs(("--out", args.out), ("--history", args.history))
    chunk = infer_chunk(config)
    records = []
    for name in sorted(os.listdir(args.data)):
        if not name.endswith(".bmsr"):
            continue
        tiled = _scene_tiles(
            os.path.join(args.data, name),
            "--data",
            config.input_bands,
            args.window,
            args.stride,
            need_mask=True,
        )
        if tiled is None:
            continue
        for part, _, spmaps in _segmented(tiled.tiles, config.input_bands, params, chunk):
            records.extend(replace(r, spmap=spmap) for r, spmap in zip(part, spmaps))
    if not records:
        raise DataError(
            f"--data {args.data} holds no scenes with the "
            f"{'/'.join(config.input_bands)} + MASK bands"
        )

    model = build(config)
    history, report = train(
        model,
        records,
        [],
        TrainConfig(batch_size=args.batch, epochs=args.epochs, seed=args.seed),
    )
    save_checkpoint(model, args.out)
    if args.history:
        write_atomic(args.history, (report_json(history) + "\n").encode("utf-8"))
    print(f"trained {len(records)} tiles for {report.ne} epochs -> {args.out}")
    print(
        f"final_loss={history.loss[-1]:.6f} ne={report.ne} "
        f"tt_seconds={report.tt_seconds:.3f} cc_minutes={report.cc_minutes:.3f}"
    )
    return EXIT_OK


def cmd_predict(args):
    from dataclasses import replace

    import numpy as np

    from .data import Band, RasterStack, stitch, write_bmsr
    from .model import infer_chunk, infer_rasters, load_checkpoint
    from .train import confusion, error_map, iou, overall_accuracy, write_ppm

    if args.errmap and not args.truth:
        raise UsageError("--errmap requires --truth to compare against")
    model = load_checkpoint(args.model)
    window = model.config.tile_size
    params = _slic_params(args, window)
    _check_output_dirs(("--out", args.out), ("--errmap", args.errmap))

    bands = model.config.input_bands
    tiled = _scene_tiles(args.input, "--input", bands, window, window)
    out_tiles = []
    for records, data, spmaps in _segmented(tiled.tiles, bands, params, infer_chunk(model.config)):
        for record, raster in zip(records, infer_rasters(model, data, spmaps)):
            mask_stack = RasterStack(
                width=window,
                height=window,
                gsd=record.stack.gsd,
                bands=(Band("MASK", raster.astype(np.float32)),),
            )
            out_tiles.append(replace(record, stack=mask_stack, spmap=None))
    merged = stitch(replace(tiled, tiles=tuple(out_tiles)))
    write_bmsr(merged, args.out)
    print(f"prediction -> {args.out}")

    if args.truth:
        pred = merged.band("MASK").astype(np.int64)
        truth = _mask_band(args.truth, "--truth")
        if truth.shape != pred.shape:
            raise DataError(
                f"--truth {args.truth} shape {truth.shape} does not match "
                f"prediction shape {pred.shape}"
            )
        counts = confusion(pred, truth)
        print(f"oa={overall_accuracy(counts):.6f} iou={iou(counts):.6f}")
        if args.errmap:
            write_ppm(error_map(pred, truth), args.errmap)
            print(f"error map -> {args.errmap}")
    return EXIT_OK


def cmd_eval(args):
    from .data import write_atomic
    from .train import confusion, iou, overall_accuracy

    pred = _mask_band(args.pred, "--pred")
    truth = _mask_band(args.truth, "--truth")
    if pred.shape != truth.shape:
        raise DataError(
            f"--pred {args.pred} shape {pred.shape} does not match "
            f"--truth {args.truth} shape {truth.shape}"
        )
    counts = confusion(pred, truth)
    doc = {
        "oa": overall_accuracy(counts),
        "iou": iou(counts),
        "tp": counts.tp,
        "fp": counts.fp,
        "fn": counts.fn,
        "tn": counts.tn,
    }
    write_atomic(args.json, (json.dumps(doc, indent=2) + "\n").encode("utf-8"))
    print(f"oa={doc['oa']:.6f} iou={doc['iou']:.6f}")
    return EXIT_OK


def build_parser():
    parser = _Parser(prog="dcn", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="write synthetic scene + mask raster pairs")
    p.add_argument("--seed", type=int, default=0, help="base seed; scene i uses seed+i")
    p.add_argument("--count", type=int, required=True, help="number of scenes")
    p.add_argument("--size", type=int, required=True, help="square scene side in pixels")
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("slic", help="superpixel a raster into a LABELS map")
    p.add_argument("--input", required=True, help="source .bmsr raster")
    p.add_argument("--k", type=int, required=True, help="desired superpixel count")
    p.add_argument("--compactness", type=float, default=10.0, help="SLIC m weight")
    p.add_argument("--out", required=True, help="output LABELS .bmsr")
    p.set_defaults(func=cmd_slic)

    p = sub.add_parser("train", help="train a model on a directory of scenes")
    p.add_argument("--data", required=True, help="directory of .bmsr scenes with MASK bands")
    p.add_argument("--epochs", type=int, default=250, help="training epochs")
    p.add_argument("--batch", type=int, default=64, help="tiles per optimizer step")
    p.add_argument("--seed", type=int, default=0, help="weights + shuffling seed")
    p.add_argument("--window", type=int, default=128, help="tile side, multiple of 32")
    p.add_argument("--stride", type=int, default=128, help="tiling stride")
    p.add_argument("--channels", default=DEFAULT_CHANNELS, help="five block widths")
    p.add_argument("--dim", type=int, default=16, help="embedding dimensionality")
    p.add_argument("--dropout", type=float, default=0.5, help="dropout rate in [0, 1)")
    p.add_argument("--slic-k", type=int, default=None, help="superpixels per tile")
    p.add_argument("--slic-m", type=float, default=2.0, help="SLIC compactness")
    p.add_argument("--out", required=True, help="output checkpoint .dcnw")
    p.add_argument("--history", default=None, help="optional loss-history JSON path")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("predict", help="tile, infer, and stitch a building mask")
    p.add_argument("--model", required=True, help="checkpoint .dcnw")
    p.add_argument("--input", required=True, help="scene .bmsr")
    p.add_argument("--out", required=True, help="output MASK .bmsr")
    p.add_argument("--truth", default=None, help="optional truth .bmsr with MASK band")
    p.add_argument("--errmap", default=None, help="optional error-map .ppm (needs --truth)")
    p.add_argument("--slic-k", type=int, default=None, help="superpixels per tile")
    p.add_argument("--slic-m", type=float, default=2.0, help="SLIC compactness")
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("eval", help="compare predicted and truth masks")
    p.add_argument("--pred", required=True, help="predicted MASK .bmsr")
    p.add_argument("--truth", required=True, help="truth MASK .bmsr")
    p.add_argument("--json", required=True, help="output metrics JSON")
    p.set_defaults(func=cmd_eval)
    return parser


def run(argv):
    """Dispatch ``argv`` and translate failures into the exit-code contract."""
    try:
        _apply_thread_cap()
        args = build_parser().parse_args(argv)
        return args.func(args)
    except UsageError as err:
        print(f"usage error: {err}", file=sys.stderr)
        return EXIT_USAGE
    except DataError as err:
        print(f"data error: {err}", file=sys.stderr)
        return EXIT_DATA
    except NumericError as err:
        print(f"numeric error: {err}", file=sys.stderr)
        return EXIT_NUMERIC
    except MemoryError as err:
        print(
            f"out of memory: {err}; lower --batch, --window, --channels or --dim",
            file=sys.stderr,
        )
        return EXIT_DATA
    except SystemExit as exc:
        return EXIT_OK if exc.code in (0, None) else EXIT_USAGE


def main():
    return run(sys.argv[1:])
