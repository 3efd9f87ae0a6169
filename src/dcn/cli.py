"""Command-line pipeline: synthesize, superpixel, train, predict, evaluate.

Heavy modules are imported inside the subcommand handlers so that the
DCN_THREADS cap can be written into the BLAS environment variables before
numpy first loads.
"""

import argparse
import json
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


def _thread_cap():
    """DCN_THREADS as a positive integer, or None when it is unset."""
    raw = os.environ.get("DCN_THREADS")
    if raw is None:
        return None
    try:
        cap = int(raw)
    except ValueError:
        cap = 0
    if cap < 1:
        raise UsageError(f"DCN_THREADS must be a positive integer, got {raw!r}")
    return cap


def _apply_thread_cap():
    cap = _thread_cap()
    if cap is not None:
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


def _segment(part, bands, params):
    """Superpixel maps of a chunk of tile records: z-scored one by one, then one stacked SLIC."""
    import numpy as np

    from .superpixel import slic_segment_batch, zscore_features

    features = np.stack([zscore_features(record.stack.select(bands)) for record in part])
    return slic_segment_batch(features, params)


def _share_maps(chunks, bands, params):
    """Maps of each chunk in order; an exception takes its chunk's place and ends the share."""
    out = [None] * len(chunks)
    for i, part in enumerate(chunks):
        try:
            out[i] = _segment(part, bands, params)
        except Exception as err:
            out[i] = err
            break
    return out


_CPU_MAX = "/sys/fs/cgroup/cpu.max"


def _usable_cores():
    """Cores this process may use: its CPU affinity, capped by a cgroup v2 CPU quota.

    The quota is read from ``_CPU_MAX``, which in a container with its own
    cgroup namespace is the container's; "max" there, or no such file,
    sets no cap. A quota of 1.5 CPUs allows 2.
    """
    cores = len(os.sched_getaffinity(0))
    try:
        with open(_CPU_MAX) as f:
            quota, period = f.read().split()
        return min(cores, -(-int(quota) // int(period)))
    except (OSError, ValueError):
        return cores


def _segment_workers(chunks):
    """How many processes segment ``chunks`` chunks.

    The usable cores, capped by DCN_THREADS and by ``chunks``; 1 for no
    chunks and where ``os.fork`` or ``os.sched_getaffinity`` is missing.
    """
    if not (hasattr(os, "fork") and hasattr(os, "sched_getaffinity")):
        return 1
    bounds = [_usable_cores(), chunks]
    cap = _thread_cap()
    if cap is not None:
        bounds.append(cap)
    return max(1, min(bounds))


def _fork_share(chunks, bands, params):
    """Fork a child that segments ``chunks``; returns (its pid, the read end of its pipe).

    The child segments from the records it inherited, writes its pickled
    ``_share_maps`` to the pipe and leaves by ``os._exit``, never returning
    into the caller's frames; it makes no BLAS call. It ignores SIGINT: an
    interrupt reaches the parent, which kills its children.
    """
    import pickle
    import signal

    rfd, wfd = os.pipe()
    try:
        pid = os.fork()
    except BaseException:
        os.close(rfd)
        os.close(wfd)
        raise
    if pid == 0:
        code = 1
        try:
            signal.signal(signal.SIGINT, signal.SIG_IGN)
            os.close(rfd)
            payload = pickle.dumps(_share_maps(chunks, bands, params))
            with os.fdopen(wfd, "wb") as pipe:
                pipe.write(payload)
            code = 0
        except BaseException:
            import traceback

            traceback.print_exc()
        finally:
            os._exit(code)
    os.close(wfd)
    return pid, os.fdopen(rfd, "rb")


def _forked_maps(chunks, bands, params, workers):
    """Maps of every chunk, chunk i segmented by process i mod ``workers``.

    The parent forks ``workers - 1`` children (none for 1) and segments
    share 0 itself, then reaps every child. A chunk's exception, the first in chunk order,
    is raised with its own type once all are reaped; on any other failure
    the children still running are killed and reaped.
    """
    import pickle
    import signal

    children = {}  # pid -> read end of its pipe, until the child is reaped
    try:
        for share in range(1, workers):
            pid, pipe = _fork_share(chunks[share::workers], bands, params)
            children[pid] = pipe
        outcomes = [None] * len(chunks)
        outcomes[::workers] = _share_maps(chunks[::workers], bands, params)
        for share, (pid, pipe) in enumerate(list(children.items()), 1):
            payload = pipe.read()
            status = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            pipe.close()
            del children[pid]
            if status:
                raise RuntimeError(f"SLIC worker process {pid} exited with status {status}")
            outcomes[share::workers] = pickle.loads(payload)
    finally:
        for pid, pipe in children.items():
            pipe.close()
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
    for outcome in outcomes:
        if isinstance(outcome, BaseException):
            raise outcome
    return outcomes


def _segmented(records, bands, params, chunk):
    """(tile records, their superpixel maps) for each chunk of ``chunk`` records.

    ``_forked_maps`` spreads the chunks over W = ``_segment_workers``
    processes, one for W = 1. Each map is the one the tile gets when
    segmented on its own, whatever chunk or process segments it.
    """
    chunks = [records[lo : lo + chunk] for lo in range(0, len(records), chunk)]
    maps = _forked_maps(chunks, bands, params, _segment_workers(len(chunks)))
    return list(zip(chunks, maps))


def _at_most_pixels(k, flag, pixels):
    """A superpixel count must not exceed the pixels it segments."""
    if k > pixels:
        raise UsageError(f"{flag} {k} exceeds the {pixels} pixels to segment")


def _positive(value, flag):
    if value < 1:
        raise UsageError(f"{flag} must be >= 1, got {value}")
    return value


def _non_negative(value, flag):
    if value < 0:
        raise UsageError(f"{flag} must be >= 0, got {value}")


def _check_output_dirs(*outputs):
    """Fail on a (flag, path) whose directory is missing before any work, not at the write."""
    for flag, path in outputs:
        if path is not None and not os.path.isdir(os.path.dirname(os.path.abspath(path))):
            raise DataError(f"{flag} {path}: no such directory")


def _slic(k, m, m_flag):
    """SlicParams of a checked positive k; a compactness it refuses is a usage error."""
    from .superpixel import SlicParams

    try:
        return SlicParams(k_desired=k, m=m)
    except ValueError as err:
        raise UsageError(f"{m_flag}: {err}") from None


def _slic_params(args, window):
    """SlicParams from --slic-k (default: one superpixel per 64 pixels) and --slic-m."""
    pixels = window * window
    k = args.slic_k if args.slic_k is not None else pixels // 64
    _positive(k, "--slic-k")
    _at_most_pixels(k, "--slic-k", pixels)
    return _slic(k, args.slic_m, "--slic-m")


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
    from .superpixel import slic_segment, zscore_features

    _positive(args.k, "--k")
    params = _slic(args.k, args.compactness, "--compactness")
    _check_output_dirs(("--out", args.out))
    stack = _with_ndvi(read_bmsr(args.input))
    _at_most_pixels(args.k, "--k", stack.width * stack.height)
    roles = tuple(r for r in stack.roles if r not in ("MASK", "LABELS"))
    if not roles:
        raise DataError(f"--input {args.input} has no feature bands")
    features = zscore_features(stack.select(roles))
    spmap = slic_segment(features, params)
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
    tiles = []
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
        if tiled is not None:
            tiles.extend(tiled.tiles)
    records = [
        replace(r, spmap=spmap)
        for part, spmaps in _segmented(tiles, config.input_bands, params, infer_chunk(config))
        for r, spmap in zip(part, spmaps)
    ]
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
        write_atomic(args.history, [(report_json(history) + "\n").encode("utf-8")])
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
    for records, spmaps in _segmented(tiled.tiles, bands, params, infer_chunk(model.config)):
        data = [record.stack.select(bands) for record in records]
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
    write_atomic(args.json, [(json.dumps(doc, indent=2) + "\n").encode("utf-8")])
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
