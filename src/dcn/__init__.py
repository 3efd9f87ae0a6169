"""Building-footprint extraction from fused optical and surface-model rasters.

A competition-layer convolutional segmenter: an encoder-decoder network
produces per-pixel descriptors, superpixels pool them into per-segment
descriptors, and a two-row codebook classifies each segment as building
or background by feature-space distance.

Public names load lazily (PEP 562): ``import dcn`` and ``import dcn.cli``
leave numpy unloaded, so the CLI can cap BLAS threads (``DCN_THREADS``)
before numpy starts its thread pool. ``dcn.train`` is the training
function; its module is ``dcn.train`` in ``sys.modules``.
"""

import importlib
import sys
import types

_SOURCES = {
    "autodiff": ("GradTape", "Tensor", "grad_check"),
    "competition": (
        "Codebook",
        "CompetitionConfig",
        "class_distances",
        "competition_loss",
        "softmin_probs",
        "winner",
    ),
    "data": (
        "Band",
        "RasterStack",
        "SplitSpec",
        "SyntheticSceneSpec",
        "TileSet",
        "compute_ndvi",
        "normalize",
        "read_bmsr",
        "split_dataset",
        "stitch",
        "synth_scene",
        "tile",
        "write_bmsr",
    ),
    "errors": ("DataError", "DcnError", "NumericError"),
    "model": (
        "DcnConfig",
        "DcnModel",
        "build",
        "embed",
        "forward",
        "load_checkpoint",
        "save_checkpoint",
    ),
    "superpixel": (
        "SlicParams",
        "SuperpixelMap",
        "broadcast_labels",
        "enforce_connectivity",
        "slic_segment",
        "superpixel_mean",
        "zscore_features",
    ),
    "train": (
        "AdamState",
        "ConfusionCounts",
        "CostReport",
        "TrainConfig",
        "TrainHistory",
        "adam_step",
        "computational_cost",
        "confusion",
        "error_map",
        "iou",
        "overall_accuracy",
        "report_json",
        "superpixel_truth",
        "train",
        "write_ppm",
    ),
}
_MODULE_OF = {name: module for module, names in _SOURCES.items() for name in names}

__all__ = sorted(_MODULE_OF)

__version__ = "0.1.0"


def __getattr__(name):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


class _Package(types.ModuleType):
    def __setattr__(self, name, value):
        # loading the dcn.train submodule binds it as the package attribute
        # ``train``; that name stays the exported training function
        if name == "train" and isinstance(value, types.ModuleType):
            value = value.train
        super().__setattr__(name, value)


sys.modules[__name__].__class__ = _Package


def __dir__():
    return sorted(set(globals()) | set(__all__))


if "numpy" in sys.modules:
    # numpy, and with it the BLAS thread pool, is loaded already, so
    # deferring saves nothing; load every submodule now, so that code which
    # looks them up in sys.modules right after ``import dcn`` finds them
    for _name in __all__:
        __getattr__(_name)
