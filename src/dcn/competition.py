"""Nearest-prototype competition layer over per-segment embeddings.

A two-row codebook (non-building / building) competes for each
embedding vector: the class whose prototype sits closest wins. Distances
feed a numerically stable softmin whose argmax provably coincides with
the argmin distance, giving a differentiable training surrogate whose
cross-entropy pulls prototypes toward the embeddings of their class.

The distance squashes the embedding through the logistic sigmoid and
measures half the squared distance to each prototype, so a perfect match
scores zero.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .autodiff import Tensor, _apply
from .errors import NumericError

PROB_FLOOR = 1e-12


@dataclass
class Codebook:
    """Class prototypes, one row per class: [2, D]."""

    prototypes: Tensor

    def __post_init__(self) -> None:
        if self.prototypes.data.ndim != 2 or self.prototypes.shape[0] != 2:
            raise ValueError(
                f"prototypes must be [2, D], got {self.prototypes.shape}"
            )

    @property
    def dim(self) -> int:
        return self.prototypes.shape[1]

    @classmethod
    def create(cls, dim: int, dtype=np.float32) -> "Codebook":
        """Symmetric start inside the unit box: rows 0.25 and 0.75."""
        if dim < 1:
            raise ValueError(f"embedding dimension must be positive, got {dim}")
        rows = np.stack(
            [np.full(dim, 0.25, dtype=dtype), np.full(dim, 0.75, dtype=dtype)]
        )
        return cls(Tensor(rows, requires_grad=True))


def _stable_logistic(z: np.ndarray) -> np.ndarray:
    """1 / (1 + exp(-z)) without overflow at large |z|."""
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def class_distances(feature: Tensor, codebook: Codebook) -> Tensor:
    """Per-class squared-distance scores: [D] -> [2] or [S, D] -> [S, 2]."""
    w = codebook.prototypes
    single = feature.data.ndim == 1
    if feature.data.ndim not in (1, 2):
        raise ValueError(f"feature must be [D] or [S, D], got {feature.shape}")
    if feature.shape[-1] != codebook.dim:
        raise ValueError(
            f"feature dimension {feature.shape[-1]} does not match codebook {codebook.dim}"
        )
    if feature.data.dtype != w.data.dtype:
        raise ValueError("feature and codebook must share one dtype")
    xd = feature.data[None, :] if single else feature.data
    wd = w.data

    act = _stable_logistic(xd)
    dact = act * (1.0 - act)
    diff = act[:, None, :] - wd[None, :, :]  # [S, 2, D]
    out = 0.5 * (diff ** 2).sum(axis=2)

    def bwd(g):
        gm = g[None, :] if single else g  # [S, 2]
        ga = (gm[:, :, None] * diff).sum(axis=1)  # [S, D]
        gx = ga * dact
        gw = -(gm[:, :, None] * diff).sum(axis=0)
        return (gx[0] if single else gx), gw

    if single:
        out = out[0]
    return _apply("class_distances", (feature, w), out, bwd)


def winner(distances) -> "int | np.ndarray":
    """Argmin class per row; exact ties go to class 0 (non-building)."""
    d = distances.data if isinstance(distances, Tensor) else np.asarray(distances)
    if d.shape[-1] != 2:
        raise ValueError(f"distances must have a trailing axis of 2, got {d.shape}")
    if np.isnan(d).any():
        raise NumericError("winner: NaN distance")
    # argmin returns the first minimum, which is the lower class index
    idx = d.argmin(axis=-1)
    return int(idx) if d.ndim == 1 else idx


def softmin_probs(distances: Tensor) -> Tensor:
    """exp(-d) normalized per row, computed with max-subtraction."""
    if distances.shape[-1] != 2:
        raise ValueError(
            f"distances must have a trailing axis of 2, got {distances.shape}"
        )
    logits = -distances.data
    shifted = logits - logits.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    p = e / e.sum(axis=-1, keepdims=True)

    def bwd(g):
        # softmax jacobian against the logits, then logits = -d
        gl = p * (g - (g * p).sum(axis=-1, keepdims=True))
        return (-gl,)

    return _apply("softmin_probs", (distances,), p, bwd)


def competition_loss(probs: Tensor, truth: np.ndarray, weights=None) -> Tensor:
    """Weighted mean of -log p at the true class.

    ``weights`` are typically per-segment pixel counts, so the segment
    objective totals the same evidence a pixel-level loss would.
    Probabilities are floored at 1e-12 before the log.
    """
    if probs.data.ndim != 2 or probs.shape[1] != 2:
        raise ValueError(f"probs must be [S, 2], got {probs.shape}")
    n = probs.shape[0]
    rows = probs.data.sum(axis=1)
    if not np.allclose(rows, 1.0, atol=1e-5):
        raise ValueError("probability rows must sum to 1")
    truth = np.asarray(truth)
    if truth.shape != (n,) or not np.isin(truth, (0, 1)).all():
        raise ValueError(f"truth must be {n} labels in {{0, 1}}")
    truth = truth.astype(np.int64)
    if weights is None:
        w = np.ones(n)
    else:
        w = np.asarray(weights, dtype=np.float64)
        if w.shape != (n,) or (w <= 0).any():
            raise ValueError(f"weights must be {n} positive values")

    pt = probs.data[np.arange(n), truth]
    clipped = np.maximum(pt, PROB_FLOOR)
    total = w.sum()
    loss = float((w * -np.log(clipped)).sum() / total)

    def bwd(g):
        gp = np.zeros_like(probs.data)
        live = pt > PROB_FLOOR  # flat region below the floor
        gp[np.arange(n), truth] = np.where(live, -w / (clipped * total), 0.0) * g
        return (gp.astype(probs.data.dtype),)

    out = np.asarray(loss, dtype=probs.data.dtype)
    return _apply("competition_loss", (probs,), out, bwd)
