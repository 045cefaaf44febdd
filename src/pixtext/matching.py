"""Pixel-text matching: cosine score maps, feature fusion, and the
auxiliary objectives applied directly to the temperature-scaled scores.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .encoders import FeatureMap, TextEmbeddings
from .tensor import (
    ContractError,
    ShapeError,
    Tensor,
    bce_with_logits,
    block_matmul_t,
    clamp,
    concat,
    cross_entropy,
    l2_normalize,
    mul,
    take,
    write_dct1,
)

__all__ = [
    "ScoreMap",
    "SegTarget",
    "DetTarget",
    "BoxAnnotation",
    "LossConfig",
    "compute_score_map",
    "fuse_features",
    "seg_aux_loss",
    "rasterize_boxes",
    "det_aux_loss",
    "export_score_map",
]


@dataclass
class ScoreMap:
    """Per-cell cosine similarity against each class embedding; entries in
    [-1, 1]. Rows are the cells of n images, stacked as in FeatureMap."""

    s: Tensor  # (n*h4*w4, K)
    h4: int
    w4: int
    k: int
    n: int = 1

    def __post_init__(self):
        rows = self.n * self.h4 * self.w4
        if self.s.shape != (rows, self.k):
            raise ShapeError(f"score map {self.s.shape} != ({rows}, {self.k})")
        if self.k and not (
            np.all(self.s.data >= -1.0) and np.all(self.s.data <= 1.0)
        ):
            raise ContractError("score map entries must lie in [-1, 1]")


@dataclass
class SegTarget:
    """Coarse per-cell class ids aligned with a score map."""

    y: np.ndarray

    def __post_init__(self):
        self.y = np.asarray(self.y, dtype=np.intp)
        if self.y.ndim != 1:
            raise ShapeError("segmentation target must be flat")


@dataclass
class DetTarget:
    """Binary per-cell per-class targets built from box annotations."""

    y: np.ndarray

    def __post_init__(self):
        self.y = np.asarray(self.y, dtype=np.float64)
        if not np.all((self.y == 0.0) | (self.y == 1.0)):
            raise ContractError("detection target must be binary")


@dataclass(frozen=True)
class BoxAnnotation:
    """Axis-aligned box in normalized [0, 1] image coordinates."""

    class_id: int
    x_min: float
    y_min: float
    x_max: float
    y_max: float

    def __post_init__(self):
        if not (self.x_min < self.x_max and self.y_min < self.y_max):
            raise ValueError(
                f"degenerate box ({self.x_min}, {self.y_min}, {self.x_max}, {self.y_max})"
            )
        for v in (self.x_min, self.y_min, self.x_max, self.y_max):
            if not (0.0 <= v <= 1.0):
                raise ValueError("box coordinates must be normalized to [0, 1]")


@dataclass
class LossConfig:
    temperature: float = 0.07
    aux_weight: float = 0.4

    def __post_init__(self):
        if self.temperature <= 0:
            raise ValueError("temperature must be positive")
        if self.aux_weight < 0:
            raise ValueError("aux weight must be non-negative")


def compute_score_map(z: Tensor, t: TextEmbeddings, h4: int, w4: int) -> ScoreMap:
    """Cosine similarities between every dense feature row of each image and
    that image's class rows (or the shared ones), as one batched product.

    Both sides are unit-normalized along channels, so the result is scale
    invariant in each row; the clamp only trims float ulp overshoot.
    """
    if z.shape[1] != t.t.shape[1]:
        raise ShapeError(f"feature dim {z.shape[1]} != text dim {t.t.shape[1]}")
    if z.shape[0] % (h4 * w4):
        raise ShapeError(f"{z.shape[0]} feature rows are not whole {h4}x{w4} maps")
    n = z.shape[0] // (h4 * w4)
    if t.n not in (1, n):
        raise ShapeError(f"text embeddings for {t.n} images, features of {n}")
    zh = l2_normalize(z, axis=1)
    th = l2_normalize(t.t, axis=1)
    if t.n != n:
        th = take(th, np.tile(np.arange(t.class_count), n))
    s = clamp(block_matmul_t(zh, th, n), -1.0, 1.0)
    return ScoreMap(s=s, h4=h4, w4=w4, k=t.class_count, n=n)


def fuse_features(x4: FeatureMap, score: ScoreMap) -> FeatureMap:
    """Channel-concatenate the score map onto the feature map (features first)."""
    if (x4.n, x4.h4 * x4.w4) != (score.n, score.h4 * score.w4):
        raise ShapeError(
            f"spatial mismatch: features {x4.n}x{x4.h4}x{x4.w4} "
            f"vs scores {score.n}x{score.h4}x{score.w4}"
        )
    if score.k == 0:
        fused = x4.values
    else:
        fused = concat([x4.values, score.s], axis=1)
    return FeatureMap(h4=x4.h4, w4=x4.w4, c=x4.c + score.k, values=fused, n=x4.n)


def seg_aux_loss(score: ScoreMap, target: SegTarget, cfg: LossConfig) -> Tensor:
    """Cross-entropy of the temperature-scaled scores against coarse labels."""
    if target.y.shape[0] != score.s.shape[0]:
        raise ShapeError("segmentation target length != score map cells")
    if target.y.size and (target.y.min() < 0 or target.y.max() >= score.k):
        raise IndexError(f"label outside [0, {score.k})")
    return cross_entropy(mul(score.s, 1.0 / cfg.temperature), target.y)


def rasterize_boxes(boxes, h4: int, w4: int, k: int) -> DetTarget:
    """Binary target: cell (r, c) is positive for class j iff the cell center
    lies inside some class-j box. Containment is half-open: min <= center < max.
    """
    y = np.zeros((h4 * w4, k), dtype=np.float64)
    if not boxes:
        return DetTarget(y=y)
    cx = (np.arange(w4) + 0.5) / w4
    cy = (np.arange(h4) + 0.5) / h4
    for box in boxes:
        if not isinstance(box, BoxAnnotation):
            box = BoxAnnotation(*box)
        if not (0 <= box.class_id < k):
            raise ValueError(f"box class {box.class_id} outside [0, {k})")
        in_x = (cx >= box.x_min) & (cx < box.x_max)
        in_y = (cy >= box.y_min) & (cy < box.y_max)
        cells = np.outer(in_y, in_x).reshape(-1)
        y[cells, box.class_id] = 1.0
    return DetTarget(y=y)


def det_aux_loss(score: ScoreMap, target: DetTarget, cfg: LossConfig) -> Tensor:
    """Stable binary cross-entropy of temperature-scaled scores vs box targets."""
    if target.y.shape != score.s.shape:
        raise ShapeError(f"target {target.y.shape} vs scores {score.s.shape}")
    return bce_with_logits(mul(score.s, 1.0 / cfg.temperature), target.y)


def export_score_map(score: ScoreMap, class_names, path_prefix):
    """Write `<prefix>.dct1` plus a `<prefix>.json` sidecar for offline
    rendering. The sidecar has an image count `n` only when the map stacks
    more than one image; without it the map is one image's."""
    write_dct1(f"{path_prefix}.dct1", score.s)
    sidecar = {
        "h4": score.h4,
        "w4": score.w4,
        "k": score.k,
        "class_names": list(class_names),
    }
    if score.n > 1:
        sidecar["n"] = score.n
    with open(f"{path_prefix}.json", "w") as fh:
        json.dump(sidecar, fh, indent=1, sort_keys=True)
