"""Pixel-text matching: cosine score maps, feature fusion, and the
auxiliary objectives applied directly to the temperature-scaled scores.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import Count, LossConfig
from .encoders import FeatureMap, TextEmbeddings
from .tensor import (
    ContractError,
    ShapeError,
    Tensor,
    bce_with_logits,
    block_matmul_t,
    check_ids,
    clamp,
    concat,
    count_cross_entropy,
    l2_normalize,
    mul,
    take,
)

__all__ = [
    "ScoreMap",
    "BoxAnnotation",
    "LossConfig",
    "compute_score_map",
    "fuse_features",
    "seg_aux_loss",
    "rasterize_boxes",
    "det_aux_loss",
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
        # one reduction over |s|; a NaN fails the comparison
        if self.s.data.size and not np.abs(self.s.data).max() <= 1.0:
            raise ContractError("score map entries must lie in [-1, 1]")


@dataclass(frozen=True)
class BoxAnnotation:
    """Axis-aligned box in normalized [0, 1] image coordinates."""

    class_id: int
    x_min: float
    y_min: float
    x_max: float
    y_max: float

    def __post_init__(self):
        Count(0).check("BoxAnnotation.class_id", self.class_id)
        if not (self.x_min < self.x_max and self.y_min < self.y_max):
            raise ValueError(
                f"degenerate box ({self.x_min}, {self.y_min}, {self.x_max}, {self.y_max})"
            )
        for v in (self.x_min, self.y_min, self.x_max, self.y_max):
            if not (0.0 <= v <= 1.0):
                raise ValueError("box coordinates must be normalized to [0, 1]")


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
    fused = concat([x4.values, score.s], axis=1)
    return FeatureMap(h4=x4.h4, w4=x4.w4, c=x4.c + score.k, values=fused, n=x4.n)


def seg_aux_loss(score: ScoreMap, labels, cfg: LossConfig) -> Tensor:
    """Cross-entropy of the temperature-scaled scores against per-cell class
    ids: one counted item per cell, its label's one-hot row."""
    y = check_ids(labels, "seg_aux_loss labels", score.k, (score.s.shape[0],))
    return count_cross_entropy(mul(score.s, 1.0 / cfg.temperature), np.eye(score.k)[y])


def rasterize_boxes(boxes, h4: int, w4: int, k: int) -> np.ndarray:
    """Binary (h4*w4, k) target: cell (r, c) is positive for class j iff its
    center lies inside some class-j box, half-open: min <= center < max."""
    y = np.zeros((h4 * w4, k), dtype=np.float64)
    cx = (np.arange(w4) + 0.5) / w4
    cy = (np.arange(h4) + 0.5) / h4
    for box in boxes:
        if not (0 <= box.class_id < k):
            raise ValueError(f"box class {box.class_id} outside [0, {k})")
        in_x = (cx >= box.x_min) & (cx < box.x_max)
        in_y = (cy >= box.y_min) & (cy < box.y_max)
        y[np.outer(in_y, in_x).reshape(-1), box.class_id] = 1.0
    return y


def det_aux_loss(score: ScoreMap, y, cfg: LossConfig) -> Tensor:
    """Stable binary cross-entropy of temperature-scaled scores vs 0/1 box targets."""
    return bce_with_logits(mul(score.s, 1.0 / cfg.temperature), y)
