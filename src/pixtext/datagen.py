"""Procedural dense-prediction tasks.

Each class carries a signature (channel means plus a sinusoidal texture);
samples are a signature-noise background with a few signature-painted
rectangles and discs on top, later shapes occluding earlier ones. A
per-image global gain/offset jitter makes one fixed set of class
prototypes suboptimal, which is exactly the headroom image-conditioned
prompting needs to show up at desk scale. Everything is a pure function
of (spec, seed): per-sample RNG streams are derived, so generation could
fan out across samples without changing a single pixel. Each class's
texture is computed once per `generate` call, from one pixel grid, and
every shape copies its pixels from it.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass

import numpy as np

from .config import ClassSignature, ListOf, Real, TaskSpec, from_json
from .matching import BoxAnnotation
from .tensor import Tensor, read_dct1, write_dct1

__all__ = [
    "ClassSignature",
    "TaskSpec",
    "SyntheticSample",
    "default_task",
    "generate",
    "split",
    "save_dataset",
    "load_dataset",
]


def default_task() -> TaskSpec:
    """The calibrated desk-scale task used by the ablation experiments."""
    return TaskSpec()


@dataclass
class SyntheticSample:
    image: Tensor  # (H, W, 3)
    mask: np.ndarray  # (H*W,) int
    boxes: list[BoxAnnotation]


def _patterns(spec: TaskSpec) -> np.ndarray:
    """Every class's full-image texture, (k, H, W, 3), from one pixel grid."""
    h, w = spec.height, spec.width
    ys, xs = np.mgrid[0:h, 0:w]
    out = np.empty((spec.k, h, w, 3))
    for pat, sig in zip(out, spec.signatures):
        phase = 2.0 * np.pi * sig.freq * (
            np.cos(sig.angle) * xs + np.sin(sig.angle) * ys
        ) / max(h, w)
        wave = sig.amp * np.sin(phase)
        np.add(np.asarray(sig.mean)[None, None, :], wave[:, :, None], out=pat)
    return out


def _sample_rng(seed: int, index: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([seed & 0xFFFFFFFF, index]))


def _generate_one(spec: TaskSpec, rng: np.random.Generator, patterns: np.ndarray) -> SyntheticSample:
    """Paint one sample. Each shape touches only its bounding window, where
    a mask selects its pixels."""
    h, w = spec.height, spec.width
    canvas = patterns[0].copy()
    shape_ids = np.full((h, w), -1, dtype=np.intp)
    mask = np.zeros((h, w), dtype=np.intp)

    n_shapes = int(rng.integers(spec.min_shapes, spec.max_shapes + 1))
    shapes = []  # (class, window)
    for j in range(n_shapes):
        cls = int(rng.integers(1, spec.k))
        kind = spec.shape_kinds[int(rng.integers(0, len(spec.shape_kinds)))]
        if kind == "rect":
            sh = int(rng.integers(spec.shape_min_px, spec.shape_max_px + 1))
            sw = int(rng.integers(spec.shape_min_px, spec.shape_max_px + 1))
            r0 = int(rng.integers(0, h - sh + 1))
            c0 = int(rng.integers(0, w - sw + 1))
            win = (slice(r0, r0 + sh), slice(c0, c0 + sw))
            region = np.ones((sh, sw), dtype=bool)
        else:
            radius_lo = max(1, spec.shape_min_px // 2)
            radius_hi = max(radius_lo, min(spec.shape_max_px, min(h, w)) // 2)
            radius = int(rng.integers(radius_lo, radius_hi + 1))
            cr = int(rng.integers(radius, max(h - radius, radius + 1)))
            cc = int(rng.integers(radius, max(w - radius, radius + 1)))
            ys = np.arange(max(cr - radius, 0), min(cr + radius + 1, h))
            xs = np.arange(max(cc - radius, 0), min(cc + radius + 1, w))
            win = (slice(ys[0], ys[-1] + 1), slice(xs[0], xs[-1] + 1))
            region = (ys[:, None] - cr) ** 2 + (xs[None, :] - cc) ** 2 <= radius**2
        np.copyto(canvas[win], patterns[cls][win], where=region[:, :, None])
        np.copyto(shape_ids[win], j, where=region)
        np.copyto(mask[win], cls, where=region)
        shapes.append((cls, win))

    # same IEEE operations as (canvas + noise) * gain + offset, in the noise buffer
    image = rng.normal(0.0, spec.noise_sigma, size=(h, w, 3))
    gain = 1.0 + rng.uniform(-spec.jitter_gain, spec.jitter_gain, size=3)
    offset = rng.uniform(-spec.jitter_offset, spec.jitter_offset, size=3)
    image += canvas
    image *= gain[None, None, :]
    image += offset[None, None, :]

    boxes = []
    for j, (cls, (rs, cs)) in enumerate(shapes):
        visible = shape_ids[rs, cs] == j
        if not visible.any():
            continue  # fully occluded by a later shape
        rows = np.where(visible.any(axis=1))[0] + rs.start
        cols = np.where(visible.any(axis=0))[0] + cs.start
        boxes.append(
            BoxAnnotation(
                class_id=cls,
                x_min=cols[0] / w,
                y_min=rows[0] / h,
                x_max=(cols[-1] + 1) / w,
                y_max=(rows[-1] + 1) / h,
            )
        )
    return SyntheticSample(image=Tensor(image), mask=mask.reshape(-1), boxes=boxes)


def generate(spec: TaskSpec, n: int, seed: int | None = None) -> list[SyntheticSample]:
    """n samples, bitwise reproducible from (spec, seed). The class patterns
    are computed once per call and shared by every sample."""
    base = spec.seed if seed is None else seed
    patterns = _patterns(spec)
    return [_generate_one(spec, _sample_rng(base, i), patterns) for i in range(n)]


def split(samples, train_fraction: float):
    """Deterministic positional split into (train, eval). Neither side may
    be empty; as int(n * f) < n for f < 1, only the train side can be.
    `train_fraction` must be a finite number in (0, 1), checked as given."""
    Real(open=True, below=1).check("train_fraction", train_fraction)
    cut = int(len(samples) * train_fraction)
    if cut == 0:
        raise ValueError(f"train fraction {train_fraction} of n={len(samples)} samples "
                         "leaves the train side empty")
    return list(samples[:cut]), list(samples[cut:])


# ---------------------------------------------------------------------------
# Dataset directory: spec.json, images.dct1, masks.dct1, boxes.json.


def save_dataset(spec: TaskSpec, samples, out_dir):
    if not samples:
        raise ValueError(f"no samples to save to {out_dir}; a dataset holds at least one")
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, "spec.json"), "w") as fh:
        json.dump(spec.to_dict(), fh, indent=1, sort_keys=True)
    write_dct1(os.path.join(out_dir, "images.dct1"), np.stack([s.image.data for s in samples]))
    write_dct1(os.path.join(out_dir, "masks.dct1"),
               np.stack([s.mask for s in samples], dtype=np.float64))
    boxes = [
        [
            {
                "class_id": b.class_id,
                "box": [b.x_min, b.y_min, b.x_max, b.y_max],
            }
            for b in s.boxes
        ]
        for s in samples
    ]
    with open(os.path.join(out_dir, "boxes.json"), "w") as fh:
        fh.write(json.dumps(boxes))  # one call: the C encoder, the same bytes as json.dump


def load_dataset(data_dir):
    """Read a dataset directory; an error names a file at odds with spec.json or n.
    Each image's `boxes.json` entry is a list of objects with exactly a
    `class_id` and a `box` of 4 finite numbers, a `BoxAnnotation`."""
    spec_path = os.path.join(data_dir, "spec.json")
    with open(spec_path) as fh:
        spec = from_json(TaskSpec, json.load(fh), spec_path)
    images = read_dct1(os.path.join(data_dir, "images.dct1"))
    masks = read_dct1(os.path.join(data_dir, "masks.dct1"))
    with open(os.path.join(data_dir, "boxes.json")) as fh:
        all_boxes = json.load(fh)
    h, w = spec.height, spec.width
    if images.ndim != 4 or images.shape[1:] != (h, w, 3):
        raise ValueError(f"images.dct1 has shape {images.shape}; spec.json needs (n, {h}, {w}, 3)")
    n = images.shape[0]
    bad = np.flatnonzero(~np.isfinite(images).all(axis=(1, 2, 3)))
    if bad.size:
        raise ValueError(f"images.dct1 image {bad[0]} has non-finite pixel values")
    if masks.shape != (n, h * w):
        raise ValueError(f"masks.dct1 has shape {masks.shape}; {n} images of {h}x{w} "
                         f"need ({n}, {h * w})")
    # range first (NaN fails it too), so only valid values reach the cast
    labels = None
    if masks.size == 0 or (masks.min() >= 0 and masks.max() < spec.k):
        labels = masks.astype(np.intp)
    if labels is None or not np.array_equal(labels, masks):
        raise ValueError(f"masks.dct1 holds labels that are not integers in [0, {spec.k})")
    if not isinstance(all_boxes, list) or len(all_boxes) != n:
        got = (f"{len(all_boxes)} entries" if isinstance(all_boxes, list)
               else f"a {type(all_boxes).__name__}")
        raise ValueError(f"boxes.json has {got} for {n} images")
    box = ListOf(Real(-np.inf), length=4)
    samples = []
    for i in range(n):
        if not isinstance(all_boxes[i], list):
            raise ValueError(f"boxes.json image {i} is {all_boxes[i]!r}, not a list of boxes")
        boxes = []
        for e in all_boxes[i]:
            if not isinstance(e, dict) or set(e) != {"class_id", "box"}:
                raise ValueError(f"boxes.json image {i} has entry {e!r}; an entry has exactly "
                                 "the keys 'class_id' and 'box'")
            c = e["class_id"]
            if not (type(c) is int and 0 <= c < spec.k):
                raise ValueError(f"boxes.json image {i} has class_id {c!r}; "
                                 f"classes are integers in [0, {spec.k})")
            box.check(f"boxes.json image {i} box", e["box"])
            try:
                boxes.append(BoxAnnotation(c, *e["box"]))
            except ValueError as exc:
                raise ValueError(f"boxes.json image {i} has box {e['box']!r}: {exc}") from None
        samples.append(
            SyntheticSample(
                image=Tensor(images[i]),
                mask=labels[i],
                boxes=boxes,
            )
        )
    return spec, samples
