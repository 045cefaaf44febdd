"""End-to-end dense prediction pipeline.

images -> feature maps + pooled features -> class embeddings (per prompt
mode) -> cosine score maps -> [features, scores] fusion -> per-cell decode
head -> cell logits, nearest-upsampled to pixels. Total loss is the main
cross-entropy plus `aux_weight` times the auxiliary score-map loss; the
detection variant trains on the auxiliary objective alone and never runs
the decode head.

Nearest upsampling copies a cell's logits to each of its pixels, so the
per-pixel mean cross-entropy equals a cell-level cross-entropy weighted
by each cell's pixel label counts. The main loss is computed that way,
and pixel-level arrays never enter the tape. Pixels map to cells in one
layout, (N, h4, f, w4, f): a broadcast of the cell ids gives each pixel's
cell, and the centre pixel of every f x f block gives a cell's auxiliary
label.

A minibatch runs as one pass on one tape: the images' cells are stacked
row blocks, and attention, pooling, prompting and scoring work per image
segment. A single image is the batch of one.
"""

from __future__ import annotations

import copy
import json
import os
from dataclasses import asdict, dataclass, replace
from itertools import zip_longest

import numpy as np

from .config import (Count, ImageEncoderConfig, PipelineConfig, TextEncoderConfig, check,
                     check_keys, from_json, subsection)
from .encoders import FeatureMap, PooledFeatures, ToyImageEncoder
from .matching import (
    ScoreMap,
    compute_score_map,
    det_aux_loss,
    fuse_features,
    rasterize_boxes,
    seg_aux_loss,
)
from .nn import Linear, Module, rng_for
from .prompting import TextPath
from .tensor import (
    ContractError,
    ShapeError,
    Tensor,
    add,
    check_ids,
    concat,
    count_cross_entropy,
    gelu,
    mul,
    no_grad,
    read_dct1,
    stack,
    tensor,
    write_dct1,
)

__all__ = [
    "PipelineConfig",
    "DecodeHead",
    "DensePredPipeline",
    "PipelineOutput",
    "build_pipeline",
    "stack_images",
    "swap_backbone",
    "rng_for",
    "save_checkpoint",
    "load_checkpoint",
    "export_prediction",
    "toy_config",
    "micro_config",
]


def stack_images(images) -> tuple[Tensor, bool]:
    """Check a batch where it enters, stack it into one (N, H, W, 3) tensor
    and say whether it was one image: anything but a list or tuple is.

    Every image must be a finite H x W x 3 array, and all images of the
    batch must share one shape; errors name the offending image's index.
    """
    single = not isinstance(images, (list, tuple))
    images = [tensor(img) for img in ([images] if single else images)]
    if not images:
        raise ContractError("a batch needs at least one image")
    first = images[0].shape
    for i, img in enumerate(images):
        if img.data.ndim != 3 or img.shape[2] != 3:
            raise ShapeError(f"image {i}: expected H x W x 3, got {img.shape}")
        if img.shape != first:
            raise ShapeError(f"image {i} has shape {img.shape}, image 0 {first}: "
                             "a batch shares one shape")
        if not np.isfinite(img.data).all():
            raise ContractError(f"image {i} has non-finite pixel values")
    return stack(images), single


def toy_config(prompt_mode: str | None = "coop") -> PipelineConfig:
    """Default desk-scale configuration for the bundled synthetic task: the
    full recipe's settings with a 2-layer prompting decoder."""
    return PipelineConfig(prompt_mode=prompt_mode, prompt_decoder_depth=2)


def micro_config(prompt_mode: str | None = "coop") -> PipelineConfig:
    """Minimal configuration used by gradient checks; runs in milliseconds."""
    return PipelineConfig(
        image=ImageEncoderConfig(patch=4, width=8, blocks=1, heads=2, out_dim=8, ffn_mult=2),
        text=TextEncoderConfig(width=8, blocks=1, heads=2, ffn_mult=2),
        prompt_mode=prompt_mode,
        context_len=2,
        template_len=2,
        prompt_decoder_depth=1,
        prompt_decoder_heads=2,
        head_hidden=8,
    )


class DecodeHead(Module):
    """Two-stage per-cell channel mixer: fused (cells, C) -> (cells, K) logits."""

    def __init__(self, in_dim: int, hidden: int, k: int, rng: np.random.Generator):
        self.in_dim = in_dim
        self.k = k
        self.fc1 = Linear(in_dim, hidden, rng)
        self.fc2 = Linear(hidden, k, rng)

    def __call__(self, fused: Tensor) -> Tensor:
        return self.fc2(gelu(self.fc1(fused)))


@dataclass
class PipelineOutput:
    """`cell_logits` are the decode head's stacked (N*h4*w4, K) logits (None
    in detection-aux mode)."""

    cell_logits: Tensor | None
    score: ScoreMap | None
    loss: Tensor
    breakdown: dict


class DensePredPipeline:
    """Without a decode head (`head is None`) the pipeline runs in
    detection-aux mode: box targets and the auxiliary loss alone."""

    def __init__(
        self,
        cfg: PipelineConfig,
        class_names,
        image_encoder: ToyImageEncoder,
        text_path: TextPath | None,
        head: DecodeHead | None,
        seed: int,
        backbone_adapter: Linear | None = None,
    ):
        self.cfg = cfg
        self.class_names = list(class_names)
        self.k = len(self.class_names)
        self.image_encoder = image_encoder
        self.text_path = text_path
        self.head = head
        self.seed = seed
        self.backbone_adapter = backbone_adapter
        if head is None and text_path is None:
            raise ContractError("detection-aux mode needs the language path")

    def _pixel_index(self, n: int, h: int, w: int) -> np.ndarray:
        """Row of the stacked cell logits that each of the N*H*W pixels of a
        batch reads under nearest upsampling: the cell ids broadcast over
        the (N, h4, f, w4, f) pixel layout."""
        f = self.image_encoder.cfg.patch
        h4, w4 = h // f, w // f
        cells = np.arange(n * h4 * w4).reshape(n, h4, 1, w4, 1)
        return np.broadcast_to(cells, (n, h4, f, w4, f)).reshape(-1)

    # -- encoding -----------------------------------------------------------

    def encode_image(self, images: Tensor) -> tuple[FeatureMap, PooledFeatures | None]:
        """Encode one H x W x 3 image or a stacked (N, H, W, 3) batch.

        Without a language path nothing reads the pooled features, so the
        attention pool does not run and they come back None.
        """
        fm, pooled = self.image_encoder.encode(images, pool=self.text_path is not None)
        if self.backbone_adapter is not None:
            fm = replace(fm, c=self.cfg.shared_dim, values=self.backbone_adapter(fm.values))
            if pooled is not None:
                pooled = PooledFeatures(memory=self.backbone_adapter(pooled.memory), n=pooled.n)
        return fm, pooled

    # -- forward ------------------------------------------------------------

    def _run(self, batch: Tensor) -> tuple[ScoreMap | None, Tensor | None]:
        """The one forward path of forward and predict: the score maps of a
        stacked batch (None without a language path) and its stacked cell
        logits (None in detection-aux mode)."""
        fm, pooled = self.encode_image(batch)
        score = None
        if self.text_path is not None:
            t = self.text_path.embeddings(pooled)
            score = compute_score_map(pooled.dense, t, fm.h4, fm.w4)
        if self.head is None:
            return score, None
        if score is not None:
            fused = fuse_features(fm, score).values
        else:
            fused = concat([fm.values, Tensor(np.zeros((fm.values.shape[0], self.k)))], axis=1)
        return score, self.head(fused)

    def forward(self, images, targets) -> PipelineOutput:
        """Loss over a minibatch: the mean of the per-image losses.

        `images` is a list of H x W x 3 images of one shape (or a single
        image, the batch of one); `targets` holds one flat H*W mask per
        image in segmentation mode, one box list per image in
        detection-aux mode. Logits and score maps come back stacked.
        The main loss is the count-weighted cross-entropy of the cell
        logits, `counts[c, k]` being the pixels of cell c labelled k.
        """
        batch, single = stack_images(images)
        n, h, w, _ = batch.shape
        targets = [targets] if single else list(targets)
        if len(targets) != n:
            raise ContractError(f"{n} images but {len(targets)} targets")

        if self.head is None:
            score, _ = self._run(batch)
            y = [rasterize_boxes(boxes, score.h4, score.w4, self.k) for boxes in targets]
            aux = det_aux_loss(score, np.concatenate(y), self.cfg.loss)
            return PipelineOutput(
                cell_logits=None,
                score=score,
                loss=aux,
                breakdown={"main": 0.0, "aux": aux.item(), "total": aux.item()},
            )

        # checked before the bincount, where a bad label would land in a
        # neighbouring cell
        masks = np.stack([check_ids(target, f"mask {i}", self.k, (h * w,))
                          for i, target in enumerate(targets)])
        score, cells = self._run(batch)
        counts = np.bincount(self._pixel_index(n, h, w) * self.k + masks.reshape(-1),
                             minlength=cells.shape[0] * self.k)
        main = count_cross_entropy(cells, counts.reshape(-1, self.k))
        aux = None
        total = main
        if score is not None:
            f = self.image_encoder.cfg.patch
            centres = masks.reshape(n, h // f, f, w // f, f)[:, :, f // 2, :, f // 2]
            aux = seg_aux_loss(score, centres.reshape(-1), self.cfg.loss)
            total = add(main, mul(aux, self.cfg.loss.aux_weight))
        return PipelineOutput(
            cell_logits=cells,
            score=score,
            loss=total,
            breakdown={
                "main": main.item(),
                "aux": aux.item() if aux is not None else 0.0,
                "total": total.item(),
            },
        )

    def predict(self, images) -> np.ndarray:
        """Per-pixel class ids of one image, (H*W,), or of a list of images,
        (N, H*W), without recording. Each cell's argmax (ties resolve to the
        lowest class id) is expanded to its pixels."""
        if self.head is None:
            raise ContractError("prediction requires segmentation mode")
        batch, single = stack_images(images)
        with no_grad():
            cells = self._run(batch)[1].data
        n, h, w, _ = batch.shape
        pred = cells.argmax(axis=1)[self._pixel_index(n, h, w)].reshape(n, -1)
        return pred[0] if single else pred

    # -- bookkeeping ----------------------------------------------------------

    def parameters(self):
        """Yield (name, tensor, group) across the whole pipeline.

        Without a language path the attention pool sits outside the loss
        (its outputs only ever feed the score map), so its parameters are
        not part of the trained model.
        """
        for name, p in self.image_encoder.parameters():
            if self.text_path is None and name.startswith("pool."):
                continue
            yield f"image_encoder.{name}", p, "image_encoder"
        if self.backbone_adapter is not None:
            for name, p in self.backbone_adapter.parameters():
                yield f"backbone_adapter.{name}", p, "other"
        if self.text_path is not None:
            for name, p in self.text_path.parameters():
                group = "text_encoder" if name.startswith("encoder.") else "other"
                yield f"text.{name}", p, group
        if self.head is not None:
            for name, p in self.head.parameters():
                yield f"head.{name}", p, "other"

    def trainable_param_count(self) -> int:
        return sum(p.size for _, p, _ in self.parameters() if p.requires_grad)

    def text_sequence_count(self) -> int:
        if self.text_path is None:
            return 0
        return self.text_path.encoder.sequences_encoded

    def cache_text(self):
        """Snapshot, under `no_grad`, what the language path computes without
        an image: the class embeddings into `text_path.cached` (pre-mode
        embeddings depend on the image), and the first decoder layer's query
        side on them or on the pre-mode queries into `text_path.layer0`; the
        one writer of both, which only `harness.train` drops."""
        path = self.text_path
        if path is None:
            return
        with no_grad():
            if path.mode != "pre":
                path.cached = path.base_embeddings().t
            if path.decoder_layers:
                x = path.queries if path.mode == "pre" else path.cached
                path.layer0 = path.decoder_layers[0].query_side(x)


def build_pipeline(cfg: PipelineConfig, class_names, seed: int) -> DensePredPipeline:
    """The pipeline of `cfg`, checked again here as a field may have been
    assigned since it was built, and of `seed`, the kind of a config seed;
    `TextPath` builds the language path and checks the prompt-mode settings."""
    check(cfg)
    Count(None).check("seed", seed)  # `rng_for` would run 2.7 as seed 2
    class_names = [str(n) for n in class_names]
    image_encoder = ToyImageEncoder(cfg.image, rng_for(seed, "image_encoder"))
    text_path = None if cfg.prompt_mode is None else TextPath(cfg, class_names, seed)
    k = len(class_names)
    head = None
    if cfg.task_mode == "segmentation":
        head = DecodeHead(cfg.shared_dim + k, cfg.head_hidden, k, rng_for(seed, "head"))
    return DensePredPipeline(
        cfg=cfg,
        class_names=class_names,
        image_encoder=image_encoder,
        text_path=text_path,
        head=head,
        seed=seed,
    )


def swap_backbone(pipe: DensePredPipeline, new_encoder: ToyImageEncoder) -> DensePredPipeline:
    """Copies of the text path and head, with the same losses, on top of a
    different visual backbone; training the swap leaves `pipe` as it was.

    If the new backbone emits a different feature dim, a linear adapter is
    inserted so the matching and fusion contracts still hold.
    """
    adapter = None
    if new_encoder.out_dim != pipe.cfg.shared_dim:
        adapter = Linear(new_encoder.out_dim, pipe.cfg.shared_dim, rng_for(pipe.seed, "backbone_adapter"))
    return DensePredPipeline(
        cfg=pipe.cfg,
        class_names=pipe.class_names,
        image_encoder=new_encoder,
        text_path=copy.deepcopy(pipe.text_path),
        head=copy.deepcopy(pipe.head),
        seed=pipe.seed,
        backbone_adapter=adapter,
    )


# ---------------------------------------------------------------------------
# Checkpointing: params.dct1, every parameter flattened in `parameters()`
# order into one 1-d DCT1 array, then manifest.json, which lists their names.


def save_checkpoint(pipe: DensePredPipeline, out_dir):
    os.makedirs(out_dir, exist_ok=True)
    params = {name: p.data.reshape(-1) for name, p, _ in pipe.parameters()}
    write_dct1(os.path.join(out_dir, "params.dct1"), np.concatenate(list(params.values())))
    manifest = {
        "config": pipe.cfg.to_dict(),
        "class_names": pipe.class_names,
        "seed": pipe.seed,
        "backbone": asdict(pipe.image_encoder.cfg),
        "params": list(params),
    }
    with open(os.path.join(out_dir, "manifest.json"), "w") as fh:
        json.dump(manifest, fh, indent=1, sort_keys=True)


def load_checkpoint(ckpt_dir) -> DensePredPipeline:
    """Rebuild the pipeline from the manifest; each parameter becomes a view of
    its slice of `params.dct1`. A backbone other than `config.image` is put
    back with `swap_backbone`, so a swapped pipeline keeps its adapter."""
    manifest_path = os.path.join(ckpt_dir, "manifest.json")
    try:  # JSON that does not parse, e.g. a manifest write that stopped part-way
        with open(manifest_path) as fh:
            manifest = json.load(fh)
    except ValueError as exc:
        raise ValueError(f"{manifest_path}: {exc}") from None
    keys = ("config", "class_names", "seed", "backbone", "params")
    check_keys(manifest, keys, manifest_path, required=keys)
    cfg = from_json(PipelineConfig, manifest["config"], subsection(manifest_path, "config"))
    backbone = from_json(ImageEncoderConfig, manifest["backbone"],
                         subsection(manifest_path, "backbone"))
    seed = manifest["seed"]
    if type(seed) is not int:  # a JSON true is a bool, not a seed
        raise ContractError(f"seed in {manifest_path} must be an integer, got {seed!r}")
    names = manifest["class_names"]
    if (not isinstance(names, list) or not all(isinstance(n, str) for n in names)
            or len(set(names)) != len(names)):
        raise ContractError(f"class_names in {manifest_path} must be a list of distinct "
                            f"strings, got {names!r}")
    pipe = build_pipeline(cfg, names, seed)
    if backbone != cfg.image:
        pipe = swap_backbone(pipe, ToyImageEncoder(backbone, rng_for(seed, "swapped_backbone")))
    params = {name: p for name, p, _ in pipe.parameters()}
    if not isinstance(manifest["params"], list):
        raise ContractError(f"params in {manifest_path} must be a list of parameter names")
    for want, got in zip_longest(params, manifest["params"]):
        if want != got:
            raise KeyError(f"checkpoint lists {got!r} where the rebuilt pipeline has {want!r}")
    path = os.path.join(ckpt_dir, "params.dct1")
    flat = read_dct1(path)
    sizes = [p.size for p in params.values()]
    if flat.size != sum(sizes):
        raise ShapeError(f"{path} holds {flat.size} values; the parameters need {sum(sizes)}")
    for (name, param), values in zip(params.items(), np.split(flat.reshape(-1), np.cumsum(sizes))):
        if not np.all(np.isfinite(values)):
            raise ContractError(f"checkpoint parameter {name} has non-finite values in {path}")
        param.data = values.reshape(param.shape)
    return pipe


# ---------------------------------------------------------------------------
# Prediction export: flat class-id grid as JSON or portable graymap (P2).


def export_prediction(pred: np.ndarray, h: int, w: int, path, fmt: str = "json"):
    """Write h*w class ids, integers of at least 0, checked rather than cast
    (a cast would write 2.9 as class 2, and P2 values lie in [0, maxval])."""
    pred = check_ids(pred, "prediction")
    if pred.size != h * w:
        raise ShapeError(f"prediction has {pred.size} class ids, expected h*w = {h * w}")
    pred = pred.reshape(h * w)
    if fmt == "json":
        with open(path, "w") as fh:
            json.dump({"height": h, "width": w, "classes": pred.tolist()}, fh)
    elif fmt == "pgm":
        maxval = max(int(pred.max()), 1)
        lines = [f"P2", f"{w} {h}", f"{maxval}"]
        grid = pred.reshape(h, w)
        for r in range(h):
            lines.append(" ".join(str(int(v)) for v in grid[r]))
        with open(path, "w") as fh:
            fh.write("\n".join(lines) + "\n")
    else:
        raise ValueError(f"unknown export format {fmt!r}")
