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
and pixel-level arrays never enter the tape: per-pixel logits and class
ids are expanded from the cells by plain indexing.

A minibatch runs as one pass on one tape: the images' cells are stacked
row blocks, and attention, pooling, prompting and scoring work per image
segment. A single image is the batch of one.
"""

from __future__ import annotations

import json
import os
import zlib
from dataclasses import asdict, dataclass, field, replace
from functools import cached_property

import numpy as np

from .encoders import (
    FeatureMap,
    ImageEncoderConfig,
    PooledFeatures,
    TextEncoderConfig,
    ToyImageEncoder,
    ToyTextEncoder,
    Vocabulary,
    build_vocab,
)
from .matching import (
    DetTarget,
    LossConfig,
    ScoreMap,
    SegTarget,
    compute_score_map,
    det_aux_loss,
    fuse_features,
    rasterize_boxes,
    seg_aux_loss,
)
from .nn import Linear, TransformerDecoderLayer, init_uniform
from .prompting import GATE_PRESETS, PROMPT_MODES, TextPath
from .tensor import (
    ContractError,
    ShapeError,
    Tensor,
    add,
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


def stack_images(images) -> Tensor:
    """Check a batch where it enters and stack it into one (N, H, W, 3) tensor.

    Every image must be a finite H x W x 3 array, and all images of the
    batch must share one shape; errors name the offending image's index.
    """
    images = [tensor(img) for img in images]
    if not images:
        raise ContractError("a batch needs at least one image")
    first = images[0].shape
    for i, img in enumerate(images):
        if img.data.ndim != 3 or img.shape[2] != 3:
            raise ShapeError(f"image {i}: expected H x W x 3, got {img.shape}")
        if img.shape != first:
            raise ShapeError(f"image {i} has shape {img.shape}, image 0 {first}: "
                             "a batch shares one shape")
        if not np.all(np.isfinite(img.data)):
            raise ContractError(f"image {i} has non-finite pixel values")
    return stack(images)


def rng_for(seed: int, name: str) -> np.random.Generator:
    """Independent, order-free stream per component: adding or removing a
    component never shifts the initialization of the others."""
    return np.random.default_rng(
        np.random.SeedSequence([int(seed) & 0xFFFFFFFF, zlib.crc32(name.encode())])
    )


@dataclass
class PipelineConfig:
    """Bare defaults follow the full-scale recipe (context length 8,
    6-layer/4-head prompting decoder); the toy/micro presets shrink the
    decoder so the test suite runs in seconds. Learnable contexts start
    from the template tokens' embeddings."""

    image: ImageEncoderConfig = field(default_factory=ImageEncoderConfig)
    text: TextEncoderConfig = field(default_factory=TextEncoderConfig)
    prompt_mode: str | None = "coop"  # template|coop|pre|post, or None for no language path
    context_len: int = 8
    template_len: int = 8
    prompt_decoder_depth: int = 6
    prompt_decoder_heads: int = 4
    prompt_ffn_mult: int = 2
    gate_preset: str = "learnable_small"
    head_hidden: int = 64
    loss: LossConfig = field(default_factory=LossConfig)
    task_mode: str = "segmentation"  # segmentation|detection

    @property
    def shared_dim(self) -> int:
        """The one embedding width: pixel features and text embeddings
        both project to the image encoder's `out_dim`."""
        return self.image.out_dim

    def to_dict(self) -> dict:
        return asdict(self)

    @staticmethod
    def from_dict(d: dict) -> "PipelineConfig":
        sections = {"image": ImageEncoderConfig, "text": TextEncoderConfig, "loss": LossConfig}
        return PipelineConfig(**{k: sections[k](**v) if k in sections else v for k, v in d.items()})


def toy_config(prompt_mode: str | None = "coop") -> PipelineConfig:
    """Default desk-scale configuration for the bundled synthetic task."""
    return PipelineConfig(
        image=ImageEncoderConfig(patch=4, width=32, blocks=2, heads=4, out_dim=32, ffn_mult=2),
        text=TextEncoderConfig(width=48, blocks=2, heads=4, ffn_mult=2),
        prompt_mode=prompt_mode,
        context_len=8,
        prompt_decoder_depth=2,
        prompt_decoder_heads=4,
        head_hidden=64,
    )


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


class DecodeHead:
    """Two-stage per-cell channel mixer: fused (cells, C) -> (cells, K) logits."""

    def __init__(self, in_dim: int, hidden: int, k: int, rng: np.random.Generator):
        self.in_dim = in_dim
        self.k = k
        self.fc1 = Linear(in_dim, hidden, rng)
        self.fc2 = Linear(hidden, k, rng)

    def __call__(self, fused: Tensor) -> Tensor:
        return self.fc2(gelu(self.fc1(fused)))

    def parameters(self):
        for name, p in self.fc1.parameters():
            yield f"fc1.{name}", p
        for name, p in self.fc2.parameters():
            yield f"fc2.{name}", p


@dataclass
class PipelineOutput:
    """`cell_logits` are the decode head's stacked (N*h4*w4, K) logits (None
    in detection-aux mode); `pixel_index` gives each of the N*H*W pixels
    its cell row."""

    cell_logits: Tensor | None
    score: ScoreMap | None
    loss: Tensor
    breakdown: dict
    pixel_index: np.ndarray | None = None

    @cached_property
    def main_logits(self) -> Tensor | None:
        """Per-pixel logits (N*H*W, K), expanded from the cells on first
        read; not on the tape."""
        if self.cell_logits is None:
            return None
        return Tensor(self.cell_logits.data[self.pixel_index])


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
        self.loss_cfg = cfg.loss
        self._index_cache: dict[tuple[int, int], tuple[np.ndarray, np.ndarray]] = {}
        if head is None and text_path is None:
            raise ContractError("detection-aux mode needs the language path")

    # -- geometry helpers ---------------------------------------------------

    def _maps_for(self, h: int, w: int):
        key = (h, w)
        if key in self._index_cache:
            return self._index_cache[key]
        f = self.image_encoder.cfg.patch
        h4, w4 = h // f, w // f
        rows = np.arange(h) // f
        cols = np.arange(w) // f
        fine_to_coarse = (rows[:, None] * w4 + cols[None, :]).reshape(-1)
        centers_r = np.arange(h4) * f + f // 2
        centers_c = np.arange(w4) * f + f // 2
        coarse_centers = (centers_r[:, None] * w + centers_c[None, :]).reshape(-1)
        self._index_cache[key] = (fine_to_coarse, coarse_centers)
        return self._index_cache[key]

    def _pixel_index(self, n: int, h: int, w: int) -> np.ndarray:
        """Row of the stacked cell logits that each of the N*H*W pixels of a
        batch reads under nearest upsampling."""
        fine_to_coarse, _ = self._maps_for(h, w)
        f = self.image_encoder.cfg.patch
        return (np.arange(n)[:, None] * ((h // f) * (w // f)) + fine_to_coarse).reshape(-1)

    # -- encoding -----------------------------------------------------------

    def encode_image(self, images: Tensor) -> tuple[FeatureMap, PooledFeatures | None]:
        """Encode one H x W x 3 image or a stacked (N, H, W, 3) batch.

        Without a language path nothing reads the pooled features, so the
        attention pool does not run and they come back None.
        """
        if self.text_path is None:
            fm, pooled = self.image_encoder.features(images), None
        else:
            fm, pooled = self.image_encoder.encode(images)
        if self.backbone_adapter is not None:
            fm = replace(fm, c=self.cfg.shared_dim, values=self.backbone_adapter(fm.values))
            if pooled is not None:
                pooled = PooledFeatures(memory=self.backbone_adapter(pooled.memory), n=pooled.n)
        return fm, pooled

    # -- forward ------------------------------------------------------------

    def _run(self, batch: Tensor) -> tuple[ScoreMap | None, Tensor | None]:
        """The one forward path of forward, logits and predict: the score
        maps of a stacked batch (None without a language path) and its
        stacked cell logits (None in detection-aux mode)."""
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
        if isinstance(images, Tensor):
            images, targets = [images], [targets]
        batch = stack_images(images)
        n, h, w, _ = batch.shape
        targets = list(targets)
        if len(targets) != n:
            raise ContractError(f"{n} images but {len(targets)} targets")

        if self.head is None:
            score, _ = self._run(batch)
            det_y = np.concatenate(
                [rasterize_boxes(boxes, score.h4, score.w4, self.k).y for boxes in targets]
            )
            aux = det_aux_loss(score, DetTarget(y=det_y), self.loss_cfg)
            return PipelineOutput(
                cell_logits=None,
                score=score,
                loss=aux,
                breakdown={"main": 0.0, "aux": aux.item(), "total": aux.item()},
            )

        masks = []
        for i, target in enumerate(targets):
            mask = np.asarray(target, dtype=np.intp)
            if mask.shape != (h * w,):
                raise ContractError(f"mask {i} has shape {mask.shape}, expected ({h * w},)")
            masks.append(mask)
        masks = np.stack(masks)
        # checked before the bincount, where a bad label would land in a
        # neighbouring cell
        if masks.min() < 0 or masks.max() >= self.k:
            raise IndexError(f"label out of range [0, {self.k})")
        score, cells = self._run(batch)
        pixel_index = self._pixel_index(n, h, w)
        counts = np.bincount(pixel_index * self.k + masks.reshape(-1),
                             minlength=cells.shape[0] * self.k)
        main = count_cross_entropy(cells, counts.reshape(-1, self.k))
        aux = None
        total = main
        if score is not None:
            _, coarse_centers = self._maps_for(h, w)
            aux = seg_aux_loss(score, SegTarget(y=masks[:, coarse_centers].reshape(-1)),
                               self.loss_cfg)
            total = add(main, mul(aux, self.loss_cfg.aux_weight))
        return PipelineOutput(
            cell_logits=cells,
            score=score,
            loss=total,
            breakdown={
                "main": main.item(),
                "aux": aux.item() if aux is not None else 0.0,
                "total": total.item(),
            },
            pixel_index=pixel_index,
        )

    def _cells(self, images) -> tuple[np.ndarray, np.ndarray]:
        """Stacked cell logits of a list of images, without recording, and
        each pixel's row in them."""
        if self.head is None:
            raise ContractError("prediction requires segmentation mode")
        batch = stack_images(images)
        with no_grad():
            cells = self._run(batch)[1].data
        n, h, w, _ = batch.shape
        return cells, self._pixel_index(n, h, w)

    def logits(self, images) -> Tensor:
        """Stacked per-pixel logits of a list of images, (N*H*W, K), without
        recording."""
        cells, pixel_index = self._cells(images)
        return Tensor(cells[pixel_index])

    def predict(self, images) -> np.ndarray:
        """Per-pixel class ids of one image, (H*W,), or of a list of images,
        (N, H*W). Each cell's argmax (ties resolve to the lowest class id)
        is expanded to its pixels, bitwise the argmax of `logits`."""
        single = not isinstance(images, (list, tuple))
        batch = [images] if single else images
        cells, pixel_index = self._cells(batch)
        pred = np.argmax(cells, axis=1)[pixel_index].reshape(len(batch), -1)
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
        if self.text_path is not None and self.text_path.mode != "pre":
            self.text_path.cache()


def _build_text_path(cfg: PipelineConfig, class_names, vocab: Vocabulary, seed: int) -> TextPath:
    mode = cfg.prompt_mode
    encoder = ToyTextEncoder(cfg.text, vocab.size, cfg.shared_dim, rng_for(seed, "text_encoder"))

    contexts = queries = adapter = gamma = None
    decoder_layers = []
    if mode in ("coop", "post"):
        ids = (vocab.template_ids * ((cfg.context_len // max(len(vocab.template_ids), 1)) + 1))[
            : cfg.context_len
        ]
        contexts = Tensor(encoder.table.data[np.asarray(ids, dtype=np.intp)].copy(),
                          requires_grad=True)
    if mode in ("pre", "post"):
        rng_dec = rng_for(seed, "prompt_decoder")
        decoder_layers = [
            TransformerDecoderLayer(
                cfg.shared_dim, cfg.prompt_decoder_heads,
                cfg.shared_dim * cfg.prompt_ffn_mult, rng_dec,
            )
            for _ in range(cfg.prompt_decoder_depth)
        ]
    if mode == "pre":
        queries = Tensor(init_uniform(rng_for(seed, "queries"), (cfg.context_len, cfg.shared_dim),
                                      cfg.shared_dim), requires_grad=True)
        adapter = Linear(cfg.shared_dim, encoder.width, rng_for(seed, "pre_adapter"))
    if mode == "post":
        init_value, learnable = GATE_PRESETS[cfg.gate_preset]
        gamma = Tensor(np.full(cfg.shared_dim, init_value), requires_grad=learnable)

    return TextPath(
        mode=mode,
        encoder=encoder,
        vocab=vocab,
        class_names=class_names,
        contexts=contexts,
        queries=queries,
        adapter=adapter,
        decoder_layers=decoder_layers,
        gamma=gamma,
    )


def build_pipeline(cfg: PipelineConfig, class_names, seed: int) -> DensePredPipeline:
    if cfg.prompt_mode not in (None, *PROMPT_MODES):
        raise ValueError(f"unknown prompt mode {cfg.prompt_mode!r}; "
                         f"use {'|'.join(PROMPT_MODES)}, or None for no language path")
    if cfg.task_mode not in ("segmentation", "detection"):
        raise ValueError(f"unknown task mode {cfg.task_mode!r}; use segmentation|detection")
    class_names = [str(n) for n in class_names]
    vocab = build_vocab(class_names, template_len=cfg.template_len)
    image_encoder = ToyImageEncoder(cfg.image, rng_for(seed, "image_encoder"))
    text_path = None if cfg.prompt_mode is None else _build_text_path(cfg, class_names, vocab, seed)
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
    """Same text path, head and losses on top of a different visual backbone.

    If the new backbone emits a different feature dim, a linear adapter is
    inserted so the matching and fusion contracts still hold.
    """
    adapter = None
    if new_encoder.out_dim != pipe.cfg.shared_dim:
        adapter = Linear(new_encoder.out_dim, pipe.cfg.shared_dim, rng_for(pipe.seed, "backbone_adapter"))
    swapped = DensePredPipeline(
        cfg=pipe.cfg,
        class_names=pipe.class_names,
        image_encoder=new_encoder,
        text_path=pipe.text_path,
        head=pipe.head,
        seed=pipe.seed,
        backbone_adapter=adapter,
    )
    return swapped


# ---------------------------------------------------------------------------
# Checkpointing: JSON manifest + one DCT1 dump per parameter.


def save_checkpoint(pipe: DensePredPipeline, out_dir):
    os.makedirs(out_dir, exist_ok=True)
    entries = {}
    for name, p, group in pipe.parameters():
        fname = name.replace("/", "_") + ".dct1"
        write_dct1(os.path.join(out_dir, fname), p)
        entries[name] = {"file": fname, "group": group}
    manifest = {
        "config": pipe.cfg.to_dict(),
        "class_names": pipe.class_names,
        "seed": pipe.seed,
        "has_backbone_adapter": pipe.backbone_adapter is not None,
        "params": entries,
    }
    with open(os.path.join(out_dir, "manifest.json"), "w") as fh:
        json.dump(manifest, fh, indent=1, sort_keys=True)


def load_checkpoint(ckpt_dir) -> DensePredPipeline:
    with open(os.path.join(ckpt_dir, "manifest.json")) as fh:
        manifest = json.load(fh)
    cfg = PipelineConfig.from_dict(manifest["config"])
    pipe = build_pipeline(cfg, manifest["class_names"], manifest["seed"])
    if manifest.get("has_backbone_adapter"):
        raise ContractError("checkpoints of adapter-swapped pipelines are not restorable")
    params = {name: p for name, p, _ in pipe.parameters()}
    for name in params:
        if name not in manifest["params"]:
            raise KeyError(f"checkpoint lacks parameter {name}")
    for name, entry in manifest["params"].items():
        if name not in params:
            raise KeyError(f"checkpoint parameter {name} not in rebuilt pipeline")
        arr = read_dct1(os.path.join(ckpt_dir, entry["file"]))
        if arr.shape != params[name].shape:
            raise ShapeError(f"checkpoint shape mismatch on {name}")
        params[name].data = arr
    return pipe


# ---------------------------------------------------------------------------
# Prediction export: flat class-id grid as JSON or portable graymap (P2).


def export_prediction(pred: np.ndarray, h: int, w: int, path, fmt: str = "json"):
    pred = np.asarray(pred, dtype=int).reshape(h * w)
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
