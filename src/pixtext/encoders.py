"""Toy image and text encoders sharing one embedding dimension.

The image encoder is a patch-embed + transformer stack whose last feature
map feeds an attention-pool layer; the pool's non-global outputs form the
language-compatible dense features. The text encoder embeds synthetic
class tokens (optionally behind learnable context rows), runs a small
transformer, and reads the final token out through a projection. Reading
the last position is our stand-in for an end-of-text readout.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from .nn import Linear, MultiHeadAttention, TransformerBlock, block_offsets, init_uniform
from .tensor import ContractError, ShapeError, Tensor, concat, gather_flat, mean_rows, take

__all__ = [
    "FeatureMap",
    "PooledFeatures",
    "TextEmbeddings",
    "Vocabulary",
    "build_vocab",
    "ImageEncoderConfig",
    "TextEncoderConfig",
    "ToyImageEncoder",
    "ToyTextEncoder",
    "attention_pool",
]


@dataclass
class FeatureMap:
    """Stage-4 visual features of n images, stacked: image i owns rows
    i*h4*w4 to (i+1)*h4*w4, and its row j is cell (j // w4, j % w4)."""

    h4: int
    w4: int
    c: int
    values: Tensor
    n: int = 1

    def __post_init__(self):
        if self.h4 * self.w4 < 1 or self.n < 1:
            raise ShapeError("feature map needs at least one image and one cell")
        if self.values.shape != (self.n * self.h4 * self.w4, self.c):
            raise ShapeError(
                f"feature map values {self.values.shape} != "
                f"({self.n * self.h4 * self.w4}, {self.c})"
            )


@dataclass
class PooledFeatures:
    """Attention-pool outputs of n images: segment i of `memory` is image
    i's [global; dense] sequence, the decoder memory of the prompting modes."""

    memory: Tensor  # (n * (1 + cells), c)
    n: int = 1

    def __post_init__(self):
        if self.memory.shape[0] % self.n or self.memory.shape[0] // self.n < 2:
            raise ShapeError(f"pooled memory {self.memory.shape} is not {self.n} segments")

    @property
    def offsets(self) -> np.ndarray:
        return block_offsets(self.n, self.memory.shape[0] // self.n)

    @cached_property
    def global_feat(self) -> Tensor:
        """(n, c): each image's global row."""
        return take(self.memory, self.offsets[:-1])

    @cached_property
    def dense(self) -> Tensor:
        """(n * cells, c): each image's dense rows, stacked."""
        rows = np.ones(self.memory.shape[0], dtype=bool)
        rows[self.offsets[:-1]] = False
        return take(self.memory, np.flatnonzero(rows))


@dataclass
class TextEmbeddings:
    """Class embeddings: K rows shared by every image, or n*K rows where
    rows i*K to (i+1)*K belong to image i."""

    t: Tensor  # (K, d) or (n*K, d)
    class_count: int

    def __post_init__(self):
        if self.class_count < 1 or self.t.shape[0] % self.class_count:
            raise ShapeError("text embedding row count is not a multiple of the class count")

    @property
    def n(self) -> int:
        return self.t.shape[0] // self.class_count


# ---------------------------------------------------------------------------
# Vocabulary: synthetic token ids; template tokens live at the front.


@dataclass
class Vocabulary:
    template_ids: list[int]
    class_tokens: dict[str, list[int]]
    size: int

    def tokens_for(self, names) -> list[list[int]]:
        out = []
        for name in names:
            if name not in self.class_tokens:
                raise KeyError(f"unknown class name {name!r}")
            out.append(self.class_tokens[name])
        return out


def build_vocab(class_names, template_len: int = 8) -> Vocabulary:
    """Deterministic table: template ids first, then 1-3 token ids per class."""
    template_ids = list(range(template_len))
    next_id = template_len
    class_tokens = {}
    for i, name in enumerate(class_names):
        width = 1 + (i % 3)
        class_tokens[str(name)] = list(range(next_id, next_id + width))
        next_id += width
    return Vocabulary(template_ids=template_ids, class_tokens=class_tokens, size=next_id)


# ---------------------------------------------------------------------------
# Image encoder


@dataclass
class ImageEncoderConfig:
    patch: int = 4
    width: int = 32
    blocks: int = 2
    heads: int = 4
    out_dim: int = 32
    ffn_mult: int = 2


def attention_pool(pool: MultiHeadAttention, x4: FeatureMap) -> PooledFeatures:
    """Per image: mean-pool its cells, prepend the mean, self-attend."""
    n, cells = x4.n, x4.h4 * x4.w4
    bar = mean_rows(x4.values, n)
    # Row order of image i's segment: its mean (row i of the concat), then its cells.
    order = np.empty((n, cells + 1), dtype=np.intp)
    order[:, 0] = np.arange(n)
    order[:, 1:] = n + np.arange(n * cells).reshape(n, cells)
    seq = take(concat([bar, x4.values], axis=0), order.reshape(-1))
    return PooledFeatures(memory=pool(seq, q_offsets=block_offsets(n, cells + 1)), n=n)


class ToyImageEncoder:
    """Patch embedding, B transformer blocks, attention pool, projection to d."""

    def __init__(self, cfg: ImageEncoderConfig, rng: np.random.Generator):
        self.cfg = cfg
        f = cfg.patch
        self.patch_embed = Linear(f * f * 3, cfg.width, rng)
        hidden = cfg.width * cfg.ffn_mult
        self.blocks = [
            TransformerBlock(cfg.width, cfg.heads, hidden, rng) for _ in range(cfg.blocks)
        ]
        self.pool = MultiHeadAttention(cfg.width, cfg.heads, rng)
        self.proj = Linear(cfg.width, cfg.out_dim, rng)
        self._patch_index_cache: dict[tuple[int, int], np.ndarray] = {}

    @property
    def out_dim(self) -> int:
        return self.cfg.out_dim

    def _patch_indices(self, h: int, w: int) -> np.ndarray:
        key = (h, w)
        cached = self._patch_index_cache.get(key)
        if cached is not None:
            return cached
        f = self.cfg.patch
        flat = np.arange(h * w * 3).reshape(h, w, 3)
        rows = []
        for pr in range(h // f):
            for pc in range(w // f):
                block = flat[pr * f : (pr + 1) * f, pc * f : (pc + 1) * f, :]
                rows.append(block.reshape(-1))
        idx = np.stack(rows)
        self._patch_index_cache[key] = idx
        return idx

    def _trunk(self, images: Tensor) -> FeatureMap:
        """Patch embedding and transformer blocks: width-channel features of
        one H x W x 3 image or an (N, H, W, 3) batch; every image is a
        segment of the stacked rows."""
        if images.data.ndim not in (3, 4) or images.shape[-1] != 3:
            raise ShapeError(f"expected H x W x 3 image or N x H x W x 3 batch, got {images.shape}")
        n = images.shape[0] if images.data.ndim == 4 else 1
        h, w = images.shape[-3:-1]
        f = self.cfg.patch
        if h % f or w % f:
            raise ShapeError(f"image {h}x{w} not divisible by patch {f}")
        per_image = self._patch_indices(h, w)
        starts = np.arange(n)[:, None, None] * (h * w * 3)
        patches = gather_flat(images, (per_image[None] + starts).reshape(-1, per_image.shape[1]))
        x = self.patch_embed(patches)
        h4, w4 = h // f, w // f
        offsets = block_offsets(n, h4 * w4)
        for block in self.blocks:
            x = block(x, offsets)
        return FeatureMap(h4=h4, w4=w4, c=self.cfg.width, values=x, n=n)

    def features(self, images: Tensor) -> FeatureMap:
        """The projected feature map alone: `encode` without the attention pool."""
        x4 = self._trunk(images)
        return replace(x4, c=self.cfg.out_dim, values=self.proj(x4.values))

    def encode(self, images: Tensor) -> tuple[FeatureMap, PooledFeatures]:
        """The projected feature map and pooled features of one H x W x 3
        image or an (N, H, W, 3) batch."""
        x4 = self._trunk(images)
        pooled = attention_pool(self.pool, x4)
        fm = replace(x4, c=self.cfg.out_dim, values=self.proj(x4.values))
        return fm, PooledFeatures(memory=self.proj(pooled.memory), n=x4.n)

    def parameters(self):
        for name, p in self.patch_embed.parameters():
            yield f"patch_embed.{name}", p
        for i, block in enumerate(self.blocks):
            for name, p in block.parameters():
                yield f"blocks.{i}.{name}", p
        for name, p in self.pool.parameters():
            yield f"pool.{name}", p
        for name, p in self.proj.parameters():
            yield f"proj.{name}", p


# ---------------------------------------------------------------------------
# Text encoder


@dataclass
class TextEncoderConfig:
    """The vocabulary size and output width are not settings: `build_pipeline`
    takes them from the class names and the pipeline's shared width."""

    width: int = 48
    blocks: int = 2
    heads: int = 4
    ffn_mult: int = 2


class ToyTextEncoder:
    """Per-class transformer over [contexts; class token embeddings].

    Row k of the output is the projected final-token state of class k's
    sequence. All sequences run as segments of one stacked pass; classes
    never attend to each other, so batched encoding equals per-class
    encoding. `sequences_encoded` counts every class sequence pushed
    through, which is the cost unit for the pre/post prompting comparison.
    Its weights are built off the tape, as the default text multiplier 0 asks.
    """

    def __init__(self, cfg: TextEncoderConfig, vocab_size: int, out_dim: int,
                 rng: np.random.Generator):
        if vocab_size < 1:
            raise ShapeError("text encoder needs a positive vocab size")
        if cfg.blocks < 1:
            raise ShapeError("text encoder needs at least one block")
        self.cfg = cfg
        self.table = Tensor(init_uniform(rng, (vocab_size, cfg.width), cfg.width))
        hidden = cfg.width * cfg.ffn_mult
        self.blocks = [
            TransformerBlock(cfg.width, cfg.heads, hidden, rng) for _ in range(cfg.blocks)
        ]
        self.proj = Linear(cfg.width, out_dim, rng)
        for _, p in self.parameters():
            p.requires_grad = False
        self.sequences_encoded = 0

    @property
    def width(self) -> int:
        return self.cfg.width

    @property
    def out_dim(self) -> int:
        return self.proj.out_dim

    def embed_tokens(self, ids) -> Tensor:
        ids = list(ids)
        for tid in ids:
            if not (0 <= tid < self.table.shape[0]):
                raise ContractError(f"token id {tid} outside vocabulary")
        return take(self.table, np.asarray(ids, dtype=np.intp))

    def encode(self, contexts: Tensor | None, class_token_lists, n: int = 1) -> TextEmbeddings:
        """Encode every class behind each of n context sets.

        `contexts` holds n stacked blocks of context rows (or is None or
        empty for bare class tokens); the result has n*K rows, row i*K + k
        for class k behind context block i.
        """
        lists = [list(ids) for ids in class_token_lists]
        if any(len(ids) == 0 for ids in lists):
            raise ContractError("every class needs at least one token")
        c = 0 if contexts is None else contexts.shape[0]
        if c and contexts.shape[1] != self.cfg.width:
            raise ShapeError(
                f"contexts width {contexts.shape[1]} != encoder width {self.cfg.width}"
            )
        if n < 1 or c % n:
            raise ShapeError(f"{c} context rows do not split into {n} blocks")
        c //= n
        tok = self.embed_tokens([t for ids in lists for t in ids])
        lens = np.array([len(ids) for ids in lists], dtype=np.intp)
        # Segment (i, k) is context block i followed by class k's tokens;
        # `first` indexes the segments of context block 0.
        tok_start = n * c + np.concatenate([[0], np.cumsum(lens)[:-1]])
        first = np.concatenate([np.concatenate([np.arange(c), s + np.arange(m)])
                                for s, m in zip(tok_start, lens)])
        is_ctx = np.concatenate([np.repeat([1, 0], [c, m]) for m in lens])
        index = (first + np.arange(n)[:, None] * c * is_ctx).reshape(-1)
        seq = take(concat([contexts, tok], axis=0) if c else tok, index)
        offsets = np.concatenate([[0], np.cumsum(np.tile(c + lens, n))])
        for block in self.blocks[:-1]:
            seq = block(seq, offsets)
        # Only the last token of each sequence is read out, so the last
        # block runs on those rows alone.
        last = self.blocks[-1].readout(seq, offsets, offsets[1:] - 1)
        self.sequences_encoded += n * len(lists)
        return TextEmbeddings(t=self.proj(last), class_count=len(lists))

    def parameters(self):
        yield "table", self.table
        for i, block in enumerate(self.blocks):
            for name, p in block.parameters():
                yield f"blocks.{i}.{name}", p
        for name, p in self.proj.parameters():
            yield f"proj.{name}", p

