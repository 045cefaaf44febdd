"""Toy image and text encoders sharing one embedding dimension.

The image encoder is a patch-embed + transformer stack whose last feature
map feeds an attention-pool layer; the pool's non-global outputs form the
language-compatible dense features. The text encoder embeds synthetic
class tokens (optionally behind learnable context rows), runs a small
transformer, and reads the final token out through a projection. Reading
the last position is our stand-in for an end-of-text readout.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import NamedTuple

import numpy as np

from .config import ImageEncoderConfig, TextEncoderConfig, check
from .nn import Linear, Module, MultiHeadAttention, TransformerBlock, block_offsets, init_uniform
from .tensor import ContractError, ShapeError, Tensor, concat, mean_rows, patchify, take

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

    @cached_property
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
    """Deterministic table: template ids first, then 1-3 token ids per class.
    Class names must be distinct: two classes with one name would share
    their tokens and so their text embedding."""
    template_ids = list(range(template_len))
    next_id = template_len
    class_tokens = {}
    for i, name in enumerate(class_names):
        if str(name) in class_tokens:
            raise ValueError(f"class name {str(name)!r} appears more than once")
        width = 1 + (i % 3)
        class_tokens[str(name)] = list(range(next_id, next_id + width))
        next_id += width
    return Vocabulary(template_ids=template_ids, class_tokens=class_tokens, size=next_id)


# ---------------------------------------------------------------------------
# Image encoder


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


class ToyImageEncoder(Module):
    """Patch embedding, B transformer blocks, attention pool, projection to d."""

    def __init__(self, cfg: ImageEncoderConfig, rng: np.random.Generator):
        check(cfg)
        self.cfg = cfg
        f = cfg.patch
        self.patch_embed = Linear(f * f * 3, cfg.width, rng)
        hidden = cfg.width * cfg.ffn_mult
        self.blocks = [
            TransformerBlock(cfg.width, cfg.heads, hidden, rng) for _ in range(cfg.blocks)
        ]
        self.pool = MultiHeadAttention(cfg.width, cfg.heads, rng)
        self.proj = Linear(cfg.width, cfg.out_dim, rng)

    @property
    def out_dim(self) -> int:
        return self.cfg.out_dim

    def encode(self, images: Tensor, pool: bool = True) -> tuple[FeatureMap, PooledFeatures | None]:
        """The projected feature map and pooled features of one H x W x 3
        image or an (N, H, W, 3) batch; every image is a segment of the
        stacked rows. With `pool` false the attention pool does not run and
        the pooled features come back None."""
        if images.data.ndim not in (3, 4) or images.shape[-1] != 3:
            raise ShapeError(f"expected H x W x 3 image or N x H x W x 3 batch, got {images.shape}")
        n = images.shape[0] if images.data.ndim == 4 else 1
        f = self.cfg.patch
        x = self.patch_embed(patchify(images, f))
        h4, w4 = images.shape[-3] // f, images.shape[-2] // f
        offsets = block_offsets(n, h4 * w4)
        for block in self.blocks:
            x = block(x, offsets)
        x4 = FeatureMap(h4=h4, w4=w4, c=self.cfg.width, values=x, n=n)
        pooled = attention_pool(self.pool, x4) if pool else None
        fm = FeatureMap(h4=h4, w4=w4, c=self.cfg.out_dim, values=self.proj(x), n=n)
        if pooled is not None:
            pooled = PooledFeatures(memory=self.proj(pooled.memory), n=n)
        return fm, pooled


# ---------------------------------------------------------------------------
# Text encoder


class ToyTextEncoder(Module):
    """Per-class transformer over [contexts; class token embeddings].

    Row k of the output is the projected final-token state of class k's
    sequence. All sequences run as segments of one stacked pass; classes
    never attend to each other, so batched encoding equals per-class
    encoding. The pass orders the sequences by (length, image, class), so
    each length is one run of segments and one attention chunk, and the
    outputs return in (image, class) order; the row layout is built once
    per class token lengths, context rows and image count.
    `sequences_encoded` counts every class sequence pushed through, which
    is the cost unit for the pre/post prompting comparison.
    Its weights are built off the tape, as the default text multiplier 0 asks.
    """

    def __init__(self, cfg: TextEncoderConfig, vocab_size: int, out_dim: int,
                 rng: np.random.Generator):
        if vocab_size < 1:
            raise ShapeError("text encoder needs a positive vocab size")
        check(cfg)
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
        ids = np.asarray(ids)
        if ids.size and ids.dtype.kind not in "iu":
            raise ContractError(f"embed_tokens needs integer token ids, got dtype {ids.dtype}")
        bad = ids[(ids < 0) | (ids >= self.table.shape[0])]
        if bad.size:
            raise ContractError(f"token id {bad[0]} outside vocabulary")
        return take(self.table, ids)

    def encode(self, contexts: Tensor | None, class_token_lists, n: int = 1) -> TextEmbeddings:
        """Encode every class behind each of n context sets.

        `contexts` holds n stacked blocks of context rows (or is None or
        empty for bare class tokens); the result has n*K rows, row i*K + k
        for class k behind context block i.
        """
        lists = [list(ids) for ids in class_token_lists]
        c = 0 if contexts is None else contexts.shape[0]
        if c and contexts.shape[1] != self.cfg.width:
            raise ShapeError(
                f"contexts width {contexts.shape[1]} != encoder width {self.cfg.width}"
            )
        if n < 1 or c % n:
            raise ShapeError(f"{c} context rows do not split into {n} blocks")
        layout = _text_layout(tuple(map(len, lists)), c // n, n)
        tok = self.embed_tokens([t for ids in lists for t in ids])
        # Gathered in (image, class) order, so take's backward sums each
        # context row's K contributions in class order; the second take only
        # permutes, and its backward adds nothing.
        seq = take(take(concat([contexts, tok], axis=0) if c else tok, layout.index), layout.perm)
        for block in self.blocks[:-1]:
            seq = block(seq, layout.offsets)
        # Only the last token of each sequence is read out, so the last
        # block runs on those rows alone.
        last = self.blocks[-1].readout(seq, layout.offsets, layout.rows)
        self.sequences_encoded += n * len(lists)
        return TextEmbeddings(t=self.proj(take(last, layout.inverse)), class_count=len(lists))


class _TextLayout(NamedTuple):
    index: np.ndarray  # rows of [contexts; tokens] per segment, (image, class) order
    perm: np.ndarray  # those rows reordered by (length, image, class)
    offsets: np.ndarray  # segment offsets of the reordered rows
    rows: np.ndarray  # each reordered segment's last row
    inverse: np.ndarray  # segment i*K + k of the (image, class) order


# Bounded: an entry per batch size, each growing with the batch.
@lru_cache(maxsize=16)
def _text_layout(lens: tuple[int, ...], c: int, n: int) -> _TextLayout:
    """The rows `encode` runs for n context blocks of c rows, each followed
    by every class's tokens, class k having lens[k] of them.

    Segment (i, k) is context block i followed by class k's tokens. The
    segments are ordered by (length, image, class), so each length is one
    run of segments and so one attention chunk (cache cap aside). The token
    ids are in neither the key nor the layout (a float id would hash equal
    to an int one), so `embed_tokens` checks them on every call.
    """
    if min(lens, default=0) < 1:
        raise ContractError("encode needs at least one class, and every class at least one token")
    tok_start = n * c + np.cumsum((0,) + lens[:-1])
    index = np.concatenate([np.r_[i * c : (i + 1) * c, s : s + m]
                            for i in range(n) for s, m in zip(tok_start, lens)])
    seg_len = np.tile(np.add(c, lens), n)
    start = np.cumsum(seg_len) - seg_len
    order = np.argsort(seg_len, kind="stable")
    perm = np.concatenate([np.arange(start[s], start[s] + seg_len[s]) for s in order])
    offsets = np.concatenate([[0], np.cumsum(seg_len[order])])
    layout = _TextLayout(index, perm, offsets, offsets[1:] - 1, np.argsort(order))
    for a in layout:
        a.flags.writeable = False
    return layout
