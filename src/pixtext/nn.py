"""Neural building blocks: linear, layer norm, multi-head attention,
transformer encoder/decoder layers.

All blocks expose `parameters()` yielding (name, Tensor) pairs so the
optimizer and checkpointing can traverse them uniformly. Initialization
is symmetric uniform scaled by 1/sqrt(fan_in); biases start at zero.
"""

from __future__ import annotations

import math
from itertools import accumulate

import numpy as np

from .tensor import (
    ShapeError,
    Tensor,
    add,
    gelu,
    linear,
    record,
    take,
)

__all__ = [
    "Linear",
    "LayerNorm",
    "layer_norm",
    "attention_heads",
    "block_offsets",
    "MultiHeadAttention",
    "TransformerBlock",
    "TransformerDecoderLayer",
    "decoder_forward",
    "init_uniform",
]


def init_uniform(rng: np.random.Generator, shape, fan_in: int) -> np.ndarray:
    bound = 1.0 / math.sqrt(max(fan_in, 1))
    return rng.uniform(-bound, bound, size=shape)


class Linear:
    """y = x W^T + b with weight stored (out, in)."""

    def __init__(self, in_dim: int, out_dim: int, rng: np.random.Generator):
        self.in_dim = in_dim
        self.out_dim = out_dim
        self.weight = Tensor(init_uniform(rng, (out_dim, in_dim), in_dim), requires_grad=True)
        self.bias = Tensor(np.zeros(out_dim), requires_grad=True)

    def __call__(self, x: Tensor) -> Tensor:
        if x.shape[1] != self.in_dim:
            raise ShapeError(f"linear expects {self.in_dim} columns, got {x.shape}")
        return linear(x, self.weight, self.bias)

    def parameters(self):
        yield "weight", self.weight
        yield "bias", self.bias


def layer_norm(x: Tensor, scale: Tensor, shift: Tensor, eps: float = 1e-5) -> Tensor:
    """Per-row standardization followed by the affine (scale, shift).

    Fused op: the whole Jacobian is hand-derived so a single tape node
    covers mean/variance/affine. Variance-zero rows are handled by eps.
    Backward computes only the gradients of the inputs that require one
    at that time; a frozen affine gets None.
    """
    xd = x.data
    if xd.ndim != 2:
        raise ShapeError(f"layer_norm expects 2-d input, got {x.shape}")
    c = xd.shape[1]
    if scale.shape != (c,) or shift.shape != (c,):
        raise ShapeError("layer_norm affine params must match the channel dim")
    mu = xd.mean(axis=1, keepdims=True)
    xc = xd - mu
    var = (xc * xc).mean(axis=1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xh = xc * inv
    out = xh * scale.data[None, :] + shift.data[None, :]

    def grad_fn(g):
        gscale = (g * xh).sum(axis=0) if scale.requires_grad else None
        gshift = g.sum(axis=0) if shift.requires_grad else None
        if not x.requires_grad:
            return [None, gscale, gshift]
        gxh = g * scale.data[None, :]
        m1 = gxh.mean(axis=1, keepdims=True)
        m2 = (gxh * xh).mean(axis=1, keepdims=True)
        gx = (gxh - m1 - xh * m2) * inv
        return [gx, gscale, gshift]

    return record([x, scale, shift], out, grad_fn)


class LayerNorm:
    def __init__(self, dim: int, eps: float = 1e-5):
        self.dim = dim
        self.eps = eps
        self.scale = Tensor(np.ones(dim), requires_grad=True)
        self.shift = Tensor(np.zeros(dim), requires_grad=True)

    def __call__(self, x: Tensor) -> Tensor:
        return layer_norm(x, self.scale, self.shift, self.eps)

    def parameters(self):
        yield "scale", self.scale
        yield "shift", self.shift


def block_offsets(n: int, length: int) -> np.ndarray:
    """Offsets of n consecutive segments of `length` rows each."""
    return np.arange(n + 1, dtype=np.intp) * length


def _segment_lengths(offsets, rows: int, what: str) -> np.ndarray:
    if offsets is None:
        return np.array([rows])
    off = np.asarray(offsets, dtype=np.intp)
    if off.ndim == 1 and off.size >= 2 and off[0] == 0 and off[-1] == rows:
        lengths = np.diff(off)
        if lengths.min() >= 1:
            return lengths
    raise ShapeError(f"{what} offsets must rise from 0 to {rows} in non-empty segments")


# Segments are processed in chunks whose attention weights take about this
# many bytes: whole-batch score arrays spill out of the CPU caches, and the
# elementwise softmax passes then run at memory speed.
_CHUNK_BYTES = 1 << 19


def _segment_chunks(lq: np.ndarray, lk: np.ndarray, heads: int):
    """Split the (query, key/value) segment pairs into chunks of equal lengths.

    Each chunk is (q_rows, kv_rows, count, lq, lk): the rows of its
    segments in segment order (a slice when they are contiguous, else an
    index array) and their shared lengths.
    """
    if lq.size != lk.size:
        raise ShapeError(f"{lq.size} query segments but {lk.size} key/value segments")
    lq, lk = lq.tolist(), lk.tolist()
    q_off, kv_off = [0, *accumulate(lq)], [0, *accumulate(lk)]
    groups: dict[tuple[int, int], list[int]] = {}
    for s, lengths in enumerate(zip(lq, lk)):
        groups.setdefault(lengths, []).append(s)
    chunks = []
    for (a, b), segs in sorted(groups.items()):
        step = max(1, _CHUNK_BYTES // (8 * heads * a * b))
        for c0 in range(0, len(segs), step):
            part = segs[c0 : c0 + step]
            if part[-1] - part[0] == len(part) - 1:
                q_rows = slice(q_off[part[0]], q_off[part[-1] + 1])
                kv_rows = slice(kv_off[part[0]], kv_off[part[-1] + 1])
            else:
                q_rows = (np.array([q_off[i] for i in part])[:, None] + np.arange(a)).reshape(-1)
                kv_rows = (np.array([kv_off[i] for i in part])[:, None] + np.arange(b)).reshape(-1)
            chunks.append((q_rows, kv_rows, len(part), a, b))
    return chunks


def attention_heads(q: Tensor, k: Tensor, v: Tensor, heads: int,
                    q_offsets=None, kv_offsets=None) -> Tensor:
    """Fused multi-head scaled dot-product attention over projected q/k/v.

    Rows are stacked segments: query segment s (rows q_offsets[s] to
    q_offsets[s+1]) attends only to key/value segment s. Without offsets
    all rows form one segment; kv_offsets default to q_offsets
    (self-attention). Column blocks of width dim/heads are independent
    heads, each computing softmax(q_h k_h^T / sqrt(head_dim)) v_h.

    Segments with equal lengths run together, a cache-sized chunk at a
    time, in a (segments, heads, L, head_dim) layout; no score matrix spans
    two segments. One tape node; the backward rule reuses the attention
    weights saved by the forward.
    """
    if q.shape[1] != k.shape[1] or k.shape != v.shape:
        raise ShapeError(f"attention shapes: q {q.shape}, k {k.shape}, v {v.shape}")
    dim = q.shape[1]
    if dim % heads != 0:
        raise ShapeError(f"model dim {dim} not divisible by {heads} heads")
    if kv_offsets is None:
        kv_offsets = q_offsets
    chunks = _segment_chunks(_segment_lengths(q_offsets, q.shape[0], "query"),
                             _segment_lengths(kv_offsets, k.shape[0], "key/value"), heads)
    hd = dim // heads
    scale = 1.0 / math.sqrt(hd)
    qd, kd, vd = q.data, k.data, v.data

    def split(x, rows, count, length):
        # (count, heads, length, hd) view of the chunk's rows
        return x[rows].reshape(count, length, heads, hd).transpose(0, 2, 1, 3)

    def merge(dst, rows, x):
        dst[rows] = x.transpose(0, 2, 1, 3).reshape(-1, dim)

    out = np.empty((q.shape[0], dim))
    attn_saved = []
    for q_rows, kv_rows, count, lq, lk in chunks:
        s = np.matmul(split(qd, q_rows, count, lq),
                      split(kd, kv_rows, count, lk).transpose(0, 1, 3, 2))
        s *= scale
        s -= s.max(axis=-1, keepdims=True)
        a = np.exp(s, out=s)
        a /= a.sum(axis=-1, keepdims=True)
        attn_saved.append(a)
        merge(out, q_rows, np.matmul(a, split(vd, kv_rows, count, lk)))

    def grad_fn(g):
        gq = np.empty_like(qd)
        gk = np.empty_like(kd)
        gv = np.empty_like(vd)
        for (q_rows, kv_rows, count, lq, lk), a in zip(chunks, attn_saved):
            gh = split(g, q_rows, count, lq)
            merge(gv, kv_rows, np.matmul(a.transpose(0, 1, 3, 2), gh))
            gs = np.matmul(gh, split(vd, kv_rows, count, lk).transpose(0, 1, 3, 2))
            gs -= (gs * a).sum(axis=-1, keepdims=True)
            gs *= a
            gs *= scale
            merge(gq, q_rows, np.matmul(gs, split(kd, kv_rows, count, lk)))
            merge(gk, kv_rows, np.matmul(gs.transpose(0, 1, 3, 2), split(qd, q_rows, count, lq)))
        return [gq, gk, gv]

    return record([q, k, v], out, grad_fn)


class MultiHeadAttention:
    """Scaled dot-product attention, self- or cross-, no masking or dropout."""

    def __init__(self, dim: int, heads: int, rng: np.random.Generator):
        if dim % heads != 0:
            raise ShapeError(f"model dim {dim} not divisible by {heads} heads")
        self.dim = dim
        self.heads = heads
        self.head_dim = dim // heads
        self.q_proj = Linear(dim, dim, rng)
        self.k_proj = Linear(dim, dim, rng)
        self.v_proj = Linear(dim, dim, rng)
        self.out_proj = Linear(dim, dim, rng)

    def __call__(self, queries: Tensor, memory: Tensor | None = None,
                 q_offsets=None, kv_offsets=None) -> Tensor:
        """Self-attention, or cross-attention over `memory`; the offsets
        split the rows into segments as in `attention_heads`."""
        kv = queries if memory is None else memory
        if queries.shape[1] != self.dim or kv.shape[1] != self.dim:
            raise ShapeError(
                f"attention dim mismatch: {queries.shape} / {kv.shape} vs {self.dim}"
            )
        q = self.q_proj(queries)
        k = self.k_proj(kv)
        v = self.v_proj(kv)
        return self.out_proj(attention_heads(q, k, v, self.heads, q_offsets, kv_offsets))

    def parameters(self):
        for tag, layer in (
            ("q_proj", self.q_proj),
            ("k_proj", self.k_proj),
            ("v_proj", self.v_proj),
            ("out_proj", self.out_proj),
        ):
            for name, p in layer.parameters():
                yield f"{tag}.{name}", p


class FeedForward:
    def __init__(self, dim: int, hidden: int, rng: np.random.Generator):
        self.fc1 = Linear(dim, hidden, rng)
        self.fc2 = Linear(hidden, dim, rng)

    def __call__(self, x: Tensor) -> Tensor:
        return self.fc2(gelu(self.fc1(x)))

    def parameters(self):
        for name, p in self.fc1.parameters():
            yield f"fc1.{name}", p
        for name, p in self.fc2.parameters():
            yield f"fc2.{name}", p


class TransformerBlock:
    """Pre-norm encoder block: x + attn(ln(x)), then x + ffn(ln(x))."""

    def __init__(self, dim: int, heads: int, ffn_hidden: int, rng: np.random.Generator):
        self.attn = MultiHeadAttention(dim, heads, rng)
        self.ffn = FeedForward(dim, ffn_hidden, rng)
        self.ln1 = LayerNorm(dim)
        self.ln2 = LayerNorm(dim)

    def __call__(self, x: Tensor, offsets=None) -> Tensor:
        x = add(x, self.attn(self.ln1(x), q_offsets=offsets))
        return add(x, self.ffn(self.ln2(x)))

    def readout(self, x: Tensor, offsets, rows) -> Tensor:
        """The block's output at `rows` only: one row per segment, row s
        inside segment s. Equals take(block(x, offsets), rows) up to
        rounding. Keys and values come from ln1 of every row; the query
        projection, attention output, residual, ln2 and feed-forward run on
        the kept rows alone."""
        lengths = _segment_lengths(offsets, x.shape[0], "readout")
        off = np.concatenate([[0], np.cumsum(lengths)])
        rows = np.asarray(rows, dtype=np.intp)
        if rows.shape != lengths.shape or np.any(rows < off[:-1]) or np.any(rows >= off[1:]):
            raise ShapeError(f"readout needs one row inside each of {lengths.size} segments")
        h = self.ln1(x)
        x = take(x, rows)
        x = add(x, self.attn(take(h, rows), h, block_offsets(rows.size, 1), off))
        return add(x, self.ffn(self.ln2(x)))

    def parameters(self):
        for tag, mod in (("attn", self.attn), ("ffn", self.ffn), ("ln1", self.ln1), ("ln2", self.ln2)):
            for name, p in mod.parameters():
                yield f"{tag}.{name}", p


class TransformerDecoderLayer:
    """Pre-norm decoder layer: self-attention, cross-attention over memory,
    feed-forward; residuals around each. Memory enters un-normalized."""

    def __init__(self, dim: int, heads: int, ffn_hidden: int, rng: np.random.Generator):
        self.self_attn = MultiHeadAttention(dim, heads, rng)
        self.cross_attn = MultiHeadAttention(dim, heads, rng)
        self.ffn = FeedForward(dim, ffn_hidden, rng)
        self.ln1 = LayerNorm(dim)
        self.ln2 = LayerNorm(dim)
        self.ln3 = LayerNorm(dim)

    def __call__(self, queries: Tensor, memory: Tensor, q_offsets=None, kv_offsets=None) -> Tensor:
        if queries.shape[1] != memory.shape[1]:
            raise ShapeError(f"decoder dims differ: {queries.shape} vs {memory.shape}")
        q = add(queries, self.self_attn(self.ln1(queries), q_offsets=q_offsets))
        q = add(q, self.cross_attn(self.ln2(q), memory, q_offsets, kv_offsets))
        return add(q, self.ffn(self.ln3(q)))

    def parameters(self):
        mods = (
            ("self_attn", self.self_attn),
            ("cross_attn", self.cross_attn),
            ("ffn", self.ffn),
            ("ln1", self.ln1),
            ("ln2", self.ln2),
            ("ln3", self.ln3),
        )
        for tag, mod in mods:
            for name, p in mod.parameters():
                yield f"{tag}.{name}", p


def decoder_forward(layers, queries: Tensor, memory: Tensor,
                    q_offsets=None, kv_offsets=None) -> Tensor:
    """Run the decoder stack; query segment s reads memory segment s."""
    if not layers:
        raise ShapeError("decoder needs at least one layer")
    out = queries
    for layer in layers:
        out = layer(out, memory, q_offsets, kv_offsets)
    return out
