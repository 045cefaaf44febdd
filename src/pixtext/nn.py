"""Neural building blocks: linear, layer norm, multi-head attention,
transformer encoder/decoder layers.

Every block is a `Module`: its parameters are the Tensor attributes and
child modules that `__init__` assigns, and `Module.parameters()` yields
them as (name, Tensor) pairs in assignment order, so the order of the
assignments in `__init__` is the parameter order that the optimizer and
checkpoints see. A Module holds no Tensor that is not a parameter.
Initialization is symmetric uniform scaled by 1/sqrt(fan_in); biases
start at zero.
"""

from __future__ import annotations

import math
import zlib

import numpy as np

from .tensor import (
    ShapeError,
    Tensor,
    add,
    gelu,
    linear,
    record,
    recording,
    take,
)

__all__ = [
    "Module",
    "Linear",
    "LayerNorm",
    "layer_norm",
    "attention_heads",
    "block_offsets",
    "MultiHeadAttention",
    "TransformerBlock",
    "TransformerDecoderLayer",
    "init_uniform",
    "rng_for",
]


def init_uniform(rng: np.random.Generator, shape, fan_in: int) -> np.ndarray:
    bound = 1.0 / math.sqrt(max(fan_in, 1))
    return rng.uniform(-bound, bound, size=shape)


def rng_for(seed: int, name: str) -> np.random.Generator:
    """Independent, order-free stream per component: adding or removing a
    component never shifts the initialization of the others."""
    return np.random.default_rng(
        np.random.SeedSequence([int(seed) & 0xFFFFFFFF, zlib.crc32(name.encode())])
    )


class Module:
    """A block whose parameters are its attributes, walked in the order
    `__init__` assigned them: a Tensor attribute yields as `attr`, a Module
    as `attr.<child name>`, a list of modules as `attr.<i>.<child name>`.
    Any other attribute is a setting and yields nothing."""

    def parameters(self):
        for attr, value in vars(self).items():
            if isinstance(value, Tensor):
                yield attr, value
            elif isinstance(value, Module):
                for name, p in value.parameters():
                    yield f"{attr}.{name}", p
            elif isinstance(value, list):
                for i, child in enumerate(value):
                    for name, p in child.parameters():
                        yield f"{attr}.{i}.{name}", p


class Linear(Module):
    """y = x W^T + b with weight stored (out, in)."""

    def __init__(self, in_dim: int, out_dim: int, rng: np.random.Generator):
        self.out_dim = out_dim
        self.weight = Tensor(init_uniform(rng, (out_dim, in_dim), in_dim), requires_grad=True)
        self.bias = Tensor(np.zeros(out_dim), requires_grad=True)

    def __call__(self, x: Tensor) -> Tensor:
        return linear(x, self.weight, self.bias)


def _row_mean(a: np.ndarray) -> np.ndarray:
    """`a.mean(axis=1, keepdims=True)`: the same sum and in-place division,
    without the Python wrappers of np.mean and ndarray.sum."""
    m = np.add.reduce(a, axis=1, keepdims=True)
    m /= a.shape[1]
    return m


def layer_norm(x: Tensor, scale: Tensor, shift: Tensor, eps: float = 1e-5) -> Tensor:
    """Per-row standardization followed by the affine (scale, shift).

    Fused op: the whole Jacobian is hand-derived so a single tape node
    covers mean/variance/affine. Variance-zero rows are handled by eps.
    Only the gradients of the inputs that require one when the op records
    are formed; a frozen affine gets None. Under `no_grad` it returns right
    after the arithmetic.
    """
    xd = x.data
    if xd.ndim != 2:
        raise ShapeError(f"layer_norm expects 2-d input, got {x.shape}")
    c = xd.shape[1]
    if scale.data.shape != (c,) or shift.data.shape != (c,):
        raise ShapeError("layer_norm affine params must match the channel dim")
    xc = xd - _row_mean(xd)
    inv = 1.0 / np.sqrt(_row_mean(xc * xc) + eps)
    xh = np.multiply(xc, inv, out=xc)
    out = xh * scale.data
    out += shift.data
    if not recording():
        return Tensor(out)
    scale_grad, shift_grad = scale.requires_grad, shift.requires_grad
    sd = scale.data if x.requires_grad else None

    def grad_fn(g):
        gscale = (g * xh).sum(axis=0) if scale_grad else None
        gshift = g.sum(axis=0) if shift_grad else None
        if sd is None:
            return [None, gscale, gshift]
        gxh = g * sd
        m1 = _row_mean(gxh)
        m2 = _row_mean(gxh * xh)
        gx = (gxh - m1 - xh * m2) * inv
        return [gx, gscale, gshift]

    return record([x, scale, shift], out, grad_fn)


class LayerNorm(Module):
    def __init__(self, dim: int, eps: float = 1e-5):
        self.dim = dim
        self.eps = eps
        self.scale = Tensor(np.ones(dim), requires_grad=True)
        self.shift = Tensor(np.zeros(dim), requires_grad=True)

    def __call__(self, x: Tensor) -> Tensor:
        return layer_norm(x, self.scale, self.shift, self.eps)


def block_offsets(n: int, length: int) -> np.ndarray:
    """Offsets of n consecutive segments of `length` rows each."""
    return np.arange(n + 1, dtype=np.intp) * length


def _offsets(offsets, rows: int, what: str) -> list[int]:
    """Segment offsets as Python ints from one `tolist()`: integers rising
    from 0 to `rows` in non-empty segments. None is one segment."""
    if offsets is None:
        return [0, rows]
    arr = np.asarray(offsets)
    off = arr.tolist() if arr.ndim == 1 and arr.dtype.kind in "iu" else []
    if len(off) < 2 or off[0] != 0 or off[-1] != rows or not all(map(int.__lt__, off, off[1:])):
        raise ShapeError(f"{what} offsets {offsets!r} must be integers rising from 0 to "
                         f"{rows} in non-empty segments")
    return off


# Segments are processed in chunks whose attention weights take about this
# many bytes: whole-batch score arrays spill out of the CPU caches, and the
# elementwise softmax passes then run at memory speed.
_CHUNK_BYTES = 1 << 19

# Largest score bound B at which the softmax skips its row-max shift.
# With every |s| <= B, e = exp(s) lies in [e^-B, e^B] and each row sum in
# [e^-B, Lk e^B]. At B = 300, e^(+-2B) ~ 10^(+-261) is inside the normal
# float64 range (10^-308 to 10^308), so neither e, z, (e v) / z nor the
# backward's g / z and its products with e overflow or go subnormal.
_NO_SHIFT_BOUND = 300.0


def _segment_chunks(q_off: list[int], kv_off: list[int], heads: int):
    """Split the (query, key/value) segment pairs, given by their offsets,
    into chunks: runs of consecutive segments of equal lengths, cut at
    about `_CHUNK_BYTES` of attention weights. Each chunk is (q_rows,
    kv_rows, count, lq, lk): the slices of its segments' rows and their
    shared lengths. Equal lengths that are apart run in separate chunks.
    """
    if len(q_off) != len(kv_off):
        raise ShapeError(f"{len(q_off) - 1} query segments but {len(kv_off) - 1} "
                         "key/value segments")
    chunks, s, n = [], 0, len(q_off) - 1
    while s < n:
        a, b = q_off[s + 1] - q_off[s], kv_off[s + 1] - kv_off[s]
        e, end = s + 1, min(n, s + max(1, _CHUNK_BYTES // (8 * heads * a * b)))
        while e < end and q_off[e + 1] - q_off[e] == a and kv_off[e + 1] - kv_off[e] == b:
            e += 1
        chunks.append((slice(q_off[s], q_off[e]), slice(kv_off[s], kv_off[e]), e - s, a, b))
        s = e
    return chunks


def attention_heads(q: Tensor, k: Tensor, v: Tensor, heads: int,
                    q_offsets=None, kv_offsets=None) -> Tensor:
    """Fused multi-head scaled dot-product attention over projected q/k/v.

    Rows are stacked segments: query segment s (rows q_offsets[s] to
    q_offsets[s+1]) attends only to key/value segment s. Without offsets
    all rows form one segment; kv_offsets default to q_offsets
    (self-attention). Column blocks of width dim/heads are independent
    heads, each computing softmax(q_h k_h^T / sqrt(head_dim)) v_h.

    Runs of consecutive equal-length segments go a cache-sized chunk at a
    time, as contiguous (segments, heads, rows, head_dim) blocks, so a
    caller sorts mixed lengths to run each as one chunk; no score matrix
    spans two segments. The forward exponentiates the scores in place and
    normalises after the value product, o = (e v) / z with z the row sums
    of e, so no pass over the scores scales or divides them.

    Every score obeys |s| <= B = sqrt(head_dim) max|q| max|k|. When B is at
    most `_NO_SHIFT_BOUND`, e = exp(s) cannot overflow and the kernel skips
    the row-max pass; otherwise, and for non-finite inputs, it shifts,
    e = exp(s - rowmax). Both give the same e / z. One tape node; it saves
    only z per chunk, and its backward rebuilds each chunk's e right before
    using it, with the forward's operations on the same operands, so the
    rebuilt e is bitwise the forward's. The backward reads o from the op's
    own output.
    """
    qd, kd, vd = q.data, k.data, v.data
    if qd.shape[1] != kd.shape[1] or kd.shape != vd.shape:
        raise ShapeError(f"attention shapes: q {qd.shape}, k {kd.shape}, v {vd.shape}")
    rows, dim = qd.shape
    if dim % heads != 0:
        raise ShapeError(f"model dim {dim} not divisible by {heads} heads")
    if kv_offsets is None:
        kv_offsets = q_offsets
    q_off = _offsets(q_offsets, rows, "query")
    kv_off = q_off if kv_offsets is q_offsets and kd.shape[0] == rows else _offsets(
        kv_offsets, kd.shape[0], "key/value")
    chunks = _segment_chunks(q_off, kv_off, heads)
    hd = dim // heads
    scale = 1.0 / math.sqrt(hd)

    def split(x, rows, count, length):
        # (count, heads, length, hd) view of the chunk's rows; writes go through
        return x[rows].reshape(count, length, heads, hd).transpose(0, 2, 1, 3)

    def tr(x):
        return x.transpose(0, 1, 3, 2)

    # one reduction over |q| and one over |k|, without ndarray.max's wrapper
    bound = math.sqrt(hd) * np.maximum.reduce(np.abs(qd), None) * np.maximum.reduce(
        np.abs(kd), None)
    shift = not bound <= _NO_SHIFT_BOUND  # NaN and inf bounds shift
    # Products take contiguous blocks only. A block that is scaled or
    # divided goes into a new array (order="C"): np.ascontiguousarray
    # returns a view of an already contiguous block (one-row segments, one
    # head), and an in-place op would then write into the caller's arrays.
    def weights(q_rows, kv_rows, count, lq, lk):
        # a chunk's e: the forward's, and bitwise the same again in the backward
        e = np.matmul(np.multiply(split(qd, q_rows, count, lq), scale, order="C"),
                      np.ascontiguousarray(tr(split(kd, kv_rows, count, lk))))
        if shift:
            e -= e.max(axis=-1, keepdims=True)
        return np.exp(e, out=e)

    out = np.empty((rows, dim))
    zs = []
    for q_rows, kv_rows, count, lq, lk in chunks:
        e = weights(q_rows, kv_rows, count, lq, lk)
        z = np.add.reduce(e, axis=-1, keepdims=True)
        o = np.matmul(e, np.ascontiguousarray(split(vd, kv_rows, count, lk)))
        o /= z
        split(out, q_rows, count, lq)[...] = o
        zs.append(z)

    def grad_fn(g):
        gq = np.empty_like(qd)
        gk = np.empty_like(kd)
        gv = np.empty_like(vd)
        for (q_rows, kv_rows, count, lq, lk), z in zip(chunks, zs):
            e = weights(q_rows, kv_rows, count, lq, lk)
            gn = np.divide(split(g, q_rows, count, lq), z, order="C")
            split(gv, kv_rows, count, lk)[...] = tr(np.matmul(np.ascontiguousarray(tr(gn)), e))
            gs = np.matmul(gn, np.ascontiguousarray(tr(split(vd, kv_rows, count, lk))))
            gs -= (gn * split(out, q_rows, count, lq)).sum(axis=-1, keepdims=True)
            gs *= e
            # the score scale rides on the copies of k and q
            ks = np.multiply(split(kd, kv_rows, count, lk), scale, order="C")
            split(gq, q_rows, count, lq)[...] = np.matmul(gs, ks)
            qt = np.multiply(tr(split(qd, q_rows, count, lq)), scale, order="C")
            split(gk, kv_rows, count, lk)[...] = tr(np.matmul(qt, gs))
        return [gq, gk, gv]

    return record([q, k, v], out, grad_fn)


class MultiHeadAttention(Module):
    """Scaled dot-product attention, self- or cross-, no masking or dropout."""

    def __init__(self, dim: int, heads: int, rng: np.random.Generator):
        if dim % heads != 0:
            raise ShapeError(f"model dim {dim} not divisible by {heads} heads")
        self.heads = heads
        self.q_proj = Linear(dim, dim, rng)
        self.k_proj = Linear(dim, dim, rng)
        self.v_proj = Linear(dim, dim, rng)
        self.out_proj = Linear(dim, dim, rng)

    def __call__(self, queries: Tensor, memory: Tensor | None = None,
                 q_offsets=None, kv_offsets=None) -> Tensor:
        """Self-attention, or cross-attention over `memory`; the offsets
        split the rows into segments as in `attention_heads`. The projections
        check the widths."""
        kv = queries if memory is None else memory
        return self.attend(self.q_proj(queries), kv, q_offsets, kv_offsets)

    def attend(self, q: Tensor, kv: Tensor, q_offsets=None, kv_offsets=None) -> Tensor:
        """Attention of already projected queries `q` over the rows `kv`."""
        k = self.k_proj(kv)
        v = self.v_proj(kv)
        return self.out_proj(attention_heads(q, k, v, self.heads, q_offsets, kv_offsets))


class FeedForward(Module):
    def __init__(self, dim: int, hidden: int, rng: np.random.Generator):
        self.fc1 = Linear(dim, hidden, rng)
        self.fc2 = Linear(hidden, dim, rng)

    def __call__(self, x: Tensor) -> Tensor:
        return self.fc2(gelu(self.fc1(x)))


class TransformerBlock(Module):
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
        off = np.array(_offsets(offsets, x.shape[0], "readout"))
        rows = np.asarray(rows, dtype=np.intp)
        if rows.shape != (off.size - 1,) or np.any(rows < off[:-1]) or np.any(rows >= off[1:]):
            raise ShapeError(f"readout needs one row inside each of {off.size - 1} segments")
        h = self.ln1(x)
        x = take(x, rows)
        x = add(x, self.attn(take(h, rows), h, block_offsets(rows.size, 1), off))
        return add(x, self.ffn(self.ln2(x)))


class TransformerDecoderLayer(Module):
    """Pre-norm decoder layer: self-attention, cross-attention over memory,
    feed-forward; residuals around each. Memory enters un-normalized. The
    query side, all that runs before memory is read, can be computed once
    for fixed queries and handed to later calls."""

    def __init__(self, dim: int, heads: int, ffn_hidden: int, rng: np.random.Generator):
        self.self_attn = MultiHeadAttention(dim, heads, rng)
        self.cross_attn = MultiHeadAttention(dim, heads, rng)
        self.ffn = FeedForward(dim, ffn_hidden, rng)
        self.ln1 = LayerNorm(dim)
        self.ln2 = LayerNorm(dim)
        self.ln3 = LayerNorm(dim)

    def query_side(self, queries: Tensor, q_offsets=None) -> tuple[Tensor, Tensor]:
        """The self-attention residual q and the cross-attention's projected
        queries, q_proj(ln2(q))."""
        q = add(queries, self.self_attn(self.ln1(queries), q_offsets=q_offsets))
        return q, self.cross_attn.q_proj(self.ln2(q))

    def __call__(self, queries: Tensor | None, memory: Tensor, q_offsets=None, kv_offsets=None,
                 query_side: tuple[Tensor, Tensor] | None = None) -> Tensor:
        """The layer over `queries`, or, when `query_side` is given, over the
        queries whose `query_side()` it is; `queries` is then not read."""
        q, cq = self.query_side(queries, q_offsets) if query_side is None else query_side
        if q.shape[1] != memory.shape[1]:
            raise ShapeError(f"decoder dims differ: {q.shape} vs {memory.shape}")
        q = add(q, self.cross_attn.attend(cq, memory, q_offsets, kv_offsets))
        return add(q, self.ffn(self.ln3(q)))
