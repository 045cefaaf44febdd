"""Dense float64 tensors with tape-based reverse-mode differentiation.

Every downstream module records onto the active tape through the public
ops here (or through :func:`record` for fused ops defined elsewhere).
Shapes are strict: elementwise ops require identical shapes, the only
implicit broadcast is Python-scalar against tensor. The one explicit
row-vector broadcast is `mul_rowvec` (and the bias of `linear`), so each
gradient rule stays auditable.
"""

from __future__ import annotations

import math
import os
import struct
import threading
from contextlib import contextmanager
from dataclasses import dataclass
from itertools import accumulate

import numpy as np

__all__ = [
    "Tensor",
    "tensor",
    "record",
    "active_tape",
    "reset_tape",
    "fresh_tape",
    "no_grad",
    "recording",
    "add",
    "mul",
    "block_matmul_t",
    "linear",
    "concat",
    "stack",
    "take",
    "patchify",
    "tsum",
    "mean_rows",
    "gelu",
    "clamp",
    "mul_rowvec",
    "l2_normalize",
    "count_cross_entropy",
    "bce_with_logits",
    "backward",
    "grad_check",
    "GradCheckReport",
    "write_dct1",
    "read_dct1",
]


class ShapeError(ValueError):
    """Raised when tensor operands have incompatible shapes."""


class ContractError(RuntimeError):
    """Raised when an operation is called outside its documented contract."""


_F64 = np.dtype(np.float64)


class Tensor:
    """N-d float64 array plus an optional gradient buffer.

    Data is logically immutable once produced by an op; only the trainer
    mutates `.data` of leaf parameters between steps, and only `backward`
    touches `.grad`.
    """

    __slots__ = ("data", "requires_grad", "grad", "node")

    def __init__(self, data, requires_grad: bool = False):
        # an op's float64 result is kept as it is, without np.asarray's call
        self.data = data if type(data) is np.ndarray and data.dtype is _F64 else np.asarray(
            data, dtype=np.float64)
        self.requires_grad = bool(requires_grad)
        self.grad = None
        self.node = None  # the tape node that produced this tensor

    @property
    def is_leaf(self) -> bool:
        return self.node is None

    @property
    def shape(self):
        return self.data.shape

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        if self.data.size != 1:
            raise ContractError(f"item() on tensor of shape {self.shape}")
        return float(self.data.reshape(-1)[0])

    def __repr__(self):
        flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={tuple(self.shape)}{flag})"


def tensor(data, requires_grad: bool = False) -> Tensor:
    if isinstance(data, Tensor):
        return data
    return Tensor(data, requires_grad=requires_grad)


# ---------------------------------------------------------------------------
# Recording onto the per-thread tape


class _Node:
    """One recorded op. It holds no arrays itself: per input, `sources` has
    the leaf Tensor or the node that produced the input; `shape` is the
    output's shape; `grad_fn` keeps only the arrays its rule reads."""

    __slots__ = ("sources", "shape", "grad_fn")

    def __init__(self, sources, shape, grad_fn):
        self.sources = sources
        self.shape = shape
        self.grad_fn = grad_fn


class _TapeState(threading.local):
    """Per-thread stack of tapes. A tape is the list of recorded nodes in
    execution order, which is topological by construction."""

    def __init__(self):
        self.stack: list[list[_Node]] = [[]]
        self.recording = True


_STATE = _TapeState()


def active_tape() -> list[_Node]:
    """The list of nodes the ops of this thread record onto."""
    return _STATE.stack[-1]


def reset_tape():
    """Drop every recorded node on the active tape. Called by the trainer each step.

    Each node also lets go of its sources and rule: a tensor of the last
    step, such as its loss, still holds its node, and through it every
    array that step saved for backward.
    """
    tape = active_tape()
    for node in tape:
        node.sources = ()
        node.grad_fn = None
    tape.clear()


@contextmanager
def fresh_tape():
    """Run a block on an isolated tape (used by grad_check and tests)."""
    _STATE.stack.append([])
    try:
        yield _STATE.stack[-1]
    finally:
        _STATE.stack.pop()


@contextmanager
def no_grad():
    """Disable recording; forward values are still computed."""
    prev = _STATE.recording
    _STATE.recording = False
    try:
        yield
    finally:
        _STATE.recording = prev


def recording() -> bool:
    """Whether ops record: False inside `no_grad`."""
    return _STATE.recording


def record(inputs, out_data: np.ndarray, grad_fn) -> Tensor:
    """Create the output tensor of an op and register its gradient rule.

    `grad_fn(g_out)` must return one array (or None) per input, in order.
    It reads `requires_grad` when the op records, returns None for each
    input that needs no gradient, and captures only the arrays it reads:
    the tape holds nothing else. Fused ops outside this module (layer_norm
    lives with the nn blocks) use this same entry point so everything
    shares one tape.
    """
    out = Tensor(out_data)
    if not _STATE.recording:
        return out
    inputs = tuple(inputs)
    if any(isinstance(t, Tensor) and t.requires_grad for t in inputs):
        out.requires_grad = True
        sources = tuple((t if t.node is None else t.node) if isinstance(t, Tensor) else None
                        for t in inputs)
        out.node = _Node(sources, out.data.shape, grad_fn)
        active_tape().append(out.node)
    return out


# ---------------------------------------------------------------------------
# Elementwise and structural ops


def _as_operands(a, b, opname):
    """Strict shape check: equal shapes, or one side a Python scalar."""
    if isinstance(b, (int, float)):
        return a, float(b), True
    b = tensor(b)
    if a.data.shape != b.data.shape:
        raise ShapeError(f"{opname}: shapes {a.shape} and {b.shape} differ")
    return a, b, False


def add(a: Tensor, b) -> Tensor:
    a = tensor(a)
    a, b, scalar = _as_operands(a, b, "add")
    if scalar:
        return record([a], a.data + b, lambda g: [g])
    return record([a, b], a.data + b.data, lambda g: [g, g])


def mul(a: Tensor, b) -> Tensor:
    a = tensor(a)
    a, b, scalar = _as_operands(a, b, "mul")
    if scalar:
        return record([a], a.data * b, lambda g: [g * b])
    ad = a.data if b.requires_grad else None
    bd = b.data if a.requires_grad else None
    return record([a, b], a.data * b.data,
                  lambda g: [None if bd is None else g * bd, None if ad is None else g * ad])


def block_matmul_t(a: Tensor, b: Tensor, n: int) -> Tensor:
    """Blockwise a_i b_i^T over n equal row blocks; one tape node.

    a is (n*m, d) and b is (n*k, d); block i of the (n*m, k) output is
    a_i @ b_i^T. With n == 1 this is a @ b^T.
    """
    a, b = tensor(a), tensor(b)
    if a.data.ndim != 2 or b.data.ndim != 2 or a.shape[1] != b.shape[1]:
        raise ShapeError(f"block_matmul_t: {a.shape} x {b.shape}^T")
    if n < 1 or a.shape[0] % n or b.shape[0] % n:
        raise ShapeError(f"block_matmul_t: {a.shape[0]} and {b.shape[0]} rows in {n} blocks")
    m, k, d = a.shape[0] // n, b.shape[0] // n, a.shape[1]
    a3, b3 = a.data.reshape(n, m, d), b.data.reshape(n, k, d)
    out = np.matmul(a3, b3.transpose(0, 2, 1)).reshape(n * m, k)
    keep_a = a3 if b.requires_grad else None  # dB reads a
    keep_b = b3 if a.requires_grad else None  # dA reads b

    def grad_fn(g):
        g3 = g.reshape(n, m, k)
        return [
            None if keep_b is None else np.matmul(g3, keep_b).reshape(n * m, d),
            None if keep_a is None else np.matmul(g3.transpose(0, 2, 1), keep_a).reshape(n * k, d),
        ]

    return record([a, b], out, grad_fn)


def linear(x: Tensor, weight: Tensor, bias: Tensor) -> Tensor:
    """Fused x W^T + b; one tape node instead of three.

    weight is (out, in), bias (out,). Gradients: dX = g W, dW = g^T X,
    db = column sums of g. Only the gradients of the inputs that require
    one when the op records are formed (frozen weights, raw image patches
    get None), and x is kept only for a weight that needs a gradient.
    """
    x, weight, bias = tensor(x), tensor(weight), tensor(bias)
    xd, w, b = x.data, weight.data, bias.data
    if xd.ndim != 2 or xd.shape[1] != w.shape[1] or b.shape != w.shape[:1]:
        raise ShapeError(f"linear: x {xd.shape}, weight {w.shape}, bias {b.shape}")
    out = xd @ w.T
    out += b
    if not _STATE.recording:
        return Tensor(out)
    wd = w if x.requires_grad else None
    xd = xd if weight.requires_grad else None
    bias_grad = bias.requires_grad

    def grad_fn(g):
        return [
            None if wd is None else g @ wd,
            None if xd is None else g.T @ xd,
            g.sum(axis=0) if bias_grad else None,
        ]

    return record([x, weight, bias], out, grad_fn)


def concat(parts, axis: int = 0) -> Tensor:
    parts = [tensor(p) for p in parts]
    if not parts:
        raise ShapeError("concat of empty list")
    out = np.concatenate([p.data for p in parts], axis=axis)
    offsets = [0, *accumulate(p.data.shape[axis] for p in parts)]
    count = len(parts)

    def grad_fn(g):
        return [
            np.take(g, np.arange(offsets[i], offsets[i + 1]), axis=axis)
            for i in range(count)
        ]

    return record(parts, out, grad_fn)


def stack(parts) -> Tensor:
    """Stack equal-shape tensors along a new leading axis; one tape node."""
    parts = [tensor(p) for p in parts]
    if not parts:
        raise ShapeError("stack of empty list")
    for i, p in enumerate(parts):
        if p.shape != parts[0].shape:
            raise ShapeError(f"stack: part {i} has shape {p.shape}, part 0 {parts[0].shape}")
    return record(parts, np.array([p.data for p in parts]), lambda g: list(g))


def take(a: Tensor, indices) -> Tensor:
    """Row gather from a 2-d tensor: out[i] = a[indices[i]]."""
    a = tensor(a)
    idx = np.asarray(indices)
    if idx.size and idx.dtype.kind not in "iu":
        raise ShapeError(f"take needs integer indices, got dtype {idx.dtype}")
    idx = idx.astype(np.intp, copy=False)
    if idx.ndim != 1:
        raise ShapeError("take expects a flat index list")
    if a.data.ndim != 2:
        raise ShapeError(f"take gathers rows of a 2-d tensor, got {a.shape}")
    if idx.size and (idx.min() < 0 or idx.max() >= a.shape[0]):
        raise IndexError(f"take index out of range for {a.shape[0]} rows")
    rows, cols = a.shape

    def grad_fn(g):
        if np.bincount(idx, minlength=rows).max(initial=0) <= 1:
            # no row gathered twice: one scatter; bincount's sums start at
            # 0.0, which the += 0.0 keeps (-0.0 becomes 0.0). It runs in
            # place: a g + 0.0 temporary is a fresh, page-faulting block.
            full = np.zeros((rows, cols))
            full[idx] = g
            full += 0.0
            return [full]
        # One bincount per column adds in index order, as np.add.at does,
        # so the sums are bitwise the same.
        full = np.empty((rows, cols))
        for j in range(cols):
            full[:, j] = np.bincount(idx, weights=g[:, j], minlength=rows)
        return [full]

    return record([a], a.data[idx], grad_fn)


def patchify(images: Tensor, f: int) -> Tensor:
    """Cut an H x W x C image, or an (N, H, W, C) batch, into f x f patches:
    row (i, r, c) of the (N*h4*w4, f*f*C) result is the patch of image i
    at cell (r, c), flattened in (dy, dx, channel) order. One tape node;
    the forward is a transpose-copy, the backward the inverse transpose.
    """
    images = tensor(images)
    if images.data.ndim not in (3, 4):
        raise ShapeError(f"patchify expects H x W x C or N x H x W x C, got {images.shape}")
    h, w, ch = images.shape[-3:]
    if h % f or w % f:
        raise ShapeError(f"image {h}x{w} not divisible by patch {f}")
    h4, w4 = h // f, w // f
    shape = images.shape
    out = images.data.reshape(-1, h4, f, w4, f, ch).transpose(0, 1, 3, 2, 4, 5)

    def grad_fn(g):
        g = g.reshape(-1, h4, w4, f, f, ch).transpose(0, 1, 3, 2, 4, 5)
        return [g.reshape(shape)]

    return record([images], out.reshape(-1, f * f * ch), grad_fn)


def tsum(a: Tensor) -> Tensor:
    """Sum of every entry, a scalar."""
    a = tensor(a)
    shape = a.shape
    return record([a], a.data.sum(), lambda g: [np.broadcast_to(g, shape).copy()])


def mean_rows(a: Tensor, blocks: int = 1) -> Tensor:
    """Mean over the rows of each of `blocks` equal row blocks of a 2-d
    tensor: (blocks * m, C) -> (blocks, C); one tape node."""
    a = tensor(a)
    if a.data.ndim != 2 or blocks < 1 or a.shape[0] % blocks or a.shape[0] == 0:
        raise ShapeError(f"mean_rows: {a.shape} in {blocks} blocks")
    m = a.shape[0] // blocks
    inv = 1.0 / m
    out = np.add.reduce(a.data.reshape(blocks, m, a.shape[1]), axis=1) * inv
    return record([a], out, lambda g: [np.repeat(g * inv, m, axis=0)])


_GELU_C = np.sqrt(2.0 / np.pi)
_GELU_A = 0.044715


def gelu(a: Tensor) -> Tensor:
    """Smooth Gaussian-error-style activation (tanh form).

    A recorded gelu saves its derivative, one array in place of x and t;
    under no_grad it computes none.
    """
    a = tensor(a)
    x = a.data
    # In-place steps keep one temporary per output: batched activations are
    # large. The values equal those of the textbook expressions:
    # t = tanh(C (x + A x^3)), out = 0.5 x (1 + t),
    # d/dx = 0.5 (1 + t) + 0.5 x (1 - t^2) C (1 + 3 A x^2).
    t = _GELU_A * x
    t *= x
    t *= x
    t += x
    t *= _GELU_C
    np.tanh(t, out=t)
    out = t + 1.0
    out *= x
    out *= 0.5
    if not (_STATE.recording and a.requires_grad):
        return Tensor(out)
    d = t * t
    np.subtract(1.0, d, out=d)
    d *= x
    d *= 0.5
    d *= _GELU_C
    poly = x * (3.0 * _GELU_A)
    poly *= x
    poly += 1.0
    d *= poly
    np.add(t, 1.0, out=poly)
    poly *= 0.5
    d += poly
    return record([a], out, lambda g: [d * g])


def clamp(a: Tensor, lo: float, hi: float) -> Tensor:
    """np.clip's values without its wrapper; the mask is built only to record."""
    a = tensor(a)
    out = np.minimum(np.maximum(a.data, lo), hi)
    if not (_STATE.recording and a.requires_grad):
        return Tensor(out)
    mask = (a.data >= lo) & (a.data <= hi)
    return record([a], out, lambda g: [g * mask])


def mul_rowvec(a: Tensor, v: Tensor) -> Tensor:
    """a[n, m] * v[m] broadcast over rows (per-channel gates)."""
    a, v = tensor(a), tensor(v)
    if a.data.ndim != 2 or v.data.ndim != 1 or a.shape[1] != v.shape[0]:
        raise ShapeError(f"mul_rowvec: {a.shape} * {v.shape}")
    vd = v.data[None, :] if a.requires_grad else None
    ad = a.data if v.requires_grad else None
    return record(
        [a, v],
        a.data * v.data[None, :],
        lambda g: [None if vd is None else g * vd, None if ad is None else (g * ad).sum(axis=0)],
    )


# ---------------------------------------------------------------------------
# Fused numeric ops


def l2_normalize(a: Tensor, axis: int = -1, eps: float = 1e-12) -> Tensor:
    """Unit-normalize slices along `axis`; norms below eps divide by eps instead
    (the mask of those is built only when the op records)."""
    a = tensor(a)
    norm = np.sqrt(np.add.reduce(a.data**2, axis=axis, keepdims=True))
    denom = np.maximum(norm, eps)
    out = a.data / denom
    if not (_STATE.recording and a.requires_grad):
        return Tensor(out)
    small = norm < eps

    def grad_fn(g):
        # Regular branch: d(x/|x|) = (g - out * <g, out>) / |x|.
        dot = (g * out).sum(axis=axis, keepdims=True)
        reg = (g - out * dot) / denom
        # Clamped branch: constant denominator eps.
        return [np.where(small, g / denom, reg)]

    return record([a], out, grad_fn)


def count_cross_entropy(logits: Tensor, counts) -> Tensor:
    """Mean cross-entropy of items grouped by row: `counts[c, k]` items of
    row c carry label k. With n_c = sum_k counts[c, k] and N = sum_c n_c,

        loss = sum_c (n_c logZ_c - sum_k counts[c, k] x[c, k]) / N,
        dloss/dx[c] = (n_c softmax(x[c]) - counts[c]) / N,

    the mean per-item cross-entropy with row c repeated once per item. The
    pipeline's main loss uses it on decode-head cells with per-cell pixel
    label counts: nearest upsampling copies a cell's logits to each of its
    pixels, so this equals the per-pixel mean. The auxiliary loss uses it
    on score-map cells with one-hot rows, one item per cell.
    """
    logits = tensor(logits)
    w = np.asarray(counts, dtype=np.float64)
    if logits.data.ndim != 2 or w.shape != logits.shape:
        raise ShapeError(f"count_cross_entropy: logits {logits.shape}, counts {w.shape}")
    if np.any(w < 0):
        raise ContractError("count_cross_entropy counts must be non-negative")
    total = float(w.sum())
    if total <= 0:
        raise ContractError("count_cross_entropy needs at least one counted item")
    x = logits.data
    m = x.max(axis=1, keepdims=True)
    e = x - m
    logz = m + np.log(np.exp(e, out=e).sum(axis=1, keepdims=True))
    # summed as counts * -log p: every term is non-negative, so nothing cancels
    loss = float((w * (logz - x)).sum() / total)
    n = w.sum(axis=1, keepdims=True)

    def grad_fn(g):
        p = x - logz
        np.exp(p, out=p)
        p *= n
        p -= w
        p *= g / total
        return [p]

    return record([logits], np.float64(loss), grad_fn)


def bce_with_logits(logits: Tensor, targets) -> Tensor:
    """Mean stable binary cross-entropy over all entries; targets must be 0/1."""
    logits = tensor(logits)
    t = targets.data if isinstance(targets, Tensor) else np.asarray(targets, dtype=np.float64)
    if t.shape != logits.shape:
        raise ShapeError(f"targets {t.shape} vs logits {logits.shape}")
    if not np.all((t == 0.0) | (t == 1.0)):
        raise ContractError("bce_with_logits targets must be binary")
    x = logits.data
    # max(x,0) - x*t + log(1 + exp(-|x|))
    loss = float((np.maximum(x, 0.0) - x * t + np.log1p(np.exp(-np.abs(x)))).mean())
    count = x.size

    def grad_fn(g):
        sig = np.where(x >= 0, 1.0 / (1.0 + np.exp(-x)), np.exp(x) / (1.0 + np.exp(x)))
        return [g * (sig - t) / count, None]

    return record([logits, tensor(t)], np.float64(loss), grad_fn)


# ---------------------------------------------------------------------------
# Backward pass


def backward(loss: Tensor):
    """Populate `.grad` on every requires_grad leaf reachable from `loss`.

    Walks the active tape in reverse, keeping the gradient of each node's
    output until that node runs; repeated calls accumulate.
    """
    if loss.data.size != 1:
        raise ContractError(f"backward needs a scalar loss, got shape {loss.shape}")

    def deposit(leaf: Tensor, g):
        if leaf.requires_grad:
            if leaf.grad is None:
                leaf.grad = np.zeros_like(leaf.data)
            leaf.grad += np.asarray(g, dtype=np.float64).reshape(leaf.data.shape)

    if loss.is_leaf:
        # A bare leaf scalar: nothing recorded downstream of it.
        deposit(loss, np.ones_like(loss.data))
        return

    grads: dict[_Node, np.ndarray] = {loss.node: np.ones_like(loss.data)}
    for node in reversed(active_tape()):
        g_out = grads.pop(node, None)
        if g_out is None:
            continue
        for src, g in zip(node.sources, node.grad_fn(g_out)):
            if g is None or src is None:
                continue
            if isinstance(src, Tensor):
                deposit(src, g)
                continue
            g = np.asarray(g, dtype=np.float64).reshape(src.shape)
            held = grads.get(src)
            grads[src] = g if held is None else held + g


# ---------------------------------------------------------------------------
# Finite-difference oracle


@dataclass
class GradCheckReport:
    """Outcome of comparing analytic gradients to central differences;
    `name` labels the check in a suite."""

    max_rel_err: float
    tol: float = 1e-5
    name: str = ""

    @property
    def passed(self) -> bool:
        return self.max_rel_err < self.tol


def grad_check(f, xs, step: float = 1e-5, tol: float = 1e-5) -> GradCheckReport:
    """Check the analytic gradient of scalar-valued `f` at `xs`.

    `xs` is one tensor or a sequence; every element of every tensor is
    perturbed by +/- step and the centered difference is compared against
    the gradient the tape produces. The two paths share no code: the
    numeric side only ever runs forward evaluations.
    """
    if isinstance(xs, Tensor):
        xs = [xs]
    xs = list(xs)
    for x in xs:
        x.requires_grad = True
        x.grad = None

    with fresh_tape():
        out = f(*xs)
        if out.data.size != 1:
            raise ContractError("grad_check requires a scalar-valued function")
        backward(out)
    analytic = [
        np.zeros_like(x.data) if x.grad is None else np.array(x.grad) for x in xs
    ]
    for x in xs:
        x.grad = None

    def eval_f() -> float:
        with fresh_tape(), no_grad():
            return f(*xs).item()

    max_err = 0.0
    for xi, x in enumerate(xs):
        numeric = np.zeros_like(x.data)
        flat = x.data.reshape(-1)
        nflat = numeric.reshape(-1)
        for j in range(flat.size):
            orig = flat[j]
            flat[j] = orig + step
            fp = eval_f()
            flat[j] = orig - step
            fm = eval_f()
            flat[j] = orig
            nflat[j] = (fp - fm) / (2.0 * step)
        denom = np.maximum(1.0, np.maximum(np.abs(analytic[xi]), np.abs(numeric)))
        err = float(np.max(np.abs(analytic[xi] - numeric) / denom)) if flat.size else 0.0
        max_err = max(max_err, err)
    return GradCheckReport(max_rel_err=max_err, tol=tol)


# ---------------------------------------------------------------------------
# DCT1 dump format: magic, u32 LE rank, rank x u32 dims, f64 LE payload.
# Both directions move the payload between the file and the array's own
# buffer: a write makes no copy of a contiguous float64 array, a read fills
# the returned array in place.


def write_dct1(path, arr):
    arr = arr.data if isinstance(arr, Tensor) else np.asarray(arr)
    # the header comes from arr itself: ascontiguousarray turns 0-d into 1-d
    header = struct.pack(f"<4sI{arr.ndim}I", b"DCT1", arr.ndim, *arr.shape)
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(np.ascontiguousarray(arr, dtype="<f8"))


def read_dct1(path) -> np.ndarray:
    """Read a DCT1 dump; the header must account for every byte of the file.
    Every error names the file."""
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        magic = fh.read(4)
        if magic != b"DCT1":
            raise ValueError(f"{path}: bad magic {magic!r}, expected DCT1")
        if size < 8:
            raise ValueError(f"{path}: truncated DCT1 header: {size} bytes, no rank")
        (rank,) = struct.unpack("<I", fh.read(4))
        if 8 + 4 * rank > size:
            raise ValueError(f"{path}: truncated DCT1 header: rank {rank} needs "
                             f"{8 + 4 * rank} bytes, file has {size}")
        dims = list(struct.unpack(f"<{rank}I", fh.read(4 * rank)))
        expected = 8 + 4 * rank + 8 * math.prod(dims)
        if expected > size:
            raise ValueError(f"{path}: truncated DCT1 payload: dims {dims} need {expected} "
                             f"bytes, file has {size}")
        if expected < size:
            raise ValueError(f"{path}: {size - expected} trailing bytes after the DCT1 payload "
                             f"of dims {dims}")
        flat = np.empty(math.prod(dims), dtype="<f8")
        got = fh.readinto(flat)
        if got != flat.nbytes:
            raise ValueError(f"{path}: short DCT1 read: {got} of {flat.nbytes} payload bytes")
    return flat.astype(np.float64, copy=False).reshape(dims)
