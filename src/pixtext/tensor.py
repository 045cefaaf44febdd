"""Dense float64 tensors with tape-based reverse-mode differentiation.

Every downstream module records onto the active tape through the public
ops here (or through :func:`record` for fused ops defined elsewhere).
Shapes are strict: elementwise ops require identical shapes, the only
implicit broadcast is Python-scalar against tensor. Explicit row-vector
broadcasts go through `add_rowvec` / `mul_rowvec` so each gradient rule
stays auditable.
"""

from __future__ import annotations

import math
import os
import struct
import threading
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "Tensor",
    "Tape",
    "tensor",
    "record",
    "active_tape",
    "reset_tape",
    "fresh_tape",
    "no_grad",
    "add",
    "sub",
    "mul",
    "div",
    "neg",
    "matmul",
    "block_matmul_t",
    "linear",
    "transpose",
    "concat",
    "stack",
    "narrow",
    "take",
    "gather_flat",
    "tsum",
    "mean_rows",
    "exp",
    "log",
    "sqrt",
    "tanh",
    "gelu",
    "clamp",
    "add_rowvec",
    "mul_rowvec",
    "softmax",
    "l2_normalize",
    "cross_entropy",
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


class Tensor:
    """N-d float64 array plus an optional gradient buffer.

    Data is logically immutable once produced by an op; only the trainer
    mutates `.data` of leaf parameters between steps, and only `backward`
    touches `.grad`.
    """

    __slots__ = ("data", "requires_grad", "grad", "is_leaf")

    def __init__(self, data, requires_grad: bool = False):
        arr = np.asarray(data, dtype=np.float64)
        self.data = arr
        self.requires_grad = bool(requires_grad)
        self.grad = None
        self.is_leaf = True

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

    def zero_grad(self):
        self.grad = None

    def __repr__(self):
        flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={tuple(self.shape)}{flag})"

    # Operator sugar; all routed through the strict ops below.
    def __add__(self, other):
        return add(self, other)

    def __radd__(self, other):
        return add(self, other)

    def __sub__(self, other):
        return sub(self, other)

    def __rsub__(self, other):
        return sub(tensor(other), self)

    def __mul__(self, other):
        return mul(self, other)

    def __rmul__(self, other):
        return mul(self, other)

    def __truediv__(self, other):
        return div(self, other)

    def __matmul__(self, other):
        return matmul(self, other)

    def __neg__(self):
        return neg(self)


def tensor(data, requires_grad: bool = False) -> Tensor:
    if isinstance(data, Tensor):
        return data
    return Tensor(data, requires_grad=requires_grad)


# ---------------------------------------------------------------------------
# Tape machinery


class _Node:
    __slots__ = ("inputs", "output", "grad_fn")

    def __init__(self, inputs, output, grad_fn):
        self.inputs = inputs
        self.output = output
        self.grad_fn = grad_fn


class Tape:
    """Ordered record of ops; execution order is topological by construction."""

    def __init__(self):
        self.nodes: list[_Node] = []

    def reset(self):
        self.nodes.clear()

    def __len__(self):
        return len(self.nodes)


class _TapeState(threading.local):
    def __init__(self):
        self.stack = [Tape()]
        self.recording = True


_STATE = _TapeState()


def active_tape() -> Tape:
    return _STATE.stack[-1]


def reset_tape():
    """Drop every recorded node on the active tape. Called by the trainer each step."""
    active_tape().reset()


@contextmanager
def fresh_tape():
    """Run a block on an isolated tape (used by grad_check and tests)."""
    _STATE.stack.append(Tape())
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


def record(inputs, out_data: np.ndarray, grad_fn) -> Tensor:
    """Create the output tensor of an op and register its gradient rule.

    `grad_fn(g_out)` must return one array (or None) per input, in order.
    Fused ops outside this module (layer_norm lives with the nn blocks)
    use this same entry point so everything shares one tape.
    """
    out = Tensor(out_data)
    needs = any(isinstance(t, Tensor) and t.requires_grad for t in inputs)
    if needs and _STATE.recording:
        out.requires_grad = True
        out.is_leaf = False
        active_tape().nodes.append(_Node(tuple(inputs), out, grad_fn))
    return out


# ---------------------------------------------------------------------------
# Elementwise and structural ops


def _as_operands(a, b, opname):
    """Strict shape check: equal shapes, or one side a Python scalar."""
    if isinstance(b, (int, float)):
        return a, float(b), True
    b = tensor(b)
    if a.shape != b.shape:
        raise ShapeError(f"{opname}: shapes {a.shape} and {b.shape} differ")
    return a, b, False


def add(a: Tensor, b) -> Tensor:
    a = tensor(a)
    a, b, scalar = _as_operands(a, b, "add")
    if scalar:
        return record([a], a.data + b, lambda g: [g])
    return record([a, b], a.data + b.data, lambda g: [g, g])


def sub(a: Tensor, b) -> Tensor:
    a = tensor(a)
    a, b, scalar = _as_operands(a, b, "sub")
    if scalar:
        return record([a], a.data - b, lambda g: [g])
    return record([a, b], a.data - b.data, lambda g: [g, -g])


def mul(a: Tensor, b) -> Tensor:
    a = tensor(a)
    a, b, scalar = _as_operands(a, b, "mul")
    if scalar:
        return record([a], a.data * b, lambda g: [g * b])
    return record([a, b], a.data * b.data, lambda g: [g * b.data, g * a.data])


def div(a: Tensor, b) -> Tensor:
    a = tensor(a)
    a, b, scalar = _as_operands(a, b, "div")
    if scalar:
        inv = 1.0 / b
        return record([a], a.data * inv, lambda g: [g * inv])
    out = a.data / b.data
    return record(
        [a, b], out, lambda g: [g / b.data, -g * out / b.data]
    )


def neg(a: Tensor) -> Tensor:
    a = tensor(a)
    return record([a], -a.data, lambda g: [-g])


def matmul(a: Tensor, b: Tensor) -> Tensor:
    a, b = tensor(a), tensor(b)
    if a.data.ndim != 2 or b.data.ndim != 2:
        raise ShapeError(f"matmul needs 2-d operands, got {a.shape} and {b.shape}")
    if a.shape[1] != b.shape[0]:
        raise ShapeError(f"matmul: inner dims differ, {a.shape} x {b.shape}")
    ad, bd = a.data, b.data
    return record(
        [a, b], ad @ bd, lambda g: [g @ bd.T, ad.T @ g]
    )


def block_matmul_t(a: Tensor, b: Tensor, n: int) -> Tensor:
    """Blockwise a_i b_i^T over n equal row blocks; one tape node.

    a is (n*m, d) and b is (n*k, d); block i of the (n*m, k) output is
    a_i @ b_i^T. With n == 1 this is matmul(a, transpose(b)).
    """
    a, b = tensor(a), tensor(b)
    if a.data.ndim != 2 or b.data.ndim != 2 or a.shape[1] != b.shape[1]:
        raise ShapeError(f"block_matmul_t: {a.shape} x {b.shape}^T")
    if n < 1 or a.shape[0] % n or b.shape[0] % n:
        raise ShapeError(f"block_matmul_t: {a.shape[0]} and {b.shape[0]} rows in {n} blocks")
    m, k, d = a.shape[0] // n, b.shape[0] // n, a.shape[1]
    a3, b3 = a.data.reshape(n, m, d), b.data.reshape(n, k, d)

    def grad_fn(g):
        g3 = g.reshape(n, m, k)
        return [
            np.matmul(g3, b3).reshape(n * m, d),
            np.matmul(g3.transpose(0, 2, 1), a3).reshape(n * k, d),
        ]

    return record([a, b], np.matmul(a3, b3.transpose(0, 2, 1)).reshape(n * m, k), grad_fn)


def linear(x: Tensor, weight: Tensor, bias: Tensor) -> Tensor:
    """Fused x W^T + b; one tape node instead of three.

    weight is (out, in), bias (out,). Gradients: dX = g W, dW = g^T X,
    db = column sums of g.
    """
    x, weight, bias = tensor(x), tensor(weight), tensor(bias)
    if x.data.ndim != 2 or x.shape[1] != weight.shape[1] or bias.shape != (weight.shape[0],):
        raise ShapeError(f"linear: x {x.shape}, weight {weight.shape}, bias {bias.shape}")
    xd, wd = x.data, weight.data
    out = xd @ wd.T + bias.data[None, :]
    return record(
        [x, weight, bias], out, lambda g: [g @ wd, g.T @ xd, g.sum(axis=0)]
    )


def transpose(a: Tensor) -> Tensor:
    a = tensor(a)
    if a.data.ndim != 2:
        raise ShapeError(f"transpose needs a 2-d tensor, got {a.shape}")
    return record([a], a.data.T.copy(), lambda g: [g.T])


def concat(parts, axis: int = 0) -> Tensor:
    parts = [tensor(p) for p in parts]
    if not parts:
        raise ShapeError("concat of empty list")
    sizes = [p.shape[axis] for p in parts]
    out = np.concatenate([p.data for p in parts], axis=axis)
    offsets = np.cumsum([0] + sizes)

    def grad_fn(g):
        return [
            np.take(g, np.arange(offsets[i], offsets[i + 1]), axis=axis)
            for i in range(len(parts))
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
    return record(parts, np.stack([p.data for p in parts]), lambda g: list(g))


def narrow(a: Tensor, axis: int, start: int, stop: int) -> Tensor:
    a = tensor(a)
    n = a.shape[axis]
    if not (0 <= start < stop <= n):
        raise ShapeError(f"narrow [{start}:{stop}] out of range for axis size {n}")
    idx = [slice(None)] * a.data.ndim
    idx[axis] = slice(start, stop)
    idx = tuple(idx)

    def grad_fn(g):
        full = np.zeros_like(a.data)
        full[idx] = g
        return [full]

    return record([a], a.data[idx].copy(), grad_fn)


def take(a: Tensor, indices, axis: int = 0) -> Tensor:
    """Row gather: out[i] = a[indices[i]] (axis 0 of a 2-d tensor)."""
    a = tensor(a)
    idx = np.asarray(indices, dtype=np.intp)
    if idx.ndim != 1:
        raise ShapeError("take expects a flat index list")
    if axis != 0 or a.data.ndim != 2:
        raise ShapeError("take supports axis 0 of 2-d tensors")
    if idx.size and (idx.min() < 0 or idx.max() >= a.shape[0]):
        raise IndexError(f"take index out of range for {a.shape[0]} rows")

    def grad_fn(g):
        full = np.zeros_like(a.data)
        np.add.at(full, idx, g)
        return [full]

    return record([a], a.data[idx].copy(), grad_fn)


def gather_flat(a: Tensor, indices) -> Tensor:
    """Gather from the flattened tensor with an arbitrary-shape index array.

    Used to patchify images: out.shape == indices.shape, out = a.flat[indices].
    """
    a = tensor(a)
    idx = np.asarray(indices, dtype=np.intp)
    flat = a.data.reshape(-1)
    if idx.size and (idx.min() < 0 or idx.max() >= flat.size):
        raise IndexError("gather_flat index out of range")

    def grad_fn(g):
        full = np.zeros(flat.size, dtype=np.float64)
        np.add.at(full, idx.reshape(-1), g.reshape(-1))
        return [full.reshape(a.data.shape)]

    return record([a], flat[idx].copy(), grad_fn)


def tsum(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    a = tensor(a)
    out = a.data.sum(axis=axis, keepdims=keepdims)

    def grad_fn(g):
        if axis is None:
            return [np.broadcast_to(g, a.data.shape).copy()]
        gg = g if keepdims else np.expand_dims(g, axis)
        return [np.broadcast_to(gg, a.data.shape).copy()]

    return record([a], out, grad_fn)


def mean_rows(a: Tensor, blocks: int = 1) -> Tensor:
    """Mean over the rows of each of `blocks` equal row blocks of a 2-d
    tensor: (blocks * m, C) -> (blocks, C); one tape node."""
    a = tensor(a)
    if a.data.ndim != 2 or blocks < 1 or a.shape[0] % blocks or a.shape[0] == 0:
        raise ShapeError(f"mean_rows: {a.shape} in {blocks} blocks")
    m = a.shape[0] // blocks
    inv = 1.0 / m
    out = a.data.reshape(blocks, m, a.shape[1]).sum(axis=1) * inv
    return record([a], out, lambda g: [np.repeat(g * inv, m, axis=0)])


def exp(a: Tensor) -> Tensor:
    a = tensor(a)
    out = np.exp(a.data)
    return record([a], out, lambda g: [g * out])


def log(a: Tensor) -> Tensor:
    a = tensor(a)
    if np.any(a.data <= 0):
        raise ContractError("log domain: inputs must be positive")
    return record([a], np.log(a.data), lambda g: [g / a.data])


def sqrt(a: Tensor) -> Tensor:
    a = tensor(a)
    if np.any(a.data < 0):
        raise ContractError("sqrt domain: inputs must be non-negative")
    out = np.sqrt(a.data)
    return record([a], out, lambda g: [g * 0.5 / out])


def tanh(a: Tensor) -> Tensor:
    a = tensor(a)
    out = np.tanh(a.data)
    return record([a], out, lambda g: [g * (1.0 - out * out)])


_GELU_C = np.sqrt(2.0 / np.pi)
_GELU_A = 0.044715


def gelu(a: Tensor) -> Tensor:
    """Smooth Gaussian-error-style activation (tanh form)."""
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

    def grad_fn(g):
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
        d *= g
        return [d]

    return record([a], out, grad_fn)


def clamp(a: Tensor, lo: float, hi: float) -> Tensor:
    a = tensor(a)
    out = np.clip(a.data, lo, hi)
    mask = (a.data >= lo) & (a.data <= hi)
    return record([a], out, lambda g: [g * mask])


def add_rowvec(a: Tensor, v: Tensor) -> Tensor:
    """a[n, m] + v[m] broadcast over rows; the one sanctioned row broadcast."""
    a, v = tensor(a), tensor(v)
    if a.data.ndim != 2 or v.data.ndim != 1 or a.shape[1] != v.shape[0]:
        raise ShapeError(f"add_rowvec: {a.shape} + {v.shape}")
    return record([a, v], a.data + v.data[None, :], lambda g: [g, g.sum(axis=0)])


def mul_rowvec(a: Tensor, v: Tensor) -> Tensor:
    """a[n, m] * v[m] broadcast over rows (per-channel gates)."""
    a, v = tensor(a), tensor(v)
    if a.data.ndim != 2 or v.data.ndim != 1 or a.shape[1] != v.shape[0]:
        raise ShapeError(f"mul_rowvec: {a.shape} * {v.shape}")
    return record(
        [a, v],
        a.data * v.data[None, :],
        lambda g: [g * v.data[None, :], (g * a.data).sum(axis=0)],
    )


# ---------------------------------------------------------------------------
# Fused numeric ops


def softmax(a: Tensor, axis: int = -1) -> Tensor:
    a = tensor(a)
    if not np.all(np.isfinite(a.data)):
        raise ContractError("softmax requires finite input")
    shifted = a.data - a.data.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    out = e / e.sum(axis=axis, keepdims=True)

    def grad_fn(g):
        dot = (g * out).sum(axis=axis, keepdims=True)
        return [(g - dot) * out]

    return record([a], out, grad_fn)


def l2_normalize(a: Tensor, axis: int = -1, eps: float = 1e-12) -> Tensor:
    """Unit-normalize slices along `axis`; norms below eps divide by eps instead."""
    a = tensor(a)
    norm = np.sqrt((a.data**2).sum(axis=axis, keepdims=True))
    denom = np.maximum(norm, eps)
    out = a.data / denom
    small = norm < eps

    def grad_fn(g):
        # Regular branch: d(x/|x|) = (g - out * <g, out>) / |x|.
        dot = (g * out).sum(axis=axis, keepdims=True)
        reg = (g - out * dot) / denom
        # Clamped branch: constant denominator eps.
        return [np.where(small, g / denom, reg)]

    return record([a], out, grad_fn)


def cross_entropy(logits: Tensor, labels) -> Tensor:
    """Mean negative log-probability of the true class; rows are items."""
    logits = tensor(logits)
    y = np.asarray(labels, dtype=np.intp)
    if logits.data.ndim != 2:
        raise ShapeError(f"cross_entropy expects n x K logits, got {logits.shape}")
    n, k = logits.shape
    if y.shape != (n,):
        raise ShapeError(f"labels shape {y.shape} does not match {n} rows")
    if y.size and (y.min() < 0 or y.max() >= k):
        raise IndexError(f"label out of range [0, {k})")
    x = logits.data
    m = x.max(axis=1, keepdims=True)
    e = x - m
    logz = m + np.log(np.exp(e, out=e).sum(axis=1, keepdims=True))
    loss = float((logz[:, 0] - x[np.arange(n), y]).mean())

    def grad_fn(g):
        # in place: a batch's logits are the largest arrays of a step
        p = x - logz
        np.exp(p, out=p)
        p[np.arange(n), y] -= 1.0
        p *= g
        p /= n
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

    Walks the active tape in reverse; repeated calls accumulate.
    """
    if loss.data.size != 1:
        raise ContractError(f"backward needs a scalar loss, got shape {loss.shape}")
    tape = active_tape()
    grads: dict[int, np.ndarray] = {id(loss): np.ones_like(loss.data)}

    def deposit(t: Tensor, g: np.ndarray):
        if t.is_leaf:
            if t.grad is None:
                t.grad = np.zeros_like(t.data)
            t.grad += g
        else:
            key = id(t)
            if key in grads:
                grads[key] = grads[key] + g
            else:
                grads[key] = g

    if loss.is_leaf:
        # A bare leaf scalar: nothing recorded downstream of it.
        if loss.requires_grad:
            deposit(loss, np.ones_like(loss.data))
        return

    for node in reversed(tape.nodes):
        g_out = grads.pop(id(node.output), None)
        if g_out is None:
            continue
        for inp, g in zip(node.inputs, node.grad_fn(g_out)):
            if g is None or not isinstance(inp, Tensor) or not inp.requires_grad:
                continue
            deposit(inp, np.asarray(g, dtype=np.float64).reshape(inp.data.shape))


# ---------------------------------------------------------------------------
# Finite-difference oracle


@dataclass
class GradCheckReport:
    """Outcome of comparing analytic gradients to central differences."""

    max_rel_err: float
    per_input: list = field(default_factory=list)
    tol: float = 1e-5

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
    per_input = []
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
        per_input.append(err)
        max_err = max(max_err, err)
    return GradCheckReport(max_rel_err=max_err, per_input=per_input, tol=tol)


# ---------------------------------------------------------------------------
# DCT1 dump format: magic, u32 LE rank, rank x u32 dims, f64 LE payload.


def write_dct1(path, arr):
    arr = arr.data if isinstance(arr, Tensor) else np.asarray(arr, dtype=np.float64)
    with open(path, "wb") as fh:
        fh.write(b"DCT1")
        fh.write(struct.pack("<I", arr.ndim))
        for dim in arr.shape:
            fh.write(struct.pack("<I", dim))
        fh.write(arr.astype("<f8").tobytes(order="C"))


def read_dct1(path) -> np.ndarray:
    """Read a DCT1 dump; the header must account for every byte of the file."""
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        magic = fh.read(4)
        if magic != b"DCT1":
            raise ValueError(f"bad magic {magic!r}, expected DCT1")
        if size < 8:
            raise ValueError(f"truncated DCT1 header: {size} bytes, no rank")
        (rank,) = struct.unpack("<I", fh.read(4))
        if 8 + 4 * rank > size:
            raise ValueError(f"truncated DCT1 header: rank {rank} needs {8 + 4 * rank} bytes, "
                             f"file has {size}")
        dims = list(struct.unpack(f"<{rank}I", fh.read(4 * rank)))
        expected = 8 + 4 * rank + 8 * math.prod(dims)
        if expected > size:
            raise ValueError(f"truncated DCT1 payload: dims {dims} need {expected} bytes, "
                             f"file has {size}")
        if expected < size:
            raise ValueError(f"{size - expected} trailing bytes after the DCT1 payload "
                             f"of dims {dims}")
        arr = np.frombuffer(fh.read(expected - 8 - 4 * rank), dtype="<f8").astype(np.float64)
    return arr.reshape(dims)
