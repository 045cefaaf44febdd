"""Span tracing for the traced benchmark run.

The tracer wraps public callables of every pixtext layer from outside the
package: nothing under ``src/`` records spans itself. A wrapped function is
replaced in every loaded pixtext module that holds it, because a name
brought in with ``from .x import y`` is a separate binding in the importing
module and a call through it would otherwise escape its span (for example
``harness.backward``, ``pipeline.compute_score_map``, ``datagen.write_dct1``).

Spans live in memory as ``(name, start, end, parent, run)`` and are written
out once, when the run ends. ``run`` identifies the benchmark operation the
span belongs to (one set-up, one ``harness.train`` call, one ``predict``).
Kernel counts (FLOPs, bytes) are computed from operand shapes, not measured.
"""

from __future__ import annotations

import gzip
import json
import math
import sys
import time
from collections import defaultdict
from dataclasses import dataclass

import numpy as np
from pixtext import tensor

F64 = 8


def _linear_counts(args, out):
    x, weight = args[1], args[0].weight
    n, d_in = x.shape
    d_out = weight.shape[0]
    return {"flops": 2 * n * d_in * d_out + n * d_out}


def _attention_counts(args, out):
    q, k, _v, heads = args[:4]
    nq, d = q.shape
    nk = k.shape[0]
    # QK^T and AV are 2*nq*nk*d each; scale plus a five-pass softmax per head.
    flops = 4 * nq * nk * d + 6 * nq * nk * heads
    # q, k, v read once; output and the saved attention weights written once.
    moved = F64 * (2 * nq * d + 2 * nk * d + heads * nq * nk)
    return {"flops": flops, "bytes": moved}


def _dct1_bytes(arr):
    return F64 * arr.size + 4 + 4 * (1 + arr.ndim)


def _dct1_write_counts(args, out):
    arr = args[1]
    arr = arr.data if isinstance(arr, tensor.Tensor) else np.asarray(arr)
    return {"bytes": _dct1_bytes(arr)}


def _dct1_read_counts(args, out):
    return {"bytes": _dct1_bytes(out)}


def _tape_counts(args, out):
    return {"nodes": len(tensor.active_tape())}


ALL = None  # expected on every workload


@dataclass(frozen=True)
class Target:
    """One wrapped callable: ``attr`` is ``func`` or ``Class.method`` in ``module``."""

    module: str
    attr: str
    span: str
    counts: object = None
    expect: frozenset | None = ALL


TARGETS = (
    Target("tensor", "backward", "tensor.backward", _tape_counts),
    Target("tensor", "write_dct1", "tensor.dct1.write", _dct1_write_counts),
    Target("tensor", "read_dct1", "tensor.dct1.read", _dct1_read_counts),
    Target("nn", "Linear.__call__", "nn.linear", _linear_counts),
    Target("nn", "layer_norm", "nn.layer_norm"),
    Target("nn", "attention_heads", "nn.attention_heads", _attention_counts),
    Target("encoders", "ToyImageEncoder.encode", "encoders.image.encode"),
    Target("encoders", "ToyTextEncoder.encode", "encoders.text.encode"),
    Target("prompting", "pre_model_prompt", "prompting.pre", expect=frozenset({"train-pre"})),
    Target("prompting", "post_model_prompt", "prompting.post",
           expect=frozenset({"train-post", "infer-cached"})),
    Target("prompting", "TextPath.base_embeddings", "prompting.base_embeddings",
           expect=frozenset({"train-post", "infer-cached"})),
    Target("matching", "compute_score_map", "matching.score_map"),
    Target("matching", "seg_aux_loss", "matching.aux_loss"),
    Target("pipeline", "DensePredPipeline.forward", "pipeline.forward"),
    Target("pipeline", "DensePredPipeline.predict", "pipeline.predict"),
    Target("pipeline", "DecodeHead.__call__", "pipeline.head"),
    Target("pipeline", "save_checkpoint", "pipeline.checkpoint.save"),
    Target("pipeline", "load_checkpoint", "pipeline.checkpoint.load"),
    Target("harness", "AdamW.step", "harness.adamw"),
    Target("harness", "evaluate_miou", "harness.evaluate"),
    Target("harness", "train", "harness.train"),
    Target("datagen", "generate", "datagen.generate"),
    Target("datagen", "save_dataset", "datagen.save"),
    Target("datagen", "load_dataset", "datagen.load"),
)


class Tracer:
    """Installs span-recording wrappers and keeps the spans in memory."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.spans: list = []  # (name id, start, end, parent index, run id)
        self.counts: dict[int, dict] = {}  # span index -> computed counts
        self.runs: list[str] = []  # run id -> kind
        self.run = -1
        self._stack: list[int] = []
        self._undo: list = []

    # -- runs -------------------------------------------------------------

    def begin_run(self, kind: str) -> int:
        self.runs.append(kind)
        self.run = len(self.runs) - 1
        return self.run

    # -- wrapping ---------------------------------------------------------

    def _wrap(self, target: Target, fn):
        name_id = self._name_ids.setdefault(target.span, len(self.names))
        if name_id == len(self.names):
            self.names.append(target.span)
        spans, stack, counts, measure = self.spans, self._stack, self.counts, target.counts
        clock = time.perf_counter

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name_id, start, end, parent, self.run)
            if measure is not None:
                counts[idx] = measure(args, out)
            return out

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", target.span)
        return traced

    def install(self):
        """Wrap every target wherever a loaded pixtext module binds it."""
        if self._undo:
            raise RuntimeError("tracer already installed")
        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == "pixtext" or n.startswith("pixtext."))]
        for target in TARGETS:
            owner = sys.modules[f"pixtext.{target.module}"]
            if "." in target.attr:
                cls_name, meth = target.attr.split(".")
                cls = getattr(owner, cls_name)
                orig = cls.__dict__[meth]
                setattr(cls, meth, self._wrap(target, orig))
                self._undo.append((cls, meth, orig))
                continue
            orig = getattr(owner, target.attr)
            wrapped = self._wrap(target, orig)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is orig:
                        setattr(mod, attr, wrapped)
                        self._undo.append((mod, attr, orig))

    def uninstall(self):
        for holder, attr, orig in reversed(self._undo):
            setattr(holder, attr, orig)
        self._undo.clear()

    # -- analysis ---------------------------------------------------------

    def aggregate(self):
        """Per (run kind, after-steps flag, span name): calls, total ms, self
        ms and summed counts. A span is after the steps when it starts after
        the run's last optimizer step ends (text caching and evaluation at the
        end of a train call). Self time is the span's duration minus the time
        its child spans cover."""
        step_id = self._name_ids.get("harness.adamw", -2)
        last_step = {}
        child_ms = [0.0] * len(self.spans)
        for name_id, start, end, parent, run in self.spans:
            if name_id == step_id:
                last_step[run] = max(end, last_step.get(run, end))
            if parent >= 0:
                child_ms[parent] += (end - start) * 1e3
        agg = defaultdict(lambda: {"calls": 0, "ms": 0.0, "self_ms": 0.0})
        for idx, (name_id, start, end, _parent, run) in enumerate(self.spans):
            after = start > last_step.get(run, math.inf)
            entry = agg[(self.runs[run], after, self.names[name_id])]
            ms = (end - start) * 1e3
            entry["calls"] += 1
            entry["ms"] += ms
            entry["self_ms"] += ms - child_ms[idx]
            for key, value in self.counts.get(idx, {}).items():
                entry[key] = entry.get(key, 0) + value
        return agg

    def missing(self, workload: str) -> list[str]:
        """Span names expected on this workload that saw no call."""
        seen = {self.names[s[0]] for s in self.spans}
        return [t.span for t in TARGETS
                if (t.expect is ALL or workload in t.expect) and t.span not in seen]

    def self_time_table(self) -> list[dict]:
        rows = defaultdict(lambda: {"calls": 0, "ms": 0.0, "self_ms": 0.0})
        for (_kind, _after, name), entry in self.aggregate().items():
            row = rows[name]
            for key in row:
                row[key] += entry[key]
        return sorted(({"span": n, **r} for n, r in rows.items()),
                      key=lambda r: -r["self_ms"])

    def write(self, path):
        """Write names, runs, spans and counts as gzipped JSON."""
        payload = {
            "fields": ["name", "start_s", "end_s", "parent", "run"],
            "names": self.names,
            "runs": self.runs,
            "spans": self.spans,
            "counts": {str(k): v for k, v in self.counts.items()},
            "self_time": self.self_time_table(),
        }
        with gzip.open(path, "wt") as fh:
            json.dump(payload, fh)
