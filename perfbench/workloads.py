"""The benchmark's workloads: set-up, the measured loop, output checks and
metrics.

Every workload is a closed loop with one caller: the next operation starts
when the previous one has returned. Inputs come from the workload seed only
(task data, stream images, pipeline initialization and batch order), so a
seed reproduces a run's inputs exactly.

* ``train-post``: ``harness.train`` on ``toy_config("post")``, default task,
  32 training images in one full batch, 16 eval images, then a burst of
  ``predict`` calls on the trained (text-cached) pipeline.
* ``train-pre``: the same with ``toy_config("pre")``; prediction re-runs the
  text encoder for every image.
* ``infer-cached``: set-up trains a post-mode pipeline briefly, round-trips it
  through a DCT1 checkpoint and caches its text embeddings; the loop calls
  ``predict`` on a stream of 64x64 images.

Calls into pixtext go through module attributes (``pipeline.save_checkpoint``,
not a name imported here) so the traced run's wrappers see them.
"""

from __future__ import annotations

import hashlib
import math
import resource
import shutil
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
from pixtext import datagen, harness, pipeline

from tracing import Tracer

WORKLOADS = ("train-post", "train-pre", "infer-cached")

END_TO_END = {
    "setup_s": "s",
    "train_images_per_s": "images/s",
    "infer_images_per_s": "images/s",
    "infer_latency_ms_p50": "ms",
    "infer_latency_ms_p95": "ms",
    "miou": "ratio",
    "peak_rss_mb": "MiB",
}

PER_LAYER = {
    "tensor.backward.ms_per_step": "ms",
    "tensor.tape.nodes_per_step": "count",
    "tensor.dct1.read_ms": "ms",
    "tensor.dct1.write_ms": "ms",
    "tensor.dct1.bytes": "bytes",
    "nn.attention_heads.calls": "count",
    "nn.attention_heads.ms": "ms",
    "nn.attention_heads.flops": "flop",
    "nn.attention_heads.flops_per_call": "flop",
    "nn.attention_heads.bytes_per_call": "bytes",
    "nn.linear.calls": "count",
    "nn.linear.ms": "ms",
    "nn.linear.flops": "flop",
    "nn.layer_norm.calls": "count",
    "nn.layer_norm.ms": "ms",
    "encoders.image.encode_ms": "ms",
    "encoders.image.calls_per_step": "count",
    "encoders.text.encode_ms": "ms",
    "encoders.text.sequences_per_step": "count",
    "prompting.pre.self_ms": "ms",
    "prompting.post.self_ms": "ms",
    "prompting.base_embeddings.ms": "ms",
    "matching.score_map.ms": "ms",
    "matching.aux_loss.ms": "ms",
    "pipeline.forward.calls_per_step": "count",
    "pipeline.forward.ms_per_step": "ms",
    "pipeline.head.ms": "ms",
    "pipeline.predict.ms": "ms",
    "pipeline.checkpoint.save_ms": "ms",
    "pipeline.checkpoint.load_ms": "ms",
    "harness.adamw.ms_per_step": "ms",
    "harness.evaluate.ms": "ms",
    "harness.train.steps": "count",
    "harness.train.diverged": "count",
    "datagen.generate_ms": "ms",
    "datagen.save_ms": "ms",
    "datagen.load_ms": "ms",
    "trace.overhead_ms": "ms",
    "trace.overhead_pct": "%",
}

# Per-layer figures computed from operand shapes rather than measured.
COMPUTED = ("tensor.dct1.bytes", "nn.attention_heads.flops", "nn.attention_heads.flops_per_call",
            "nn.attention_heads.bytes_per_call", "nn.linear.flops")

STEPS = 6  # step budget of every timed harness.train call, infer-cached set-up's too
SETUPS = 5  # least set-ups per run; setup_s is their median
STREAM_SEED = 1_000_003  # offset from the workload seed to the stream's data seed
CHECKPOINT_CHECK_IMAGES = 4
LARGE_HW = 64  # side of the infer-cached stream images


@dataclass(frozen=True)
class Scale:
    """Model and data sizes. ``TOY`` is the benchmark; ``MICRO`` keeps the
    smoke test fast."""

    config: object
    n_train: int
    n_eval: int
    n_stream: int  # 32x32 images predicted after each train call
    n_stream_large: int  # LARGE_HW x LARGE_HW images of infer-cached
    setup_seconds: float  # least set-up time per run; short set-ups repeat until it is reached


TOY = Scale(pipeline.toy_config, n_train=32, n_eval=16, n_stream=200, n_stream_large=200,
            setup_seconds=2.0)
MICRO = Scale(pipeline.micro_config, n_train=4, n_eval=2, n_stream=4, n_stream_large=4,
              setup_seconds=0.0)


def large_spec(hw: int) -> datagen.TaskSpec:
    """The default task scaled up to hw x hw (shape sizes scale with it)."""
    base = datagen.default_task()
    f = hw // base.height
    return datagen.TaskSpec(height=hw, width=hw, shape_min_px=base.shape_min_px * f,
                            shape_max_px=base.shape_max_px * f)


def now() -> float:
    return time.perf_counter()


CAL_REF_MS = 10.0  # calibrate() time that defines the reference host speed
CAL_PARTS = 5  # calibrate() times its kernel in this many parts and keeps the median
CAL_EVERY = 16  # predictions between calibrations inside a burst
SETUP_CALS = 3  # calibrations between two set-ups
_CAL = np.random.default_rng(0)
_CAL_X, _CAL_W, _CAL_K = (_CAL.standard_normal(s) for s in ((64, 48), (48, 48), (257, 32)))


def calibrate() -> float:
    """Wall ms of a fixed kernel that shares no code with pixtext: small
    matmuls, elementwise numpy and Python object churn. Its time follows
    the host's speed, which the program under test cannot change. The
    kernel runs in CAL_PARTS equal parts and the median part, times
    CAL_PARTS, is returned, so an interrupt inside one part does not
    count as a slow host."""
    parts = []
    for _ in range(CAL_PARTS):
        t0 = now()
        for _ in range(100 // CAL_PARTS):
            h = np.tanh(_CAL_X @ _CAL_W)
            s = (h * h).sum(axis=1, keepdims=True)
            a = _CAL_K[:64] @ _CAL_K.T
            a = np.exp(a - a.max(axis=1, keepdims=True))
            a /= a.sum(axis=1, keepdims=True)
            _nodes = [(h, s, a, lambda g: g) for _ in range(8)]
        parts.append(now() - t0)
    return statistics.median(parts) * CAL_PARTS * 1e3


@dataclass
class State:
    """What set-up hands to the measured loop."""

    seed: int
    mode: str
    cfg: object
    class_names: list
    train: list
    eval: list
    stream: list
    served: object = None  # infer-cached: reloaded, text-cached pipeline
    setup_train_rate: float | None = None
    setup_report_hash: str | None = None


@dataclass
class Tally:
    """Operations attempted and failed, and the samples one loop collects."""

    attempted: int = 0
    failed: int = 0
    failures: list = field(default_factory=list)
    train_rates: list = field(default_factory=list)
    step_ms: list = field(default_factory=list)
    train_calls: int = 0
    steps: int = 0
    diverged: int = 0
    miou: float | None = None
    text_per_step: float = 0.0
    latencies_ms: list = field(default_factory=list)
    latency_image: list = field(default_factory=list)  # stream index of each latency
    burst_rates: list = field(default_factory=list)
    predictions: int = 0
    # calibrate() times: all of them, and the median that scales each train
    # call, each burst, and each latency.
    calibration_ms: list = field(default_factory=list)
    train_cal: list = field(default_factory=list)
    last_burst_cals: list = field(default_factory=list)
    burst_cal: list = field(default_factory=list)
    latency_cal: list = field(default_factory=list)
    text_sequences_in_predict: int = 0
    last_pipe: object = None

    def fail(self, ops: int, why: str):
        self.failed += ops
        if why not in self.failures:
            self.failures.append(why)


@dataclass
class Expected:
    """Outputs of the first call, which every repeat of it must reproduce:
    predictions by stream index, and the canonical report hash of a train call."""

    predictions: dict = field(default_factory=dict)
    report_hash: str | None = None


def _digest(samples) -> str:
    h = hashlib.sha256()
    for s in samples:
        h.update(s.image.data.tobytes())
        h.update(np.asarray(s.mask, dtype=np.int64).tobytes())
        boxes = [(b.class_id, float(b.x_min), float(b.y_min), float(b.x_max), float(b.y_max))
                 for b in s.boxes]
        h.update(repr(boxes).encode())
    return h.hexdigest()


def setup(workload: str, seed: int, scale: Scale, directory: Path, tracer: Tracer | None):
    """One timed set-up, then its checks (untimed). Returns the state, the
    set-up time, a fingerprint of the data and report that every set-up of
    the seed must reproduce, and the failed checks."""
    if tracer is not None:
        tracer.begin_run("setup")
    start = now()
    spec = datagen.default_task()
    large = workload == "infer-cached"
    stream_spec = large_spec(LARGE_HW) if large else spec
    made = {
        "task": (spec, datagen.generate(spec, scale.n_train + scale.n_eval, seed=seed)),
        "stream": (stream_spec, datagen.generate(
            stream_spec, scale.n_stream_large if large else scale.n_stream,
            seed=seed + STREAM_SEED)),
    }
    loaded = {}
    for key, (sp, samples) in made.items():
        datagen.save_dataset(sp, samples, directory / key)
        loaded[key] = datagen.load_dataset(directory / key)[1]
    mode = "pre" if workload == "train-pre" else "post"
    cfg = scale.config(mode)
    # Timed as part of set-up; train-* builds a fresh pipeline for every train call.
    pipe = pipeline.build_pipeline(cfg, spec.class_names, seed)
    state = State(seed=seed, mode=mode, cfg=cfg, class_names=list(spec.class_names),
                  train=loaded["task"][: scale.n_train], eval=loaded["task"][scale.n_train:],
                  stream=loaded["stream"])
    report = None
    if large:
        t0 = now()
        report = harness.train(pipe, (state.train, state.eval),
                               harness.OptimConfig(steps=STEPS, seed=seed))
        state.setup_train_rate = STEPS * len(state.train) / (now() - t0)
        pipeline.save_checkpoint(pipe, directory / "checkpoint")
        state.served = pipeline.load_checkpoint(directory / "checkpoint")
        state.served.cache_text()
    elapsed = now() - start

    problems = []
    for key, (_sp, samples) in made.items():
        if _digest(samples) != _digest(loaded[key]):
            problems.append(f"{key} dataset differs after the DCT1 round trip")
    fingerprint = _digest(loaded["task"]) + _digest(loaded["stream"])
    if report is not None:
        problems += check_report(report, state, STEPS)
        state.setup_report_hash = hashlib.sha256(report.canonical_json().encode()).hexdigest()
        fingerprint += state.setup_report_hash
        problems += check_checkpoint(pipe, state.served, state.stream)
    return state, elapsed, fingerprint, problems


def check_report(report, state: State, steps: int) -> list[str]:
    """Output checks on one harness.train call."""
    k = len(state.class_names)
    problems = []
    if len(report.loss_series) != steps or not all(map(math.isfinite, report.loss_series)):
        problems.append("a training loss is missing or not finite")
    per_step = k * len(state.train) if state.mode == "pre" else k
    if report.text_fwd_train != per_step * steps:
        problems.append(f"text_fwd_train {report.text_fwd_train} != {per_step * steps}")
    infer = k * len(state.eval) if state.mode == "pre" else 0
    if report.text_fwd_infer != infer:
        problems.append(f"text_fwd_infer {report.text_fwd_infer} != {infer}")
    return problems


def check_checkpoint(trained, reloaded, images) -> list[str]:
    """The reloaded pipeline must predict exactly what the in-memory one does."""
    for sample in images[:CHECKPOINT_CHECK_IMAGES]:
        if not np.array_equal(trained.predict(sample.image), reloaded.predict(sample.image)):
            return ["reloaded checkpoint predicts differently from the trained pipeline"]
    return []


def predict_burst(pipe, state: State, tally: Tally, expected: Expected, tracer: Tracer | None):
    """Predict every stream image once, timing each call and checking its
    output. A calibration runs after every CAL_EVERY predictions, outside
    the burst's time. The burst's rate is scaled by the median of them, and
    each latency by the median of the ones after its own group of
    predictions and the groups either side, since the host's speed can
    change within a burst. Returns the calibrations."""
    k = len(state.class_names)
    seq_per_call = k if state.mode == "pre" else 0
    cals = []
    start = now()
    for i, sample in enumerate(state.stream):
        if tracer is not None:
            tracer.begin_run("predict")
        seq0 = pipe.text_sequence_count()
        t0 = now()
        pred = pipe.predict(sample.image)
        tally.latencies_ms.append((now() - t0) * 1e3)
        tally.latency_image.append(i)
        seq = pipe.text_sequence_count() - seq0
        tally.text_sequences_in_predict += seq
        tally.predictions += 1
        tally.attempted += 1
        h, w, _ = sample.image.shape
        ok = pred.shape == (h * w,) and pred.min() >= 0 and pred.max() < k
        first = expected.predictions.setdefault(i, pred)
        if seq != seq_per_call:
            tally.fail(1, f"predict encoded {seq} text sequences, expected {seq_per_call}")
        elif not ok:
            tally.fail(1, "prediction has the wrong shape or a class id out of range")
        elif not np.array_equal(first, pred):
            tally.fail(1, "prediction differs from the same image's first prediction")
        if (i + 1) % CAL_EVERY == 0 or i + 1 == len(state.stream):
            t0 = now()
            cals.append(calibrate())
            start += now() - t0
    elapsed = now() - start
    tally.calibration_ms += cals
    tally.burst_rates.append(len(state.stream) / elapsed)
    tally.burst_cal.append(statistics.median(cals))
    tally.latency_cal += [statistics.median(cals[max(0, i // CAL_EVERY - 1): i // CAL_EVERY + 2])
                          for i in range(len(state.stream))]
    return cals


def train_op(state: State, tally: Tally, expected: Expected, tracer: Tracer | None):
    """One timed harness.train call on a fresh pipeline, then a predict
    burst. The call is scaled by the median of the calibrations right
    before and after it and those of the bursts either side of it."""
    pipe = pipeline.build_pipeline(state.cfg, state.class_names, state.seed)
    before = calibrate()
    if tracer is not None:
        tracer.begin_run("train")
    t0 = now()
    try:
        report = harness.train(pipe, (state.train, state.eval),
                               harness.OptimConfig(steps=STEPS, seed=state.seed))
    except harness.TrainingDiverged:
        tally.diverged += 1
        tally.attempted += STEPS
        tally.fail(STEPS, "training diverged")
        return
    elapsed = now() - t0
    after = calibrate()
    tally.calibration_ms += [before, after]
    tally.train_calls += 1
    tally.steps += STEPS
    tally.attempted += STEPS
    tally.train_rates.append(STEPS * len(state.train) / elapsed)
    tally.step_ms.append(elapsed * 1e3 / STEPS)
    tally.miou = report.final_eval_miou
    tally.text_per_step = report.text_fwd_train / STEPS
    digest = hashlib.sha256(report.canonical_json().encode()).hexdigest()
    if expected.report_hash is None:
        expected.report_hash = digest
    problems = check_report(report, state, STEPS)
    if digest != expected.report_hash:
        problems.append("canonical report differs between train calls of one seed")
    if problems:
        tally.fail(STEPS, "; ".join(problems))
    tally.last_pipe = pipe
    burst = predict_burst(pipe, state, tally, expected, tracer)
    tally.train_cal.append(statistics.median(tally.last_burst_cals + [before, after] + burst))
    tally.last_burst_cals = burst


def measure(workload: str, state: State, seconds: float, expected: Expected,
            tracer: Tracer | None = None) -> Tally:
    """Run operations back to back until `seconds` have passed."""
    tally = Tally()
    deadline = now() + seconds
    while True:
        if workload == "infer-cached":
            predict_burst(state.served, state, tally, expected, tracer)
        else:
            train_op(state, tally, expected, tracer)
        if now() >= deadline:
            return tally


def warm_up(workload: str, state: State):
    """Fill lazy caches (patch indices, BLAS buffers) before timing."""
    if workload == "infer-cached":
        for sample in state.stream[:8]:
            state.served.predict(sample.image)
        return
    pipe = pipeline.build_pipeline(state.cfg, state.class_names, state.seed)
    harness.train(pipe, (state.train, state.eval), harness.OptimConfig(steps=1, seed=state.seed))
    for sample in state.stream[:8]:
        pipe.predict(sample.image)


def per_image_latency(latencies, images) -> list[float]:
    """Each stream image's median latency over the passes that predicted it.

    Every pass over the stream predicts the same images with the same
    weights, so an image's passes do the same work; their median drops a
    host stall that hits one pass and keeps what the input itself costs."""
    by_image: dict[int, list] = {}
    for ms, i in zip(latencies, images, strict=True):
        by_image.setdefault(i, []).append(ms)
    return [statistics.median(v) for v in by_image.values()]


def end_to_end_metrics(workload: str, state: State, tally: Tally, setup_times: list,
                       setup_rates: list, setup_cal: list, expected: Expected):
    """The metrics as measured, and with every timing scaled to a host on
    which `calibrate()` takes CAL_REF_MS.

    The host's speed can drift by tens of percent within seconds to
    minutes, so a run can sit mostly in a slow or a fast phase. Each timing
    sample is scaled by the median of calibrations taken next to it (see
    `run`, `train_op` and `predict_burst`): times are multiplied by
    CAL_REF_MS / that median, rates by its inverse. The kernel runs no
    pixtext code, so a change to the program moves the scaled figures as
    much as the raw ones. miou and memory are not scaled.
    """
    def ref_time(values, cals):
        return [v * CAL_REF_MS / c for v, c in zip(values, cals, strict=True)]

    def ref_rate(values, cals):
        return [v * c / CAL_REF_MS for v, c in zip(values, cals, strict=True)]

    if workload == "infer-cached":
        train_rates, train_cal = setup_rates, setup_cal
        pairs = [(s.mask, expected.predictions[i]) for i, s in enumerate(state.stream)]
        miou = harness.miou_from_pairs(pairs, len(state.class_names))[1]
    else:
        train_rates, train_cal = tally.train_rates, tally.train_cal
        miou = tally.miou
    unscaled = {"miou": miou,
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}

    def timings(setup, train, burst, lat):
        per_image = per_image_latency(lat, tally.latency_image)
        return {
            "setup_s": statistics.median(setup),
            "train_images_per_s": statistics.median(train),
            "infer_images_per_s": statistics.median(burst),
            "infer_latency_ms_p50": float(np.percentile(per_image, 50)),
            "infer_latency_ms_p95": float(np.percentile(per_image, 95)),
            **unscaled,
        }

    raw = timings(setup_times, train_rates, tally.burst_rates, tally.latencies_ms)
    scaled = timings(ref_time(setup_times, setup_cal), ref_rate(train_rates, train_cal),
                     ref_rate(tally.burst_rates, tally.burst_cal),
                     ref_time(tally.latencies_ms, tally.latency_cal))
    return raw, scaled


def layer_metrics(tracer: Tracer, workload: str, tally: Tally, n_setups: int,
                  overhead_ms: float, overhead_pct: float) -> dict:
    """Per-layer figures from the traced loop.

    Per-step figures are per training step of the timed train calls (what
    runs after the last step, text caching and evaluation, excluded) on
    train-*; on infer-cached they are per predict call. Set-up figures are per set-up; ``.ms`` of a call-level span
    (predict, evaluate, checkpoint save/load) is the mean per call.
    """
    agg = tracer.aggregate()
    train = workload != "infer-cached"
    kind = "train" if train else "predict"
    n_ops = tally.steps if train else tally.predictions

    def per_op(name, key="ms"):
        entry = agg.get((kind, False, name))
        return entry.get(key, 0) / n_ops if entry and n_ops else 0.0

    def total(name, kinds, key):
        return sum(e.get(key, 0) for (k, _f, n), e in agg.items() if n == name and k in kinds)

    def per_call(name, kinds):
        calls = total(name, kinds, "calls")
        return total(name, kinds, "ms") / calls if calls else 0.0

    def per_setup(name, key="ms"):
        return total(name, ("setup",), key) / n_setups

    attn_calls = total("nn.attention_heads", (kind,), "calls")
    return {
        "tensor.backward.ms_per_step": per_op("tensor.backward"),
        "tensor.tape.nodes_per_step": per_op("tensor.backward", "nodes"),
        "tensor.dct1.read_ms": per_setup("tensor.dct1.read"),
        "tensor.dct1.write_ms": per_setup("tensor.dct1.write"),
        "tensor.dct1.bytes": per_setup("tensor.dct1.read", "bytes")
        + per_setup("tensor.dct1.write", "bytes"),
        "nn.attention_heads.calls": per_op("nn.attention_heads", "calls"),
        "nn.attention_heads.ms": per_op("nn.attention_heads"),
        "nn.attention_heads.flops": per_op("nn.attention_heads", "flops"),
        "nn.attention_heads.flops_per_call":
            total("nn.attention_heads", (kind,), "flops") / attn_calls if attn_calls else 0.0,
        "nn.attention_heads.bytes_per_call":
            total("nn.attention_heads", (kind,), "bytes") / attn_calls if attn_calls else 0.0,
        "nn.linear.calls": per_op("nn.linear", "calls"),
        "nn.linear.ms": per_op("nn.linear"),
        "nn.linear.flops": per_op("nn.linear", "flops"),
        "nn.layer_norm.calls": per_op("nn.layer_norm", "calls"),
        "nn.layer_norm.ms": per_op("nn.layer_norm"),
        "encoders.image.encode_ms": per_op("encoders.image.encode"),
        "encoders.image.calls_per_step": per_op("encoders.image.encode", "calls"),
        "encoders.text.encode_ms": per_op("encoders.text.encode"),
        "encoders.text.sequences_per_step":
            tally.text_per_step if train else tally.text_sequences_in_predict / n_ops,
        "prompting.pre.self_ms": per_op("prompting.pre", "self_ms"),
        "prompting.post.self_ms": per_op("prompting.post", "self_ms"),
        "prompting.base_embeddings.ms": per_op("prompting.base_embeddings"),
        "matching.score_map.ms": per_op("matching.score_map"),
        "matching.aux_loss.ms": per_op("matching.aux_loss"),
        "pipeline.forward.calls_per_step": per_op("pipeline.forward", "calls"),
        "pipeline.forward.ms_per_step": per_op("pipeline.forward"),
        "pipeline.head.ms": per_op("pipeline.head"),
        "pipeline.predict.ms": per_call("pipeline.predict", ("train", "predict")),
        "pipeline.checkpoint.save_ms": per_call("pipeline.checkpoint.save", ("setup", "check")),
        "pipeline.checkpoint.load_ms": per_call("pipeline.checkpoint.load", ("setup", "check")),
        "harness.adamw.ms_per_step": per_op("harness.adamw"),
        "harness.evaluate.ms": per_call("harness.evaluate", ("train",)),
        "harness.train.steps": tally.steps / tally.train_calls if tally.train_calls else 0.0,
        "harness.train.diverged": tally.diverged,
        "datagen.generate_ms": per_setup("datagen.generate"),
        "datagen.save_ms": per_setup("datagen.save"),
        "datagen.load_ms": per_setup("datagen.load"),
        "trace.overhead_ms": overhead_ms,
        "trace.overhead_pct": overhead_pct,
    }


def _op_ms(workload: str, tally: Tally) -> float:
    """Median wall time of one operation: a training step or a predict call."""
    return statistics.median(tally.latencies_ms if workload == "infer-cached" else tally.step_ms)


def run(workload: str, seed: int, seconds: float, trace: bool, workdir: Path,
        scale: Scale = TOY, trace_path: Path | None = None) -> dict:
    """Set up, measure and check one workload; returns the full record."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; use one of {', '.join(WORKLOADS)}")
    tracer = Tracer() if trace else None
    problems: list[str] = []
    setup_times, setup_rates, fingerprints, setup_calibration = [], [], set(), []
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        if tracer is not None:
            tracer.install()
        # Each set-up is scaled by the calibrations right before and after it.
        before = [calibrate() for _ in range(SETUP_CALS)]
        while len(setup_times) < SETUPS or sum(setup_times) < scale.setup_seconds:
            state, elapsed, fingerprint, found = setup(
                workload, seed, scale, workdir / f"setup{len(setup_times)}", tracer)
            after = [calibrate() for _ in range(SETUP_CALS)]
            setup_times.append(elapsed)
            setup_calibration.append(statistics.median(before + after))
            before = after
            setup_rates.append(state.setup_train_rate)
            fingerprints.add(fingerprint)
            problems += found
        if len(fingerprints) != 1:
            problems.append("repeated set-ups of one seed produced different data or reports")
        if tracer is not None:
            tracer.uninstall()
        warm_up(workload, state)
        expected = Expected()
        if tracer is None:
            tally = measure(workload, state, seconds, expected)
            plain = None
        else:
            plain = measure(workload, state, seconds / 2, expected)
            tracer.install()
            tally = measure(workload, state, seconds / 2, expected, tracer)
        if workload != "infer-cached":
            if tracer is not None:
                tracer.begin_run("check")
            pipeline.save_checkpoint(tally.last_pipe, workdir / "checkpoint")
            reloaded = pipeline.load_checkpoint(workdir / "checkpoint")
            problems += check_checkpoint(tally.last_pipe, reloaded, state.eval)
    finally:
        if tracer is not None:
            tracer.uninstall()
        shutil.rmtree(workdir, ignore_errors=True)

    record = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "attempted": tally.attempted + (plain.attempted if plain else 0),
        "failed": tally.failed + (plain.failed if plain else 0),
        "failures": problems + tally.failures + (plain.failures if plain else []),
        "report_sha256": expected.report_hash or state.setup_report_hash,
        "samples": {
            "setup_s": setup_times,
            "train_images_per_s": tally.train_rates
            if workload != "infer-cached" else setup_rates,
            "infer_images_per_s": tally.burst_rates,
            "predictions": tally.predictions,
            "latency_images": len(set(tally.latency_image)),
            "train_calls": tally.train_calls,
            "calibration_ms": tally.calibration_ms,
            "setup_calibration_ms": setup_calibration,
        },
    }
    record["host"] = {
        "calibration_ref_ms": CAL_REF_MS,
        "window_calibration_ms_mean": statistics.fmean(tally.calibration_ms),
        "setup_calibration_ms_mean": statistics.fmean(setup_calibration),
    }
    if tracer is None:
        record["raw_metrics"], record["metrics"] = end_to_end_metrics(
            workload, state, tally, setup_times, setup_rates, setup_calibration, expected)
        units = END_TO_END
    else:
        missing = tracer.missing(workload)
        if missing:
            record["failures"].append("no calls reached: " + ", ".join(missing))
        untraced, traced = _op_ms(workload, plain), _op_ms(workload, tally)
        record["metrics"] = layer_metrics(tracer, workload, tally, len(setup_times),
                                          traced - untraced, 100.0 * (traced - untraced) / untraced)
        record["computed"] = list(COMPUTED)
        record["self_time"] = tracer.self_time_table()[:15]
        units = PER_LAYER
        if trace_path is not None:
            trace_path.parent.mkdir(parents=True, exist_ok=True)
            tracer.write(trace_path)
            record["trace_file"] = str(trace_path)
    record["units"] = units
    record["correct"] = not record["failures"] and record["failed"] == 0
    return record
