"""Training harness: AdamW with per-group learning-rate multipliers,
gradient clipping, the train loop, mIoU evaluation, the run-config loader
and the ablation runner.

The fine-tuning recipe is baked into the defaults: decoupled weight decay,
the image encoder at a tenth of the base learning rate, and the text
encoder at zero so the language priors survive training untouched. The
multiplier is the one switch for what trains: zero keeps a group off the tape.
"""

from __future__ import annotations

import csv
import json
import math
import time
from dataclasses import asdict, dataclass, field

import numpy as np

from .datagen import SyntheticSample
from .pipeline import DensePredPipeline, PipelineConfig, build_pipeline, toy_config
from .tensor import ContractError, Tensor, backward, reset_tape

__all__ = [
    "OptimConfig",
    "AdamW",
    "clip_gradients",
    "TrainingDiverged",
    "RunReport",
    "train",
    "evaluate_miou",
    "miou_from_pairs",
    "load_run",
    "run_ablation",
    "write_ablation_csv",
    "ABLATION_ROWS",
]


def _default_multipliers() -> dict:
    return {"image_encoder": 0.1, "text_encoder": 0.0, "other": 1.0}


@dataclass
class OptimConfig:
    lr: float = 0.01
    weight_decay: float = 0.01
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    multipliers: dict = field(default_factory=_default_multipliers)
    clip_norm: float | None = None
    steps: int = 120
    batch_size: int = 32
    seed: int = 0

    def __post_init__(self):
        unknown = sorted(set(self.multipliers) - set(_default_multipliers()))
        if unknown:
            raise ValueError(f"unknown lr multiplier group(s) {unknown}; "
                             f"use {list(_default_multipliers())}")
        # a group left out keeps the recipe's multiplier
        self.multipliers = {**_default_multipliers(), **self.multipliers}
        if any(m < 0 for m in self.multipliers.values()):
            raise ValueError("lr multipliers must be non-negative")
        if self.clip_norm is not None and self.clip_norm <= 0:
            raise ValueError("clip norm must be positive when set")


class AdamW:
    """Decoupled-weight-decay Adam over named parameter groups.

    `step` never updates a parameter in a zero-multiplier group;
    `zero_grad` clears every parameter's gradient, so none carries over
    from one step to the next. A trainable parameter arriving at `step`
    without a gradient is a contract violation, not a silent skip.
    """

    def __init__(self, params, cfg: OptimConfig):
        # params: iterable of (name, Tensor, group)
        self.params = [(n, p, g) for n, p, g in params]
        self.cfg = cfg
        self.t = 0
        self._m: dict[str, np.ndarray] = {}
        self._v: dict[str, np.ndarray] = {}

    def zero_grad(self):
        for _, p, _ in self.params:
            p.grad = None

    def updated(self):
        """(name, tensor, multiplier) of every parameter `step` updates:
        trainable and in a group with a non-zero multiplier."""
        for name, p, group in self.params:
            mult = self.cfg.multipliers[group]
            if mult != 0.0 and p.requires_grad:
                yield name, p, mult

    def step(self):
        self.t += 1
        c = self.cfg
        bc1 = 1.0 - c.beta1**self.t
        bc2 = 1.0 - c.beta2**self.t
        for name, p, mult in self.updated():
            if p.grad is None:
                raise ContractError(f"parameter {name} is trainable but has no gradient")
            g = p.grad
            lr_eff = c.lr * mult
            m = self._m.get(name)
            v = self._v.get(name)
            if m is None:
                m = np.zeros_like(p.data)
                v = np.zeros_like(p.data)
            with np.errstate(over="ignore", invalid="ignore"):
                m = c.beta1 * m + (1.0 - c.beta1) * g
                v = c.beta2 * v + (1.0 - c.beta2) * g * g
                self._m[name] = m
                self._v[name] = v
                update = (m / bc1) / (np.sqrt(v / bc2) + c.eps)
                p.data = p.data - lr_eff * update - lr_eff * c.weight_decay * p.data


def clip_gradients(params, max_norm: float) -> float:
    """Scale all gradients so their global L2 norm is at most max_norm.

    Returns the scale applied (1.0 when already within bounds).
    """
    tensors = [p for p in params if isinstance(p, Tensor) and p.grad is not None]
    total = 0.0
    for p in tensors:
        total += float((p.grad**2).sum())
    norm = math.sqrt(total)
    if norm <= max_norm or norm == 0.0:
        return 1.0
    scale = max_norm / norm
    for p in tensors:
        p.grad *= scale
    return scale


class TrainingDiverged(RuntimeError):
    def __init__(self, step: int, value: float, report: dict):
        super().__init__(f"non-finite loss {value!r} at step {step}")
        self.step = step
        self.report = report


@dataclass
class RunReport:
    config: dict
    seed: int
    loss_series: list
    main_series: list
    aux_series: list
    final_train_miou: float
    final_eval_miou: float
    per_class_iou: list
    text_fwd_train: int
    text_fwd_infer: int
    trainable_params: int
    wall_time_s: float

    def to_dict(self) -> dict:
        return asdict(self)

    def canonical_dict(self) -> dict:
        """Everything except wall time, which is the one non-reproducible field."""
        d = self.to_dict()
        d.pop("wall_time_s")
        return d

    def canonical_json(self) -> str:
        return json.dumps(self.canonical_dict(), sort_keys=True)


def miou_from_pairs(pairs, k: int) -> tuple[list, float]:
    """IoU per class from (target, prediction) flat index pairs.

    Classes absent from both prediction and target are excluded from the
    mean (their IoU reports as None).
    """
    conf = np.zeros(k * k, dtype=np.int64)
    for target, pred in pairs:
        target, pred = np.asarray(target, dtype=np.intp), np.asarray(pred, dtype=np.intp)
        for ids in (target, pred):
            if ids.size and (ids.min() < 0 or ids.max() >= k):
                raise IndexError(f"class id out of range [0, {k})")
        conf += np.bincount(target * k + pred, minlength=k * k)
    conf = conf.reshape(k, k)
    inter = np.diag(conf).astype(np.float64)
    union = conf.sum(axis=0) + conf.sum(axis=1) - np.diag(conf)
    ious: list = []
    valid = []
    for c in range(k):
        if union[c] > 0:
            iou = float(inter[c] / union[c])
            ious.append(iou)
            valid.append(iou)
        else:
            ious.append(None)
    mean = float(np.mean(valid)) if valid else 0.0
    return ious, mean


EVAL_BATCH = 32  # images per forward pass in evaluate_miou


def evaluate_miou(pipe: DensePredPipeline, samples) -> tuple[list, float]:
    """Per-class IoU over the pooled pixels of all samples, predicted
    EVAL_BATCH images at a time."""
    pairs = []
    for start in range(0, len(samples), EVAL_BATCH):
        batch = samples[start : start + EVAL_BATCH]
        pairs += zip((s.mask for s in batch), pipe.predict([s.image for s in batch]))
    return miou_from_pairs(pairs, pipe.k)


def _target_for(pipe: DensePredPipeline, sample: SyntheticSample):
    return sample.boxes if pipe.head is None else sample.mask


def train(pipe: DensePredPipeline, dataset, cfg: OptimConfig) -> RunReport:
    """Run the step budget on (train, eval) samples and report.

    A dataset of at most `cfg.batch_size` samples trains full-batch in
    index order; a larger one draws a seeded minibatch of `batch_size`
    samples each step. Each step is one batched `forward` call on one tape.
    First each parameter's `requires_grad` is set to whether its group's
    multiplier is non-zero, and text embeddings cached by an earlier run
    are dropped; gradient clipping, when set, takes its norm over the
    parameters the optimizer updates.
    Aborts with TrainingDiverged the moment the loss stops being finite.
    """
    train_samples, eval_samples = dataset
    start = time.perf_counter()
    if pipe.text_path is not None:
        # a snapshot from an earlier run would cut the graph to the contexts
        pipe.text_path.cached = None
    for _, p, group in pipe.parameters():
        p.requires_grad = cfg.multipliers[group] != 0.0
    opt = AdamW(pipe.parameters(), cfg)
    rng = np.random.default_rng(np.random.SeedSequence([cfg.seed & 0xFFFFFFFF, 0xB47C]))
    n = len(train_samples)

    text_before = pipe.text_sequence_count()
    loss_series: list[float] = []
    main_series: list[float] = []
    aux_series: list[float] = []

    for step in range(cfg.steps):
        reset_tape()
        opt.zero_grad()
        if n <= cfg.batch_size:
            order = np.arange(n)
        else:
            order = rng.permutation(n)[: cfg.batch_size]
        batch = [train_samples[idx] for idx in order]
        out = pipe.forward([s.image for s in batch], [_target_for(pipe, s) for s in batch])
        value = out.loss.item()
        if not math.isfinite(value):
            raise TrainingDiverged(step, value, {
                "loss_series": loss_series, "config": cfg.__dict__.copy(),
            })
        backward(out.loss)
        if cfg.clip_norm is not None:
            clip_gradients([p for _, p, _ in opt.updated()], cfg.clip_norm)
        opt.step()
        for name, p, _ in opt.params:
            if p.requires_grad and not np.all(np.isfinite(p.data)):
                raise TrainingDiverged(step, float("nan"), {
                    "parameter": name, "loss_series": loss_series,
                    "config": cfg.__dict__.copy(),
                })
        loss_series.append(value)
        main_series.append(out.breakdown["main"])
        aux_series.append(out.breakdown["aux"])
    reset_tape()

    text_fwd_train = pipe.text_sequence_count() - text_before
    pipe.cache_text()

    if pipe.head is not None:
        _, train_miou = evaluate_miou(pipe, train_samples)
        infer_before = pipe.text_sequence_count()
        per_class, eval_miou = evaluate_miou(pipe, eval_samples)
        text_fwd_infer = pipe.text_sequence_count() - infer_before
    else:
        train_miou = eval_miou = 0.0
        per_class = []
        text_fwd_infer = 0

    return RunReport(
        config={
            "pipeline": pipe.cfg.to_dict(),
            "optim": asdict(cfg),
            "class_names": pipe.class_names,
        },
        seed=cfg.seed,
        loss_series=loss_series,
        main_series=main_series,
        aux_series=aux_series,
        final_train_miou=train_miou,
        final_eval_miou=eval_miou,
        per_class_iou=per_class,
        text_fwd_train=text_fwd_train,
        text_fwd_infer=text_fwd_infer,
        trainable_params=pipe.trainable_param_count(),
        wall_time_s=time.perf_counter() - start,
    )


# ---------------------------------------------------------------------------
# Run configs and the ablation runner


ABLATION_ROWS = [
    {"name": "baseline", "mode": None},
    {"name": "template", "mode": "template"},
    {"name": "coop", "mode": "coop"},
    {"name": "pre", "mode": "pre"},
    {"name": "post", "mode": "post"},
]

RUN_KEYS = ("mode", "seed", "pipeline", "optim", "train_fraction")
SUITE_KEYS = ("seed", "optim", "rows", "train_fraction")
ROW_KEYS = ("name", "mode", "pipeline", "optim")


def _check_keys(d: dict, allowed, what: str):
    unknown = sorted(set(d) - set(allowed))
    if unknown:
        raise ValueError(f"unknown {what} key(s) {unknown}; use {list(allowed)}")


def _json_mode(mode):
    """JSON spells "no language path" as null, "none" or ""."""
    return None if mode in ("none", "") else mode


def load_run(run: dict, keys=RUN_KEYS, optim: dict | None = None,
             what: str = "run config") -> tuple[PipelineConfig, OptimConfig]:
    """The pipeline and optimizer configs of one run (a run config or a
    suite row) as parsed from JSON.

    `mode` (default coop) fills `pipeline.prompt_mode` when the pipeline
    object leaves it out; the two must agree when both are given. Without a
    pipeline object the run uses `toy_config(mode)`. `optim` holds defaults
    that the run's own `optim` overrides, and a run's `seed` overrides both.
    Unknown keys at any level raise and name the key.
    """
    _check_keys(run, keys, what)
    mode = _json_mode(run.get("mode", "coop"))
    if "pipeline" not in run:
        pipe_cfg = toy_config(mode)
    else:
        pipe = dict(run["pipeline"])
        pipe["prompt_mode"] = _json_mode(pipe.get("prompt_mode", mode))
        if "mode" in run and pipe["prompt_mode"] != mode:
            raise ValueError(f"{what}: mode {mode!r} but pipeline.prompt_mode "
                             f"{pipe['prompt_mode']!r}")
        pipe_cfg = PipelineConfig.from_dict(pipe)
    optim = {**(optim or {}), **run.get("optim", {})}
    if "seed" in run:
        optim["seed"] = int(run["seed"])
    return pipe_cfg, OptimConfig(**optim)


CSV_COLUMNS = ["config_name", "miou", "final_loss", "params", "text_fwd_train", "text_fwd_infer"]


def run_ablation(dataset, class_names, suite: dict) -> list[dict]:
    """Train every row of the suite on the shared dataset + seed.

    Rows default to ABLATION_ROWS; the suite's `optim` and `seed` are each
    row's defaults. Every row is loaded and built before the first one
    trains, so a bad row fails the suite at once. Returns CSV-ready rows; a
    run that fails in training keeps its row with blank metrics and the
    suite continues.
    """
    _check_keys(suite, SUITE_KEYS, "suite")
    seed = int(suite.get("seed", 0))
    defaults = {**suite.get("optim", {}), "seed": seed}
    runs = []
    for row in suite.get("rows", ABLATION_ROWS):
        cfg, ocfg = load_run(row, ROW_KEYS, defaults, f"row {row['name']!r}")
        runs.append((row["name"], build_pipeline(cfg, class_names, seed), ocfg))
    out_rows = []
    for name, pipe, ocfg in runs:
        try:
            report = train(pipe, dataset, ocfg)
            out_rows.append({"config_name": name, "miou": report.final_eval_miou,
                             "final_loss": report.loss_series[-1],
                             "params": report.trainable_params,
                             "text_fwd_train": report.text_fwd_train,
                             "text_fwd_infer": report.text_fwd_infer})
        except Exception as exc:  # noqa: BLE001 - failed rows are marked, suite continues
            out_rows.append({"config_name": name, **dict.fromkeys(CSV_COLUMNS[1:], ""),
                             "error": f"{type(exc).__name__}: {exc}"})
    return out_rows


def write_ablation_csv(rows, path):
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=CSV_COLUMNS, extrasaction="ignore")
        writer.writeheader()
        for row in rows:
            writer.writerow(row)
