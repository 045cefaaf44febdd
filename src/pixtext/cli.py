"""Command-line interface.

Subcommands: synth, train, eval, gradcheck, ablate. All configs are JSON;
run configs and suite rows are parsed by `harness.load_run`. The
DENSECLIP_SEED environment variable overrides the seeds found in run and
suite configs (train and ablate, once per command) so CI can pin one seed
across every invocation.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .config import TaskSpec, check_keys, from_json
from .datagen import default_task, generate, load_dataset, save_dataset, split
from .harness import (SUITE_KEYS, load_run, miou_from_pairs, predict_samples, run_ablation,
                      train, write_ablation_csv)
from .pipeline import build_pipeline, export_prediction, load_checkpoint, save_checkpoint
from .tensor import ContractError
from .verification import format_results, run_gradient_suite

__all__ = ["main"]


def _seed_override(seed: int) -> int:
    env = os.environ.get("DENSECLIP_SEED")
    if env is not None and env != "":
        try:
            return int(env)
        except ValueError:
            raise ValueError(f"DENSECLIP_SEED={env!r} is not an integer seed") from None
    return seed


def _cmd_synth(args) -> int:
    if args.n < 1:  # before anything is written
        raise ContractError(f"--n must be at least 1, got {args.n}")
    if args.spec == "default":
        spec = default_task()
    else:
        with open(args.spec) as fh:
            spec = from_json(TaskSpec, json.load(fh), args.spec)
    samples = generate(spec, args.n, seed=args.seed)
    save_dataset(spec, samples, args.out)
    print(f"wrote {args.n} samples to {args.out}")
    return 0


def _cmd_train(args) -> int:
    with open(args.config) as fh:
        run = json.load(fh)
    pipe_cfg, optim = load_run(run, where=args.config)
    optim.seed = _seed_override(optim.seed)
    spec, samples = load_dataset(args.data)
    train_samples, eval_samples = split(samples, run.get("train_fraction", 0.75))
    pipe = build_pipeline(pipe_cfg, spec.class_names, optim.seed)
    report = train(pipe, (train_samples, eval_samples), optim)
    save_checkpoint(pipe, args.out)
    with open(args.report, "w") as fh:
        json.dump(report.to_dict(), fh, indent=1, sort_keys=True)
    print(
        f"trained {optim.steps} steps: final loss {report.loss_series[-1]:.4f}, "
        f"eval mIoU {report.final_eval_miou:.4f}"
    )
    return 0


def _cmd_eval(args) -> int:
    pipe = load_checkpoint(args.ckpt)
    spec, samples = load_dataset(args.data)
    if spec.class_names != pipe.class_names:
        raise ContractError(f"dataset {args.data} has classes {spec.class_names}, "
                            f"checkpoint {args.ckpt} {pipe.class_names}")
    pipe.cache_text()
    before = pipe.text_sequence_count()
    preds = predict_samples(pipe, samples)
    per_class, miou = miou_from_pairs(zip((s.mask for s in samples), preds), pipe.k)
    report = {
        "miou": miou,
        "per_class_iou": per_class,
        "n_samples": len(samples),
        "text_fwd_infer": pipe.text_sequence_count() - before,
        "class_names": spec.class_names,
    }
    with open(args.report, "w") as fh:
        json.dump(report, fh, indent=1, sort_keys=True)
    if args.export_predictions:
        os.makedirs(args.export_predictions, exist_ok=True)
        ext = "json" if args.format == "json" else "pgm"
        for i, (s, pred) in enumerate(zip(samples, preds)):
            h, w, _ = s.image.shape
            export_prediction(
                pred, h, w,
                os.path.join(args.export_predictions, f"pred_{i:04d}.{ext}"),
                fmt=args.format,
            )
    print(f"eval mIoU {miou:.4f} over {len(samples)} samples")
    return 0


def _cmd_gradcheck(args) -> int:
    results = run_gradient_suite(op_tol=args.tol, e2e_tol=args.e2e_tol)
    print(format_results(results))
    return 0 if all(r.passed for r in results) else 1


def _cmd_ablate(args) -> int:
    with open(args.suite) as fh:
        suite = json.load(fh)
    check_keys(suite, SUITE_KEYS, args.suite)
    suite["seed"] = _seed_override(suite.get("seed", 0))
    spec, samples = load_dataset(args.data)
    dataset = split(samples, suite.get("train_fraction", 0.75))
    rows = run_ablation(dataset, spec.class_names, suite, args.suite)
    write_ablation_csv(rows, args.out)
    for row in rows:
        tag = row.get("error", "")
        print(f"{row['config_name']}: miou={row['miou']} params={row['params']} {tag}")
    return 1 if any("error" in row for row in rows) else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pixtext",
        description="Language-guided dense prediction on synthetic tasks",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic dataset directory")
    p.add_argument("--spec", required=True, help="task spec JSON, or 'default'")
    p.add_argument("--out", required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--seed", type=int, default=None, help="default: the spec's own seed")
    p.set_defaults(func=_cmd_synth)

    p = sub.add_parser("train", help="train a pipeline on a dataset directory")
    p.add_argument("--data", required=True)
    p.add_argument("--config", required=True, help="run config JSON")
    p.add_argument("--out", required=True, help="checkpoint directory")
    p.add_argument("--report", required=True, help="report JSON path")
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("eval", help="evaluate a checkpoint on a dataset directory")
    p.add_argument("--data", required=True)
    p.add_argument("--ckpt", required=True)
    p.add_argument("--report", required=True)
    p.add_argument("--export-predictions", default=None)
    p.add_argument("--format", choices=("json", "pgm"), default="json")
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("gradcheck", help="run the finite-difference gradient suite")
    p.add_argument("--tol", type=float, default=1e-5)
    p.add_argument("--e2e-tol", type=float, default=1e-4)
    p.set_defaults(func=_cmd_gradcheck)

    p = sub.add_parser("ablate", help="train an ablation suite and emit a CSV table")
    p.add_argument("--data", required=True)
    p.add_argument("--suite", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_ablate)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
