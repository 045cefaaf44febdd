#!/usr/bin/env python3
"""Generate the default dataset and run the five-row prompting comparison.

Writes the dataset, the suite CSV, and prints the table. The suite seed
is `--seed`; this script does not read DENSECLIP_SEED, which only
`pixtext train` and `pixtext ablate` apply.
"""

import argparse
import os
import sys

sys.path.insert(0, "src")

from pixtext.datagen import default_task, generate, save_dataset, split
from pixtext.harness import ABLATION_ROWS, run_ablation, write_ablation_csv


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--out", default="ablation_out")
    ap.add_argument("--n", type=int, default=48)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--steps", type=int, default=120)
    args = ap.parse_args()

    os.makedirs(args.out, exist_ok=True)
    spec = default_task()
    samples = generate(spec, args.n)
    save_dataset(spec, samples, os.path.join(args.out, "data"))
    dataset = split(samples, 0.667)

    suite = {"seed": args.seed, "optim": {"steps": args.steps}, "rows": ABLATION_ROWS}
    rows = run_ablation(dataset, spec.class_names, suite)
    csv_path = os.path.join(args.out, "table.csv")
    write_ablation_csv(rows, csv_path)

    header = f"{'config':10s} {'miou':>8s} {'final_loss':>11s} {'params':>8s} {'tf_train':>9s} {'tf_infer':>9s}"
    print(header)
    for r in rows:
        miou = f"{r['miou']:.4f}" if isinstance(r["miou"], float) else "failed"
        loss = f"{r['final_loss']:.4f}" if isinstance(r["final_loss"], float) else "-"
        print(f"{r['config_name']:10s} {miou:>8s} {loss:>11s} {r['params']!s:>8s} "
              f"{r['text_fwd_train']!s:>9s} {r['text_fwd_infer']!s:>9s}")
    print(f"table written to {csv_path}")


if __name__ == "__main__":
    main()
