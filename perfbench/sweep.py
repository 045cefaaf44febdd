"""Run the benchmark over several seeds and report each metric's spread.

    python3 perfbench/sweep.py --workloads train-post,infer-cached --seeds 1-10 \\
        --seconds 30 --trace 0 --out .perfbench/sweep.jsonl

Runs one process at a time. Appends each run's full record to ``--out``
(the input format of ``run.py --compare``) and prints, per workload and
metric, the median and the quartile spread as a share of the median, with
the quartiles taken as ``statistics.quantiles(values, n=4)`` gives them,
next to the metric's bound from BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += list(range(int(lo), int(hi or lo) + 1))
    return seeds


def main(argv=None) -> int:
    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)

    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"] + spec["per_layer"]}
    args.out.parent.mkdir(parents=True, exist_ok=True)
    status = 0
    for workload in args.workloads.split(","):
        values: dict[str, list] = {}
        for seed in parse_seeds(args.seeds):
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
                   "--seed", str(seed), "--seconds", str(args.seconds),
                   "--trace", str(args.trace)]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=False)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or len(lines) < 2:
                print(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
                status = 1
                continue
            record, result = json.loads(lines[-2]), json.loads(lines[-1])
            with open(args.out, "a") as fh:
                fh.write(json.dumps(record, sort_keys=True) + "\n")
            print(f"{workload} seed {seed}: correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']}", flush=True)
            status |= not result["correct"]
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
        print(f"\n{workload}: {'metric':36s} {'median':>12s} {'spread':>8s} {'bound':>6s}")
        for name, vals in values.items():
            if len(vals) < 2:
                continue
            q1, med, q3 = statistics.quantiles(vals, n=4)
            rel = (q3 - q1) / abs(med) if med else 0.0
            bound = bounds.get(name)
            flag = "" if bound is None else ("ok" if rel < bound / 3 else
                                             "wide" if rel <= bound else "OVER")
            print(f"{'':12s}{name:36s} {med:12.5g} {rel:8.2%} "
                  f"{'' if bound is None else f'{bound:.0%}':>6s} {flag}")
        print(flush=True)
    return status


if __name__ == "__main__":
    sys.exit(main())
