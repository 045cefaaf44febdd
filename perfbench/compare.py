"""Compare two files of benchmark records, metric by metric, per workload.

    python3 perfbench/run.py --compare before.jsonl after.jsonl

Each file holds one JSON record per line: the next-to-last output line of
run.py, as sweep.py collects them. Runs are grouped by workload and trace
mode. For each metric the table gives both medians, the relative delta and
the wider of the two quartile spreads (quartile distance over median). An
end-to-end metric is a regression when AFTER's median is worse than
BEFORE's by more than the bound in BENCHMARK.json. When the spread exceeds
the bound the metric is unresolved, unless every AFTER run beats every
BEFORE run. Per-layer metrics have no bound and get no verdict. Seeds run on
both sides are also checked for byte-identical canonical training reports.
"""

from __future__ import annotations

import json
import statistics
from collections import defaultdict


def load(path) -> dict:
    groups = defaultdict(list)
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if line:
                record = json.loads(line)
                groups[(record["workload"], record["trace"])].append(record)
    return groups


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def spread(values) -> float:
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / abs(med) if med else 0.0


def verdict(before, after, bound, higher_better) -> str:
    mb, ma = quartiles(before)[1], quartiles(after)[1]
    if bound is None:
        return ""
    if higher_better:
        all_better = min(after) > max(before)
        worse_by = (mb - ma) / abs(mb) if mb else 0.0
    else:
        all_better = max(after) < min(before)
        worse_by = (ma - mb) / abs(mb) if mb else 0.0
    if max(spread(before), spread(after)) > bound:
        return "better" if all_better else "unresolved"
    if worse_by > bound:
        return "REGRESSION"
    if -worse_by > max(spread(before), spread(after)):
        return "better"
    return "within bound"


def main(before_path, after_path, bench_json) -> int:
    with open(bench_json) as fh:
        spec = json.load(fh)
    declared = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    before, after = load(before_path), load(after_path)
    regressions = 0
    for key in sorted(set(before) & set(after)):
        workload, trace = key
        print(f"\n== {workload} (trace {trace}): {len(before[key])} before, "
              f"{len(after[key])} after")
        print(f"{'metric':40s} {'before':>12s} {'after':>12s} {'delta':>8s} "
              f"{'spread':>7s} {'bound':>6s}  verdict")
        names = sorted(set().union(*(r["metrics"] for r in before[key] + after[key])))
        for name in names:
            a = [r["metrics"][name] for r in before[key] if name in r["metrics"]]
            b = [r["metrics"][name] for r in after[key] if name in r["metrics"]]
            if not a or not b:
                continue
            meta = declared.get(name, {})
            bound = meta.get("bound")
            mb, ma = quartiles(a)[1], quartiles(b)[1]
            delta = (ma - mb) / abs(mb) if mb else 0.0
            v = verdict(a, b, bound, meta.get("better") == "higher")
            regressions += v == "REGRESSION"
            print(f"{name:40s} {mb:12.5g} {ma:12.5g} {delta:+8.1%} "
                  f"{max(spread(a), spread(b)):7.1%} "
                  f"{'' if bound is None else f'{bound:.0%}':>6s}  {v}")
        hashes_a = {r["seed"]: r.get("report_sha256") for r in before[key]}
        hashes_b = {r["seed"]: r.get("report_sha256") for r in after[key]}
        common = sorted(set(hashes_a) & set(hashes_b))
        differ = [s for s in common if hashes_a[s] != hashes_b[s]]
        print(f"canonical reports: {len(common) - len(differ)} of {len(common)} shared seeds "
              f"identical" + (f"; differ on seeds {differ}" if differ else ""))
    return 1 if regressions else 0
