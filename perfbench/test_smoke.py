"""Smoke test of the benchmark itself, at micro_config size.

    python3 -m pytest perfbench/test_smoke.py -q
"""

import json

import pytest

import run

run.prepare_imports()

import compare  # noqa: E402
import workloads  # noqa: E402

BENCH = json.loads((run.ROOT / "BENCHMARK.json").read_text())
WORKLOAD_NAMES = [w["name"] for w in BENCH["workloads"]]


def run_micro(workload, trace, tmp_path, seed=3):
    return workloads.run(workload, seed=seed, seconds=0.3, trace=bool(trace),
                         workdir=tmp_path / "work", scale=workloads.MICRO,
                         trace_path=tmp_path / "trace.json.gz" if trace else None)


def test_declared_workloads_match_the_code():
    assert WORKLOAD_NAMES == list(workloads.WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOAD_NAMES)
def test_every_metric_reported_with_its_unit(workload, trace, tmp_path):
    record = run_micro(workload, trace, tmp_path)
    declared = BENCH["per_layer" if trace else "end_to_end"]
    assert record["correct"], record["failures"]
    assert record["attempted"] >= 1 and record["failed"] == 0
    assert set(record["metrics"]) == {m["name"] for m in declared}
    for m in declared:
        assert record["units"][m["name"]] == m["unit"]
        value = record["metrics"][m["name"]]
        assert isinstance(value, (int, float))
        if not trace:
            assert value > 0, m["name"]
    if trace:
        assert (tmp_path / "trace.json.gz").is_file()


def test_traced_counts_repeat(tmp_path):
    counts = [
        {name: value for name, value in run_micro("train-pre", 1, tmp_path / str(i))["metrics"].items()
         if workloads.PER_LAYER[name] == "count"}
        for i in range(2)
    ]
    assert counts[0] == counts[1]
    assert counts[0]["encoders.text.sequences_per_step"] == 4 * 8  # N images x K classes


def test_compare_flags_a_regression_and_an_unresolved_metric(tmp_path, capsys):
    def write(path, rates, p95s):
        with open(path, "w") as fh:
            for seed, (rate, p95) in enumerate(zip(rates, p95s)):
                fh.write(json.dumps({"workload": "train-post", "trace": 0, "seed": seed,
                                     "report_sha256": "x",
                                     "metrics": {"train_images_per_s": rate,
                                                 "infer_latency_ms_p95": p95}}) + "\n")

    write(tmp_path / "a.jsonl", [100, 101, 99, 100], [10, 10, 10, 10])
    write(tmp_path / "b.jsonl", [60, 61, 59, 60], [5, 20, 9, 30])
    assert compare.main(tmp_path / "a.jsonl", tmp_path / "b.jsonl", run.ROOT / "BENCHMARK.json") == 1
    out = capsys.readouterr().out
    assert "train_images_per_s" in out and "REGRESSION" in out
    assert "unresolved" in out
    assert "4 of 4 shared seeds identical" in out
