"""Tier-1 runs the benchmark's own smoke test, so a change that breaks one of
the callables `perfbench/tracing.py` wraps, or a workload, fails here too."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_perfbench_smoke_suite_passes():
    proc = subprocess.run([sys.executable, "-m", "pytest", "-q", "perfbench/test_smoke.py"],
                          cwd=ROOT, capture_output=True, text=True, check=False)
    assert proc.returncode == 0, proc.stdout[-4000:] + proc.stderr[-2000:]
