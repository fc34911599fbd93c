"""The benchmark's own self-test: every workload at a tiny size, with
answer checks, traced/untraced agreement and a corrupted reference."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_benchmark_selftest_passes():
    # the benchmark puts its checkout's src/ on sys.path itself and
    # refuses a package that resolves to two paths, so an inherited
    # PYTHONPATH=src must not reach it
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run([sys.executable, "perfbench/selftest.py"],
                          cwd=ROOT, env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stdout + proc.stderr
