"""The benchmark's smoke test, run as the benchmark runs it: a separate
process started from the repository root. The benchmark drives the public
entry points and wraps `frame_signal` and `predict`, so a change to what
they take or return shows up here."""

import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.slow
def test_benchmark_smoke_passes():
    proc = subprocess.run([sys.executable, "perfbench/smoke.py"], cwd=ROOT,
                          capture_output=True, text=True, timeout=900)
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]
