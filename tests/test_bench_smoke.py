"""The benchmark's own smoke run passes on the package in this tree."""

import subprocess
import sys
from pathlib import Path


def test_bench_smoke_passes():
    """bench/run.py --smoke runs every workload once at tiny sizes, traced and
    untraced, and checks each op's output and each metric: a change that
    breaks a workload op (a removed flag, a changed golden value, a renamed
    traced function) fails here."""
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--smoke"],
        cwd=Path(__file__).parents[1], capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stdout[-4000:] + proc.stderr[-4000:]
    assert proc.stdout.splitlines()[-1] == "smoke ok"
