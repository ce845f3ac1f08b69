"""The benchmark harness still runs against the library: a change to the
program that breaks ``bench/run.py`` fails here, not only when benchmarked."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_bench_smoke_run_passes():
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--smoke"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    assert proc.stdout.splitlines()[-1] == '{"smoke": "pass"}'
