"""The benchmark's own self-test runs every workload at tiny sizes and reads
report fields (outcome labels, the "inc" record, eavesdropper counts, stage
attempts) that the simulator defines; a change there must fail here too."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_perfbench_selftest_passes():
    result = subprocess.run(
        [sys.executable, "perfbench/selftest.py"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert result.returncode == 0, result.stdout + result.stderr
