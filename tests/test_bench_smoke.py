"""Smoke test of the benchmark harness: its oracles still tell a good
report from a corrupted one.

``bench/run.py --self-check`` runs three small jobs (a torsion
presentation, a Thurston lattice, a jacobi verify), corrupts one report
at a time and checks that the job oracles count each corruption as a
failure while the clean pass has none.  No timing is asserted.
"""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_bench_self_check():
    proc = subprocess.run(
        [sys.executable, os.path.join("bench", "run.py"), "--self-check"],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["self_check_ok"] is True
    assert result["fail_ratio"]["clean"] == 0
