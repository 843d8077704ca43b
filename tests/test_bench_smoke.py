"""Smoke tests of the benchmark harness: its oracles still tell a good
report from a corrupted one, and its tracer still wraps the library.

``bench/run.py --self-check`` runs three small jobs (a torsion
presentation, a Thurston lattice, a jacobi verify), corrupts one report
at a time and checks that the job oracles count each corruption as a
failure while the clean pass has none.  ``bench/passrun.py --spans``
runs small jobs with every layer of ``bench/tracer.py`` installed and
checks the layer counters.  No timing is asserted.
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


def traced_layers(tmp_path, argvs):
    """Per-layer metrics of one traced pass over ``argvs``, every job of
    which must exit 0."""
    tmp_path.mkdir(exist_ok=True)
    jobs = tmp_path / "jobs.json"
    jobs.write_text(json.dumps(argvs))
    env = dict(os.environ, PYTHONPATH="src")
    proc = subprocess.run(
        [sys.executable, os.path.join("bench", "passrun.py"),
         "--jobs", str(jobs), "--spans", str(tmp_path / "spans.tsv.gz")],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads(proc.stdout)
    assert [job["code"] for job in result["jobs"]] == [0] * len(argvs)
    return result["layers"]


def test_traced_pass_reaches_every_layer(tmp_path):
    """One traced pass of three small jobs: the tracer finds every layer
    it wraps (a renamed library function fails here) and the trig, cealg
    and cocycle counters move; the point cocycle keeps ``TrigPoly.diff``
    reached."""
    layers = traced_layers(tmp_path, [
        ["verify", "--suite", "cocycles", "--trials", "1"],
        ["lattice", "--preset", "thurston", "--r", "2"],
        ["cohomology", "--preset", "torus", "--m", "4"],
    ])
    for name in ("toruscalc.trig.mul_mode_pairs", "cealg.complex_matrices_calls",
                 "toruscalc.residuals.ks_calls", "toruscalc.trig.diff_calls"):
        assert layers[name] > 0, name


def test_traced_cohomology_builds_integer_complex(tmp_path):
    """Two traced cohomology jobs build one complex each, straight from the
    structure constants: no per-monomial ``ce_differential`` call.  They
    make the 12 Smith normal forms, with entries of at most 2 bits, that
    the full-scan pivot search made.  A traced lattice job then reads the
    representatives as ``Cochain``s (in the tracer's hook on
    ``integral_cohomology``) and makes its 2 reductions and 20 cup
    products."""
    layers = traced_layers(tmp_path / "cohomology", [
        ["cohomology", "--preset", "torus", "--m", "6"],
        ["cohomology", "--preset", "thurston", "--r", "2"],
    ])
    assert layers["cealg.complex_matrices_calls"] == 2
    assert layers["cealg.ce_differential_calls"] == 0
    assert layers["intlinalg.smith_normal_form_calls"] == 12
    assert layers["intlinalg.snf_max_bits"] == 2
    layers = traced_layers(tmp_path / "lattice", [
        ["lattice", "--preset", "thurston", "--r", "6", "--a", "1", "--b", "4"],
    ])
    assert layers["cohomring.rep_max_bits"] == 1
    assert layers["cohomring.reduce_calls"] == 2
    assert layers["cohomring.cup_calls"] == 20
