"""Fuzz gate for the CLI's input files: near-valid presentations and
suite descriptors either run or exit 2 with one error line.

Presentations are drawn around the schema's edges: dims 0-4, a basis
usually of length dim, bracket indices and target keys just outside
1..dim, coefficients of every JSON type and a few malformed rationals,
and containers of the wrong type.  Each runs in process as a
``cohomology --input`` job.
"""

import contextlib
import io
import json
import os
import tempfile

from hypothesis import given, settings
from hypothesis import strategies as st

from preqlat import SUITE_NAMES, cli
from preqlat.cli import InputError, parse_job

# valid spellings three times over, so that most brackets parse
COEFFICIENTS = ["1", "-2", 1] * 3 + ["1/2", "1/0", "1e3", "x", 0.5, True, None, [1]]


@st.composite
def presentations(draw):
    dim = draw(st.sampled_from([3, 4, 2, 3, 4, 1, 0]))     # dims with brackets, mostly
    size = draw(st.sampled_from([dim, dim, dim, dim + 1, max(dim - 1, 0)]))
    # index pairs and targets inside 1..dim three times over, then a few outside
    pairs = [(i, j) for i in range(1, dim + 1) for j in range(i + 1, dim + 1)] * 3
    pair = st.sampled_from(pairs + [(2, 1), (1, 1), (0, 1), (-1, 2), (1, dim + 1)])
    target = st.sampled_from([str(k) for k in range(1, dim + 1)] * 3
                             + ["0", str(dim + 1), "03", "x", " 2"])
    coefficients = st.dictionaries(target, st.sampled_from(COEFFICIENTS), max_size=3)
    bracket = st.builds(lambda ij, c: {"i": ij[0], "j": ij[1], "c": c}, pair, coefficients)
    brackets = draw(st.lists(bracket, max_size=4, unique_by=lambda b: (b["i"], b["j"])))
    data = {"dim": dim, "basis": [f"e{k}" for k in range(size)], "brackets": brackets}
    # now and then a repeated bracket or a container of the wrong type
    wrong = [[data], {**data, "basis": "e0e1"}, {**data, "brackets": None},
             {**data, "brackets": brackets + brackets[:1]}, {**data, "brackets": [[1, 2]]},
             {**data, "brackets": [{"i": 1, "j": 2, "c": [1]}]}]
    return draw(st.sampled_from([data] * 10 + wrong))


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def _blank_timestamp(text):
    report = json.loads(text)
    report["timestamp"] = ""
    return report


@settings(max_examples=300, deadline=None, derandomize=True)
@given(presentations())
def test_presentation_files_run_or_exit_2(data):
    """Exit 0 with the same report on a rerun, or exit 2 with one error
    line that names the file's own 1-based numbers and no flag."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "presentation.json")
        with open(path, "w") as fh:
            json.dump(data, fh)
        argv = ["cohomology", "--input", path, "--format", "json"]
        code, out, err = _run(argv)
        assert code in (0, 2), (code, err)
        if code == 0:
            assert err == ""
            rerun = _run(argv)
            assert rerun[0] == 0 and _blank_timestamp(rerun[1]) == _blank_timestamp(out)
        else:
            assert out == "" and err.startswith("error: ") and err.count("\n") == 1, err
            assert "Traceback" not in err and "0 <=" not in err and "--bracket" not in err, err


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.lists(st.sampled_from(SUITE_NAMES + ("all", "bogus")), min_size=1, max_size=4))
def test_suite_descriptors_name_each_suite_once(suites):
    """A descriptor is refused exactly when it names an unknown suite, or
    names a suite twice with ``all`` spelled out as every suite."""
    spelled = [name for s in suites for name in (SUITE_NAMES if s == "all" else (s,))]
    refused = "bogus" in suites or len(set(spelled)) < len(spelled)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "suite.json")
        with open(path, "w") as fh:
            json.dump({"suites": suites}, fh)
        try:
            job = parse_job(["verify", "--input", path])
        except InputError:
            assert refused
        else:
            assert not refused and job.suites == suites
