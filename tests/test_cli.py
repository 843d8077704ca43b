"""Job parsing, report structure, determinism, and exit codes."""

import hashlib
import json
import random
import re
from math import comb

import pytest

from preqlat import cli
from preqlat.cli import (
    InputError,
    load_presentation,
    main,
    parse_job,
    parse_omega_spec,
    reference_examples,
    render,
    run,
)
from preqlat.exact import ExactScalar
from fractions import Fraction

from util import two_step_presentation


def run_argv(argv):
    job = parse_job(argv)
    return run(job)


# -- parsing ----------------------------------------------------------------

def test_parse_lattice_job():
    job = parse_job(["lattice", "--preset", "thurston", "--r", "1", "--a", "1",
                     "--b", "1", "--c", "0"])
    assert job.command == "lattice"
    assert job.params == {"r": 1, "a": 1, "b": 1, "c": 0}
    assert job.level == 1


def test_parse_verify_job():
    job = parse_job(["verify", "--suite", "pullback", "--trials", "200", "--seed", "42"])
    assert job.suites == ["pullback"]
    assert job.trials == 200
    assert job.seed == 42


def test_parse_surface_sphere():
    job = parse_job(["lattice", "--preset", "surface", "--g", "0", "--vol", "1"])
    report, code = run(job)
    assert code == 0
    assert report["lattice"]["rank"] == 0


@pytest.mark.parametrize(
    "argv,msg",
    [
        (["lattice", "--preset", "thurston", "--r", "0"], "--r"),
        (["lattice", "--preset", "thurston", "--a", "x/y"], "malformed rational"),
        (["lattice", "--preset", "thurston", "--a", "1/0"], "malformed rational"),
        (["lattice", "--preset", "thurston", "--r", "2", "--c", "5"], "--c"),
        (["lattice", "--preset", "surface", "--g", "-1"], "--g"),
        (["lattice", "--preset", "surface", "--g", "1", "--vol", "0"], "--vol"),
        (["lattice", "--preset", "torus", "--m", "3"], "--m"),
        (["lattice", "--preset", "thurston", "--level", "0"], "--level"),
        (["verify", "--suite", "bogus"], "unknown suite"),
        (["verify", "--trials", "0"], "--trials"),
        (["cohomology"], "--preset or --input"),
        (["lattice", "--preset", "thurston", "--a", "1/2"], "--a and --b must be nonzero"),
        (["lattice", "--preset", "thurston", "--b", "0"], "--a and --b must be nonzero"),
        (["lattice", "--preset", "torus"], "torus preset needs --m"),
        (["cohomology", "--preset", "surface"], "surface preset needs --g"),
        (["verify", "--input", ["jacobi"]], "suite descriptor must be a JSON object"),
    ],
)
def test_input_errors(argv, msg, tmp_path):
    # an argument that is not a string stands for a JSON file holding it
    path = tmp_path / "input.json"
    for arg in argv:
        if not isinstance(arg, str):
            path.write_text(json.dumps(arg))
    with pytest.raises(InputError, match=msg):
        parse_job([a if isinstance(a, str) else str(path) for a in argv])


def test_unknown_flag_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        parse_job(["lattice", "--preset", "thurston", "--frobnicate", "1"])
    assert exc.value.code == 2


def test_shared_parser_keeps_no_state_between_jobs():
    """One parser serves every job of a process: an appended --suite, or
    an argv that argparse rejects, leaves nothing behind for the next."""
    assert cli._build_parser() is cli._build_parser()
    assert parse_job(["verify", "--suite", "jacobi"]).suites == ["jacobi"]
    assert parse_job(["verify", "--suite", "jacobi"]).suites == ["jacobi"]
    assert parse_job(["verify"]).suites == ["all"]
    with pytest.raises(SystemExit):
        parse_job(["lattice", "--preset", "thurston", "--frobnicate", "1"])
    job = parse_job(["lattice", "--preset", "thurston", "--r", "2"])
    assert job.params == {"r": 2, "a": 1, "b": 1, "c": 0}
    assert job.level == 1


def test_main_maps_input_error_to_exit_2(capsys):
    assert main(["lattice", "--preset", "thurston", "--r", "-3"]) == 2
    assert "error:" in capsys.readouterr().err


# -- omega spec ---------------------------------------------------------------

def test_parse_omega_spec():
    c = parse_omega_spec("e12+e34", 4)
    assert c.coeffs == {(0, 1): 1, (2, 3): 1}
    c = parse_omega_spec("2e12-e34", 4)
    assert c.coeffs == {(0, 1): 2, (2, 3): -1}
    c = parse_omega_spec("1/2e12", 2)
    assert c.coeffs == {(0, 1): Fraction(1, 2)}
    c = parse_omega_spec("e1,2-3e9,10", 10)
    assert c.coeffs == {(0, 1): 1, (8, 9): -3}


@pytest.mark.parametrize(
    "spec", ["", "e1", "e13+x", "e21", "e15", "e²1", "e1,", "e1,2,3", "e1,100"]
)
def test_bad_omega_specs(spec):
    with pytest.raises(InputError):
        parse_omega_spec(spec, 4)


# -- presentation input ----------------------------------------------------------

def test_presentation_roundtrip(tmp_path):
    path = tmp_path / "heis.json"
    path.write_text(json.dumps({
        "dim": 4,
        "basis": ["x", "p", "z", "h"],
        "brackets": [{"i": 1, "j": 2, "c": {"4": "2"}}],
    }))
    lie = load_presentation(path)
    assert lie.dim == 4
    assert lie.structure == {(0, 1): {3: Fraction(2)}}
    report, code = run_argv(["cohomology", "--input", str(path)])
    assert code == 0
    frag = report["cohomology"][2]
    assert frag["betti"] == 4 and frag["torsion"] == [2]


def test_presentation_rational_constants_rejected_for_cohomology(tmp_path):
    path = tmp_path / "half.json"
    path.write_text(json.dumps({
        "dim": 3,
        "basis": ["a", "b", "c"],
        "brackets": [{"i": 1, "j": 2, "c": {"3": "1/2"}}],
    }))
    with pytest.raises(InputError, match="non-integral basis"):
        run_argv(["cohomology", "--input", str(path)])


# Validation runs before the complex is built, so a Jacobi-failing
# presentation with a rational constant gets the Jacobi message.
@pytest.mark.parametrize(
    "brackets, msg",
    [
        ([{"i": 1, "j": 2, "c": {"3": "1"}}, {"i": 1, "j": 3, "c": {"1": "1"}}],
         "cealg: Jacobi identity fails on basis triple (0, 1, 2)"),
        ([{"i": 1, "j": 2, "c": {"3": "1/2"}}, {"i": 1, "j": 3, "c": {"1": "1"}}],
         "cealg: Jacobi identity fails on basis triple (0, 1, 2)"),
        ([{"i": 1, "j": 2, "c": {"3": "1"}}, {"i": 1, "j": 3, "c": {"1": "-2"}},
          {"i": 2, "j": 3, "c": {"2": "2"}}],
         "cealg: presentation is not nilpotent"),
    ],
    ids=["jacobi", "jacobi-half", "sl2"],
)
def test_cohomology_input_rejected_by_validation(brackets, msg, tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"dim": 3, "basis": ["a", "b", "c"], "brackets": brackets}))
    argv = ["cohomology", "--input", str(path)]
    with pytest.raises(InputError, match=re.escape(msg)):
        run_argv(argv)
    assert main(argv) == 2
    assert capsys.readouterr().err == f"error: {msg}\n"


def test_malformed_presentation(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    with pytest.raises(InputError, match="cannot read"):
        load_presentation(path)
    path.write_text(json.dumps({"dim": 2}))
    with pytest.raises(InputError, match="malformed presentation"):
        load_presentation(path)


# -- reports ------------------------------------------------------------------------

def test_lattice_report_values():
    report, code = run_argv(
        ["lattice", "--preset", "thurston", "--r", "6", "--a", "1", "--b", "4",
         "--c", "3", "--level", "2"]
    )
    assert code == 0
    lat = report["lattice"]
    assert lat["rank"] == 1
    assert lat["generators"][0]["display"] == "3*x*"
    assert lat["prefactor"] == {"num": "3", "den": "2", "pi_power": -1}
    assert report["volume"] == "4"
    assert len(lat["euler_candidates"]) == 6


# JSON reports (timestamp removed) as the dense-Fraction cohomology engine
# printed them; the sparse class arithmetic and the reuse of the lattice's
# own Gysin kernel and volume must leave every byte in place.
PINNED_LATTICE_REPORTS = [
    (
        ["lattice", "--preset", "torus", "--m", "6", "--omega", "3e12+e13+3e34+2e46+3e56"],
        '{"job": {"command": "lattice", "format": "json", "level": 1, "params": {"m": "6", '
        '"omega": "3e12+e13+3e34+2e46+3e56"}, "preset": "torus"}, "lattice": {"basis": '
        '["dx1", "dx2", "dx3", "dx4", "dx5", "dx6"], "euler_candidates": [{"kernel": [], '
        '"torsion": []}], "generators": [], "level": 1, "prefactor": {"den": "27", "num": "4", '
        '"pi_power": -1}, "rank": 0}, "tool": {"name": "preqlat", "version": "0.1.0"}, '
        '"volume": "27"}',
    ),
    (
        ["lattice", "--preset", "thurston", "--r", "6", "--a", "1", "--b", "4", "--c", "3"],
        '{"job": {"command": "lattice", "format": "json", "level": 1, "params": {"a": "1", '
        '"b": "4", "c": "3", "r": "6"}, "preset": "thurston"}, "lattice": {"basis": ["x*", '
        '"p*", "z*"], "euler_candidates": [{"kernel": [[3, 0, 0]], "torsion": [0]}, '
        '{"kernel": [[3, 0, 0]], "torsion": [1]}, {"kernel": [[3, 0, 0]], "torsion": [2]}, '
        '{"kernel": [[3, 0, 0]], "torsion": [3]}, {"kernel": [[3, 0, 0]], "torsion": [4]}, '
        '{"kernel": [[3, 0, 0]], "torsion": [5]}], "generators": [{"coords": ["3", "0", "0"], '
        '"display": "3*x*", "names": ["x*", "p*", "z*"]}], "level": 1, "prefactor": '
        '{"den": "4", "num": "3", "pi_power": -1}, "rank": 1}, "tool": {"name": "preqlat", '
        '"version": "0.1.0"}, "volume": "4"}',
    ),
    (
        ["lattice", "--preset", "surface", "--g", "2", "--vol", "3"],
        '{"job": {"command": "lattice", "format": "json", "level": 1, "params": {"g": "2", '
        '"vol": "3"}, "preset": "surface"}, "lattice": {"basis": ["a1", "a2", "b1", "b2"], '
        '"euler_candidates": [{"kernel": [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], '
        '[0, 0, 0, 1]], "torsion": []}], "generators": [{"coords": ["1", "0", "0", "0"], '
        '"display": "a1", "names": ["a1", "a2", "b1", "b2"]}, {"coords": ["0", "1", "0", "0"], '
        '"display": "a2", "names": ["a1", "a2", "b1", "b2"]}, {"coords": ["0", "0", "1", "0"], '
        '"display": "b1", "names": ["a1", "a2", "b1", "b2"]}, {"coords": ["0", "0", "0", "1"], '
        '"display": "b2", "names": ["a1", "a2", "b1", "b2"]}], "level": 1, "prefactor": '
        '{"den": "3", "num": "2", "pi_power": -1}, "rank": 4}, "tool": {"name": "preqlat", '
        '"version": "0.1.0"}, "volume": "3"}',
    ),
]


@pytest.mark.parametrize("argv, expected", PINNED_LATTICE_REPORTS,
                         ids=["torus6", "thurston6", "surface2"])
def test_lattice_report_bytes_pinned(argv, expected, capsys):
    assert main(argv + ["--format", "json"]) == 0
    report = json.loads(capsys.readouterr().out)
    report.pop("timestamp")
    assert json.dumps(report, sort_keys=True) == expected


# JSON reports (timestamp and input path removed) of ``cohomology --input``
# on two seeded 2-step presentations (``util.two_step_presentation``
# arguments first): a dim-7 one with torsion Z/3 + Z/3 + Z/6 in degrees 3
# and 5, and a half-density dim-8 one.  Building the differentials from
# the structure constants and checking d^2 = 0 on sparse columns must
# leave every byte in place.
PINNED_COHOMOLOGY_REPORTS = [
    (
        ("7-2", 7, 2, 3, 0.5),
        '{"cohomology": [{"betti": 1, "degree": 0, "generators": ["1"], "torsion": []}, '
        '{"betti": 5, "degree": 1, "generators": ["e1*", "e2*", "e3*", "e4*", "e5*"], '
        '"torsion": []}, {"betti": 9, "degree": 2, "generators": ["e1*^e3*", "e1*^e4*", '
        '"e1*^e5*", "e2*^e3*", "e2*^e5*", "e2*^e7* - 2*e5*^e6* + 4*e5*^e7*", "e3*^e4*", '
        '"e3*^e5*", "e4*^e5*"], "torsion": []}, {"betti": 15, "degree": 3, '
        '"generators": ["e1*^e2*^e7* + 2*e4*^e5*^e7*", "e1*^e3*^e4*", '
        '"e1*^e3*^e6* - 3*e3*^e4*^e7* + 8*e3*^e5*^e6* - 15*e3*^e5*^e7*", '
        '"3*e1*^e3*^e7* + 2*e1*^e4*^e6* - 3*e3*^e4*^e7* + 9*e3*^e5*^e7* + 2*e4*^e5*^e7*", '
        '"e1*^e4*^e7* + 3*e4*^e5*^e7*", "e1*^e5*^e6* + 3*e4*^e5*^e7*", '
        '"e1*^e5*^e7* + e4*^e5*^e7*", "e2*^e3*^e6*", "e2*^e3*^e7* + 2*e3*^e5*^e6* - 4*e3*^e5*'
        '^e7*", "e2*^e4*^e6* - 3*e3*^e5*^e6* + 6*e3*^e5*^e7*", "e2*^e4*^e7*", "e2*^e5*^e6*", '
        '"e2*^e5*^e7*", "e3*^e4*^e6* - 2*e3*^e4*^e7* + 5*e3*^e5*^e6* - 10*e3*^e5*^e7*", '
        '"e4*^e5*^e6* - 2*e4*^e5*^e7*", "e1*^e3*^e5*", '
        '"6*e1*^e2*^e5* - 4*e1*^e4*^e5* + 4*e2*^e3*^e5* + 3*e3*^e4*^e5*", '
        '"4*e1*^e2*^e5* - 3*e1*^e4*^e5* + 3*e2*^e3*^e5* + 2*e3*^e4*^e5*"], "torsion": [3, 3, '
        '6]}, {"betti": 15, "degree": 4, "generators": ["e1*^e2*^e3*^e6*", '
        '"e1*^e2*^e3*^e7* + 2*e3*^e4*^e5*^e7*", "e1*^e2*^e4*^e6* - 3*e3*^e4*^e5*^e7*", '
        '"e1*^e2*^e4*^e7*", "e1*^e2*^e5*^e7*", "e1*^e3*^e4*^e6* - e3*^e4*^e5*^e7*", '
        '"e1*^e3*^e4*^e7* - 3*e3*^e4*^e5*^e7*", "e1*^e3*^e5*^e6* - 3*e3*^e4*^e5*^e7*", '
        '"2*e1*^e3*^e5*^e7* - e1*^e4*^e5*^e6* - 2*e3*^e4*^e5*^e7*", "e1*^e4*^e5*^e7*", '
        '"e2*^e3*^e4*^e7*", "e2*^e3*^e5*^e6*", "2*e2*^e3*^e5*^e7* - e2*^e4*^e5*^e6*", '
        '"e2*^e5*^e6*^e7*", "e3*^e4*^e5*^e6* - 2*e3*^e4*^e5*^e7*"], "torsion": []}, '
        '{"betti": 9, "degree": 5, "generators": ["4*e1*^e2*^e3*^e4*^e6* - 8*e1*^e2*^e3*^e4*^'
        'e7* + 2*e1*^e2*^e3*^e5*^e7* + e1*^e3*^e4*^e5*^e6* + 12*e2*^e3*^e4*^e5*^e6*", '
        '"e1*^e2*^e3*^e6*^e7* - 4*e1*^e3*^e5*^e6*^e7* + 6*e3*^e4*^e5*^e6*^e7*", '
        '"e1*^e2*^e4*^e6*^e7* - 3*e1*^e3*^e5*^e6*^e7* + 3*e3*^e4*^e5*^e6*^e7*", '
        '"e1*^e2*^e5*^e6*^e7*", "e1*^e3*^e4*^e6*^e7* + 5*e1*^e3*^e5*^e6*^e7* - 8*e3*^e4*^e5*^'
        'e6*^e7*", "e1*^e4*^e5*^e6*^e7*", "e2*^e3*^e4*^e6*^e7*", "e2*^e3*^e5*^e6*^e7*", '
        '"e2*^e4*^e5*^e6*^e7*", "e1*^e3*^e4*^e5*^e7*", '
        '"8*e1*^e2*^e3*^e4*^e6* - 15*e1*^e2*^e3*^e4*^e7* + 4*e1*^e2*^e3*^e5*^e7* + 2*e1*^e3*^'
        'e4*^e5*^e6* + 24*e2*^e3*^e4*^e5*^e6*", "17*e1*^e2*^e3*^e4*^e6* - 32*e1*^e2*^e3*^e4*^'
        'e7* + 8*e1*^e2*^e3*^e5*^e7* + 4*e1*^e3*^e4*^e5*^e6* + 48*e2*^e3*^e4*^e5*^e6*"], '
        '"torsion": [3, 3, 6]}, {"betti": 5, "degree": 6, '
        '"generators": ["e1*^e2*^e3*^e4*^e6*^e7*", "e1*^e2*^e3*^e5*^e6*^e7*", '
        '"e1*^e2*^e4*^e5*^e6*^e7*", "e1*^e3*^e4*^e5*^e6*^e7*", "e2*^e3*^e4*^e5*^e6*^e7*"], '
        '"torsion": []}, {"betti": 1, "degree": 7, "generators": ["e1*^e2*^e3*^e4*^e5*^e6*^e7'
        '*"], "torsion": []}], "job": {"command": "cohomology", "format": "json"}, '
        '"tool": {"name": "preqlat", "version": "0.1.0"}}'
    ),
    (
        ("8-4", 8, 3, 2, 0.5),
        '{"cohomology": [{"betti": 1, "degree": 0, "generators": ["1"], "torsion": []}, '
        '{"betti": 5, "degree": 1, "generators": ["e1*", "e2*", "e3*", "e4*", "e5*"], '
        '"torsion": []}, {"betti": 15, "degree": 2, "generators": ["e1*^e2*", "e1*^e3*", '
        '"e1*^e4*", "e1*^e5*", "e2*^e3*", "e2*^e5*", "e2*^e6* + e2*^e8* + 2*e3*^e8* + 4*e5*^e'
        '7* - 2*e5*^e8*", "2*e2*^e7* + e2*^e8* - 2*e3*^e8* - 4*e5*^e7* - 6*e5*^e8*", '
        '"e3*^e6*", "e3*^e7* + 2*e5*^e7*", "e4*^e5*", "e4*^e6* - 2*e5*^e7*", '
        '"e4*^e7* - e5*^e7*", "e4*^e8* + 2*e5*^e7*", "e5*^e6* + 2*e5*^e7*", '
        '"e3*^e5* + e4*^e5*"], "torsion": [4]}, {"betti": 27, "degree": 3, '
        '"generators": ["e1*^e2*^e3*", "e1*^e2*^e5*", '
        '"e1*^e2*^e6* + e1*^e2*^e8* + 2*e1*^e3*^e8* + 4*e1*^e5*^e7* - 2*e1*^e5*^e8*", '
        '"2*e1*^e2*^e7* + e1*^e2*^e8* - 2*e1*^e3*^e8* - 4*e1*^e5*^e7* - 6*e1*^e5*^e8*", '
        '"e1*^e3*^e6*", "e1*^e3*^e7* + 2*e1*^e5*^e7*", "e1*^e4*^e5*", '
        '"e1*^e4*^e6* - 2*e1*^e5*^e7*", "e1*^e4*^e7* - e1*^e5*^e7*", '
        '"e1*^e4*^e8* + 2*e1*^e5*^e7*", "e1*^e5*^e6* + 2*e1*^e5*^e7*", "e2*^e3*^e6*", '
        '"e2*^e3*^e7* + 2*e3*^e5*^e8*", "e2*^e3*^e8* + 2*e3*^e5*^e8*", '
        '"e2*^e4*^e7* - e3*^e5*^e8*", "e2*^e4*^e8* + 2*e3*^e5*^e8*", '
        '"e2*^e5*^e6* + 2*e3*^e5*^e8*", "e2*^e5*^e7* - e3*^e5*^e8*", "e2*^e5*^e8*", '
        '"e3*^e4*^e7*", "e3*^e5*^e6*", "e3*^e5*^e7*", '
        '"e3*^e6*^e7* + e4*^e6*^e7* + e5*^e6*^e7*", "e4*^e5*^e6*", "e4*^e5*^e7*", '
        '"e4*^e5*^e8*", "2*e4*^e6*^e7* + e4*^e6*^e8* - 2*e4*^e7*^e8*", '
        '"e1*^e3*^e4* - e1*^e4*^e5*"], "torsion": [4]}, {"betti": 32, "degree": 4, '
        '"generators": ["e1*^e2*^e3*^e6*", "e1*^e2*^e3*^e7* + 2*e1*^e2*^e5*^e7*", '
        '"e1*^e2*^e3*^e8* + 2*e1*^e2*^e5*^e7*", "e1*^e2*^e4*^e7* - e1*^e2*^e5*^e7*", '
        '"e1*^e2*^e4*^e8* + 2*e1*^e2*^e5*^e7*", "e1*^e2*^e5*^e6* + 2*e1*^e2*^e5*^e7*", '
        '"e1*^e2*^e5*^e8*", "e1*^e3*^e4*^e6*", "e1*^e3*^e4*^e7*", "e1*^e3*^e4*^e8*", '
        '"e1*^e3*^e5*^e7*", "e1*^e3*^e6*^e7* + e1*^e4*^e6*^e7* + e1*^e5*^e6*^e7*", '
        '"e1*^e4*^e5*^e6*", "e1*^e4*^e5*^e7*", "e1*^e4*^e5*^e8*", '
        '"2*e1*^e4*^e6*^e7* + e1*^e4*^e6*^e8* - 2*e1*^e4*^e7*^e8*", "e2*^e3*^e5*^e7*", '
        '"e2*^e3*^e6*^e7* + 2*e3*^e5*^e6*^e8*", "e2*^e3*^e6*^e8* + 2*e3*^e5*^e6*^e8*", '
        '"e2*^e3*^e7*^e8* + 2*e2*^e5*^e7*^e8* + 2*e3*^e5*^e7*^e8*", "e2*^e4*^e5*^e8*", '
        '"e2*^e4*^e6*^e7* - e3*^e5*^e6*^e8* + 2*e3*^e5*^e7*^e8*", '
        '"e2*^e4*^e6*^e8* - 2*e2*^e5*^e7*^e8* + 2*e3*^e5*^e6*^e8*", '
        '"e2*^e4*^e7*^e8* - e2*^e5*^e7*^e8* + 2*e3*^e5*^e7*^e8*", '
        '"e2*^e5*^e6*^e7* - e3*^e5*^e6*^e8* - 2*e3*^e5*^e7*^e8*", '
        '"e2*^e5*^e6*^e8* + 2*e2*^e5*^e7*^e8*", "e3*^e4*^e6*^e7*", "e3*^e4*^e7*^e8*", '
        '"e3*^e5*^e6*^e7*", "e4*^e5*^e6*^e7*", "e4*^e5*^e6*^e8*", "e4*^e5*^e7*^e8*", '
        '"2*e2*^e3*^e5*^e7* + e2*^e3*^e5*^e8* + e2*^e4*^e5*^e8* + 12*e3*^e4*^e5*^e7*", '
        '"e3*^e4*^e5*^e7*"], "torsion": [4, 4]}, {"betti": 27, "degree": 5, '
        '"generators": ["e1*^e2*^e3*^e5*^e7*", "e1*^e2*^e3*^e6*^e7* + 2*e1*^e3*^e5*^e6*^e8*",'
        ' "e1*^e2*^e3*^e6*^e8* + 2*e1*^e3*^e5*^e6*^e8*", '
        '"e1*^e2*^e3*^e7*^e8* + 2*e1*^e2*^e5*^e7*^e8* + 2*e1*^e3*^e5*^e7*^e8*", '
        '"e1*^e2*^e4*^e5*^e8*", "e1*^e2*^e4*^e6*^e7* - e1*^e3*^e5*^e6*^e8* + 2*e1*^e3*^e5*^e7'
        '*^e8*", "e1*^e2*^e4*^e6*^e8* - 2*e1*^e2*^e5*^e7*^e8* + 2*e1*^e3*^e5*^e6*^e8*", '
        '"e1*^e2*^e4*^e7*^e8* - e1*^e2*^e5*^e7*^e8* + 2*e1*^e3*^e5*^e7*^e8*", '
        '"e1*^e2*^e5*^e6*^e7* - e1*^e3*^e5*^e6*^e8* - 2*e1*^e3*^e5*^e7*^e8*", '
        '"e1*^e2*^e5*^e6*^e8* + 2*e1*^e2*^e5*^e7*^e8*", "e1*^e3*^e4*^e6*^e7*", '
        '"e1*^e3*^e4*^e7*^e8*", "e1*^e3*^e5*^e6*^e7*", "e1*^e4*^e5*^e6*^e7*", '
        '"e1*^e4*^e5*^e6*^e8*", "e1*^e4*^e5*^e7*^e8*", "e2*^e3*^e4*^e7*^e8*", '
        '"e2*^e3*^e5*^e6*^e7*", "e2*^e3*^e5*^e6*^e8*", "e2*^e3*^e5*^e7*^e8*", '
        '"e2*^e3*^e6*^e7*^e8* + e2*^e4*^e6*^e7*^e8* + e2*^e5*^e6*^e7*^e8* + 4*e3*^e5*^e6*^e7*'
        '^e8*", "e2*^e4*^e5*^e6*^e8*", "e2*^e4*^e5*^e7*^e8*", "e3*^e4*^e5*^e6*^e7*", '
        '"e3*^e4*^e5*^e7*^e8*", "e3*^e4*^e6*^e7*^e8*", "e4*^e5*^e6*^e7*^e8*", '
        '"2*e1*^e2*^e3*^e5*^e7* + e1*^e2*^e3*^e5*^e8* + e1*^e2*^e4*^e5*^e8* + 12*e1*^e3*^e4*^'
        'e5*^e7*", "e1*^e3*^e4*^e5*^e7*"], "torsion": [4, 4]}, {"betti": 15, "degree": 6, '
        '"generators": ["e1*^e2*^e3*^e4*^e7*^e8*", "e1*^e2*^e3*^e5*^e6*^e7*", '
        '"e1*^e2*^e3*^e5*^e6*^e8*", "e1*^e2*^e3*^e5*^e7*^e8*", '
        '"e1*^e2*^e3*^e6*^e7*^e8* + e1*^e2*^e4*^e6*^e7*^e8* + e1*^e2*^e5*^e6*^e7*^e8* + 4*e1*'
        '^e3*^e5*^e6*^e7*^e8*", "e1*^e2*^e4*^e5*^e6*^e8*", "e1*^e2*^e4*^e5*^e7*^e8*", '
        '"e1*^e3*^e4*^e5*^e6*^e7*", "e1*^e3*^e4*^e5*^e7*^e8*", "e1*^e3*^e4*^e6*^e7*^e8*", '
        '"e1*^e4*^e5*^e6*^e7*^e8*", "e2*^e3*^e4*^e6*^e7*^e8*", "e2*^e3*^e5*^e6*^e7*^e8*", '
        '"e2*^e4*^e5*^e6*^e7*^e8*", "e3*^e4*^e5*^e6*^e7*^e8*", "e2*^e3*^e4*^e5*^e7*^e8*"], '
        '"torsion": [4]}, {"betti": 5, "degree": 7, "generators": ["e1*^e2*^e3*^e4*^e6*^e7*^e'
        '8*", "e1*^e2*^e3*^e5*^e6*^e7*^e8*", "e1*^e2*^e4*^e5*^e6*^e7*^e8*", '
        '"e1*^e3*^e4*^e5*^e6*^e7*^e8*", "e2*^e3*^e4*^e5*^e6*^e7*^e8*", '
        '"e1*^e2*^e3*^e4*^e5*^e7*^e8*"], "torsion": [4]}, {"betti": 1, "degree": 8, '
        '"generators": ["e1*^e2*^e3*^e4*^e5*^e6*^e7*^e8*"], "torsion": []}], '
        '"job": {"command": "cohomology", "format": "json"}, "tool": {"name": "preqlat", '
        '"version": "0.1.0"}}'
    ),
]


@pytest.mark.parametrize("spec, expected", PINNED_COHOMOLOGY_REPORTS,
                         ids=["dim7-torsion", "dim8-half"])
def test_cohomology_report_bytes_pinned(spec, expected, tmp_path, capsys):
    lie = two_step_presentation(*spec)
    path = tmp_path / "presentation.json"
    path.write_text(json.dumps({
        "dim": lie.dim,
        "basis": list(lie.basis_names),
        "brackets": [
            {"i": i + 1, "j": j + 1, "c": {str(k + 1): str(c) for k, c in comps.items()}}
            for (i, j), comps in sorted(lie.structure.items())
        ],
    }))
    assert main(["cohomology", "--input", str(path), "--format", "json"]) == 0
    report = json.loads(capsys.readouterr().out)
    report.pop("timestamp")
    assert report["job"].pop("input") == str(path)
    assert json.dumps(report, sort_keys=True) == expected


# SHA-256 of the JSON report (timestamp and input path removed) of
# ``cohomology --input`` on a dim-9 2-step presentation with torsion in
# degrees 3 to 7 (Z/2 + Z/2 + Z/144 + Z/144 in degree 3), too long to pin
# as a string.
PINNED_DIM9_REPORT_SHA256 = "1ea99ec0b491f3903061e8e9ad624935004622d354103a7cf92368f9d2e1e34e"


def test_cohomology_report_dim9_digest_pinned(tmp_path, capsys):
    lie = two_step_presentation("9-3", 9, 3, 2, 0.5)
    path = tmp_path / "presentation.json"
    path.write_text(json.dumps({
        "dim": lie.dim,
        "basis": list(lie.basis_names),
        "brackets": [
            {"i": i + 1, "j": j + 1, "c": {str(k + 1): str(c) for k, c in comps.items()}}
            for (i, j), comps in sorted(lie.structure.items())
        ],
    }))
    assert main(["cohomology", "--input", str(path), "--format", "json"]) == 0
    report = json.loads(capsys.readouterr().out)
    report.pop("timestamp")
    assert report["job"].pop("input") == str(path)
    torsion = {frag["degree"]: frag["torsion"] for frag in report["cohomology"]}
    assert torsion[3] == [2, 2, 144, 144]
    digest = hashlib.sha256(json.dumps(report, sort_keys=True).encode()).hexdigest()
    assert digest == PINNED_DIM9_REPORT_SHA256


def test_cohomology_report_torus():
    report, code = run_argv(["cohomology", "--preset", "torus", "--m", "4"])
    assert code == 0
    bettis = [frag["betti"] for frag in report["cohomology"]]
    assert bettis == [1, 4, 6, 4, 1]


def test_cohomology_report_surface_stops_at_top_degree():
    report, code = run_argv(["cohomology", "--preset", "surface", "--g", "2"])
    assert code == 0
    bettis = [frag["betti"] for frag in report["cohomology"]]
    assert bettis == [1, 4, 1]


def test_exact_scalar_json_roundtrip():
    s = ExactScalar(Fraction(-7, 3), -1)
    assert ExactScalar.from_json(s.to_json()) == s
    big = ExactScalar(Fraction(10**40 + 1, 10**20 + 7), 2)
    assert ExactScalar.from_json(json.loads(json.dumps(big.to_json()))) == big


def test_report_json_roundtrip():
    report, _ = run_argv(
        ["lattice", "--preset", "thurston", "--r", "2", "--format", "json"]
    )
    text = render(report, "json")
    again = json.loads(text)
    assert again["lattice"] == json.loads(json.dumps(report["lattice"]))
    pf = ExactScalar.from_json(again["lattice"]["prefactor"])
    assert pf == ExactScalar(Fraction(3), -1)


def test_verify_deterministic_bytes(tmp_path):
    out1 = tmp_path / "a.json"
    out2 = tmp_path / "b.json"
    argv = ["verify", "--suite", "jacobi", "--suite", "flux", "--trials", "5",
            "--seed", "42", "--format", "json"]
    assert main(argv + ["--output", str(out1)]) == 0
    assert main(argv + ["--output", str(out2)]) == 0
    a = json.loads(out1.read_text())
    b = json.loads(out2.read_text())
    a.pop("timestamp")
    b.pop("timestamp")
    assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)


def test_unwritable_output_is_an_input_error(tmp_path, capsys, monkeypatch):
    """An --output path in a missing directory exits 2 before any work."""
    def forbidden(*args, **kwargs):
        raise AssertionError("a job with an unwritable output was started")

    for name in ("nilmanifold_ring", "torus_ring", "surface_ring"):
        monkeypatch.setattr(cli, name, forbidden)
    out = tmp_path / "missing" / "x.json"
    assert main(["lattice", "--preset", "thurston", "--r", "6", "--output", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and not out.exists()
    assert captured.err.startswith("error: cannot write report:")
    assert captured.err.count("\n") == 1 and str(out) in captured.err


def test_unwritable_output_after_the_run_exits_2(tmp_path, capsys):
    """An --output that names a directory passes the check before the run
    and fails when the report is written: one error line, exit 2."""
    assert main(["lattice", "--preset", "thurston", "--output", str(tmp_path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.count("\n") == 1
    assert captured.err.startswith("error: cannot write report: [Errno")
    assert str(tmp_path) in captured.err


# Runs each job in process and prints [exit code, JSON report with the
# timestamp blanked] per job, as one JSON list.
_REPORTS_SCRIPT = """\
import contextlib, io, json, re, sys
from preqlat.cli import main
out = []
for argv in json.loads(sys.argv[1]):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(argv + ["--format", "json"])
    out.append([code, re.sub(r'"timestamp": "[^"]*"', '"timestamp": ""', buf.getvalue())])
print(json.dumps(out))
"""


def test_reports_do_not_depend_on_the_hash_seed(tmp_path):
    """The byte-determinism oracle: the JSON reports of a job of each
    subcommand, run in a fresh interpreter under PYTHONHASHSEED 0 and 3,
    are identical once the timestamp is removed."""
    import os
    import subprocess
    import sys

    lie = two_step_presentation("hash-seed", 7, 2, 2)
    path = _write_presentation(tmp_path, {
        "dim": lie.dim,
        "basis": list(lie.basis_names),
        "brackets": [
            {"i": i + 1, "j": j + 1, "c": {str(k + 1): str(c) for k, c in comps.items()}}
            for (i, j), comps in sorted(lie.structure.items())
        ],
    })
    jobs = [
        ["lattice", "--preset", "thurston", "--r", "6", "--a", "1", "--b", "4"],
        ["cohomology", "--input", path],
        ["lattice", "--preset", "surface", "--g", "3", "--vol", "2"],
        ["verify", "--suite", "cocycles", "--suite", "jacobi", "--trials", "2"],
        ["examples"],
    ]
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    runs = []
    for seed in ("0", "3"):
        env = {**os.environ, "PYTHONHASHSEED": seed,
               "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        proc = subprocess.run([sys.executable, "-c", _REPORTS_SCRIPT, json.dumps(jobs)],
                              env=env, capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        runs.append(json.loads(proc.stdout))
    assert [code for code, _ in runs[0]] == [0] * len(jobs)
    assert all(json.loads(text)["timestamp"] == "" for _, text in runs[0])
    assert runs[0] == runs[1]


def _started(exe):
    """Whether an interpreter on PATH runs; a shim for a version that is
    not installed exits non-zero."""
    import subprocess

    try:
        return subprocess.run([exe, "-c", "pass"], capture_output=True, timeout=60).returncode == 0
    except (OSError, subprocess.TimeoutExpired):
        return False


def test_reports_do_not_depend_on_the_interpreter():
    """``requires-python >= 3.10``: every python3.X (X = 10-13) on PATH that
    starts runs a fixed handful of small jobs to the same JSON report bytes,
    timestamp removed, as the interpreter running the tests.  The library
    is stdlib-only, so those interpreters need no test tools."""
    import os
    import shutil
    import subprocess
    import sys

    jobs = [
        ["examples"],
        ["verify", "--suite", "all", "--trials", "2"],
        ["lattice", "--preset", "thurston", "--r", "6", "--a", "1", "--b", "4"],
        ["lattice", "--preset", "torus", "--m", "4"],
        ["lattice", "--preset", "surface", "--g", "2", "--vol", "3"],
    ]
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}

    def reports(exe):
        proc = subprocess.run([exe, "-c", _REPORTS_SCRIPT, json.dumps(jobs)],
                              env=env, capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, (exe, proc.stderr)
        return json.loads(proc.stdout)

    found = [exe for exe in (shutil.which(f"python3.{x}") for x in range(10, 14))
             if exe and _started(exe)]
    if not found:
        pytest.skip("no python3.10-3.13 on PATH starts")
    want = reports(sys.executable)
    assert [code for code, _ in want] == [0] * len(jobs)
    for exe in found:
        assert reports(exe) == want, exe


def test_verify_suite_descriptor_file(tmp_path):
    desc = tmp_path / "suite.json"
    desc.write_text(json.dumps({"suites": ["jacobi"], "trials": 3, "seed": 11}))
    job = parse_job(["verify", "--input", str(desc)])
    assert job.suites == ["jacobi"] and job.trials == 3 and job.seed == 11
    # explicit flags override the descriptor
    job = parse_job(["verify", "--input", str(desc), "--trials", "7"])
    assert job.trials == 7 and job.seed == 11
    report, code = run(job)
    assert code == 0
    assert report["verify"]["suites"][0]["trials"] == 7
    desc.write_text(json.dumps({"trials": "many"}))
    with pytest.raises(InputError, match="must be an integer"):
        parse_job(["verify", "--input", str(desc)])


def test_examples_all_match():
    rows, ok = reference_examples()
    assert ok
    assert any("surface" in row["case"] for row in rows)
    assert any("kaehler" in row["case"] for row in rows)
    assert all(row["match"] for row in rows)


def test_examples_exit_code(capsys):
    assert main(["examples"]) == 0
    out = capsys.readouterr().out
    assert "all match" in out


def test_text_render_contains_symbolic_pi(capsys):
    assert main(["lattice", "--preset", "surface", "--g", "2", "--vol", "5"]) == 0
    out = capsys.readouterr().out
    assert "2/5/(2*pi)" in out or "2/(5*(2*pi))" in out or "(2*pi)" in out


# Default-format (text) reports of a cohomology and a verify job, byte for byte.
PINNED_TEXT_REPORTS = [
    (
        ["cohomology", "--preset", "thurston", "--r", "2"],
        "preqlat 0.1.0\ndegree  betti  torsion  generators\nH^0: 1  [-]  1\n"
        "H^1: 3  [-]  x*; p*; z*\nH^2: 4  [2]  x*^z*; x*^h*; p*^z*; p*^h*; x*^p*\n"
        "H^3: 3  [2]  x*^p*^h*; x*^z*^h*; p*^z*^h*; x*^p*^z*\nH^4: 1  [-]  x*^p*^z*^h*\n",
    ),
    (
        ["verify", "--suite", "jacobi", "--trials", "2", "--seed", "1"],
        "preqlat 0.1.0\nverify seed=1 trials=2\n  jacobi     2/2 pass\nok\n",
    ),
]


@pytest.mark.parametrize("argv, expected", PINNED_TEXT_REPORTS, ids=["thurston2", "verify-jacobi"])
def test_text_report_pinned(argv, expected, capsys):
    assert main(argv) == 0
    assert capsys.readouterr().out == expected


# -- integral classes only ----------------------------------------------------------

def test_lattice_rejects_half_integral_omega(capsys):
    """(1/2) e12 + e34 on T^4 is not integral: no prequantum bundle."""
    argv = ["lattice", "--preset", "torus", "--m", "4", "--omega", "1/2e12+e34"]
    assert main(argv) == 2
    assert capsys.readouterr().err == (
        "error: prequant: symplectic class is not integral: free coordinate 0 is 1/2\n")


def _omega_spec(terms):
    return "".join(f"{'-' if num < 0 else '+'}{abs(num)}/{den}e{i + 1}{j + 1}"
                   for (i, j), num, den in terms).lstrip("+")


@pytest.mark.parametrize("m", [2, 4, 6])
def test_rational_omega_on_tori(m, capsys):
    """Seeded rational classes on T^m: a class with a non-integer
    coordinate exits 2 and names the first one (torus coordinates follow
    the pairs in order); an integral class spelled with fractions gets
    the report of its integer spelling."""
    rng = random.Random(f"rational-omega:{m}")
    pairs = [(i, j) for i in range(m) for j in range(i + 1, m)]
    standard = [(i, i + 1) for i in range(0, m, 2)]
    seen = {"odd": 0, "kept": 0}
    for _ in range(8):
        # positive on the standard pairs, plus at most one more pair: a
        # perfect matching that uses it needs a second non-standard pair,
        # so the Pfaffian, and with it the volume, stays positive
        chosen = sorted(set(standard + rng.sample(pairs, rng.randint(0, 1))))
        odd_class = rng.random() < 0.5
        terms = []
        for pair in chosen:
            k = rng.choice((1, 2, 3)) if pair in standard else rng.choice((-2, -1, 1, 2))
            den = rng.choice((1, 2, 3))
            num = k * den
            if odd_class and (pair == chosen[-1] or rng.random() < 0.5):
                den = rng.choice((2, 3))
                num = k * den + rng.choice((1, -1))
            terms.append((pair, num, den))
        argv = ["lattice", "--preset", "torus", "--m", str(m), "--format", "json"]
        code = main(argv + [f"--omega={_omega_spec(terms)}"])
        out, err = capsys.readouterr()
        odd = [(pairs.index(pair), Fraction(num, den)) for pair, num, den in terms
               if num % den]
        if odd:
            t, value = odd[0]
            assert code == 2
            assert err == ("error: prequant: symplectic class is not integral: "
                           f"free coordinate {t} is {value}\n")
            seen["odd"] += 1
            continue
        integer_spec = _omega_spec([(pair, num // den, 1) for pair, num, den in terms])
        want_code = main(argv + [f"--omega={integer_spec}"])
        want_out, want_err = capsys.readouterr()
        assert code == want_code == 0 and err == want_err == ""
        got, want = json.loads(out), json.loads(want_out)
        assert got["lattice"] == want["lattice"] and got["volume"] == want["volume"]
        seen["kept"] += 1
    assert seen["odd"] and seen["kept"]


def test_prequant_boundary_needs_integral_classes():
    from preqlat.cealg import Cochain
    from preqlat.cohomring import CohomClass, torus_ring
    from preqlat.prequant import gysin_kernel, symplectic_from_cochain

    ring = torus_ring(4)
    with pytest.raises(ValueError, match="symplectic class is not integral: free coordinate 5 is 3/2"):
        symplectic_from_cochain(ring, Cochain(4, 2, {(0, 1): 1, (2, 3): Fraction(3, 2)}))
    omega = symplectic_from_cochain(ring, Cochain(4, 2, {(0, 1): Fraction(4, 2), (2, 3): 1}))
    assert omega.free == (2, 0, 0, 0, 0, 1) and all(type(x) is int for x in omega.free)
    free = (Fraction(1, 2),) + (0,) * 4 + (1,)
    with pytest.raises(ValueError, match="Euler class is not integral: free coordinate 0 is 1/2"):
        gysin_kernel(ring, CohomClass(2, free, ()))


# -- strict numeric input -------------------------------------------------------------

@pytest.mark.parametrize(
    "argv, msg",
    [
        (["--a", "1e4000"], "no exponent notation"),
        (["--a", "1E3"], "no exponent notation"),
        (["--b", "1" * 31], "more than 30 digits"),
        (["--a", "1/" + "7" * 31], "more than 30 digits"),
    ],
    ids=["exponent", "exponent-upper", "long-numerator", "long-denominator"],
)
def test_rational_flags_strict(argv, msg, capsys):
    full = ["lattice", "--preset", "thurston", *argv]
    with pytest.raises(InputError, match=msg):
        parse_job(full)
    assert main(full) == 2
    job = parse_job(["lattice", "--preset", "thurston", "--b", "9" * 30])
    assert job.params["b"] == 10 ** 30 - 1


def _write_presentation(tmp_path, data):
    path = tmp_path / "presentation.json"
    path.write_text(json.dumps(data))
    return str(path)


HEIS3 = {"dim": 3, "basis": ["x", "y", "z"], "brackets": [{"i": 1, "j": 2, "c": {"3": "1"}}]}


@pytest.mark.parametrize(
    "change, msg",
    [
        ({"brackets": [{"i": 1, "j": 2, "c": {"3": "1e4000"}}]}, "no exponent notation"),
        ({"brackets": [{"i": 1, "j": 2, "c": {"3": "1e999999"}}]}, "no exponent notation"),
        ({"brackets": [{"i": 1, "j": 2, "c": {"3": "2" * 31}}]}, "more than 30 digits"),
        ({"brackets": [{"i": 1, "j": 2, "c": {"3": "1"}}, {"i": 1, "j": 2, "c": {"3": "2"}}]},
         r"repeated bracket \(1, 2\)"),
        ({"basis": ["x", "y", "x"]}, "repeated basis name"),
        ({"dim": "3"}, "must be JSON integers"),
        ({"dim": True}, "must be JSON integers"),
        ({"dim": 3.0}, "must be JSON integers"),
        ({"brackets": [{"i": "1", "j": 2, "c": {"3": "1"}}]}, "must be JSON integers"),
        ({"brackets": [{"i": 1, "j": True, "c": {"3": "1"}}]}, "must be JSON integers"),
        ({"brackets": [{"i": 1, "j": 2.0, "c": {"3": "1"}}]}, "must be JSON integers"),
        ({"brackets": [{"i": 1, "j": 2, "c": [3]}]}, '"c" must be a JSON object'),
        ({"brackets": [{"i": 1, "j": 2, "c": None}]}, '"c" must be a JSON object'),
        ({"basis": "xyz"}, '"basis" must be a JSON list'),
        ({"basis": 3}, '"basis" must be a JSON list'),
    ],
    ids=["exponent", "huge-exponent", "long-coefficient", "repeated-bracket",
         "repeated-name", "dim-string", "dim-bool", "dim-float", "index-string",
         "index-bool", "index-float", "coefficients-list", "coefficients-null",
         "basis-string", "basis-number"],
)
def test_presentation_input_strict(change, msg, tmp_path, capsys):
    path = _write_presentation(tmp_path, {**HEIS3, **change})
    with pytest.raises(InputError, match=msg):
        load_presentation(path)
    assert main(["cohomology", "--input", path]) == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert main(["cohomology", "--input", _write_presentation(tmp_path, HEIS3)]) == 0


@pytest.mark.parametrize(
    "descriptor, key",
    [
        ({"suites": ["jacobi"], "trials": 1.5, "seed": True}, "trials"),
        ({"suites": ["jacobi"], "trials": 1, "seed": True}, "seed"),
        ({"suites": ["jacobi"], "trials": 1, "seed": 1.5}, "seed"),
        ({"suites": ["jacobi"], "trials": 2.0}, "trials"),
        ({"suites": ["jacobi"], "trials": "2"}, "trials"),
        ({"suites": ["jacobi"], "seed": None}, "seed"),
    ],
    ids=["float-trials-bool-seed", "bool-seed", "float-seed", "integral-float-trials",
         "string-trials", "null-seed"],
)
def test_suite_descriptor_needs_json_integers(descriptor, key, tmp_path, capsys):
    """A verify descriptor's trials and seed must be JSON integers: a
    float, a bool, a string or null exits 2 and names the key, where
    int() once ran one trial at seed 1 for trials 1.5 and seed true."""
    path = tmp_path / "suite.json"
    path.write_text(json.dumps(descriptor))
    with pytest.raises(InputError, match=f"descriptor '{key}' must be an integer"):
        parse_job(["verify", "--input", str(path)])
    assert main(["verify", "--input", str(path)]) == 2
    assert capsys.readouterr().err == f"error: descriptor '{key}' must be an integer\n"
    path.write_text(json.dumps({"suites": ["jacobi"], "trials": 1, "seed": 1}))
    job = parse_job(["verify", "--input", str(path)])
    assert (job.trials, job.seed) == (1, 1)


@pytest.mark.parametrize("suites", [[], "jacobi", None], ids=["empty", "string", "null"])
def test_suite_descriptor_needs_suites_listed(suites, tmp_path, capsys):
    """A descriptor's "suites" must be a non-empty list: an empty one names
    no suite, where it once ran all seven at 100 trials.  Without the key,
    the job runs all the suites."""
    path = tmp_path / "suite.json"
    path.write_text(json.dumps({"suites": suites, "trials": 1}))
    with pytest.raises(InputError, match="descriptor 'suites' must be a non-empty list"):
        parse_job(["verify", "--input", str(path)])
    assert main(["verify", "--input", str(path)]) == 2
    assert capsys.readouterr().err == "error: descriptor 'suites' must be a non-empty list\n"
    path.write_text(json.dumps({"trials": 1}))
    assert parse_job(["verify", "--input", str(path)]).suites == ["all"]


def test_verify_suite_named_twice_on_the_command_line(capsys):
    """A suite named twice exits 2 and names the repeat, where it once ran
    once per naming, past MAX_TRIALS in all."""
    argv = ["verify", "--suite", "cocycles", "--suite", "jacobi", "--suite", "cocycles",
            "--trials", "1"]
    with pytest.raises(InputError, match="suite 'cocycles' is named twice"):
        parse_job(argv)
    assert main(argv) == 2
    assert capsys.readouterr() == ("", "error: suite 'cocycles' is named twice\n")
    assert parse_job(["verify", "--suite", "cocycles", "--suite", "jacobi"]).suites == [
        "cocycles", "jacobi"]


def test_verify_suite_named_twice_in_a_descriptor(tmp_path, capsys):
    path = tmp_path / "suite.json"
    path.write_text(json.dumps({"suites": ["jacobi", "jacobi"], "trials": 1}))
    with pytest.raises(InputError, match="suite 'jacobi' is named twice"):
        parse_job(["verify", "--input", str(path)])
    assert main(["verify", "--input", str(path)]) == 2
    assert capsys.readouterr() == ("", "error: suite 'jacobi' is named twice\n")
    # the flags replace the descriptor's list, so they can name it once
    assert parse_job(["verify", "--input", str(path), "--suite", "jacobi"]).suites == ["jacobi"]


@pytest.mark.parametrize("argv, what", [
    (["cohomology", "--input"], "presentation"),
    (["verify", "--input"], "suite descriptor"),
], ids=["presentation", "suite-descriptor"])
@pytest.mark.parametrize("content, msg", [
    (b'{"dim": 3, "basis": ["x\xff", "y", "z"], "suites": ["jacobi"]}',
     "'utf-8' codec can't decode"),
    (b"[" * 100000 + b"]" * 100000, "maximum recursion depth exceeded"),
], ids=["not-utf8", "nested-too-deep"])
def test_unreadable_input_file(argv, what, content, msg, tmp_path, capsys):
    """An input file that is not UTF-8, or JSON nested deeper than the
    parser recurses, exits 2 with one error line, not with a
    UnicodeDecodeError or RecursionError traceback."""
    path = tmp_path / "input.json"
    path.write_bytes(content)
    assert main([*argv, str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot read {what}: {msg}")
    assert "Traceback" not in err and err.count("\n") == 1


_HEIS3_HEAD = '{"dim": 3, "basis": ["x", "y", "z"], '


@pytest.mark.parametrize("argv, content, msg", [
    (["cohomology", "--input"],
     _HEIS3_HEAD + '"brackets": [{"i": 1, "j": 2, "c": {"3": "1", "3": "2"}}]}',
     "cannot read presentation: repeated key '3'"),
    (["cohomology", "--input"],
     _HEIS3_HEAD + '"brackets": [], "brackets": [{"i": 1, "j": 2, "c": {"3": "1"}}]}',
     "cannot read presentation: repeated key 'brackets'"),
    (["cohomology", "--input"],
     _HEIS3_HEAD + '"brackets": [{"i": 1, "j": 2, "c": {"3": "1", "03": "2"}}]}',
     "malformed presentation: repeated target 3"),
    (["verify", "--input"], '{"suites": ["jacobi"], "trials": 1, "trials": 5}',
     "cannot read suite descriptor: repeated key 'trials'"),
], ids=["repeated-target", "repeated-brackets", "target-spelled-twice", "repeated-trials"])
def test_input_file_names_each_key_once(argv, content, msg, tmp_path, capsys):
    """A key repeated in an input file, or one bracket target under two
    spellings, exits 2, where the last value once won silently."""
    path = tmp_path / "input.json"
    path.write_text(content)
    assert main([*argv, str(path)]) == 2
    assert re.fullmatch(f"error: {msg}\n", capsys.readouterr().err)


# -- byte identity of the cohomology workload ------------------------------------------

# SHA-256 over the JSON reports (timestamp removed, input path cut to its
# file name) of the 33 seed-1 jobs of the benchmark's cohomology workload,
# in job order.  Rewrites of the engine that keep the representatives
# must keep it.
PINNED_WORKLOAD_SHA256 = "66530efb5918902b955819af29c9daa67f9837c0432285f35019ca08aa6fe271"
PINNED_VERIFY_LATTICE_SHA256 = (
    "5fd4b586d45b76b2339a8cf95e92f416dadba110885360bf0ec5af494cc1bde1")


def _bench_jobs_module():
    import importlib.util
    import os

    path = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                        "bench", "jobs.py")
    spec = importlib.util.spec_from_file_location("preqlat_bench_jobs", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_cohomology_workload_digest_pinned(tmp_path, capsys):
    import os

    jobs = _bench_jobs_module().make_jobs("cohomology", 1, str(tmp_path))
    assert len(jobs) == 33
    digest = hashlib.sha256()
    for job in jobs:
        assert main(list(job["argv"]) + ["--format", "json"]) == 0
        report = json.loads(capsys.readouterr().out)
        report.pop("timestamp")
        if "input" in report["job"]:
            report["job"]["input"] = os.path.basename(report["job"]["input"])
        digest.update(json.dumps(report, sort_keys=True).encode())
    assert digest.hexdigest() == PINNED_WORKLOAD_SHA256


def test_verify_lattice_workload_digest_pinned(tmp_path, capsys):
    # verify reports record pass/fail only; the cocycle values behind them
    # are checked against formed integrands in test_cocycles/test_contact
    jobs = _bench_jobs_module().make_jobs("verify_lattice", 1, str(tmp_path))
    assert len(jobs) == 231
    digest = hashlib.sha256()
    for job in jobs:
        assert main(list(job["argv"]) + ["--format", "json"]) == 0
        report = json.loads(capsys.readouterr().out)
        report.pop("timestamp")
        digest.update(json.dumps(report, sort_keys=True).encode())
    assert digest.hexdigest() == PINNED_VERIFY_LATTICE_SHA256


# -- torus m >= 10, size caps, per-subcommand imports ------------------------------

def test_torus_m10_default_omega(capsys):
    """The standard form of T^10 is written, echoed and parsed in the
    comma syntax once an axis has two digits ("e9,10", not "e910")."""
    report, code = run_argv(["cohomology", "--preset", "torus", "--m", "10"])
    assert code == 0
    assert [frag["betti"] for frag in report["cohomology"]] == [comb(10, k) for k in range(11)]
    report, code = run_argv(["lattice", "--preset", "torus", "--m", "10"])
    assert code == 0
    assert report["lattice"]["rank"] == 0 and report["volume"] == "1"
    assert report["job"]["params"]["omega"] == "e12+e34+e56+e78+e9,10"
    # an --omega the user writes is still parsed, under both commands
    for command in ("cohomology", "lattice"):
        assert main([command, "--preset", "torus", "--m", "10", "--omega", "e12+e910"]) == 2
        assert "single-digit axes" in capsys.readouterr().err


def test_torus_m10_replays_from_its_echo():
    """A torus job without --omega echoes its default form as a spec that
    --omega reads back: the replay gives the same report, lattice
    included."""
    report, code = run_argv(["lattice", "--preset", "torus", "--m", "10"])
    assert code == 0
    echo = report["job"]["params"]["omega"]
    assert parse_omega_spec(echo, 10).coeffs == {(i, i + 1): 1 for i in range(0, 10, 2)}
    replay, code = run_argv(["lattice", "--preset", "torus", "--m", "10", "--omega", echo])
    assert code == 0
    report.pop("timestamp")
    replay.pop("timestamp")
    assert replay == report


def _first_over(size, cap):
    n = 1
    while size(n) <= cap:
        n += 1
    return n


def test_size_caps_reject_before_any_work(tmp_path, capsys, monkeypatch):
    """Each cap is met at the first size over it, computed here from the
    cap alone, with exit 2 before a ring is built or a suite started."""
    def forbidden(*args, **kwargs):
        raise AssertionError("a job over the cap was started")

    for name in ("nilmanifold_ring", "torus_ring", "surface_ring"):
        monkeypatch.setattr(cli, name, forbidden)

    dim = _first_over(lambda n: max(comb(n, k) * comb(n, k + 1) for k in range(n)),
                      cli.MAX_DENSE_CELLS)
    assert dim == 11 and cli.MAX_DIM == 10
    # a torus needs an even m, so its first size over the cap is dim + 1
    for command in ("cohomology", "lattice"):
        assert main([command, "--preset", "torus", "--m", str(dim + 1)]) == 2
        assert f"{cli.MAX_DENSE_CELLS} cells" in capsys.readouterr().err
    path = tmp_path / "big.json"
    path.write_text(json.dumps({"dim": dim, "basis": [f"e{i}" for i in range(dim)]}))
    assert main(["cohomology", "--input", str(path)]) == 2
    assert f"{cli.MAX_DENSE_CELLS} cells" in capsys.readouterr().err

    genus = _first_over(lambda g: comb(2 * g, 2), cli.MAX_DENSE_CELLS)
    for command in ("cohomology", "lattice"):
        assert main([command, "--preset", "surface", "--g", str(genus)]) == 2
        assert str(cli.MAX_DENSE_CELLS) in capsys.readouterr().err

    # rejected while parsing, so no suite starts
    trials = cli.MAX_TRIALS + 1
    with pytest.raises(InputError, match=str(cli.MAX_TRIALS)):
        parse_job(["verify", "--suite", "jacobi", "--trials", str(trials)])
    desc = tmp_path / "suite.json"
    desc.write_text(json.dumps({"suites": ["jacobi"], "trials": trials}))
    with pytest.raises(InputError, match=str(cli.MAX_TRIALS)):
        parse_job(["verify", "--input", str(desc)])

    # a thurston lattice at --r r has r Euler candidates
    r = cli.MAX_CANDIDATES + 1
    assert main(["lattice", "--preset", "thurston", "--r", str(r)]) == 2
    assert "MAX_CANDIDATES" in capsys.readouterr().err


def test_sizes_at_the_caps_parse():
    assert parse_job(["cohomology", "--preset", "torus", "--m", "10"]).params["m"] == 10
    genus = _first_over(lambda g: comb(2 * g, 2), cli.MAX_DENSE_CELLS) - 1
    assert parse_job(["lattice", "--preset", "surface", "--g", str(genus)]).params["g"] == genus
    job = parse_job(["verify", "--trials", str(cli.MAX_TRIALS)])
    assert job.trials == cli.MAX_TRIALS
    r = cli.MAX_CANDIDATES
    assert parse_job(["lattice", "--preset", "thurston", "--r", str(r)]).params["r"] == r
    # cohomology does not loop over the candidates, so it has no such cap
    r += 1
    assert parse_job(["cohomology", "--preset", "thurston", "--r", str(r)]).params["r"] == r


# standard modules that cost start-up time and that the library never needs
SLOW_STDLIB = {"dataclasses", "inspect", "datetime"}


def _modules_after(code, *flags):
    """preqlat modules, and those of SLOW_STDLIB, loaded by ``code`` in a
    fresh interpreter started with ``flags``."""
    import os
    import subprocess
    import sys

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    script = (code + "\nimport sys\n"
              "print(' '.join(sorted(m for m in sys.modules if m.startswith('preqlat')"
              f" or m in {sorted(SLOW_STDLIB)!r})))")
    proc = subprocess.run([sys.executable, *flags, "-c", script], capture_output=True,
                          text=True, env=dict(os.environ, PYTHONPATH=os.path.join(root, "src")),
                          timeout=60)
    assert proc.returncode == 0, proc.stderr
    return set(proc.stdout.split())


def _job(argv):
    return f"import os, preqlat.cli as c; assert c.main({argv!r} + ['--output', os.devnull]) == 0"


def test_cohomology_process_imports_only_the_cohomology_path():
    heavy = {"preqlat.verify", "preqlat.prequant", "preqlat.exact", "preqlat.toruscalc"}
    loaded = _modules_after("import preqlat.cli")
    assert loaded == {"preqlat", "preqlat.cli", "preqlat.cealg", "preqlat.cohomring",
                      "preqlat.intlinalg", "preqlat.combinat"}
    loaded = _modules_after(_job(["cohomology", "--preset", "thurston"]))
    assert not loaded & heavy
    assert not any(m.startswith("preqlat.toruscalc") for m in loaded)
    loaded = _modules_after(_job(["lattice", "--preset", "thurston", "--r", "2"]))
    assert {"preqlat.prequant", "preqlat.exact"} <= loaded
    assert "preqlat.verify" not in loaded
    assert not any(m.startswith("preqlat.toruscalc") for m in loaded)


def test_start_up_needs_no_dataclasses_or_datetime():
    """No module of the library imports ``dataclasses`` or ``datetime``,
    and the CLI with the lattice and verify layers loads neither, nor
    ``inspect``, in an interpreter without ``site`` (which could load
    them first)."""
    import ast
    import os
    import preqlat

    found = []
    for folder, _, files in os.walk(os.path.dirname(preqlat.__file__)):
        for name in files:
            if name.endswith(".py"):
                with open(os.path.join(folder, name)) as fh:
                    tree = ast.parse(fh.read())
                for node in ast.walk(tree):
                    if isinstance(node, ast.Import):
                        mods = [alias.name for alias in node.names]
                    elif isinstance(node, ast.ImportFrom) and not node.level:
                        mods = [node.module]
                    else:
                        continue
                    found += [(name, m) for m in mods
                              if m.split(".")[0] in ("dataclasses", "datetime")]
    assert found == []
    loaded = _modules_after("import preqlat.cli, preqlat.prequant, preqlat.verify", "-S")
    assert "preqlat.verify" in loaded and not loaded & SLOW_STDLIB


def test_timestamp_is_the_isoformat_of_utc_now(monkeypatch):
    from datetime import datetime, timedelta, timezone

    epoch = datetime(1970, 1, 1, tzinfo=timezone.utc)
    for ns in (1_760_000_000_123_456_789, 1_760_000_000_000_000_999, 0):
        monkeypatch.setattr(cli.time, "time_ns", lambda: ns)
        expect = (epoch + timedelta(microseconds=ns // 1000)).isoformat()
        assert cli.utc_timestamp() == expect


def test_suite_names_defined_once():
    import os
    import preqlat
    from preqlat import verify

    src = os.path.dirname(preqlat.__file__)
    defs = []
    for folder, _, files in os.walk(src):
        for name in files:
            if name.endswith(".py"):
                with open(os.path.join(folder, name)) as fh:
                    defs += [name for line in fh if re.match(r"\s*SUITE_NAMES\s*=", line)]
    assert defs == ["__init__.py"]
    assert verify.SUITE_NAMES is cli.SUITE_NAMES is preqlat.SUITE_NAMES
    assert tuple(verify._RUNNERS) == preqlat.SUITE_NAMES
