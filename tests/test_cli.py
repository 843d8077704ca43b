"""Job parsing, report structure, determinism, and exit codes."""

import hashlib
import json
import re

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
    ],
)
def test_input_errors(argv, msg):
    with pytest.raises(InputError, match=msg):
        parse_job(argv)


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


@pytest.mark.parametrize("spec", ["", "e1", "e13+x", "e21", "e15"])
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
