"""Command-line entry point.

Subcommands: ``cohomology`` (group tables of a preset or an inline
presentation), ``lattice`` (integrable directions, exact prefactor, and
the per-Euler-candidate comparison), ``verify`` (seeded identity suites),
and ``examples`` (the shipped reference computations against hard-coded
expected values).  Reports are deterministic for a fixed job and seed;
exact scalars serialize as decimal num/den strings, never floats.

Exit codes: 0 success, 1 check failure, 2 input error.

Each process imports only the layers its subcommand runs.  Importing
this module loads argument parsing and the cohomology path (``cealg``,
``cohomring``, ``intlinalg``, ``combinat``); ``lattice`` and ``examples``
import ``prequant`` and ``exact`` when they run, and ``verify`` imports
``preqlat.verify`` with the torus calculus.  No module of the package
imports ``dataclasses`` or ``datetime`` (which would load ``inspect``,
``ast`` and ``dis``), so a fresh ``import preqlat.cli`` takes 8-13 ms
with a bytecode cache and 30-44 ms without one (medians of 9 fresh
interpreters, 2-core x86-64 host, Python 3.11).

Jobs over the size limits exit 2 before anything is built: a torus or a
presentation of dimension over 10, whose largest d_k would have more
rows times columns than ``MAX_DENSE_CELLS`` = C(10,4)·C(10,5); a surface
with C(2g, 2) over that number; a verify job of more than ``MAX_TRIALS``
trials, or one that names a suite twice, ``all`` counting as every
suite; a thurston lattice job of more than ``MAX_CANDIDATES`` Euler
candidates.  So does a job whose ``--output`` names a missing directory.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import re
import sys
import time
from fractions import Fraction
from math import comb, gcd

from . import SUITE_NAMES, __version__
from .cealg import Cochain, LieAlgebraPresentation, heisenberg_times_line
from .cohomring import CohomologyRing, nilmanifold_ring, surface_ring, torus_ring


class InputError(ValueError):
    """Malformed job input; maps to exit code 2."""


class JobDescriptor:
    """A job with its defaults; ``parse_job`` sets what its command reads."""

    __slots__ = ("command", "preset", "params", "input_path", "level", "output_path",
                 "format", "seed", "suites", "trials")

    def __init__(self, command):
        self.command = command
        self.preset = None
        self.params = {}
        self.input_path = None
        self.level = 1
        self.output_path = None
        self.format = "text"
        self.seed = 42
        self.suites = ["all"]
        self.trials = 100

    def echo(self):
        out = {"command": self.command, "format": self.format}
        if self.preset:
            out["preset"] = self.preset
            out["params"] = {k: str(v) for k, v in sorted(self.params.items())}
        if self.input_path:
            out["input"] = self.input_path
        if self.command == "lattice":
            out["level"] = self.level
        if self.command == "verify":
            out["seed"] = self.seed
            out["suites"] = list(self.suites)
            out["trials"] = self.trials
        return out


@functools.cache
def _build_parser():
    """The argument parser, built on first use and then shared: a process
    that parses many jobs builds it once, and each parse starts from a
    fresh namespace, so no state carries over between jobs."""
    parser = argparse.ArgumentParser(
        prog="preqlat",
        description="Exact integrable-cocycle lattices and identity verification.",
    )
    parser.add_argument("--version", action="version", version=f"preqlat {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--format", choices=("text", "json"), default="text")
        p.add_argument("--output", dest="output_path", default=None)

    pc = sub.add_parser("cohomology", help="cohomology table of a preset or presentation")
    pc.add_argument("--preset", choices=("thurston", "torus", "surface"))
    pc.add_argument("--input", dest="input_path", help="JSON presentation file")
    _preset_flags(pc)
    common(pc)

    pl = sub.add_parser("lattice", help="integrable lattice of a preset")
    pl.add_argument("--preset", choices=("thurston", "torus", "surface"), required=True)
    _preset_flags(pl)
    pl.add_argument("--level", type=int, default=1)
    common(pl)

    pv = sub.add_parser("verify", help="run seeded identity suites")
    pv.add_argument("--suite", action="append", dest="suites",
                    help=f"one of {SUITE_NAMES + ('all',)}; repeatable")
    pv.add_argument("--trials", type=int, default=None)
    pv.add_argument("--seed", type=int, default=None)
    pv.add_argument("--input", dest="input_path",
                    help='JSON suite descriptor {"suites": [...], "trials": N, "seed": S}')
    common(pv)

    pe = sub.add_parser("examples", help="reference computations vs expected values")
    common(pe)
    return parser


def _preset_flags(p):
    p.add_argument("--r", type=int, help="central level of the dim-4 preset")
    p.add_argument("--a", type=str, help="first symplectic coefficient")
    p.add_argument("--b", type=str, help="second symplectic coefficient")
    p.add_argument("--c", type=int, help="torsion label of the Euler class")
    p.add_argument("--m", type=int, help="torus dimension")
    p.add_argument("--omega", type=str, help="torus symplectic class, e.g. e12+e34 or e9,10")
    p.add_argument("--g", type=int, help="surface genus")
    p.add_argument("--vol", type=str, help="surface volume (positive integer)")


MAX_DIGITS = 30     # in the numerator or the denominator of a rational input
MAX_DENSE_CELLS = 52_920    # rows x columns of the largest d_k: C(10,4)·C(10,5), at dim 10
MAX_TRIALS = 10_000         # per verify job: about 1 min at 6 ms per all-suite trial
MAX_CANDIDATES = 100_000    # per lattice job, one Gysin kernel each: about 13 s, 17 MB of JSON

# The largest dim within MAX_DENSE_CELLS (10: a dim-11 complex does not
# finish in minutes).  The cells of the largest d_k, max_k C(n, k)·C(n, k+1)
# at k = (n - 1) // 2, grow with n, so jobs compare dims, and a huge dim
# costs no huge binomial.
MAX_DIM = max(n for n in range(1, 64)
              if comb(n, (n - 1) // 2) * comb(n, (n + 1) // 2) <= MAX_DENSE_CELLS)


def _check_dim(dim, what):
    if dim > MAX_DIM:
        raise InputError(
            f"{what} is over the size cap: a complex of dimension {dim} has a "
            f"coboundary matrix of more than {MAX_DENSE_CELLS} cells (MAX_DENSE_CELLS)"
        )


def _parse_rational(text, what):
    if "e" in text.lower():
        raise InputError(f"malformed rational for {what}: {text!r} (no exponent notation)")
    try:
        value = Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise InputError(f"malformed rational for {what}: {text!r}")
    if max(abs(value.numerator), value.denominator) >= 10 ** MAX_DIGITS:
        raise InputError(f"rational for {what} has more than {MAX_DIGITS} digits")
    return value


def parse_job(argv) -> JobDescriptor:
    parser = _build_parser()
    ns = parser.parse_args(argv)
    job = JobDescriptor(ns.command)
    job.format = getattr(ns, "format", "text")
    job.output_path = getattr(ns, "output_path", None)

    if ns.command in ("cohomology", "lattice"):
        job.preset = ns.preset
        job.input_path = getattr(ns, "input_path", None)
        if ns.command == "cohomology" and not (job.preset or job.input_path):
            raise InputError("cohomology needs --preset or --input")
        if job.preset:
            job.params = _collect_preset_params(ns)
        if ns.command == "lattice":
            job.level = ns.level
            if job.level < 1:
                raise InputError("--level must be >= 1")
            # a thurston preset at --r r has r Euler candidates; the others have one
            if job.params.get("r", 1) > MAX_CANDIDATES:
                raise InputError(f"lattice --r must be <= {MAX_CANDIDATES} (MAX_CANDIDATES)")
    elif ns.command == "verify":
        descriptor = {}
        if ns.input_path:
            descriptor = _load_suite_descriptor(ns.input_path)
            job.input_path = ns.input_path
        job.suites = ns.suites or descriptor.get("suites", job.suites)
        job.trials = ns.trials if ns.trials is not None else descriptor.get("trials", job.trials)
        job.seed = ns.seed if ns.seed is not None else descriptor.get("seed", job.seed)
        if job.trials < 1:
            raise InputError("--trials must be >= 1")
        if job.trials > MAX_TRIALS:
            raise InputError(f"--trials must be <= {MAX_TRIALS} (MAX_TRIALS)")
        known = set(SUITE_NAMES) | {"all"}
        named = [n for s in job.suites for n in ((s, *SUITE_NAMES) if s == "all" else (s,))]
        for i, s in enumerate(named):   # "all" names itself and every suite
            if s not in known:
                raise InputError(f"unknown suite {s!r}")
            if s in named[:i]:     # each naming would run the suite again
                raise InputError(f"suite {s!r} is named twice")
    return job


def _read_json(path, what):
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh, object_pairs_hook=_unique_keys)
    except (OSError, ValueError, RecursionError) as exc:    # bad JSON, not UTF-8, too deep
        raise InputError(f"cannot read {what}: {exc}")


def _unique_keys(pairs):
    # json alone would keep the last value of a repeated key
    data = {}
    for key, value in pairs:
        if key in data:
            raise ValueError(f"repeated key {key!r}")
        data[key] = value
    return data


def _known_keys(data, keys, what):
    """Refuse a key of a JSON object that is not in ``keys``, where a
    misspelled key would be dropped without a word; not an object: pass."""
    for key in data if isinstance(data, dict) else ():
        if key not in keys:
            raise InputError(f"malformed {what}: unknown key {key!r}")


def _load_suite_descriptor(path):
    data = _read_json(path, "suite descriptor")
    if not isinstance(data, dict):
        raise InputError("suite descriptor must be a JSON object")
    _known_keys(data, ("suites", "trials", "seed"), "suite descriptor")
    if "suites" in data:
        if not isinstance(data["suites"], list) or not data["suites"]:
            raise InputError("descriptor 'suites' must be a non-empty list")
        data["suites"] = [str(s) for s in data["suites"]]
    for key in ("trials", "seed"):
        # a JSON integer only: not a float, and not a bool (an int subclass)
        if key in data and type(data[key]) is not int:
            raise InputError(f"descriptor {key!r} must be an integer")
    return data


def _collect_preset_params(ns):
    params = {}
    if ns.preset == "thurston":
        r = ns.r if ns.r is not None else 1
        if r <= 0:
            raise InputError("--r must be a positive integer")
        a = _parse_rational(ns.a, "--a") if ns.a is not None else Fraction(1)
        b = _parse_rational(ns.b, "--b") if ns.b is not None else Fraction(1)
        if a.denominator != 1 or b.denominator != 1 or a == 0 or b == 0:
            raise InputError("--a and --b must be nonzero integers")
        c = ns.c if ns.c is not None else 0
        if not 0 <= c < r:
            raise InputError("--c must lie in {0, ..., r-1}")
        params = {"r": r, "a": int(a), "b": int(b), "c": c}
    elif ns.preset == "torus":
        if ns.m is None:
            raise InputError("torus preset needs --m")
        if ns.m < 2 or ns.m % 2:
            raise InputError("--m must be a positive even integer")
        _check_dim(ns.m, f"torus m={ns.m}")
        params = {"m": ns.m, "omega": ns.omega or _default_omega(ns.m)}
    elif ns.preset == "surface":
        if ns.g is None:
            raise InputError("surface preset needs --g")
        if ns.g < 0:
            raise InputError("--g must be >= 0")
        if comb(2 * ns.g, 2) > MAX_DENSE_CELLS:
            raise InputError(
                f"surface g={ns.g} is over the size cap: C(2g, 2) is more than "
                f"{MAX_DENSE_CELLS} (MAX_DENSE_CELLS)"
            )
        vol = _parse_rational(ns.vol, "--vol") if ns.vol is not None else Fraction(1)
        if vol <= 0 or vol.denominator != 1:
            raise InputError("--vol must be a positive integer")
        params = {"g": ns.g, "vol": int(vol)}
    return params


def _default_omega(m):
    """The standard form on T^m as a spec --omega reads back (e9,10 at m = 10)."""
    return "+".join(f"e{i}{i + 1}" if i < 9 else f"e{i},{i + 1}" for i in range(1, m, 2))


def parse_omega_spec(spec, m) -> Cochain:
    """Parse strings like ``e12+e34``, ``2e12-e34`` or ``e1,2-1/2e9,10``."""
    coeffs = {}
    text = spec.replace(" ", "")
    if not text:
        raise InputError("empty omega spec")
    # every sign but a leading one starts a term
    for term in re.split(r"(?<=.)(?=[+-])", text):
        body = term.lstrip("+-")
        sign = -1 if term.startswith("-") else 1
        if "e" not in body:
            raise InputError(f"malformed omega term {term!r}")
        coef_txt, _, idx_txt = body.partition("e")
        coef = sign * (_parse_rational(coef_txt, "--omega") if coef_txt else Fraction(1))
        axes = re.fullmatch(r"([0-9])([0-9])|([0-9]{1,2}),([0-9]{1,2})", idx_txt)
        if axes is None:
            raise InputError(
                f"omega term {term!r} must name two single-digit axes, e.g. e12, "
                "or two axes split by a comma, e.g. e9,10"
            )
        i, j = (int(x) - 1 for x in axes.groups() if x is not None)
        if not (0 <= i < j < m):
            raise InputError(f"omega term {term!r} out of range for m={m}")
        coeffs[(i, j)] = coeffs.get((i, j), Fraction(0)) + coef
    return Cochain(m, 2, coeffs)


def load_presentation(path) -> LieAlgebraPresentation:
    """Read the JSON presentation schema, with int dim, i, j, target keys in
    ASCII decimal digits, all counted from 1 as written, string or number
    coefficients, no repeats and no other keys:
    {"dim": m, "basis": [...], "brackets": [{"i":1,"j":2,"c":{"3":"r"}}]}."""
    data = _read_json(path, "presentation")
    try:
        _known_keys(data, ("dim", "basis", "brackets"), "presentation")
        dim, brackets = data["dim"], data.get("brackets", [])
        for entry in brackets:
            _known_keys(entry, ("i", "j", "c"), "presentation")
        if any(type(x) is not int for x in [dim, *(e[key] for e in brackets for key in "ij")]):
            raise InputError("malformed presentation: dim, i and j must be JSON integers")
        _check_dim(dim, "presentation")
        if not isinstance(data["basis"], list):     # a string would spell a basis
            raise InputError("malformed presentation: \"basis\" must be a JSON list")
        names = tuple(str(n) for n in data["basis"])
        if len(set(names)) != len(names):
            raise InputError(f"malformed presentation: repeated basis name in {list(names)}")
        structure = {}
        for entry in brackets:
            i, j = entry["i"] - 1, entry["j"] - 1
            if not 0 <= i < j < dim:
                raise InputError(f"malformed presentation: bracket ({i + 1}, {j + 1}) "
                                 "needs 1 <= i < j <= dim")
            if (i, j) in structure:
                raise InputError(f"malformed presentation: repeated bracket ({i + 1}, {j + 1})")
            if not isinstance(entry["c"], dict):
                raise InputError("malformed presentation: a bracket's \"c\" must be a JSON object")
            comps = {}
            for k, val in entry["c"].items():
                if not re.fullmatch(r"[0-9]+", k):
                    raise InputError(f"malformed presentation: target {k!r} is not decimal digits")
                if not 0 < int(k) <= dim:
                    raise InputError(f"malformed presentation: target {int(k)} is not in 1..{dim}")
                if int(k) - 1 in comps:     # one target spelled twice, as "3" and "03"
                    raise InputError(f"malformed presentation: repeated target {int(k)}")
                if type(val) not in (str, int, float):     # str(True) holds an "e"
                    raise InputError("malformed presentation: a bracket coefficient must be "
                                     f"a string or a number, not {json.dumps(val)}")
                comps[int(k) - 1] = _parse_rational(str(val), "bracket coefficient")
            structure[(i, j)] = comps
        return LieAlgebraPresentation(dim=dim, basis_names=names, structure=structure)
    except (KeyError, TypeError, ValueError) as exc:
        if isinstance(exc, InputError):
            raise
        raise InputError(f"malformed presentation: {exc}")


def _ring_for_job(job) -> tuple[CohomologyRing, Cochain | None]:
    """Build the ring and, for a preset, its symplectic cochain."""
    if job.input_path:
        lie = load_presentation(job.input_path)
        try:
            return nilmanifold_ring(lie), None
        except ValueError as exc:
            raise InputError(f"cealg: {exc}")
    return _preset_ring(job.preset, job.params)


def _preset_ring(preset, params) -> tuple[CohomologyRing, Cochain]:
    """A preset's ring and symplectic cochain, from its parsed params."""
    if preset == "thurston":
        ring = nilmanifold_ring(heisenberg_times_line(params["r"]))
        return ring, Cochain(4, 2, {(0, 3): -params["a"], (1, 2): -params["b"]})
    if preset == "torus":
        omega = parse_omega_spec(params["omega"], params["m"])  # a bad spec builds no ring
        return torus_ring(params["m"]), omega
    ring = surface_ring(params["g"])
    return ring, params["vol"] * ring.data(2).free_reps[0]


def _candidates(ring, omega_cochain):
    """The Euler candidates of the symplectic class of ``omega_cochain``."""
    from .prequant import euler_candidates, symplectic_from_cochain

    return euler_candidates(ring, symplectic_from_cochain(ring, omega_cochain))


def utc_timestamp():
    """The current UTC time in the ISO-8601 form of
    ``datetime.now(timezone.utc).isoformat()``: microseconds only when
    nonzero, then ``+00:00``."""
    seconds, micros = divmod(time.time_ns() // 1000, 1_000_000)
    stamp = time.strftime("%Y-%m-%dT%H:%M:%S", time.gmtime(seconds))
    return f"{stamp}.{micros:06d}+00:00" if micros else f"{stamp}+00:00"


def run(job: JobDescriptor):
    """Execute a parsed job; returns (report dict, exit code)."""
    report = {
        "tool": {"name": "preqlat", "version": __version__},
        "job": job.echo(),
        "timestamp": utc_timestamp(),
    }
    if job.command == "cohomology":
        ring, _ = _ring_for_job(job)
        report["cohomology"] = [
            ring.report_fragment(k) for k in range(ring.top_degree + 1)
        ]
        return report, 0
    if job.command == "lattice":
        from .prequant import integrable_lattice, lattice_report

        ring, omega_cochain = _ring_for_job(job)
        try:
            cands = _candidates(ring, omega_cochain)
            lattice = integrable_lattice(ring, cands[job.params.get("c", 0)], job.level)
        except ValueError as exc:
            raise InputError(f"prequant: {exc}")
        report["lattice"] = lattice_report(lattice, ring)
        report["volume"] = str(lattice.volume)
        return report, 0
    if job.command == "verify":
        from .verify import run_suites

        suites = run_suites(job.suites, job.trials, job.seed)
        ok = not any(s["failed"] for s in suites)
        report["verify"] = {"seed": job.seed, "trials": job.trials, "suites": suites, "ok": ok}
        return report, 0 if ok else 1
    if job.command == "examples":
        rows, ok = reference_examples()
        report["examples"] = rows
        report["ok"] = ok
        return report, 0 if ok else 1
    raise InputError(f"unknown command {job.command!r}")


def reference_examples():
    """The three shipped reference families, compared against their
    expected exact values."""
    from .exact import ExactScalar
    from .prequant import integrable_lattice

    rows = []

    def check(name, computed, expected):
        rows.append(
            {
                "case": name,
                "computed": computed,
                "expected": expected,
                "match": computed == expected,
            }
        )

    for g, vol in [(0, 1), (1, 1), (2, 3), (3, 2)]:
        ring, omega = _preset_ring("surface", {"g": g, "vol": vol})
        lat = integrable_lattice(ring, _candidates(ring, omega)[0])
        check(
            f"surface g={g} vol={vol}",
            {"rank": lat.rank, "prefactor": lat.prefactor.to_json()},
            {"rank": 2 * g, "prefactor": ExactScalar(Fraction(2, vol), -1).to_json()},
        )

    for m in (4, 6):
        ring, omega = _preset_ring("torus", {"m": m, "omega": _default_omega(m)})
        lat = integrable_lattice(ring, _candidates(ring, omega)[0])
        check(f"kaehler torus m={m}", {"rank": lat.rank}, {"rank": 0})

    for r, a, b in [(1, 1, 1), (2, 1, 1), (2, 1, 3), (6, 1, 4)]:
        ring, omega = _preset_ring("thurston", {"r": r, "a": a, "b": b})
        betti = [ring.betti(k) for k in range(5)]
        torsion = {k: ring.torsion(k) for k in (2, 3)}
        check(
            f"nilmanifold r={r} groups",
            {"betti": betti, "torsion": {str(k): v for k, v in torsion.items()}},
            {
                "betti": [1, 3, 4, 3, 1],
                "torsion": {"2": [r] if r > 1 else [], "3": [r] if r > 1 else []},
            },
        )
        for cand in _candidates(ring, omega):
            lat = integrable_lattice(ring, cand)
            check(
                f"nilmanifold r={r} a={a} b={b} c={cand.torsion}",
                {
                    "rank": lat.rank,
                    "generator": list(lat.generators[0]),
                    "prefactor": lat.prefactor.to_json(),
                },
                {
                    "rank": 1,
                    "generator": [r // gcd(r, b), 0, 0],
                    "prefactor": ExactScalar(Fraction(3, a * b), -1).to_json(),
                },
            )
    return rows, all(row["match"] for row in rows)


# -- rendering ------------------------------------------------------------------

def render_text(report) -> str:
    lines = [f"preqlat {report['tool']['version']}"]
    if "cohomology" in report:
        lines.append("degree  betti  torsion  generators")
        for frag in report["cohomology"]:
            tors = ",".join(str(d) for d in frag["torsion"]) or "-"
            gens = "; ".join(frag["generators"])
            lines.append(f"H^{frag['degree']}: {frag['betti']}  [{tors}]  {gens}")
    if "lattice" in report:
        from .exact import ExactScalar

        lat = report["lattice"]
        pf = ExactScalar.from_json(lat["prefactor"])
        lines.append(f"volume: {report['volume']}")
        lines.append(f"lattice rank {lat['rank']} at level {lat['level']}")
        lines.append(f"prefactor: {pf}")
        for gen in lat["generators"]:
            lines.append(f"  generator: {gen['display']}  coords {gen['coords']}")
        kernels = {tuple(c["torsion"]): c["kernel"] for c in lat["euler_candidates"]}
        lines.append(f"euler candidates: {len(kernels)} (identical kernels: "
                     f"{len({str(k) for k in kernels.values()}) == 1})")
    if "verify" in report:
        v = report["verify"]
        lines.append(f"verify seed={v['seed']} trials={v['trials']}")
        for s in v["suites"]:
            status = "pass" if not s["failed"] else "FAIL"
            lines.append(f"  {s['name']:<10} {s['passed']}/{s['trials']} {status}")
            for wit in s["failures"][:3]:
                lines.append(f"    witness: {wit}")
        lines.append("ok" if v["ok"] else "FAILED")
    if "examples" in report:
        for row in report["examples"]:
            mark = "ok " if row["match"] else "FAIL"
            lines.append(f"[{mark}] {row['case']}: {row['computed']}")
        lines.append("all match" if report["ok"] else "MISMATCH")
    return "\n".join(lines) + "\n"


def render(report, fmt) -> str:
    if fmt == "json":
        return json.dumps(report, sort_keys=True, indent=2) + "\n"
    return render_text(report)


def main(argv=None) -> int:
    try:
        job = parse_job(argv)
        if job.output_path and not os.path.isdir(os.path.dirname(job.output_path) or "."):
            raise InputError(f"cannot write report: no directory for {job.output_path!r}")
        report, code = run(job)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    text = render(report, job.format)
    if job.output_path:
        try:
            with open(job.output_path, "w") as fh:
                fh.write(text)
        except OSError as exc:
            print(f"error: cannot write report: {exc}", file=sys.stderr)
            return 2
    else:
        sys.stdout.write(text)
    return code


if __name__ == "__main__":
    sys.exit(main())
