"""Command-line entry point.

Subcommands: ``cohomology`` (group tables of a preset or an inline
presentation), ``lattice`` (integrable directions, exact prefactor, and
the per-Euler-candidate comparison), ``verify`` (seeded identity suites),
and ``examples`` (the shipped reference computations against hard-coded
expected values).  Reports are deterministic for a fixed job and seed;
exact scalars serialize as decimal num/den strings, never floats.

Exit codes: 0 success, 1 check failure, 2 input error.
"""

from __future__ import annotations

import argparse
import functools
import json
import re
import sys
from dataclasses import dataclass, field
from datetime import datetime, timezone
from fractions import Fraction
from math import gcd

from . import __version__
from .cealg import Cochain, LieAlgebraPresentation, heisenberg_times_line
from .cohomring import CohomologyRing, nilmanifold_ring, surface_ring, torus_ring
from .exact import ExactScalar
from .prequant import (
    euler_candidates,
    integrable_lattice,
    lattice_report,
    symplectic_from_cochain,
)
from .verify import SUITE_NAMES, run_suites


class InputError(ValueError):
    """Malformed job input; maps to exit code 2."""


@dataclass
class JobDescriptor:
    command: str
    preset: str | None = None
    params: dict = field(default_factory=dict)
    input_path: str | None = None
    level: int = 1
    output_path: str | None = None
    format: str = "text"
    seed: int = 42
    suites: list = field(default_factory=lambda: ["all"])
    trials: int = 100

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
    p.add_argument("--omega", type=str, help="torus symplectic class, e.g. e12+e34")
    p.add_argument("--g", type=int, help="surface genus")
    p.add_argument("--vol", type=str, help="surface volume (positive integer)")


MAX_DIGITS = 30     # in the numerator or the denominator of a rational input


def _parse_rational(text, name):
    if "e" in text.lower():
        raise InputError(f"malformed rational for --{name}: {text!r} (no exponent notation)")
    try:
        value = Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise InputError(f"malformed rational for --{name}: {text!r}")
    if max(abs(value.numerator), value.denominator) >= 10 ** MAX_DIGITS:
        raise InputError(f"rational for --{name} has more than {MAX_DIGITS} digits")
    return value


def parse_job(argv) -> JobDescriptor:
    parser = _build_parser()
    ns = parser.parse_args(argv)
    job = JobDescriptor(command=ns.command)
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
    elif ns.command == "verify":
        descriptor = {}
        if ns.input_path:
            descriptor = _load_suite_descriptor(ns.input_path)
            job.input_path = ns.input_path
        job.suites = ns.suites or descriptor.get("suites") or ["all"]
        job.trials = ns.trials if ns.trials is not None else descriptor.get("trials", 100)
        job.seed = ns.seed if ns.seed is not None else descriptor.get("seed", 42)
        if job.trials < 1:
            raise InputError("--trials must be >= 1")
        known = set(SUITE_NAMES) | {"all"}
        for s in job.suites:
            if s not in known:
                raise InputError(f"unknown suite {s!r}")
    return job


def _load_suite_descriptor(path):
    try:
        with open(path) as fh:
            data = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise InputError(f"cannot read suite descriptor: {exc}")
    if not isinstance(data, dict):
        raise InputError("suite descriptor must be a JSON object")
    out = {}
    if "suites" in data:
        if not isinstance(data["suites"], list):
            raise InputError("descriptor 'suites' must be a list")
        out["suites"] = [str(s) for s in data["suites"]]
    for key in ("trials", "seed"):
        if key in data:
            try:
                out[key] = int(data[key])
            except (TypeError, ValueError):
                raise InputError(f"descriptor {key!r} must be an integer")
    return out


def _collect_preset_params(ns):
    params = {}
    if ns.preset == "thurston":
        r = ns.r if ns.r is not None else 1
        if r <= 0:
            raise InputError("--r must be a positive integer")
        a = _parse_rational(ns.a, "a") if ns.a is not None else Fraction(1)
        b = _parse_rational(ns.b, "b") if ns.b is not None else Fraction(1)
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
        params = {"m": ns.m, "omega": ns.omega or _default_omega(ns.m)}
    elif ns.preset == "surface":
        if ns.g is None:
            raise InputError("surface preset needs --g")
        if ns.g < 0:
            raise InputError("--g must be >= 0")
        vol = _parse_rational(ns.vol, "vol") if ns.vol is not None else Fraction(1)
        if vol <= 0 or vol.denominator != 1:
            raise InputError("--vol must be a positive integer")
        params = {"g": ns.g, "vol": int(vol)}
    return params


def _default_omega(m):
    return "+".join(f"e{2 * i + 1}{2 * i + 2}" for i in range(m // 2))


def parse_omega_spec(spec, m) -> Cochain:
    """Parse strings like ``e12+e34`` or ``2e12-e34`` (single-digit axes)."""
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
        coef = sign * (_parse_rational(coef_txt, "omega") if coef_txt else Fraction(1))
        if len(idx_txt) != 2 or not idx_txt.isdigit():
            raise InputError(
                f"omega term {term!r} must name two single-digit axes, e.g. e12"
            )
        i, j = int(idx_txt[0]) - 1, int(idx_txt[1]) - 1
        if not (0 <= i < j < m):
            raise InputError(f"omega term {term!r} out of range for m={m}")
        coeffs[(i, j)] = coeffs.get((i, j), Fraction(0)) + coef
    return Cochain(m, 2, coeffs)


def load_presentation(path) -> LieAlgebraPresentation:
    """Read the JSON presentation schema, with int dim, i, j and no repeats:
    {"dim": m, "basis": [...], "brackets": [{"i":1,"j":2,"c":{"3":"r"}}]}."""
    try:
        with open(path) as fh:
            data = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise InputError(f"cannot read presentation: {exc}")
    try:
        dim, brackets = data["dim"], data.get("brackets", [])
        if any(type(x) is not int for x in [dim, *(e[key] for e in brackets for key in "ij")]):
            raise InputError("malformed presentation: dim, i and j must be JSON integers")
        names = tuple(str(n) for n in data["basis"])
        if len(set(names)) != len(names):
            raise InputError(f"malformed presentation: repeated basis name in {list(names)}")
        structure = {}
        for entry in brackets:
            i, j = entry["i"] - 1, entry["j"] - 1
            if (i, j) in structure:
                raise InputError(f"malformed presentation: repeated bracket ({i + 1}, {j + 1})")
            comps = {}
            for k, val in entry["c"].items():
                comps[int(k) - 1] = _parse_rational(str(val), "bracket coefficient")
            structure[(i, j)] = comps
        return LieAlgebraPresentation(dim=dim, basis_names=names, structure=structure)
    except (KeyError, TypeError, ValueError) as exc:
        if isinstance(exc, InputError):
            raise
        raise InputError(f"malformed presentation: {exc}")


def _ring_for_job(job) -> tuple[CohomologyRing, Cochain | None]:
    """Build the ring and, for lattice jobs, the symplectic cochain."""
    if job.input_path:
        lie = load_presentation(job.input_path)
        try:
            return nilmanifold_ring(lie), None
        except ValueError as exc:
            raise InputError(f"cealg: {exc}")
    p = job.params
    if job.preset == "thurston":
        ring = nilmanifold_ring(heisenberg_times_line(p["r"]))
        omega = Cochain(4, 2, {(0, 3): -p["a"], (1, 2): -p["b"]})
        return ring, omega
    if job.preset == "torus":
        ring = torus_ring(p["m"])
        return ring, parse_omega_spec(p["omega"], p["m"])
    if job.preset == "surface":
        ring = surface_ring(p["g"])
        rep = ring.cohomology.data(2).free_reps[0]
        return ring, p["vol"] * rep
    raise InputError(f"unknown preset {job.preset!r}")


def run(job: JobDescriptor):
    """Execute a parsed job; returns (report dict, exit code)."""
    report = {
        "tool": {"name": "preqlat", "version": __version__},
        "job": job.echo(),
        "timestamp": datetime.now(timezone.utc).isoformat(),
    }
    if job.command == "cohomology":
        ring, _ = _ring_for_job(job)
        report["cohomology"] = [
            ring.report_fragment(k) for k in range(ring.top_degree + 1)
        ]
        return report, 0
    if job.command == "lattice":
        ring, omega_cochain = _ring_for_job(job)
        try:
            omega = symplectic_from_cochain(ring, omega_cochain)
            cands = euler_candidates(ring, omega)
            index = job.params.get("c", 0) if job.preset == "thurston" else 0
            lattice = integrable_lattice(ring, cands[index], job.level)
        except ValueError as exc:
            raise InputError(f"prequant: {exc}")
        report["lattice"] = lattice_report(lattice, ring)
        report["volume"] = str(lattice.volume)
        return report, 0
    if job.command == "verify":
        results = run_suites(job.suites, job.trials, job.seed)
        report["verify"] = {
            "seed": job.seed,
            "trials": job.trials,
            "suites": [r.to_json() for r in results],
        }
        ok = all(r.ok for r in results)
        report["verify"]["ok"] = ok
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
        ring = surface_ring(g)
        omega = symplectic_from_cochain(ring, vol * ring.cohomology.data(2).free_reps[0])
        lat = integrable_lattice(ring, euler_candidates(ring, omega)[0])
        check(
            f"surface g={g} vol={vol}",
            {"rank": lat.rank, "prefactor": lat.prefactor.to_json()},
            {"rank": 2 * g, "prefactor": ExactScalar(Fraction(2, vol), -1).to_json()},
        )

    for m in (4, 6):
        ring = torus_ring(m)
        omega_cochain = parse_omega_spec(_default_omega(m), m)
        omega = symplectic_from_cochain(ring, omega_cochain)
        lat = integrable_lattice(ring, euler_candidates(ring, omega)[0])
        check(f"kaehler torus m={m}", {"rank": lat.rank}, {"rank": 0})

    for r, a, b in [(1, 1, 1), (2, 1, 1), (2, 1, 3), (6, 1, 4)]:
        ring = nilmanifold_ring(heisenberg_times_line(r))
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
        omega = symplectic_from_cochain(ring, Cochain(4, 2, {(0, 3): -a, (1, 2): -b}))
        for cand in euler_candidates(ring, omega):
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
    argv = sys.argv[1:] if argv is None else argv
    try:
        job = parse_job(argv)
        report, code = run(job)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    text = render(report, job.format)
    if job.output_path:
        with open(job.output_path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return code


if __name__ == "__main__":
    sys.exit(main())
