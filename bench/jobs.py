"""Seeded job lists for the two workloads, and the oracles that judge
each job's report.

A job is one ``preqlat`` argv (``--format json`` is appended when it
runs) plus an ``expect`` record of invariants computed here from the
generated inputs alone, before anything is timed.  ``check`` compares a
report against that record: it looks at invariants (ranks, torsion
counts, closed-form lattices, ok flags), never at report bytes, so a
change of representatives is not counted as a failure.
"""

from __future__ import annotations

import json
import os
import random
from fractions import Fraction
from itertools import combinations
from math import comb, gcd

# verify and lattice jobs share one workload: apart, each got 40 s runs
# whose spread across seeds reached 26-32 % on this host; together they
# get one longer run.  cohomology runs the large factorizations alone.
WORKLOADS = ("cohomology", "verify_lattice")
SUITES = ("calculus", "cocycles", "jacobi", "pullback", "flux", "shifts", "duality")
PRIMES = (2, 3, 5, 7)

# cohomology --input jobs per (dimension, centre, coefficient bound),
# one per listed bracket density, for each of the four (centre, bound)
# pairs; plus one torus m=8 preset job: 33 jobs.  The median job falls
# inside the 12 dim-7 jobs (the 9th of them); the 12 half-density dim-8
# jobs and torus m=8 are the 13 largest, so the tail job, with 10 beyond
# it, is the third-fastest dim-8 job.  A dim-8 job takes ~1-2 s
# whatever its density, so the dim-8 count sets the pass length, 19-27 s.
COHOMOLOGY_MIX = {6: (1.0, 1.0), 7: (1.0, 1.0, 1.0), 8: (0.5, 0.5, 0.5)}
VERIFY_ROUNDS = 14          # each round runs every suite once
# A cocycles job's time depends on its seed by up to 3x at one trial;
# two trials per job narrow that spread, which sets the tail (cocycles
# jobs), and keep a pass at 4.5-6 s.
VERIFY_TRIALS = 2


# -- workload generation ----------------------------------------------------

def make_jobs(workload, seed, workdir):
    """The fixed job list of one pass; presentation files go to workdir."""
    rng = random.Random(f"preqlat-bench:{workload}:{seed}")
    if workload == "cohomology":
        jobs = _cohomology_jobs(rng, workdir)
    elif workload == "verify_lattice":
        jobs = _verify_jobs(rng) + _lattice_jobs(rng)
        rng.shuffle(jobs)
    else:
        raise ValueError(f"unknown workload {workload!r}")
    argvs = [tuple(j["argv"]) for j in jobs]
    if len(set(argvs)) != len(argvs):
        raise AssertionError("a job argv repeats within the pass")
    return jobs


def two_step_presentation(rng, dim, centre, bound, density=1.0):
    """Random 2-step nilpotent presentation: brackets of the first
    dim-centre generators land in the span of the last ``centre`` ones,
    with integer coefficients in [-bound, bound].  Each bracket is drawn
    with probability ``density`` and is otherwise zero; the result has at
    least one nonzero bracket.  0-based."""
    while True:
        brackets = {}
        for i in range(dim - centre):
            for j in range(i + 1, dim - centre):
                comps = {k: rng.randint(-bound, bound) for k in range(dim - centre, dim)}
                comps = {k: c for k, c in comps.items() if c}
                if comps and (density >= 1 or rng.random() < density):
                    brackets[(i, j)] = comps
        if brackets:
            return brackets


def presentation_json(dim, brackets):
    return {
        "dim": dim,
        "basis": [f"e{i + 1}" for i in range(dim)],
        "brackets": [
            {"i": i + 1, "j": j + 1, "c": {str(k + 1): str(c) for k, c in sorted(comps.items())}}
            for (i, j), comps in sorted(brackets.items())
        ],
    }


def _cohomology_jobs(rng, workdir):
    jobs = []
    seen = set()
    for dim, densities in COHOMOLOGY_MIX.items():
        for centre in (2, 3):
            for bound in (2, 3):
                for density in densities:
                    while True:
                        brackets = two_step_presentation(rng, dim, centre, bound, density)
                        key = (dim, tuple(sorted((ij, tuple(sorted(c.items())))
                                                 for ij, c in brackets.items())))
                        if key not in seen:
                            seen.add(key)
                            break
                    path = os.path.join(workdir, f"p{len(jobs):03d}_d{dim}_z{centre}_b{bound}.json")
                    with open(path, "w") as fh:
                        json.dump(presentation_json(dim, brackets), fh)
                    jobs.append({
                        "argv": ["cohomology", "--input", path],
                        "class": f"dim{dim}" + ("" if density >= 1 else "-half"),
                        "expect": {"kind": "groups", **rank_oracle(dim, brackets)},
                    })
    jobs.append({
        "argv": ["cohomology", "--preset", "torus", "--m", "8"],
        "class": "torus8",
        "expect": {"kind": "groups", **free_groups([comb(8, k) for k in range(9)])},
    })
    rng.shuffle(jobs)
    return jobs


def _verify_jobs(rng):
    seeds = rng.sample(range(1, 10**6), VERIFY_ROUNDS * len(SUITES))
    jobs = []
    for r in range(VERIFY_ROUNDS):
        for s, suite in enumerate(SUITES):
            seed = seeds[r * len(SUITES) + s]
            jobs.append({
                "argv": ["verify", "--suite", suite, "--trials", str(VERIFY_TRIALS),
                         "--seed", str(seed)],
                "class": suite,
                "expect": {"kind": "verify", "suite": suite, "trials": VERIFY_TRIALS,
                           "seed": seed},
            })
    return jobs


def _lattice_jobs(rng):
    jobs = []
    seen = set()

    def add(draw, cls):
        """Append the first draw whose argv is new in this pass."""
        while True:
            argv, expect = draw()
            if tuple(argv) not in seen:
                seen.add(tuple(argv))
                jobs.append({"argv": argv, "class": cls, "expect": expect})
                return

    def same_sign_pair():
        # a and b share a sign, so the Liouville volume ab is positive
        sign = rng.choice((1, -1))
        return sign * rng.randint(1, 5), sign * rng.randint(1, 5)

    def thurston_lattice(r):
        a, b = same_sign_pair()
        c, level = rng.randrange(r), rng.randint(1, 3)
        return (["lattice", "--preset", "thurston", "--r", str(r), "--a", str(a),
                 "--b", str(b), "--c", str(c), "--level", str(level)],
                {"kind": "lattice", "rank": 1, "generator": [r // gcd(r, b), 0, 0],
                 "prefactor": Fraction(3 * level, a * b), "volume": Fraction(a * b),
                 "level": level})

    def torus_lattice(m):
        spec, pf = random_omega(rng, m)
        level = rng.randint(1, 3)
        return (["lattice", "--preset", "torus", "--m", str(m), "--omega", spec,
                 "--level", str(level)],
                {"kind": "lattice", "rank": 2 if m == 2 else 0, "generator": None,
                 "prefactor": Fraction(level * (m // 2 + 1), pf), "volume": Fraction(pf),
                 "level": level})

    def surface_lattice(g):
        vol, level = rng.randint(1, 4), rng.randint(1, 3)
        return (["lattice", "--preset", "surface", "--g", str(g), "--vol", str(vol),
                 "--level", str(level)],
                {"kind": "lattice", "rank": 2 * g, "generator": None,
                 "prefactor": Fraction(2 * level, vol), "volume": Fraction(vol),
                 "level": level})

    def thurston_groups(r):
        a, b = same_sign_pair()
        return (["cohomology", "--preset", "thurston", "--r", str(r), "--a", str(a),
                 "--b", str(b)],
                {"kind": "groups", **rank_oracle(4, {(0, 1): {3: r}})})

    def torus_groups(m):
        spec, _ = random_omega(rng, m)
        return (["cohomology", "--preset", "torus", "--m", str(m), "--omega", spec],
                {"kind": "groups", **free_groups([comb(m, k) for k in range(m + 1)])})

    for r in list(range(1, 13)) * 4:
        add(lambda: thurston_lattice(r), "lattice-thurston")
    # torus m=6 jobs are the heaviest class and hold the tail
    for m, count in ((2, 8), (4, 8), (6, 14)):
        for _ in range(count):
            add(lambda: torus_lattice(m), f"lattice-torus{m}")
    for g in list(range(9)) * 3:
        add(lambda: surface_lattice(g), "lattice-surface")
    # the same families as cohomology --preset jobs
    for r in range(1, 13):
        add(lambda: thurston_groups(r), "cohomology-thurston")
    for m in (2, 2, 4, 4, 6, 6):
        add(lambda: torus_groups(m), "cohomology-torus")
    for g in range(9):
        add(lambda: (["cohomology", "--preset", "surface", "--g", str(g)],
                     {"kind": "groups", **free_groups([1, 2 * g, 1])}), "cohomology-surface")
    add(lambda: (["examples"], {"kind": "examples"}), "examples")
    rng.shuffle(jobs)
    return jobs


def random_omega(rng, m):
    """An integral symplectic class on T^m with positive Pfaffian, as an
    ``--omega`` spec, and that Pfaffian."""
    pairs = [(i, j) for i in range(m) for j in range(i + 1, m)]
    while True:
        coeffs = {(2 * i, 2 * i + 1): rng.randint(1, 3) for i in range(m // 2)}
        for ij in rng.sample(pairs, min(2, len(pairs))):
            if ij not in coeffs:
                coeffs[ij] = rng.choice((-2, -1, 1, 2))
        pf = pfaffian(coeffs, m)
        if pf > 0:
            break
    spec = ""
    for (i, j), c in sorted(coeffs.items()):
        mag = "" if abs(c) == 1 else str(abs(c))
        sign = "-" if c < 0 else ("+" if spec else "")
        spec += f"{sign}{mag}e{i + 1}{j + 1}"
    return spec, pf


def pfaffian(coeffs, m):
    """Pfaffian of the antisymmetric matrix with entries coeffs[(i, j)],
    i < j, by expansion along the first row."""
    def pf(idx):
        if not idx:
            return 1
        first, rest = idx[0], idx[1:]
        total = 0
        for pos, j in enumerate(rest):
            c = coeffs.get((first, j), 0)
            if c:
                total += (-1) ** pos * c * pf(rest[:pos] + rest[pos + 1:])
        return total
    return pf(tuple(range(m)))


# -- the cohomology oracle ----------------------------------------------------

def free_groups(betti):
    return {"betti": list(betti), "mod_p": None}


def rank_oracle(dim, brackets):
    """Betti numbers from rational ranks, and for each p in PRIMES the
    dimensions of H^k(C; F_p) from ranks mod p, of the Chevalley-Eilenberg
    complex built here from the structure constants."""
    mats = differentials(dim, brackets)
    n = [comb(dim, k) for k in range(dim + 1)]

    def cohom_dims(rank):
        r = [rank(mat) for mat in mats] + [0]     # r[k] = rank d_k, d_dim = 0
        return [n[k] - r[k] - (r[k - 1] if k else 0) for k in range(dim + 1)]

    return {
        "betti": cohom_dims(rank_q),
        "mod_p": {str(p): cohom_dims(lambda mat, p=p: rank_mod(mat, p)) for p in PRIMES},
    }


def differentials(dim, brackets):
    """Sparse rows of d_k : C^k -> C^{k+1}, k = 0..dim-1, in the
    lexicographic increasing-tuple bases.  On generators
    d e_k = -sum_{i<j} c_ijk e_i ^ e_j; on products d is an
    antiderivation."""
    d1 = [dict() for _ in range(dim)]
    for (i, j), comps in brackets.items():
        for k, c in comps.items():
            d1[k][(i, j)] = d1[k].get((i, j), 0) - c
    mats = []
    for k in range(dim):
        dst = {t: r for r, t in enumerate(combinations(range(dim), k + 1))}
        rows = [dict() for _ in dst]
        for col, idx in enumerate(combinations(range(dim), k)):
            for pos, g in enumerate(idx):
                rest = idx[:pos] + idx[pos + 1:]
                for (i, j), c in d1[g].items():
                    if i in rest or j in rest:
                        continue
                    seq = (i, j) + rest
                    inversions = sum(1 for x in range(len(seq)) for y in range(x + 1, len(seq))
                                     if seq[x] > seq[y])
                    sign = (-1) ** (pos + inversions)
                    row = rows[dst[tuple(sorted(seq))]]
                    row[col] = row.get(col, 0) + sign * c
        mats.append([{c: v for c, v in row.items() if v} for row in rows])
    return mats


def rank_mod(rows, p):
    """Rank over F_p of a matrix given as sparse rows {col: int}."""
    pivots = {}                       # pivot column -> normalized row
    rank = 0
    for row in rows:
        row = {c: v % p for c, v in row.items() if v % p}
        while row:
            col = min(row)
            if col not in pivots:
                inv = pow(row[col], -1, p)
                pivots[col] = {c: v * inv % p for c, v in row.items()}
                rank += 1
                break
            f = row[col]
            for c, v in pivots[col].items():
                x = (row.get(c, 0) - f * v) % p
                if x:
                    row[c] = x
                else:
                    row.pop(c, None)
    return rank


def rank_q(rows):
    """Rank over Q of a matrix given as sparse rows {col: int}, by
    integer elimination with each row kept primitive."""
    pivots = {}
    rank = 0
    for row in rows:
        row = {c: v for c, v in row.items() if v}
        while row:
            col = min(row)
            if col not in pivots:
                pivots[col] = row
                rank += 1
                break
            piv = pivots[col]
            a, b = piv[col], row[col]
            new = {c: a * v for c, v in row.items()}
            for c, v in piv.items():
                x = new.get(c, 0) - b * v
                if x:
                    new[c] = x
                else:
                    new.pop(c, None)
            g = 0
            for v in new.values():
                g = gcd(g, v)
            row = {c: v // g for c, v in new.items()} if g > 1 else new
    return rank


# -- report checks --------------------------------------------------------------

def check(job, code, text):
    """Problems with one job's outcome, as strings; empty means it passed."""
    if code != 0:
        return [f"exit code {code}"]
    try:
        report = json.loads(text)
        return CHECKS[job["expect"]["kind"]](job["expect"], report)
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        return [f"malformed report: {exc!r}"]


def _check_groups(expect, report):
    frags = report["cohomology"]
    betti = [f["betti"] for f in frags]
    torsion = [list(f["torsion"]) for f in frags]
    problems = []
    if [f["degree"] for f in frags] != list(range(len(expect["betti"]))):
        return [f"degrees {[f['degree'] for f in frags]}"]
    if betti != expect["betti"]:
        problems.append(f"betti {betti} != rational-rank oracle {expect['betti']}")
    for k, f in enumerate(frags):
        chain = torsion[k]
        if any(t <= 1 for t in chain) or any(b % a for a, b in zip(chain, chain[1:])):
            problems.append(f"H^{k} torsion {torsion[k]} is not an invariant-factor chain")
        if len(f["generators"]) != betti[k] + len(torsion[k]):
            problems.append(f"H^{k} lists {len(f['generators'])} generators")
    if expect["mod_p"] is None:
        if any(torsion):
            problems.append(f"torsion {torsion} where none exists")
    else:
        for p, dims in expect["mod_p"].items():
            p = int(p)
            t = [sum(1 for d in tk if d % p == 0) for tk in torsion] + [0]
            got = [betti[k] + t[k] + t[k + 1] for k in range(len(betti))]
            if got != dims:
                problems.append(f"b + t(p) + t'(p) = {got} != dim H(C; F_{p}) = {dims}")
    return problems


def _check_lattice(expect, report):
    lat = report["lattice"]
    problems = []
    if lat["rank"] != expect["rank"] or len(lat["generators"]) != expect["rank"]:
        problems.append(f"rank {lat['rank']} != {expect['rank']}")
    if lat["level"] != expect["level"]:
        problems.append(f"level {lat['level']} != {expect['level']}")
    pf = lat["prefactor"]
    got = Fraction(int(pf["num"]), int(pf["den"]))
    if got != expect["prefactor"] or pf["pi_power"] != -1:
        problems.append(f"prefactor {got}*(2pi)^{pf['pi_power']} != {expect['prefactor']}/(2pi)")
    if Fraction(report["volume"]) != expect["volume"]:
        problems.append(f"volume {report['volume']} != {expect['volume']}")
    if expect["generator"] is not None and lat["generators"]:
        coords = [int(x) for x in lat["generators"][0]["coords"]]
        if coords != expect["generator"]:
            problems.append(f"generator {coords} != {expect['generator']}")
    return problems


def _check_verify(expect, report):
    v = report["verify"]
    problems = []
    if not v["ok"]:
        problems.append("verify ok is false")
    if v["seed"] != expect["seed"] or v["trials"] != expect["trials"]:
        problems.append(f"ran seed {v['seed']} trials {v['trials']}")
    names = [s["name"] for s in v["suites"]]
    if names != [expect["suite"]]:
        problems.append(f"ran suites {names}")
    for s in v["suites"]:
        if s["passed"] != s["trials"] or s["failures"] or s["failed"]:
            problems.append(f"{s['name']}: {s['passed']}/{s['trials']} passed, "
                            f"{len(s['failures'])} failures")
    return problems


def _check_examples(expect, report):
    return [] if report["ok"] is True else ["examples ok is false"]


CHECKS = {
    "groups": _check_groups,
    "lattice": _check_lattice,
    "verify": _check_verify,
    "examples": _check_examples,
}
