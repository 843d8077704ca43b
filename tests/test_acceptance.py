"""Acceptance gate: the ten shipped criteria, each exact (zero
tolerance), each printing one pass/fail line.

Run with ``pytest tests/test_acceptance.py -s`` to see the lines.
"""

import json
from fractions import Fraction
from math import gcd

from preqlat.cealg import Cochain, heisenberg_times_line
from preqlat.cli import main
from preqlat.cohomring import nilmanifold_ring, surface_ring, torus_ring
from preqlat.exact import ExactScalar
from preqlat.prequant import (
    euler_candidates,
    gysin_kernel,
    integrable_lattice,
    symplectic_from_cochain,
)
from preqlat.toruscalc.contact import (
    contact_flux,
    contact_flux_via_field,
    contact_pullback_residual,
)
from preqlat.toruscalc.forms import CoordinateCycle
from preqlat.toruscalc.trig import TrigPoly
from preqlat.verify import (
    run_cocycles,
    run_duality,
    run_jacobi,
    run_shifts,
    suite_rng,
)

from util import coordinate_field, random_invariant, strict_contact_residual, zero_class


def report(num, desc, ok):
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {desc}")
    assert ok, f"criterion {num} failed: {desc}"


def heis_omega(ring, a, b):
    return symplectic_from_cochain(ring, Cochain(4, 2, {(0, 3): -a, (1, 2): -b}))


def test_criterion_1_thurston_lattices():
    ok = True
    for r in (1, 2, 3, 6):
        ring = nilmanifold_ring(heisenberg_times_line(r))
        for a in (1, 2, 3):
            for b in (1, 2, 3, 4):
                omega = heis_omega(ring, a, b)
                cands = euler_candidates(ring, omega)
                ok = ok and len(cands) == r
                for cand in cands:
                    for k in (1, 3):
                        lat = integrable_lattice(ring, cand, level=k)
                        ok = ok and lat.rank == 1
                        ok = ok and lat.generators == ((r // gcd(r, b), 0, 0),)
                        ok = ok and lat.prefactor == ExactScalar(
                            Fraction(3 * k, a * b), -1
                        )
    report(1, "rank-1 lattice with generator (r/gcd(r,b)) x* and prefactor "
              "3k/(2 pi a b) over the whole (r,a,b,c) grid", ok)


def test_criterion_2_thurston_cohomology():
    ok = True
    for r in (1, 2, 3, 6):
        ring = nilmanifold_ring(heisenberg_times_line(r))
        ok = ok and [ring.betti(k) for k in range(5)] == [1, 3, 4, 3, 1]
        expected_torsion = [r] if r > 1 else []
        ok = ok and ring.torsion(2) == expected_torsion
        ok = ok and ring.torsion(3) == expected_torsion
        ok = ok and ring.torsion(0) == ring.torsion(1) == ring.torsion(4) == []
        xp = Cochain.basis(4, (0, 1))
        ok = ok and ring.reduce(r * xp) == zero_class(ring, 2)
        cls = ring.reduce(xp)
        ok = ok and all(f == 0 for f in cls.free)
        if r > 1:
            ok = ok and gcd(cls.torsion[0], r) == 1  # order exactly r
        for b in (1, 2, 3, 4):
            omega = heis_omega(ring, 1, b)
            for cand in euler_candidates(ring, omega):
                kernel = gysin_kernel(ring, cand)
                ok = ok and kernel == [[r // gcd(r, b), 0, 0]]
                for t in range(1, r + 1):
                    alpha = ring.reduce(Cochain(4, 1, {(0,): t}))
                    member = ring.cup(cand, alpha) == zero_class(ring, 3)
                    ok = ok and member == ((t * b) % r == 0)
    report(2, "groups (Z, Z^3, Z^4+Z/r, Z^3+Z/r, Z), relation r x^ p^ = 0, "
              "cup kernel {t x* : r | t b}", ok)


def test_criterion_3_surface_lattices():
    ok = True
    for g in (0, 1, 2, 3):
        ring = surface_ring(g)
        for vol in (1, 2, 5):
            omega = symplectic_from_cochain(
                ring, vol * ring.data(2).free_reps[0]
            )
            cand = euler_candidates(ring, omega)[0]
            for k in (1, 2):
                lat = integrable_lattice(ring, cand, level=k)
                ok = ok and lat.rank == 2 * g
                # value k (n+1)/(2 pi vol) = k/(pi vol) for n = 1
                ok = ok and lat.prefactor == ExactScalar(Fraction(2 * k, vol), -1)
    report(3, "surface lattices have rank 2g and prefactor k/(pi vol)", ok)


def test_criterion_4_kaehler_tori():
    ok = True
    for m in (4, 6):
        ring = torus_ring(m)
        pairs = {(2 * i, 2 * i + 1): 1 for i in range(m // 2)}
        omega = symplectic_from_cochain(ring, Cochain(m, 2, pairs))
        cand = euler_candidates(ring, omega)[0]
        ok = ok and gysin_kernel(ring, cand) == []
        lat = integrable_lattice(ring, cand)
        ok = ok and lat.rank == 0 and lat.generators == ()
    report(4, "standard symplectic tori T^4 and T^6 have trivial kernel "
              "and zero lattice", ok)


def test_criterion_5_pullback_identity():
    rng = suite_rng(42, "acceptance-pullback")
    ok = True
    count = 0
    for axis in (0, 1, 2):
        for _ in range(70):
            offsets = {a: rng.randrange(4) for a in range(3) if a != axis}
            cycle = CoordinateCycle.circle(3, axis, offsets)
            f = random_invariant(rng, max_deg=6)
            g = random_invariant(rng, max_deg=6)
            ok = ok and contact_pullback_residual(cycle, f, g).is_zero()
            count += 1
    ok = ok and count >= 200
    report(5, f"pullback identity residual exactly zero on all 3 circles, "
              f"{count} seeded invariant pairs of degree <= 6", ok)


def test_criterion_6_cocycle_suite():
    cres = run_cocycles(100, suite_rng(42, "cocycles"))
    jres = run_jacobi(100, suite_rng(42, "jacobi"))
    ok = cres.ok and cres.trials == 600 and jres.ok and jres.trials == 100
    report(6, "cochain condition exact for all six cocycle kinds (100 "
              "triples each) and Jacobi exact (100 triples)", ok)


def test_criterion_7_contact_example():
    ok = True
    rng = suite_rng(42, "acceptance-flux")
    span = set()
    for _ in range(60):
        f = random_invariant(rng, max_deg=5)
        fl = contact_flux(f)
        ok = ok and fl[(0, 1)].is_zero()
        ok = ok and contact_flux_via_field(f) == fl
        if not fl[(0, 2)].is_zero():
            span.add("dx^dz")
        if not fl[(1, 2)].is_zero():
            span.add("dy^dz")
    for f in (TrigPoly.cos_axis(3, 2), TrigPoly.sin_axis(3, 2)):
        fl = contact_flux(f)
        if not fl[(0, 2)].is_zero():
            span.add("dx^dz")
        if not fl[(1, 2)].is_zero():
            span.add("dy^dz")
    ok = ok and span == {"dx^dz", "dy^dz"}
    ok = ok and not strict_contact_residual(coordinate_field(3, 2)).is_zero()
    ok = ok and strict_contact_residual(coordinate_field(3, 0)).is_zero()
    ok = ok and strict_contact_residual(coordinate_field(3, 1)).is_zero()
    report(7, "flux image exactly 2-dimensional in {dy^dz, dx^dz} with zero "
              "dx^dy part; d/dz is not strict contact; field and function "
              "flux classes agree on 50+ invariant inputs", ok)


def test_criterion_8_shift_invariance():
    res = run_shifts(100, suite_rng(42, "shifts"))
    ok = res.ok and res.trials == 100
    report(8, "pullback cocycles invariant under constant Hamiltonian "
              "shifts, 100 exact trials", ok)


def test_criterion_9_duality():
    res = run_duality(50, suite_rng(42, "duality"))
    ok = res.ok and res.trials == 100  # 50 function pairs + 50 field pairs
    report(9, "cycle cocycle equals dual-form cocycle and both field "
              "pictures agree, 50 commuting pairs each", ok)


def test_criterion_10_determinism(tmp_path):
    argv = ["verify", "--seed", "42", "--trials", "5", "--format", "json"]
    out1 = tmp_path / "r1.json"
    out2 = tmp_path / "r2.json"
    code1 = main(argv + ["--output", str(out1)])
    code2 = main(argv + ["--output", str(out2)])
    a = json.loads(out1.read_text())
    b = json.loads(out2.read_text())
    ok = code1 == code2 == 0
    ts_a = a.pop("timestamp")
    ts_b = b.pop("timestamp")
    ok = ok and isinstance(ts_a, str) and isinstance(ts_b, str)
    ok = ok and json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)
    report(10, "repeated seeded verify runs produce byte-identical JSON "
               "(timestamp excluded)", ok)
