"""Volumes, Euler candidates, Gysin kernels and integrable lattices on
the shipped presets."""

import random
from collections import Counter
from fractions import Fraction
from itertools import combinations
from math import comb, gcd

import pytest

from preqlat.cealg import (
    Cochain,
    LieAlgebraPresentation,
    ce_differential,
    heisenberg_times_line,
    validate_presentation,
)
from preqlat.cohomring import CohomClass, nilmanifold_ring, surface_ring, torus_ring
from preqlat.combinat import degree_tuples
from preqlat.exact import ExactScalar
from preqlat.prequant import (
    euler_candidates,
    generator_display,
    gysin_kernel,
    integrable_lattice,
    lattice_report,
    liouville_volume,
    symplectic_from_cochain,
)
from preqlat.toruscalc.forms import CoordinateCycle, TorusForm, integrate_over_cycle, wedge
from preqlat.toruscalc.symplectic import liouville_power
from preqlat.toruscalc.trig import TrigPoly

from util import dense_complex, pfaffian, rational_rank, sparse_columns, zero_class


def heis_setup(r, a, b):
    ring = nilmanifold_ring(heisenberg_times_line(r))
    omega_cochain = Cochain(4, 2, {(0, 3): -a, (1, 2): -b})  # a h^x + b z^p
    omega = symplectic_from_cochain(ring, omega_cochain)
    return ring, omega


def torus_setup(m, pairs=None):
    ring = torus_ring(m)
    if pairs is None:
        pairs = [(2 * i, 2 * i + 1) for i in range(m // 2)]
    omega_cochain = Cochain(m, 2, {p: 1 for p in pairs})
    return ring, symplectic_from_cochain(ring, omega_cochain)


def surface_setup(g, vol):
    ring = surface_ring(g)
    rep = ring.data(2).free_reps[0]
    return ring, symplectic_from_cochain(ring, vol * rep)


# -- volume --------------------------------------------------------------

@pytest.mark.parametrize("r,a,b", [(1, 1, 1), (2, 3, 5), (6, 2, 4)])
def test_heisenberg_volume(r, a, b):
    ring, omega = heis_setup(r, a, b)
    assert liouville_volume(ring, omega) == a * b


def test_torus2_volume_scales_with_level():
    ring = torus_ring(2)
    for k in (1, 2, 7):
        omega = symplectic_from_cochain(ring, k * Cochain.basis(2, (0, 1)))
        assert liouville_volume(ring, omega) == k


def test_torus4_standard_volume():
    ring, omega = torus_setup(4)
    assert liouville_volume(ring, omega) == 1


def test_negative_volume_rejected():
    ring, _ = heis_setup(1, 1, 1)
    # a = -1, b = 1: the pairing of omega^2/2! with the orientation is -1
    omega = symplectic_from_cochain(ring, Cochain(4, 2, {(0, 3): 1, (1, 2): -1}))
    with pytest.raises(ValueError, match="not a positive symplectic class"):
        liouville_volume(ring, omega)


def test_zero_volume_rejected():
    """A degree-two class of volume zero is not symplectic either, and the
    lattice refuses it before dividing by its volume."""
    ring = torus_ring(2)
    zero = CohomClass(2, (0,), ())
    with pytest.raises(ValueError, match="not a positive symplectic class"):
        liouville_volume(ring, zero)
    with pytest.raises(ValueError, match="not a positive symplectic class"):
        integrable_lattice(ring, zero)


# -- Euler candidates ------------------------------------------------------

@pytest.mark.parametrize("r", [1, 2, 3, 6])
def test_heisenberg_candidate_count(r):
    ring, omega = heis_setup(r, 1, 1)
    cands = euler_candidates(ring, omega)
    assert len(cands) == r
    assert sorted(c.torsion for c in cands) == [((c,) if r > 1 else ()) for c in range(r)] \
        if r > 1 else [()]


def test_torus_and_surface_single_candidate():
    ring, omega = torus_setup(4)
    assert len(euler_candidates(ring, omega)) == 1
    ring, omega = surface_setup(2, 1)
    assert len(euler_candidates(ring, omega)) == 1


# -- Gysin kernels -----------------------------------------------------------

@pytest.mark.parametrize(
    "r,b,expected_t",
    [(1, 1, 1), (2, 1, 2), (2, 2, 1), (6, 4, 3), (6, 1, 6), (3, 2, 3), (6, 3, 2)],
)
def test_heisenberg_kernel_generator(r, b, expected_t):
    assert expected_t == r // gcd(r, b)
    ring, omega = heis_setup(r, 1, b)
    for cand in euler_candidates(ring, omega):
        kernel = gysin_kernel(ring, cand)
        assert kernel == [[expected_t, 0, 0]]


def test_heisenberg_kernel_brute_force_cross_check():
    # membership t*x detected exactly via cup vanishing
    r, a, b = 6, 1, 4
    ring, omega = heis_setup(r, a, b)
    e = euler_candidates(ring, omega)[2]
    members = []
    for t in range(1, r + 1):
        alpha = ring.reduce(Cochain(4, 1, {(0,): t}))
        if ring.cup(e, alpha) == zero_class(ring, 3):
            members.append(t)
    assert members == [t for t in range(1, r + 1) if (t * b) % r == 0]
    assert gysin_kernel(ring, e)[0][0] == min(members)


def free_part_kernel(ring, e):
    """Kernel of the free coordinates of cupping with e (torsion targets
    ignored); the full kernel always sits inside this lattice."""
    from preqlat import intlinalg as lin
    from preqlat.cohomring import CohomClass

    b1 = ring.betti(1)
    images = [
        ring.cup(e, CohomClass(1, tuple(1 if j == i else 0 for j in range(b1)), ()))
        for i in range(b1)
    ]
    rows = [[img.free[j] for img in images] for j in range(len(images[0].free))] \
        if images and images[0].free else []
    if not rows:
        basis = [[1 if i == j else 0 for i in range(b1)] for j in range(b1)]
        return lin.column_style_hermite(basis, b1)
    return lin.column_style_hermite(lin.kernel_basis(sparse_columns(rows), len(rows)), b1)


def test_kernel_contained_in_free_kernel():
    # strict when the target has torsion (the dim-4 family), equal when not
    ring, omega = heis_setup(4, 1, 2)
    cand = euler_candidates(ring, omega)[0]
    full = gysin_kernel(ring, cand)
    free = free_part_kernel(ring, cand)
    from preqlat import intlinalg as lin

    for v in full:
        assert lin.solve_in_lattice(free, v, ring.betti(1)) is not None
    assert full == [[2, 0, 0]] and free == [[1, 0, 0]]
    for factory in (lambda: torus_setup(4), lambda: surface_setup(2, 1)):
        ring, omega = factory()
        cand = euler_candidates(ring, omega)[0]
        assert gysin_kernel(ring, cand) == free_part_kernel(ring, cand)


def test_kaehler_torus_kernels_trivial():
    for m in (4, 6):
        ring, omega = torus_setup(m)
        cand = euler_candidates(ring, omega)[0]
        assert gysin_kernel(ring, cand) == []


def test_torus2_kernel_full():
    ring, omega = torus_setup(2, pairs=[(0, 1)])
    cand = euler_candidates(ring, omega)[0]
    assert gysin_kernel(ring, cand) == [[1, 0], [0, 1]]


@pytest.mark.parametrize("g", [0, 1, 2, 3])
def test_surface_kernel_is_everything(g):
    ring, omega = surface_setup(g, 1)
    cand = euler_candidates(ring, omega)[0]
    kernel = gysin_kernel(ring, cand)
    assert kernel == [[1 if i == j else 0 for i in range(2 * g)] for j in range(2 * g)]


# -- lattices -----------------------------------------------------------------

def test_thurston_unit_lattice():
    ring, omega = heis_setup(1, 1, 1)
    lat = integrable_lattice(ring, euler_candidates(ring, omega)[0], level=1)
    assert lat.rank == 1
    assert lat.generators == ((1, 0, 0),)
    assert lat.prefactor == ExactScalar(Fraction(3), -1)
    assert generator_display(ring, lat.generators[0]) == "x*"


def test_thurston_prefactor_formula():
    for r, a, b, k in [(2, 1, 3, 1), (6, 2, 4, 5), (3, 3, 2, 2)]:
        ring, omega = heis_setup(r, a, b)
        for cand in euler_candidates(ring, omega):
            lat = integrable_lattice(ring, cand, level=k)
            assert lat.rank == 1
            assert lat.generators[0] == (r // gcd(r, b), 0, 0)
            assert lat.prefactor == ExactScalar(Fraction(3 * k, a * b), -1)


def test_lattice_level_scaling():
    ring, omega = heis_setup(2, 1, 1)
    cand = euler_candidates(ring, omega)[0]
    base = integrable_lattice(ring, cand, level=1)
    for k in (2, 3, 9):
        scaled = integrable_lattice(ring, cand, level=k)
        assert scaled.generators == base.generators
        assert scaled.prefactor == k * base.prefactor


def test_lattice_rank_independent_of_torsion_label():
    ring, omega = heis_setup(6, 1, 2)
    ranks = set()
    kernels = set()
    volumes = set()
    for cand in euler_candidates(ring, omega):
        lat = integrable_lattice(ring, cand)
        ranks.add(lat.rank)
        kernels.add(lat.generators)
        volumes.add(liouville_volume(ring, cand))
        # the report's entry for the lattice's own candidate, found by
        # CohomClass equality, reuses the generators
        (own,) = [c for c in lattice_report(lat, ring)["euler_candidates"]
                  if tuple(c["torsion"]) == cand.torsion]
        assert own["kernel"] == gysin_kernel(ring, lat.euler)
    assert ranks == {1}
    assert len(kernels) == 1
    assert omega.torsion == (0,) and volumes == {liouville_volume(ring, omega)}


@pytest.mark.parametrize("g,vol", [(0, 1), (1, 2), (2, 5), (3, 1)])
def test_surface_lattice(g, vol):
    ring, omega = surface_setup(g, vol)
    cand = euler_candidates(ring, omega)[0]
    lat = integrable_lattice(ring, cand, level=1)
    assert lat.rank == 2 * g
    # value k*(n+1)/(2*pi*vol) = 1/(pi*vol) for n = 1
    assert lat.prefactor == ExactScalar(Fraction(2, vol), -1)


def test_kaehler_lattice_trivial():
    for m in (4, 6):
        ring, omega = torus_setup(m)
        lat = integrable_lattice(ring, euler_candidates(ring, omega)[0])
        assert lat.rank == 0
        assert lat.generators == ()


def test_torus2_lattice_generators():
    ring, omega = torus_setup(2, pairs=[(0, 1)])
    lat = integrable_lattice(ring, euler_candidates(ring, omega)[0])
    assert lat.generators == ((1, 0), (0, 1))
    assert [generator_display(ring, g) for g in lat.generators] == ["dx1", "dx2"]


def test_level_must_be_positive():
    ring, omega = heis_setup(1, 1, 1)
    with pytest.raises(ValueError, match="level"):
        integrable_lattice(ring, euler_candidates(ring, omega)[0], level=0)


def test_two_center_product_preset():
    # two independent central directions: elementary divisors (2, 3)
    # merge into the invariant factor 6, giving six Euler candidates
    from preqlat.cealg import LieAlgebraPresentation
    from preqlat.cohomring import nilmanifold_ring
    from preqlat.prequant import liouville_volume

    lie = LieAlgebraPresentation(
        dim=6,
        basis_names=("x1", "p1", "x2", "p2", "h1", "h2"),
        structure={(0, 1): {4: 2}, (2, 3): {5: 3}},
    )
    ring = nilmanifold_ring(lie)
    assert [ring.betti(k) for k in range(7)] == [1, 4, 8, 10, 8, 4, 1]
    assert ring.torsion(2) == [6]
    assert ring.torsion(3) == [6, 6]
    # torsion pairs across the orientation
    assert ring.torsion(2) == ring.torsion(5)
    assert ring.torsion(3) == ring.torsion(4)
    omega = symplectic_from_cochain(
        ring, Cochain(6, 2, {(0, 4): -1, (2, 5): -1, (1, 3): 1})
    )
    assert liouville_volume(ring, omega) == 1
    cands = euler_candidates(ring, omega)
    assert [c.torsion for c in cands] == [(c,) for c in range(6)]
    for cand in cands:
        assert gysin_kernel(ring, cand) == []
        assert integrable_lattice(ring, cand).rank == 0


# -- prequantization-bundle oracle ----------------------------------------------
#
# The prequantum circle bundle over a nilmanifold or torus preset is again a
# nilmanifold, with Lie algebra g_e = g + Z t and d t* = e for the ring's
# representative of the Euler class e.  Its complex is the mapping cone of
# cup e, so the Gysin sequence H^0 -> H^2(g) -> H^2(g_e) -> H^1 -> H^3 is
# exact (Hochschild-Serre, 1953), and over Q
#     b_2(g_e) = b_2(g) - [e != 0] + dim ker(cup e: H^1 -> H^3).
# b_2(g_e) comes from rational ranks of the bundle's own differentials; no
# cup product or Smith form of the ring enters it.

def bundle_presentation(lie, rep):
    """g_e: ``lie`` with a last generator t whose dual has d t* = rep, the
    degree-two representative of e (c_ij^t = -rep_ij)."""
    m = lie.dim
    structure = {ij: dict(comps) for ij, comps in lie.structure.items()}
    for ij, c in rep.coeffs.items():
        structure.setdefault(ij, {})[m] = -c
    return LieAlgebraPresentation(m + 1, lie.basis_names + ("t",), structure)


def seeded_torus_setup(m):
    """T^m with a seeded integral symplectic class of positive Pfaffian
    (drawn by the Pfaffian oracle, so no engine sign decides the draw)."""
    rng = random.Random(f"bundle-oracle:{m}")
    ring = torus_ring(m)
    pairs = list(combinations(range(m), 2))
    while True:
        coeffs = {(2 * i, 2 * i + 1): rng.randint(1, 3) for i in range(m // 2)}
        for ij in rng.sample(pairs, min(2, len(pairs))):
            coeffs.setdefault(ij, rng.choice((-2, -1, 1, 2)))
        if pfaffian(coeffs, m) > 0:
            return ring, symplectic_from_cochain(ring, Cochain(m, 2, coeffs))


@pytest.mark.parametrize(
    "setup",
    [("thurston", a, b) for a, b in ((1, 1), (1, 4), (2, 3))]
    + [("torus", m) for m in (2, 4, 6)],
    ids=lambda setup: "-".join(map(str, setup)),
)
def test_bundle_betti_matches_gysin_kernel(setup):
    if setup[0] == "thurston":
        cases = [heis_setup(r, *setup[1:]) for r in range(1, 13)]
    else:
        cases = [seeded_torus_setup(setup[1])]
    checked = 0
    for ring, omega in cases:
        m = ring.dim
        for e in euler_candidates(ring, omega):
            rep = ring.representative(e)
            lie_e = bundle_presentation(ring.lie, rep)
            report = validate_presentation(lie_e)
            assert report.jacobi_ok and report.nilpotent
            assert ce_differential(Cochain.basis(m + 1, (m,)), lie_e).coeffs == rep.coeffs
            d = dense_complex(lie_e)
            b2_e = comb(m + 1, 2) - rational_rank(d[2]) - rational_rank(d[1])
            assert b2_e == ring.betti(2) - any(e.free) + len(gysin_kernel(ring, e))
            checked += 1
    assert checked == (78 if setup[0] == "thurston" else 1)


# -- the engine against the torus calculus ------------------------------------
#
# On T^m every class has one representative, a constant form, so the ring's
# cup product, volume and Gysin kernel can be read again in the
# trigonometric calculus, whose wedge and integral share no code with the
# engine's cup and reduction.

def constant_form(c: Cochain) -> TorusForm:
    coeffs = {idx: TrigPoly.const(c.dim, x) for idx, x in c.coeffs.items()}
    return TorusForm(c.dim, c.degree, coeffs)


@pytest.mark.parametrize("m", [2, 4, 6])
def test_torus_engine_matches_torus_calculus(m):
    ring, omega = seeded_torus_setup(m)
    rng = random.Random(f"torus-calculus:{m}")

    def form(cls):
        return constant_form(ring.representative(cls))

    def unit(k, i):
        return CohomClass(k, tuple(int(j == i) for j in range(ring.betti(k))), ())

    # cup products against wedges, on seeded classes of every pair of degrees
    for p in range(m + 1):
        for q in range(m + 1 - p):
            u = CohomClass(p, tuple(rng.randint(-3, 3) for _ in range(ring.betti(p))), ())
            v = CohomClass(q, tuple(rng.randint(-3, 3) for _ in range(ring.betti(q))), ())
            assert form(ring.cup(u, v)) == wedge(form(u), form(v)), (p, q)

    # the Liouville volume against the integral of omega^n / n!
    w = form(CohomClass(2, omega.free, ()))
    volume = integrate_over_cycle(liouville_power(w, m // 2), CoordinateCycle.full(m))
    assert volume == ExactScalar(liouville_volume(ring, omega), m)

    # the lattice rank against b_1 minus the rank of alpha -> alpha ^ omega
    images = [[wedge(form(unit(1, i)), w).coefficient(t).mean()[0] for t in degree_tuples(m, 3)]
              for i in range(m)]
    (euler,) = euler_candidates(ring, omega)
    assert integrable_lattice(ring, euler).rank == m - rational_rank(images)


# -- report -------------------------------------------------------------------

def test_lattice_report_structure():
    ring, omega = heis_setup(2, 1, 1)
    cand = euler_candidates(ring, omega)[0]
    lat = integrable_lattice(ring, cand, level=1)
    rep = lattice_report(lat, ring)
    assert rep["rank"] == 1
    assert rep["prefactor"] == {"num": "3", "den": "1", "pi_power": -1}
    assert rep["basis"] == ["x*", "p*", "z*"]
    assert rep["generators"][0]["coords"] == ["2", "0", "0"]
    assert rep["generators"][0]["display"] == "2*x*"
    assert len(rep["euler_candidates"]) == 2
    kernels = [c["kernel"] for c in rep["euler_candidates"]]
    assert kernels[0] == kernels[1]  # torsion label never enters the kernel


def test_report_gcd_example():
    ring, omega = heis_setup(6, 1, 4)
    lat = integrable_lattice(ring, euler_candidates(ring, omega)[0])
    rep = lattice_report(lat, ring)
    assert rep["generators"][0]["display"] == "3*x*"


# -- lattices that depend on the Euler class -------------------------------
# Two seeded dim-6 presentations on which the Gysin kernel changes with the
# torsion part of the Euler class, so each prequantum bundle has its own
# lattice.  H^3 has three torsion factors on A and two on B (no preset has
# more than one).  The pins are multisets of rendered generators, not
# coordinates or torsion labels, so they hold under any change of basis.

def _presentation(structure):
    return LieAlgebraPresentation(6, tuple(f"e{i + 1}" for i in range(6)), {
        ij: {k: Fraction(c) for k, c in comps.items()} for ij, comps in structure.items()})


EULER_DEPENDENT = {
    "A": (
        {(0, 1): {4: -2}, (0, 2): {4: -2}, (1, 2): {3: 2}, (1, 3): {5: -2}, (2, 3): {5: -3}},
        {(0, 1): -1, (0, 3): -1, (1, 3): 2, (1, 4): 2, (1, 5): 2, (2, 3): 2, (2, 4): 1,
         (2, 5): 3},
        [2, 2], [2, 2, 2], 4,
        {("2*e3*",): 2, ("e3*",): 2}, Fraction(1)),
    "B": (
        {(0, 2): {3: 1, 4: 1}, (0, 4): {5: 2}, (1, 2): {3: -3}},
        {(0, 3): 2, (0, 5): 1, (1, 4): -6, (2, 3): -1, (2, 4): -2},
        [6], [2, 2], 6,
        {("4*e1* - e3*",): 3, ("8*e1* - 2*e3*",): 3}, Fraction(2, 3)),
}


@pytest.mark.parametrize("name", sorted(EULER_DEPENDENT))
def test_lattice_depends_on_the_euler_class(name):
    structure, coeffs, h2_torsion, h3_torsion, vol, displays, scale = EULER_DEPENDENT[name]
    ring = nilmanifold_ring(_presentation(structure))
    assert ring.torsion(2) == h2_torsion and ring.torsion(3) == h3_torsion
    omega = symplectic_from_cochain(ring, Cochain(6, 2, coeffs))
    assert liouville_volume(ring, omega) == vol

    def shown(kernel):
        return tuple(generator_display(ring, v) for v in kernel)

    lattices = [integrable_lattice(ring, e) for e in euler_candidates(ring, omega)]
    assert Counter((shown(lat.generators), lat.prefactor) for lat in lattices) == {
        (gens, ExactScalar(scale, -1)): n for gens, n in displays.items()}
    # every lattice's report lists the kernel of each candidate, its own too
    for lat in lattices:
        candidates = lattice_report(lat, ring)["euler_candidates"]
        assert Counter(shown(c["kernel"]) for c in candidates) == displays
