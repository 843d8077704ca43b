"""Integral cohomology engine on the shipped presets.

The dim-4 presentation with [x, p] = r h is the workhorse: its groups
(Z, Z^3, Z^4 + Z/r, Z^3 + Z/r, Z), the relation r x^p = 0, and the
unimodular top pairing are all asserted exactly.
"""

import random
from fractions import Fraction
from math import comb

import pytest

from preqlat import intlinalg
from preqlat.cealg import (
    Cochain,
    LieAlgebraPresentation,
    ce_differential,
    complex_matrices,
    heisenberg_times_line,
)
from preqlat.cohomring import (
    CohomClass,
    integral_cohomology,
    nilmanifold_ring,
    surface_ring,
    torus_ring,
)
from preqlat.combinat import degree_tuples

from util import (
    cochain_wedge,
    dense_complex,
    dense_matrix,
    det,
    eager_reduce_rows,
    orientation_class,
    rational_rank,
    read_multiply_degree_data,
    ring_from_preset,
    sparse_columns,
    two_step_presentation,
    zero_class,
)


def heis_ring(r):
    return nilmanifold_ring(heisenberg_times_line(r))


def reduction_rows(dd):
    """A degree's reduction map as one dense row per class."""
    return dense_matrix(dd.reduce_cols, len(dd.reps))


def torsion_rings():
    """A dim-6 and a dim-7 presentation whose cohomology has torsion
    (invariant factors up to 42 and 6)."""
    rings = [nilmanifold_ring(two_step_presentation("6-1", 6, 3, 3)),
             nilmanifold_ring(two_step_presentation("7-2", 7, 2, 3, 0.5))]
    for ring in rings:
        assert any(ring.torsion(k) for k in range(ring.dim + 1))
    return rings


def random_cochain(rng, m, degree, span=3):
    coeffs = {}
    tuples = degree_tuples(m, degree)
    for idx in rng.sample(tuples, min(span, len(tuples))):
        coeffs[idx] = rng.randint(-5, 5)
    return Cochain(m, degree, coeffs)


# -- Heisenberg x line -------------------------------------------------------

@pytest.mark.parametrize("r", [1, 2, 3, 6])
def test_heisenberg_betti_numbers(r):
    ring = heis_ring(r)
    assert [ring.betti(k) for k in range(5)] == [1, 3, 4, 3, 1]


@pytest.mark.parametrize("r", [2, 3, 6])
def test_heisenberg_torsion(r):
    ring = heis_ring(r)
    assert ring.torsion(2) == [r]
    assert ring.torsion(3) == [r]
    assert ring.torsion(0) == ring.torsion(1) == ring.torsion(4) == []


def test_heisenberg_level_one_torsion_free():
    ring = heis_ring(1)
    assert all(ring.torsion(k) == [] for k in range(5))


def test_heisenberg_degree_one_representatives():
    ring = heis_ring(3)
    reps = ring.data(1).free_reps
    assert [rep.coeffs for rep in reps] == [{(0,): 1}, {(1,): 1}, {(2,): 1}]  # x*, p*, z*


def test_heisenberg_degree_two_structure():
    ring = heis_ring(4)
    dd = ring.data(2)
    free_tuples = sorted(t for rep in dd.free_reps for t in rep.coeffs)
    assert free_tuples == [(0, 2), (0, 3), (1, 2), (1, 3)]  # x^z, x^h, p^z, p^h
    assert [rep.coeffs for rep in dd.torsion_reps] == [{(0, 1): 1}]  # x^p


def test_heisenberg_torsion_generator_in_degree_three():
    ring = heis_ring(5)
    dd = ring.data(3)
    assert [rep.coeffs for rep in dd.torsion_reps] == [{(0, 1, 2): 1}]  # x^p^z


@pytest.mark.parametrize("r", [2, 6])
def test_heisenberg_reduce_relation(r):
    ring = heis_ring(r)
    xp = Cochain.basis(4, (0, 1))
    cls = ring.reduce(xp)
    assert cls.free == (0, 0, 0, 0)
    assert cls.torsion == (1,)
    r_xp = r * xp
    assert ring.reduce(r_xp) == zero_class(ring, 2)


def test_heisenberg_reduce_kills_coboundary():
    lie = heisenberg_times_line(3)
    ring = nilmanifold_ring(lie)
    zh = Cochain.basis(4, (2, 3))
    dzh = ce_differential(zh, lie)
    assert not dzh.is_zero()
    assert ring.reduce(dzh) == zero_class(ring, 3)


def test_reduce_rejects_non_cocycle():
    ring = heis_ring(2)
    h = Cochain.basis(4, (3,))
    with pytest.raises(ValueError, match="not a cocycle"):
        ring.reduce(h)


def test_not_a_complex_error():
    cases = [
        [
            [[0], [0], [0]],
            [[1, 0, 0], [0, 0, 0], [0, 0, 0]],  # d1 d0 = 0 fine
            [[1, 0, 0]],                        # d2 d1 != 0
        ],
        [
            # d2 d1 is nonzero only in the last column, and the first entry
            # of that column meets an empty column of d2
            [[0], [0], [0]],
            [[0, 0, 1], [0, 0, 1], [0, 0, 0]],
            [[0, 1, 0]],
        ],
        [
            # d1 d0 = (0, 1, 0): row 0 cancels (1 - 1), row 1 does not; the
            # first entry of d0's column meets an empty column of d1
            [[1], [1], [1]],
            [[0, 1, -1], [0, 1, 0], [0, 0, 0]],
            [[0, 0, 0]],
        ],
    ]
    for mats in cases:
        with pytest.raises(ValueError, match="not a complex"):
            integral_cohomology([sparse_columns(d) for d in mats], 3, ("a", "b", "c"))


def test_injective_differential_leaves_no_class(monkeypatch):
    """A degree whose differential is injective has no cocycle, so it
    holds no class and takes one Smith form, that of the differential.
    On the circle with d(1) = c a*, degree 0 is such a degree, and
    degree 1 is Z/c: torsion [c] with representative a*, or nothing
    when c = 1."""
    calls = []

    def counting(*args, real=intlinalg.smith_normal_form):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(intlinalg, "smith_normal_form", counting)
    for c, torsion, reps in ((3, [3], [[((0,), 1)]]), (1, [], [])):
        calls.clear()
        groups = integral_cohomology([[[(0, c)]]], 1, ("a*",))
        zero, one = groups.degrees
        assert (zero.betti, zero.torsion, zero.reps, zero.reduce_cols) == (0, [], [], [[]])
        assert (one.betti, one.torsion, one.reps) == (0, torsion, reps)
        assert len(calls) == 2
        cls = groups.reduce(Cochain.basis(1, (0,)))
        assert (cls.free, cls.torsion) == ((), (1,) if torsion else ())


def test_reduce_of_representative_is_unit_vector():
    for ring in (heis_ring(2), heis_ring(3), torus_ring(3), surface_ring(2), *torsion_rings()):
        for k in range(ring.dim + 1):
            dd = ring.data(k)
            for i, rep in enumerate(dd.free_reps):
                cls = ring.reduce(rep)
                assert cls.free == tuple(1 if j == i else 0 for j in range(dd.betti))
                assert all(t == 0 for t in cls.torsion)
            for i, rep in enumerate(dd.torsion_reps):
                cls = ring.reduce(rep)
                assert all(f == 0 for f in cls.free)
                assert cls.torsion == tuple(1 if j == i else 0 for j in range(len(dd.torsion)))


def test_reduce_kills_random_coboundaries():
    rng = random.Random(4)
    for r in (1, 2, 5):
        ring = heis_ring(r)
        lie = ring.lie
        for k in range(4):
            for _ in range(5):
                c = random_cochain(rng, 4, k)
                dc = ce_differential(c, lie)
                assert ring.reduce(dc) == zero_class(ring, k + 1)
    for ring in torsion_rings():
        m = ring.dim
        for k in range(m):
            for _ in range(5):
                dc = ce_differential(random_cochain(rng, m, k), ring.lie)
                assert ring.reduce(dc) == zero_class(ring, k + 1)


def test_rational_cochain_reduces_with_rational_coordinates():
    ring = heis_ring(2)
    c = Cochain(4, 1, {(0,): Fraction(1, 3), (2,): Fraction(5, 7)})
    cls = ring.reduce(c)
    assert cls.free == (Fraction(1, 3), 0, Fraction(5, 7))


# -- cup products ------------------------------------------------------------

def test_cup_x_p_is_torsion_class():
    ring = heis_ring(6)
    x = ring.reduce(Cochain.basis(4, (0,)))
    p = ring.reduce(Cochain.basis(4, (1,)))
    cls = ring.cup(x, p)
    assert all(f == 0 for f in cls.free)
    assert cls.torsion == (1,)


def test_cup_with_unit():
    ring = heis_ring(3)
    u = ring.reduce(Cochain(4, 2, {(0, 2): 2, (1, 3): -1}))
    assert ring.cup(ring.unit(), u) == u
    assert ring.cup(u, ring.unit()) == u


def test_torus4_top_cup():
    ring = torus_ring(4)
    a = ring.reduce(Cochain.basis(4, (0, 1)))
    b = ring.reduce(Cochain.basis(4, (2, 3)))
    assert ring.cup(a, b) == orientation_class(ring)


def test_cup_graded_commutative_on_presets():
    rng = random.Random(8)
    for ring in (heis_ring(2), torus_ring(4)):
        m = ring.dim
        for _ in range(10):
            ka = rng.randint(1, 2)
            kb = rng.randint(1, 2)
            a = ring.reduce(_random_closed(rng, ring, ka))
            b = ring.reduce(_random_closed(rng, ring, kb))
            ab = ring.cup(a, b)
            ba = ring.cup(b, a)
            sign = (-1) ** (ka * kb)
            assert ab.free == tuple(sign * x for x in ba.free)
            mods = ring.torsion(ka + kb)
            assert all(
                (x - sign * y) % d == 0 for x, y, d in zip(ab.torsion, ba.torsion, mods)
            )


def _random_closed(rng, ring, degree):
    """Random closed cochain: a lift of a random class plus a coboundary."""
    dd = ring.data(degree)
    cls = CohomClass(
        degree,
        tuple(rng.randint(-3, 3) for _ in range(dd.betti)),
        tuple(rng.randint(0, d - 1) for d in dd.torsion),
    )
    c = ring.representative(cls)
    if ring.lie is not None and degree >= 1:
        c = c + ce_differential(random_cochain(rng, ring.dim, degree - 1), ring.lie)
    return c


def test_cup_associative_on_classes():
    rng = random.Random(14)
    for ring in (heis_ring(2), torus_ring(4)):
        for _ in range(8):
            a = ring.reduce(_random_closed(rng, ring, 1))
            b = ring.reduce(_random_closed(rng, ring, 1))
            c = ring.reduce(_random_closed(rng, ring, rng.randint(1, 2)))
            assert ring.cup(ring.cup(a, b), c) == ring.cup(a, ring.cup(b, c))


def test_cup_well_defined_modulo_coboundaries():
    rng = random.Random(9)
    ring = heis_ring(4)
    lie = ring.lie
    for _ in range(20):
        b = random_cochain(rng, 4, 1)
        db = ce_differential(b, lie)
        closed = _random_closed(rng, ring, rng.randint(1, 2))
        w = cochain_wedge(db, closed)
        assert ring.reduce(w) == zero_class(ring, w.degree)


# -- orientation and pairing --------------------------------------------------

def test_heisenberg_orientation_and_volume_pairing():
    ring = heis_ring(2)
    top = Cochain.basis(4, (0, 1, 2, 3))
    assert ring.fundamental_pairing(ring.reduce(top)) == 1
    a, b = 3, 5
    omega = Cochain(4, 2, {(0, 3): -a, (1, 2): -b})  # a h^x + b z^p
    sq = cochain_wedge(omega, omega)
    assert ring.fundamental_pairing(ring.reduce(sq)) == 2 * a * b


def test_torus2_orientation():
    ring = torus_ring(2)
    assert ring.fundamental_pairing(ring.reduce(Cochain.basis(2, (0, 1)))) == 1


def test_pairing_requires_top_degree():
    ring = torus_ring(3)
    with pytest.raises(ValueError, match="top-degree"):
        ring.fundamental_pairing(ring.reduce(Cochain.basis(3, (0,))))


@pytest.mark.parametrize(
    "ring_factory",
    [
        lambda: heis_ring(1),
        lambda: heis_ring(2),
        lambda: heis_ring(3),
        lambda: torus_ring(2),
        lambda: torus_ring(3),
        lambda: torus_ring(4),
        lambda: surface_ring(1),
        lambda: surface_ring(2),
        lambda: surface_ring(3),
    ],
)
def test_free_pairing_unimodular(ring_factory):
    ring = ring_factory()
    top = ring.top_degree
    for k in range(top + 1):
        bk = ring.betti(k)
        bl = ring.betti(top - k)
        assert bk == bl
        if bk == 0:
            continue
        dd_k = ring.data(k)
        dd_l = ring.data(top - k)
        mat = [
            [ring.fundamental_pairing(ring.reduce(cochain_wedge(u, v))) for v in dd_l.free_reps]
            for u in dd_k.free_reps
        ]
        assert abs(det(mat)) == 1


def test_universal_coefficients_pattern_for_heisenberg():
    for r in (2, 3, 6):
        ring = heis_ring(r)
        assert ring.torsion(2) == ring.torsion(3) == [r]


# -- torus and surface presets ------------------------------------------------

@pytest.mark.parametrize("m", [1, 2, 3, 4, 6])
def test_torus_betti_binomials_no_torsion(m):
    ring = torus_ring(m)
    for k in range(m + 1):
        assert ring.betti(k) == comb(m, k)
        assert ring.torsion(k) == []


def test_surface_genus2_ring():
    ring = surface_ring(2)
    assert ring.betti(0) == 1 and ring.betti(1) == 4 and ring.betti(2) == 1
    assert ring.betti(3) == 0
    dd = ring.data(1)
    a = [ring.reduce(dd.free_reps[i]) for i in range(2)]
    b = [ring.reduce(dd.free_reps[2 + i]) for i in range(2)]
    for i in range(2):
        for j in range(2):
            expected = orientation_class(ring) if i == j else zero_class(ring, 2)
            assert ring.cup(a[i], b[j]) == expected
            assert ring.cup(a[i], a[j]) == zero_class(ring, 2)
            assert ring.cup(b[i], b[j]) == zero_class(ring, 2)
            back = ring.cup(b[j], a[i])
            assert back.free == tuple(-x for x in ring.cup(a[i], b[j]).free)


def test_surface_genus0():
    ring = surface_ring(0)
    assert ring.betti(1) == 0
    assert ring.betti(2) == 1
    assert ring.fundamental_pairing(orientation_class(ring)) == 1


def test_ring_from_preset_dispatch():
    assert ring_from_preset("thurston", r=2).torsion(2) == [2]
    assert ring_from_preset("torus", m=3).betti(1) == 3
    assert ring_from_preset("surface", g=2).betti(1) == 4
    with pytest.raises(ValueError, match="unknown preset"):
        ring_from_preset("sphere-bundle")


def test_nilmanifold_ring_rejects_non_nilpotent():
    from preqlat.cealg import LieAlgebraPresentation

    sl2 = LieAlgebraPresentation(
        dim=3,
        basis_names=("e", "f", "h"),
        structure={(0, 1): {2: 1}, (0, 2): {0: -2}, (1, 2): {1: 2}},
    )
    with pytest.raises(ValueError, match="not nilpotent"):
        nilmanifold_ring(sl2)


def test_report_fragment_shape():
    ring = heis_ring(2)
    frag = ring.report_fragment(2)
    assert frag["degree"] == 2
    assert frag["betti"] == 4
    assert frag["torsion"] == [2]
    assert "x*^p*" in frag["generators"]


def test_deterministic_construction():
    r1 = heis_ring(6)
    r2 = heis_ring(6)
    for k in range(5):
        assert [c.coeffs for c in r1.data(k).free_reps] == \
               [c.coeffs for c in r2.data(k).free_reps]
        assert r1.data(k).reduce_cols == r2.data(k).reduce_cols


def rank_mod_p(mat, p):
    """Row-echelon rank over GF(p); independent of the Smith-form machinery."""
    rows = [r for r in ([int(x) % p for x in row] for row in mat) if any(r)]
    ncols = len(mat[0]) if mat else 0
    rank = 0
    for col in range(ncols):
        piv = next((i for i, r in enumerate(rows) if r[col]), None)
        if piv is None:
            continue
        head = rows.pop(piv)
        inv = pow(head[col], -1, p)
        head = [x * inv % p for x in head]
        rows = [[(x - r[col] * y) % p for x, y in zip(r, head)] if r[col] else r
                for r in rows]
        rows = [r for r in rows if any(r)]
        rank += 1
    return rank


@pytest.mark.parametrize(
    "seed,dim,centre,bound,density",
    [
        ("6-1", 6, 3, 3, 1.0),
        ("7-0", 7, 3, 2, 1.0),
        ("7-5", 7, 2, 3, 0.5),
        ("8-2", 8, 2, 2, 0.5),
        ("8-3", 8, 3, 2, 0.5),
        ("9-3", 9, 3, 2, 0.5),
    ],
)
def test_torsion_against_mod_p_rank_oracle(seed, dim, centre, bound, density):
    """Universal coefficients: dim H^k(C; F_p) = b_k + t_k(p) + t_{k+1}(p),
    where t_k(p) counts the invariant factors of H^k divisible by p."""
    lie = two_step_presentation(seed, dim, centre, bound, density)
    ring = nilmanifold_ring(lie)
    mats = dense_complex(lie)
    assert any(ring.torsion(k) for k in range(dim + 1))

    def t(k, p):
        return sum(1 for d in ring.torsion(k) if d % p == 0) if k <= dim else 0

    for p in (2, 3, 5, 7):
        ranks = [rank_mod_p(mats[k], p) for k in range(dim)] + [0]
        for k in range(dim + 1):
            n_k = comb(dim, k)
            rank_prev = ranks[k - 1] if k >= 1 else 0
            assert ring.betti(k) + t(k, p) + t(k + 1, p) == n_k - ranks[k] - rank_prev


def test_betti_against_rank_oracle_and_dim8_speed():
    rng = random.Random(88)
    from preqlat.cealg import LieAlgebraPresentation

    structure = {}
    for i in range(6):
        for j in range(i + 1, 6):
            comps = {k: Fraction(v) for k in (6, 7) if (v := rng.randint(-2, 2))}
            if comps:
                structure[(i, j)] = comps
    lie = LieAlgebraPresentation(
        dim=8, basis_names=tuple(f"e{i+1}" for i in range(8)), structure=structure
    )
    ring = nilmanifold_ring(lie)
    mats = dense_complex(lie)
    from math import comb

    for k in range(9):
        n_k = comb(8, k)
        rank_k = rational_rank(mats[k]) if k < 8 else 0
        rank_prev = rational_rank(mats[k - 1]) if k >= 1 else 0
        assert ring.betti(k) == n_k - rank_k - rank_prev
    assert sum((-1) ** k * ring.betti(k) for k in range(9)) == 0
    bettis = [ring.betti(k) for k in range(9)]
    assert bettis == bettis[::-1]  # free parts pair across the orientation


# -- dense reference for the support-sparse class arithmetic --------------------

def dense_reduce(ring, mats, c):
    """Reduction as a dense Fraction computation: the coordinate vector of
    ``c`` over the whole basis, times every row of d_k, then times every
    reduction row.  ``mats`` are the ring's differentials (None for a
    formal preset)."""
    dd = ring.data(c.degree)
    pos = {t: i for i, t in enumerate(dd.basis)}
    vec = [Fraction(0)] * len(dd.basis)
    for idx, coef in c.coeffs.items():
        vec[pos[idx]] = coef
    if mats is not None and c.degree < len(mats):
        if any(sum(row[j] * vec[j] for j in range(len(vec))) for row in mats[c.degree]):
            raise ValueError("not a cocycle")
    integral = all(x.denominator == 1 for x in vec)
    free = []
    for row in reduction_rows(dd)[:dd.betti]:
        val = sum((r * x for r, x in zip(row, vec)), Fraction(0))
        if integral:
            assert val.denominator == 1
            val = int(val)
        free.append(val)
    torsion = []
    for row, d in zip(reduction_rows(dd)[dd.betti:], dd.torsion):
        val = sum((r * x for r, x in zip(row, vec)), Fraction(0)) if integral else 0
        assert val.denominator == 1
        torsion.append(int(val) % d)
    return CohomClass(c.degree, tuple(free), tuple(torsion))


def dense_representative(ring, cls):
    """Representative of a class as a chain of Cochain sums."""
    dd = ring.data(cls.degree)
    out = Cochain(ring.dim, cls.degree)
    for coef, rep in zip(cls.free + cls.torsion, dd.free_reps + dd.torsion_reps):
        out = out + coef * rep
    return out


ORACLE_RINGS = {
    "heis1": lambda: heis_ring(1),
    "heis2": lambda: heis_ring(2),
    "heis6": lambda: heis_ring(6),
    "torus4": lambda: torus_ring(4),
    "torus6": lambda: torus_ring(6),
    "surface0": lambda: surface_ring(0),
    "surface2": lambda: surface_ring(2),
    "torsion6": lambda: torsion_rings()[0],
    "torsion7": lambda: torsion_rings()[1],
}


# every ORACLE_RINGS ring, the surfaces of genus 0-3, and two seeded 2-step
# presentations for each dim 3-7
INTEGER_FORM_RINGS = {
    **ORACLE_RINGS,
    **{f"surface{g}": (lambda g=g: surface_ring(g)) for g in range(4)},
    **{f"two-step{dim}-{i}": (lambda dim=dim, i=i: nilmanifold_ring(
        two_step_presentation(f"int-form:{dim}:{i}", dim, min(1 + i, dim - 2), 3, 0.7)))
       for dim in range(3, 8) for i in range(2)},
}


@pytest.mark.parametrize("name", sorted(INTEGER_FORM_RINGS))
def test_degree_data_holds_plain_ints(name):
    """Each degree holds one representative per class and reduction
    columns that read only those classes, all of plain ``int``s, and the
    top representative is the top monomial
    (a1^b1 on a surface) with coefficient 1, which orients the ring as
    it stands."""
    ring = INTEGER_FORM_RINGS[name]()
    for dd in ring.degrees:
        assert len(dd.reps) == dd.betti + len(dd.torsion)
        assert all(type(x) is int for terms in dd.reps for _, x in terms)
        assert all(type(x) is int and 0 <= i < len(dd.reps)
                   for col in dd.reduce_cols for i, x in col)
    dim, top = ring.dim, ring.top_degree
    mono = tuple(range(dim)) if dim == top else (0, dim // 2)
    assert ring.data(top).reps == [[(mono, 1)]]
    assert ring.fundamental_pairing(ring.reduce(ring.representative(orientation_class(ring)))) == 1


def _random_class(rng, ring, degree):
    dd = ring.data(degree)
    return CohomClass(degree, tuple(rng.randint(-3, 3) for _ in range(dd.betti)),
                      tuple(rng.randint(0, d - 1) for d in dd.torsion))


@pytest.mark.parametrize("name", sorted(ORACLE_RINGS))
def test_sparse_reduce_matches_dense_reference(name):
    ring = ORACLE_RINGS[name]()
    m = ring.dim
    mats = dense_complex(ring.lie) if ring.lie is not None else None
    rng = random.Random(f"dense-oracle:{name}")
    rejected = 0
    for k in range(m + 1):
        for _ in range(4):
            c = ring.representative(_random_class(rng, ring, k))
            if ring.lie is not None and k >= 1:
                c = c + ce_differential(random_cochain(rng, m, k - 1), ring.lie)
            elif ring.lie is None:
                c = c + random_cochain(rng, m, k)    # every cochain is closed
            cls = ring.reduce(c)
            assert cls == dense_reduce(ring, mats, c)
            assert all(type(x) is int for x in cls.free + cls.torsion)
            q = Fraction(rng.randint(1, 9), rng.randint(2, 9))
            rational = q * c
            if ring.lie is not None and k >= 1:
                rational = rational + ce_differential(
                    Fraction(1, 7) * random_cochain(rng, m, k - 1), ring.lie)
            assert ring.reduce(rational) == dense_reduce(ring, mats, rational)
        if mats is None or k >= len(mats):
            continue
        # one basis cochain per column of d_k that it does not kill
        for j, idx in enumerate(degree_tuples(m, k)):
            if not any(row[j] for row in mats[k]):
                continue
            closed = ring.representative(_random_class(rng, ring, k))
            for bad in (Cochain.basis(m, idx), closed + Cochain.basis(m, idx),
                        Fraction(1, 2) * Cochain.basis(m, idx)):
                assert not ring.data(k).is_closed(ring.data(k).support(bad))
                for reduce in (ring.reduce, lambda c: dense_reduce(ring, mats, c)):
                    with pytest.raises(ValueError, match="not a cocycle"):
                        reduce(bad)
                rejected += 1
    nonzero = mats is not None and any(any(row) for d in mats for row in d)
    assert (rejected > 0) == nonzero


@pytest.mark.parametrize("index", [0, 1], ids=["torsion6", "torsion7"])
def test_sparse_cup_matches_dense_reference(index):
    ring = torsion_rings()[index]
    m = ring.dim
    mats = dense_complex(ring.lie)
    rng = random.Random(f"dense-cup:{m}")
    for a in range(m + 1):
        for b in range(m + 1 - a):
            for _ in range(2):
                u, v = _random_class(rng, ring, a), _random_class(rng, ring, b)
                ru, rv = dense_representative(ring, u), dense_representative(ring, v)
                assert ring.representative(u) == ru
                assert ring.cup(u, v) == dense_reduce(ring, mats, cochain_wedge(ru, rv))


# -- reduction columns on demand --------------------------------------------------

LAZY_ORACLE_RINGS = {
    **ORACLE_RINGS,
    **{name: make for name, make in INTEGER_FORM_RINGS.items() if name.startswith("two-step")},
}


@pytest.mark.parametrize("name", sorted(LAZY_ORACLE_RINGS))
def test_lazy_reduce_rows_match_eager_formula(name):
    """Reduction columns built on first read, top degree first, are the
    transposed rows the eager engine formed with each degree; a surface
    keeps its installed tables."""
    ring = LAZY_ORACLE_RINGS[name]()
    dim = ring.dim
    if ring.lie is None:
        g = ring.betti(1) // 2
        assert reduction_rows(ring.data(0)) == [[1]]
        assert reduction_rows(ring.data(1)) == [[int(i == j) for j in range(dim)]
                                                for i in range(2 * g)]
        pairs = [(i, g + i) for i in range(g)] or [(0, 1)]
        assert reduction_rows(ring.data(2)) == [[int(t in pairs)
                                                 for t in degree_tuples(dim, 2)]]
        assert all(reduction_rows(ring.data(k)) == [] for k in range(3, dim + 1))
        return
    mats = dense_complex(ring.lie)
    for k in reversed(range(dim + 1)):
        assert reduction_rows(ring.data(k)) == eager_reduce_rows(mats, k), k


def test_hermite_change_of_basis_only_where_the_basis_changes(monkeypatch):
    """The free representatives of every degree of a torus are their own
    Hermite basis, so building its reduction columns changes no basis: no
    call reaches ``echelon_coords``.  A seeded 2-step presentation whose
    free columns are not in Hermite form calls it, and its reduction
    columns are still the transposed rows of the eager engine."""
    def forbidden(*args):
        raise AssertionError("echelon_coords called on a torus")

    with monkeypatch.context() as patch:
        patch.setattr(intlinalg, "echelon_coords", forbidden)
        for m in range(1, 7):
            ring = torus_ring(m)
            assert all(len(dd.reduce_cols) == comb(m, dd.degree) for dd in ring.degrees)
    calls = []

    def counting(basis, cols, real=intlinalg.echelon_coords):
        calls.append(len(cols))
        return real(basis, cols)

    monkeypatch.setattr(intlinalg, "echelon_coords", counting)
    ring = nilmanifold_ring(two_step_presentation("hermite:6:1", 6, 2, 3, 0.7))
    mats = dense_complex(ring.lie)
    for k, dd in enumerate(ring.degrees):
        assert dd.reduce_cols == sparse_columns(eager_reduce_rows(mats, k)), k
    assert calls and any(ring.torsion(k) for k in range(7))


def test_cohomology_job_builds_only_top_reduce_rows(monkeypatch, tmp_path):
    """A cohomology job reduces only the top monomial (the orientation
    check): after its report, no lower degree has built reduction
    columns."""
    import json

    from preqlat import cli

    lie = two_step_presentation("7-2", 7, 2, 3, 0.5)
    path = tmp_path / "presentation.json"
    path.write_text(json.dumps({
        "dim": lie.dim,
        "basis": list(lie.basis_names),
        "brackets": [{"i": i + 1, "j": j + 1, "c": {str(k + 1): str(c) for k, c in comps.items()}}
                     for (i, j), comps in sorted(lie.structure.items())],
    }))
    rings = []

    def keep(lie):
        rings.append(nilmanifold_ring(lie))
        return rings[-1]

    monkeypatch.setattr(cli, "nilmanifold_ring", keep)
    for argv in (["--preset", "thurston", "--r", "6"], ["--input", str(path)]):
        report, code = cli.run(cli.parse_job(["cohomology", *argv]))
        assert code == 0 and report["cohomology"]
    assert [ring.dim for ring in rings] == [4, 7]
    for ring in rings:
        built = ["reduce_cols" in vars(dd) for dd in ring.degrees]
        assert built == [False] * ring.top_degree + [True]


# -- the read-and-multiply construction as oracle --------------------------------

def test_degree_data_matches_read_multiply_construction():
    """Each degree's Betti number, torsion, representatives and reduction
    rows equal those the read-and-multiply construction of tests/util.py
    forms from the transforms it reads, on two seeded 2-step presentations
    per dim 3-8 (some with torsion) and the tori of dims 1-6."""
    rings = {f"torus{m}": torus_ring(m) for m in range(1, 7)}
    for dim in range(3, 9):
        for i in range(2):
            rings[f"two-step{dim}-{i}"] = nilmanifold_ring(two_step_presentation(
                f"read-multiply:{dim}:{i}", dim, min(1 + i, dim - 2), 2 + i, 1.0 - 0.4 * i))
    torsion = set()
    for name, ring in rings.items():
        mats = complex_matrices(ring.lie)
        for k in range(ring.dim + 1):
            dd = ring.data(k)
            got = (dd.betti, dd.torsion, dd.reps, reduction_rows(dd))
            assert got == read_multiply_degree_data(mats, ring.dim, k), (name, k)
            if dd.torsion:
                torsion.add(name)
    assert len(torsion) >= 3, torsion
