"""Exterior algebra and cochain differential, checked against a direct
evaluation of the alternating-sum formula on basis tuples."""

import random
import signal
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from preqlat.cealg import (
    Cochain,
    LieAlgebraPresentation,
    abelian,
    ce_differential,
    complex_matrices,
    heisenberg_times_line,
    render_terms,
    validate_presentation,
)
from preqlat.combinat import degree_tuples

from util import (
    bracket_basis,
    cochain_wedge,
    dense_complex,
    evaluate,
    fraction_validate_presentation,
    sparse_columns,
    two_step_presentation,
)


def differential_by_alternating_sum(c, lie, indices):
    """Independent oracle: evaluate

        (d c)(x_0, ..., x_k) =
            sum_{i<j} (-1)**(i+j) c([x_i, x_j], ..no x_i.., ..no x_j..)

    directly on the basis vectors e_{indices}, expanding the bracket
    through the structure constants.
    """
    k = len(indices)
    total = Fraction(0)
    for i in range(k):
        for j in range(i + 1, k):
            rest = [indices[t] for t in range(k) if t != i and t != j]
            bracket = bracket_basis(lie, indices[i], indices[j])
            sign = -1 if (i + j) % 2 else 1
            for target, coef in bracket.items():
                total += sign * coef * evaluate(c, [target] + rest)
    return total


def sl2_like():
    # [e, f] = h, [h, e] = 2e, [h, f] = -2f  on basis (e, f, h)
    return LieAlgebraPresentation(
        dim=3,
        basis_names=("e", "f", "h"),
        structure={(0, 1): {2: 1}, (0, 2): {0: -2}, (1, 2): {1: 2}},
    )


def filiform4():
    # [e1, e2] = e3, [e1, e3] = e4: nilpotency class 3
    return LieAlgebraPresentation(
        dim=4,
        basis_names=("e1", "e2", "e3", "e4"),
        structure={(0, 1): {2: 1}, (0, 2): {3: 1}},
    )


def random_two_step(rng, m):
    """Brackets of the first m-2 generators land in the span of the last
    two (central) ones; the Jacobi identity then holds automatically."""
    structure = {}
    for i in range(m - 2):
        for j in range(i + 1, m - 2):
            comps = {}
            for k in (m - 2, m - 1):
                c = rng.randint(-3, 3)
                if c:
                    comps[k] = Fraction(c)
            if comps:
                structure[(i, j)] = comps
    names = tuple(f"e{i+1}" for i in range(m))
    return LieAlgebraPresentation(dim=m, basis_names=names, structure=structure)


def random_cochain(rng, m, degree, span=3):
    coeffs = {}
    tuples = degree_tuples(m, degree)
    for idx in rng.sample(tuples, min(span, len(tuples))):
        coeffs[idx] = Fraction(rng.randint(-5, 5), rng.randint(1, 3))
    return Cochain(m, degree, coeffs)


# -- validation ------------------------------------------------------------

def test_heisenberg_validates_with_class_two():
    rep = validate_presentation(heisenberg_times_line(1))
    assert rep.jacobi_ok and rep.nilpotent
    assert rep.nilpotency_class == 2


def test_abelian_validates():
    rep = validate_presentation(abelian(4))
    assert rep.jacobi_ok and rep.nilpotent
    assert rep.nilpotency_class == 1


def test_sl2_like_fails_nilpotency():
    rep = validate_presentation(sl2_like())
    assert rep.jacobi_ok
    assert not rep.nilpotent
    assert rep.stable_ideal_dim == 3


def test_series_that_shrinks_then_stalls():
    # L_1 = span(c, e) shrinks to L_2 = span(e) = [x, e], then stays there
    lie = LieAlgebraPresentation(
        dim=5,
        basis_names=("a", "b", "c", "x", "e"),
        structure={(0, 1): {2: 1}, (3, 4): {4: 1}},
    )
    rep = validate_presentation(lie)
    assert rep.jacobi_ok
    assert not rep.nilpotent
    assert rep.stable_ideal_dim == 1


def test_filiform_validates_with_class_three():
    rep = validate_presentation(filiform4())
    assert rep.jacobi_ok and rep.nilpotent
    assert rep.nilpotency_class == 3


def test_jacobi_failure_reports_first_triple():
    # [[a,b],c] + [[b,c],a] + [[c,a],b] = [c,c] + 0 - [a,b] = -c != 0
    bad = LieAlgebraPresentation(
        dim=3,
        basis_names=("a", "b", "c"),
        structure={(0, 1): {2: 1}, (0, 2): {0: 1}},
    )
    rep = validate_presentation(bad)
    assert not rep.jacobi_ok
    assert rep.jacobi_witness == (0, 1, 2)


def random_rational(rng, m, density):
    """Brackets drawn with probability ``density``, each landing on up to
    three generators with constants p/q, |p| <= 3, q <= 3.  The Jacobi
    identity often fails."""
    structure = {}
    for i in range(m):
        for j in range(i + 1, m):
            if rng.random() < density:
                targets = rng.sample(range(m), rng.randint(1, min(3, m)))
                structure[(i, j)] = {k: Fraction(rng.randint(-3, 3), rng.randint(1, 3))
                                     for k in targets}
    return LieAlgebraPresentation(m, tuple(f"e{i+1}" for i in range(m)), structure)


def random_graded(rng, m):
    """Strictly positive weights with at least one generator of each weight
    1, 2 and 3, brackets landing on the generators of the summed weight,
    so the series reaches zero, often at class 3 or more.  Constants may
    be rational, and the Jacobi identity may fail."""
    weights = sorted([1, 2, 3] + [rng.choice((1, 1, 2, 3, 4)) for _ in range(m - 3)])
    structure = {}
    for i in range(m):
        for j in range(i + 1, m):
            targets = [k for k in range(m) if weights[k] == weights[i] + weights[j]]
            comps = {k: Fraction(rng.randint(-2, 2), rng.choice((1, 1, 2)))
                     for k in targets if rng.random() < 0.7}
            structure[(i, j)] = comps
    return LieAlgebraPresentation(m, tuple(f"e{i+1}" for i in range(m)), structure)


def random_filiform_rational(rng, m):
    """[e_1, e_i] = c_i e_{i+1} with nonzero rational c_i: a Lie algebra of
    class m - 1."""
    structure = {(0, i): {i + 1: Fraction(rng.choice((-3, -2, -1, 1, 2, 3)), rng.randint(1, 3))}
                 for i in range(1, m - 1)}
    return LieAlgebraPresentation(m, tuple(f"e{i+1}" for i in range(m)), structure)


def direct_sum(first, second):
    """Presentation of the direct sum, with the second summand's basis
    after the first's."""
    n = first.dim
    structure = dict(first.structure)
    for (i, j), comps in second.structure.items():
        structure[(i + n, j + n)] = {k + n: c for k, c in comps.items()}
    names = tuple(f"e{i+1}" for i in range(n + second.dim))
    return LieAlgebraPresentation(n + second.dim, names, structure)


def random_stalling(rng, m):
    """A nilpotent summand plus sl2-like or [x, y] = l*y: the lower central
    series stalls at the non-nilpotent summand's derived algebra."""
    if rng.random() < 0.5:
        a, b = Fraction(rng.randint(1, 3), rng.randint(1, 2)), rng.randint(1, 3)
        stuck = LieAlgebraPresentation(3, ("e", "f", "h"), {
            (0, 1): {2: a}, (0, 2): {0: -2 * b}, (1, 2): {1: 2 * b}})
    else:
        stuck = LieAlgebraPresentation(2, ("x", "y"), {
            (0, 1): {1: Fraction(rng.choice((-2, -1, 1, 3)), rng.randint(1, 3))}})
    rest = max(m - stuck.dim, 0)
    nil = random_filiform_rational(rng, rest) if rng.random() < 0.5 \
        else two_step_presentation(rng.random(), rest, min(2, rest), 2)
    return direct_sum(nil, stuck) if rng.random() < 0.5 else direct_sum(stuck, nil)


def validation_inputs():
    rng = random.Random(8)
    lies = [abelian(m) for m in range(9)] + [sl2_like(), filiform4(), heisenberg_times_line(3)]
    lies.append(LieAlgebraPresentation(5, ("a", "b", "c", "x", "e"),
                                       {(0, 1): {2: 1}, (3, 4): {4: 1}}))
    for _ in range(70):
        for m in range(9):
            lies.append(random_rational(rng, m, rng.choice((0.1, 0.25, 0.5))))
    for t in range(40):
        for m in range(3, 9):
            lies.append(random_graded(rng, m))
            if t < 15:
                lies.append(random_filiform_rational(rng, m))
    for _ in range(40):
        for m in range(2, 9):
            lies.append(random_stalling(rng, m))
    for seed in range(900):
        dim = 2 + seed % 7
        lies.append(two_step_presentation(seed, dim, 1 + seed % min(3, dim - 1), 1 + seed % 3,
                                          (1.0, 0.5, 0.2)[seed % 3]))
    return lies


def _stuck(signum, frame):
    raise TimeoutError("validate_presentation did not finish")


def test_validate_matches_fraction_reference():
    """The integer checks give the Fraction reference's report, field for
    field.  A series check that misses a stall loops for ever, so the
    integer validation runs under an alarm."""
    lies = validation_inputs()
    assert len(lies) >= 2000
    want = [fraction_validate_presentation(lie) for lie in lies]
    previous = signal.signal(signal.SIGALRM, _stuck)
    signal.alarm(10)
    try:
        got = [validate_presentation(lie) for lie in lies]
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    assert got == want
    # every kind of outcome is covered
    assert sum(not r.jacobi_ok for r in want) >= 300
    assert len({r.jacobi_witness for r in want}) >= 20
    assert sum(r.jacobi_ok and not r.nilpotent for r in want) >= 300
    assert sum(r.jacobi_ok and r.nilpotent and r.nilpotency_class >= 3 for r in want) >= 100


# -- wedge -----------------------------------------------------------------

def test_wedge_basis_product():
    x = Cochain.basis(4, (0,))
    p = Cochain.basis(4, (1,))
    assert cochain_wedge(x, p).coeffs == {(0, 1): 1}


def test_wedge_alternation():
    x = Cochain.basis(4, (0,))
    assert cochain_wedge(x, x).is_zero()


def test_wedge_multilinearity_example():
    # (x + p) ^ (x ^ p) = x^x^p + p^x^p = 0
    x = Cochain.basis(4, (0,))
    p = Cochain.basis(4, (1,))
    assert cochain_wedge(x + p, cochain_wedge(x, p)).is_zero()


def test_wedge_degree_overflow_is_zero():
    a = Cochain.basis(3, (0, 1))
    b = Cochain.basis(3, (1, 2))
    out = cochain_wedge(a, b)
    assert out.degree == 4 and out.is_zero()


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.data())
def test_wedge_graded_commutative_and_associative(data):
    m = data.draw(st.integers(2, 5))
    rng = random.Random(data.draw(st.integers(0, 10**6)))
    da = data.draw(st.integers(0, 2))
    db = data.draw(st.integers(0, 2))
    dc = data.draw(st.integers(0, 2))
    a = random_cochain(rng, m, da)
    b = random_cochain(rng, m, db)
    c = random_cochain(rng, m, dc)
    sign = (-1) ** (da * db)
    assert cochain_wedge(a, b) == sign * cochain_wedge(b, a)
    assert cochain_wedge(cochain_wedge(a, b), c) == cochain_wedge(a, cochain_wedge(b, c))


# -- differential ----------------------------------------------------------

def test_heisenberg_differential_on_generators():
    lie = heisenberg_times_line(3)
    # basis order (x, p, z, h)
    for i in (0, 1, 2):
        assert ce_differential(Cochain.basis(4, (i,)), lie).is_zero()
    dh = ce_differential(Cochain.basis(4, (3,)), lie)
    assert dh.coeffs == {(0, 1): -3}


def test_heisenberg_antiderivation_example():
    lie = heisenberg_times_line(5)
    zh = Cochain.basis(4, (2, 3))
    dzh = ce_differential(zh, lie)
    # d(z^ ^ h^) = -z^ ^ dh^ = r z^ ^ x^ ^ p^ = r x^ ^ p^ ^ z^
    assert dzh.coeffs == {(0, 1, 2): 5}


def test_differential_matches_alternating_sum_oracle():
    rng = random.Random(2024)
    presentations = [
        heisenberg_times_line(1),
        heisenberg_times_line(4),
        filiform4(),
        abelian(3),
    ] + [random_two_step(rng, rng.randint(3, 6)) for _ in range(10)]
    for lie in presentations:
        m = lie.dim
        for degree in range(0, m):
            for _ in range(3):
                c = random_cochain(rng, m, degree)
                dc = ce_differential(c, lie)
                for idx in combinations(range(m), degree + 1):
                    assert evaluate(dc, idx) == differential_by_alternating_sum(c, lie, idx)


def test_differential_squares_to_zero():
    rng = random.Random(11)
    presentations = [heisenberg_times_line(2), filiform4()] + [
        random_two_step(rng, rng.randint(3, 7)) for _ in range(60)
    ]
    for lie in presentations:
        for degree in range(lie.dim - 1):
            c = random_cochain(rng, lie.dim, degree)
            assert ce_differential(ce_differential(c, lie), lie).is_zero()


def test_differential_leibniz():
    rng = random.Random(12)
    for _ in range(40):
        lie = random_two_step(rng, rng.randint(4, 6))
        da = rng.randint(0, 2)
        a = random_cochain(rng, lie.dim, da)
        b = random_cochain(rng, lie.dim, rng.randint(0, 2))
        lhs = ce_differential(cochain_wedge(a, b), lie)
        rhs = (cochain_wedge(ce_differential(a, lie), b)
               + (-1) ** da * cochain_wedge(a, ce_differential(b, lie)))
        assert lhs == rhs


# -- matrices ----------------------------------------------------------------

def test_abelian_matrices_zero():
    mats = complex_matrices(abelian(3))
    assert [len(mat) for mat in mats] == [1, 3, 3]
    assert all(col == [] for mat in mats for col in mat)


def test_heisenberg_d1_single_entry():
    lie = heisenberg_times_line(7)
    d1 = dense_complex(lie)[1]
    entries = [(i, j, v) for i, row in enumerate(d1) for j, v in enumerate(row) if v]
    # lone entry -r in the (x^p row, h column) cell
    assert entries == [(0, 3, -7)]


def test_matrices_compose_to_zero_many_random():
    rng = random.Random(77)
    for _ in range(200):
        lie = random_two_step(rng, rng.randint(3, 6))
        mats = dense_complex(lie)
        for k in range(len(mats) - 1):
            prod = [
                [sum(mats[k + 1][i][t] * mats[k][t][j] for t in range(len(mats[k])))
                 for j in range(len(mats[k][0]))]
                for i in range(len(mats[k + 1]))
            ]
            assert all(all(x == 0 for x in row) for row in prod)


def matrices_by_ce_differential(lie):
    """d_k built column by column: the column of a monomial is the
    coefficient vector of ``ce_differential`` of its basis cochain."""
    m = lie.dim
    mats = []
    for k in range(m):
        src, dst = degree_tuples(m, k), degree_tuples(m, k + 1)
        mat = [[0] * len(src) for _ in dst]
        for col, idx in enumerate(src):
            image = ce_differential(Cochain.basis(m, idx), lie)
            for row, t in enumerate(dst):
                c = image.coeffs.get(t, Fraction(0))
                assert c.denominator == 1
                mat[row][col] = c.numerator
        mats.append(mat)
    return mats


def random_filiform(rng, m):
    """[e_1, e_i] = c_i e_{i+1} for 2 <= i < m with c_i in [-3, 3]."""
    structure = {(0, i): {i + 1: Fraction(rng.randint(-3, 3))} for i in range(1, m - 1)}
    names = tuple(f"e{i+1}" for i in range(m))
    return LieAlgebraPresentation(dim=m, basis_names=names, structure=structure)


def random_three_step(rng, m):
    """Generators of weights 1, 2 and 3, each bracket landing in the span
    of the generators of the summed weight with coefficients in [-3, 3].
    Both builders read only the structure constants, so the Jacobi
    identity may fail here."""
    weights = sorted(rng.choice((1, 1, 2, 3)) for _ in range(m))
    structure = {}
    for i in range(m):
        for j in range(i + 1, m):
            targets = [k for k in range(m) if weights[k] == weights[i] + weights[j]]
            comps = {k: Fraction(rng.randint(-3, 3)) for k in targets}
            structure[(i, j)] = comps
    names = tuple(f"e{i+1}" for i in range(m))
    return LieAlgebraPresentation(dim=m, basis_names=names, structure=structure)


def test_integer_builder_matches_ce_differential_columns():
    """complex_matrices fills each column from the tabulated d e_g with the
    position and shuffle signs; it must agree entry for entry with the
    Fraction cochain differential of every basis monomial."""
    rng = random.Random(2001)
    lies = [abelian(m) for m in range(5)] + [heisenberg_times_line(7)]
    for m in range(2, 8):
        for make in (random_two_step, random_filiform, random_three_step):
            lies += [make(rng, m) for _ in range(6)]
    assert len(lies) >= 100
    signs_matter = 0
    for lie in lies:
        mats = complex_matrices(lie)
        assert all(type(x) is int and x for mat in mats for col in mat for _, x in col)
        assert mats == [sparse_columns(d) for d in matrices_by_ce_differential(lie)]
        signs_matter += any(col for mat in mats[2:] for col in mat)
    assert signs_matter >= 50


def test_matrices_integrality_flag():
    lie = LieAlgebraPresentation(
        dim=3,
        basis_names=("a", "b", "c"),
        structure={(0, 1): {2: Fraction(1, 2)}},
    )
    with pytest.raises(ValueError, match="non-integral basis"):
        complex_matrices(lie)


def test_presentation_bracket_antisymmetry():
    lie = heisenberg_times_line(2)
    assert bracket_basis(lie, 1, 0) == {3: -2}


def test_cochain_render():
    """A cochain and its integer terms render alike, whether a coefficient
    is an int or the equal Fraction."""
    names = ("x", "p", "z", "h")
    c = Cochain(4, 2, {(0, 1): 2, (0, 2): Fraction(1, 3), (1, 3): 1, (2, 3): -1})
    assert c.render(names) == "2*x^p + 1/3*x^z + p^h - z^h"
    for terms in ([((0, 1), 2), ((2, 3), -1)], [((0, 1), Fraction(2)), ((2, 3), Fraction(-1))]):
        assert render_terms(terms, names) == "2*x^p - z^h"
    assert render_terms([], names) == Cochain(4, 2).render(names) == "0"
    assert render_terms([((), 1)], names) == "1"      # the unit of H^0
