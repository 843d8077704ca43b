"""Cartan calculus on torus forms, cross-checked against the float-grid
quadrature oracle."""

import random
from fractions import Fraction

import pytest

from preqlat.exact import ExactScalar
from preqlat.toruscalc.forms import (
    CoordinateCycle,
    TorusForm,
    TorusVectorField,
    contract,
    exterior_derivative,
    integrate_contraction,
    integrate_over_cycle,
    integrate_product,
    lie_derivative,
    poincare_dual_form,
    vf_bracket,
    wedge,
)
from preqlat.toruscalc.trig import TrigPoly

from util import (
    close,
    coordinate_field,
    quadrature_oracle,
    random_field,
    random_form,
    random_real_trigpoly,
)


def test_exterior_derivative_coordinate_example():
    # d(cos z dx) = sin z dx ^ dz
    f = TorusForm(3, 1, {(0,): TrigPoly.cos_axis(3, 2)})
    df = exterior_derivative(f)
    assert df == TorusForm(3, 2, {(0, 2): TrigPoly.sin_axis(3, 2)})


def test_d_squared_zero_random():
    rng = random.Random(21)
    for _ in range(25):
        dim = rng.randint(2, 4)
        deg = rng.randint(0, dim - 1)
        f = random_form(rng, dim, deg)
        assert exterior_derivative(exterior_derivative(f)).is_zero()


def test_wedge_graded_commutative():
    rng = random.Random(22)
    for _ in range(20):
        dim = rng.randint(2, 4)
        da = rng.randint(0, 2)
        db = rng.randint(0, 2)
        a = random_form(rng, dim, da)
        b = random_form(rng, dim, db)
        sign = (-1) ** (da * db)
        assert (wedge(a, b) - sign * wedge(b, a)).is_zero()


def test_wedge_associative():
    rng = random.Random(23)
    for _ in range(10):
        dim = 4
        a = random_form(rng, dim, 1)
        b = random_form(rng, dim, 1)
        c = random_form(rng, dim, 1)
        assert (wedge(wedge(a, b), c) - wedge(a, wedge(b, c))).is_zero()


def test_leibniz_rule_for_d():
    rng = random.Random(24)
    for _ in range(15):
        dim = 3
        da = rng.randint(0, 2)
        a = random_form(rng, dim, da)
        b = random_form(rng, dim, rng.randint(0, 2))
        lhs = exterior_derivative(wedge(a, b))
        rhs = wedge(exterior_derivative(a), b) + (-1) ** da * wedge(a, exterior_derivative(b))
        assert (lhs - rhs).is_zero()


def test_contraction_antiderivation():
    rng = random.Random(25)
    for _ in range(15):
        dim = 3
        x = random_field(rng, dim)
        da = rng.randint(1, 2)
        a = random_form(rng, dim, da)
        b = random_form(rng, dim, rng.randint(1, 2))
        lhs = contract(x, wedge(a, b))
        rhs = wedge(contract(x, a), b) + (-1) ** da * wedge(a, contract(x, b))
        assert (lhs - rhs).is_zero()


def test_cartan_formula_is_lie_derivative():
    # L_X agrees with the flow derivative: check L_X(fg) Leibniz and
    # L_X d = d L_X, both consequences packaged by the Cartan formula
    rng = random.Random(26)
    for _ in range(10):
        dim = 3
        x = random_field(rng, dim)
        f = random_form(rng, dim, rng.randint(0, 2))
        assert (lie_derivative(x, exterior_derivative(f))
                - exterior_derivative(lie_derivative(x, f))).is_zero()
        g = random_form(rng, dim, 1)
        lhs = lie_derivative(x, wedge(f, g))
        rhs = wedge(lie_derivative(x, f), g) + wedge(f, lie_derivative(x, g))
        assert (lhs - rhs).is_zero()


def test_lie_derivative_on_functions_is_directional():
    rng = random.Random(27)
    x = random_field(rng, 2)
    f = random_real_trigpoly(rng, 2)
    via_form = lie_derivative(x, TorusForm.function(2, f)).as_function()
    assert via_form == x.apply(f)


def test_vf_bracket_jacobi_and_antisymmetry():
    rng = random.Random(28)
    for _ in range(5):
        x = random_field(rng, 2, max_deg=1)
        y = random_field(rng, 2, max_deg=1)
        z = random_field(rng, 2, max_deg=1)
        assert (vf_bracket(x, y) + vf_bracket(y, x)).is_zero()
        jac = (
            vf_bracket(x, vf_bracket(y, z))
            + vf_bracket(y, vf_bracket(z, x))
            + vf_bracket(z, vf_bracket(x, y))
        )
        assert jac.is_zero()


def test_bracket_derivation_property():
    # L_[X,Y] = L_X L_Y - L_Y L_X on forms
    rng = random.Random(29)
    x = random_field(rng, 2, max_deg=1)
    y = random_field(rng, 2, max_deg=1)
    f = random_form(rng, 2, 1, max_deg=1)
    lhs = lie_derivative(vf_bracket(x, y), f)
    rhs = lie_derivative(x, lie_derivative(y, f)) - lie_derivative(y, lie_derivative(x, f))
    assert (lhs - rhs).is_zero()


# -- integration ---------------------------------------------------------------

def test_full_torus_volume():
    form = TorusForm.basis(3, (0, 1, 2))
    out = integrate_over_cycle(form, CoordinateCycle.full(3))
    assert out == ExactScalar(Fraction(1), 3)


def test_circle_integral_cos_squared():
    # integral of cos x d(sin x) = integral cos^2 x dx = (1/2)(2 pi)
    f = TrigPoly.cos_axis(2, 0)
    dsin = exterior_derivative(TorusForm.function(2, TrigPoly.sin_axis(2, 0)))
    form = f * dsin
    cycle = CoordinateCycle.circle(2, 0, offsets={1: 0})
    assert integrate_over_cycle(form, cycle) == ExactScalar(Fraction(1, 2), 1)


def test_zero_mean_circle_integral():
    form = TorusForm(3, 1, {(2,): TrigPoly.sin_axis(3, 2)})
    cycle = CoordinateCycle.circle(3, 2)
    assert integrate_over_cycle(form, cycle).is_zero()


def test_orientation_and_axis_order():
    form = TorusForm.basis(2, (0, 1))
    plus = integrate_over_cycle(form, CoordinateCycle(2, (0, 1)))
    swapped = integrate_over_cycle(form, CoordinateCycle(2, (1, 0)))
    assert plus == ExactScalar(Fraction(1), 2)
    assert swapped == -plus
    # an even permutation of the axes keeps the orientation, an odd one flips it
    top = TorusForm.basis(3, (0, 1, 2))
    plus = integrate_over_cycle(top, CoordinateCycle.full(3))
    assert integrate_over_cycle(top, CoordinateCycle(3, (1, 2, 0))) == plus
    assert integrate_over_cycle(top, CoordinateCycle(3, (0, 2, 1))) == -plus


def test_offsets_enter_through_frozen_coordinates():
    # restriction of cos z dx to the x-circle at z = 0 vs z = pi
    form = TorusForm(3, 1, {(0,): TrigPoly.cos_axis(3, 2)})
    at0 = integrate_over_cycle(form, CoordinateCycle.circle(3, 0, offsets={2: 0}))
    atpi = integrate_over_cycle(form, CoordinateCycle.circle(3, 0, offsets={2: 2}))
    assert at0 == ExactScalar(Fraction(1), 1)
    assert atpi == ExactScalar(Fraction(-1), 1)


def test_degree_mismatch_raises():
    form = TorusForm.basis(3, (0, 1))
    with pytest.raises(ValueError, match="degree mismatch"):
        integrate_over_cycle(form, CoordinateCycle.full(3))


def test_integrals_match_quadrature_oracle():
    rng = random.Random(31)
    for _ in range(12):
        dim = rng.randint(2, 3)
        deg = rng.randint(1, dim)
        form = random_form(rng, dim, deg)
        axes = tuple(rng.sample(range(dim), deg))
        offsets = {a: rng.randrange(4) for a in range(dim) if a not in axes}
        cycle = CoordinateCycle(dim, axes, offsets)
        exact = integrate_over_cycle(form, cycle)
        assert close(exact, quadrature_oracle(form, cycle))


def test_stokes_on_cycles():
    # integral of an exact form over a full-dimension cycle vanishes
    rng = random.Random(32)
    for _ in range(10):
        dim = 3
        f = random_form(rng, dim, 1)
        df = exterior_derivative(f)
        axes = tuple(rng.sample(range(dim), 2))
        offsets = {a: rng.randrange(4) for a in range(dim) if a not in axes}
        cycle = CoordinateCycle(dim, axes, offsets)
        assert integrate_over_cycle(df, cycle).is_zero()


@pytest.mark.parametrize("dim, degree, idx, msg", [
    (3, 2, (0,), "index tuple (0,) has wrong length for degree 2"),
    (3, 2, (0, 1, 2), "index tuple (0, 1, 2) has wrong length for degree 2"),
    (3, 2, (1, 1), "index tuple (1, 1) must be strictly increasing"),
    (3, 3, (0, 2, 1), "index tuple (0, 2, 1) must be strictly increasing"),
    (3, 2, (2, 0), "index tuple (2, 0) must be strictly increasing"),
    (3, 2, (-1, 1), "index (-1, 1) out of range"),
    (3, 1, (-2,), "index (-2,) out of range"),
    (3, 2, (1, 3), "index (1, 3) out of range"),
    (3, 3, (0, 1, 7), "index (0, 1, 7) out of range"),
    # the length is checked first, then the order, then the range
    (3, 1, (5, 5), "index tuple (5, 5) has wrong length for degree 1"),
    (3, 2, (4, 4), "index tuple (4, 4) must be strictly increasing"),
    (3, 2, (3, -1), "index tuple (3, -1) must be strictly increasing"),
], ids=["short", "long", "repeated", "unsorted", "decreasing", "negative",
        "negative-single", "too-large", "too-large-last", "length-first", "order-first",
        "order-before-range"])
def test_form_index_checks(dim, degree, idx, msg):
    """Each coefficient index is a strictly increasing tuple of degree
    many axes in range(dim); the zero coefficient is checked too."""
    for poly in (TrigPoly.cos_axis(dim, 0), TrigPoly.zero(dim), 1):
        with pytest.raises(ValueError) as info:
            TorusForm(dim, degree, {idx: poly})
        assert str(info.value) == msg


def test_cycle_offsets_must_be_integers():
    # 0.5 quarter turns (pi/4) cannot restrict exactly, and no offset is coerced
    for bad in (0.5, "3", Fraction(1), 1.0):
        with pytest.raises(ValueError, match="quarter turns must be integers"):
            CoordinateCycle.circle(2, 0, offsets={1: bad})
    assert CoordinateCycle.circle(2, 0, offsets={1: -3}).offsets == {1: 1}


# -- integrals read off mode pairs ------------------------------------------------

def _complex_poly(rng, dim, n_modes=4, max_deg=2):
    """A polynomial with arbitrary (not conjugate-symmetric) modes."""
    modes = {}
    for _ in range(n_modes):
        k = tuple(rng.randint(-max_deg, max_deg) for _ in range(dim))
        modes[k] = (rng.randint(-5, 5), rng.randint(-5, 5))
    return TrigPoly(dim, modes, rng.randint(1, 6))


def _random_cycle(rng, dim, k):
    axes = tuple(rng.sample(range(dim), k))
    offsets = {a: rng.randint(1, 3) for a in range(dim) if a not in axes}
    return CoordinateCycle(dim, axes, offsets)


def test_slice_pairing_matches_slice_mean_of_product():
    rng = random.Random(41)
    for dim in (2, 3, 4):
        for _ in range(12):
            f, g = _complex_poly(rng, dim), _complex_poly(rng, dim)
            axes = tuple(sorted(rng.sample(range(dim), rng.randint(0, dim))))
            quarters = {a: rng.randint(1, 3) for a in range(dim)}
            assert f.slice_pairing(g, axes, quarters) == (f * g).slice_mean(axes, quarters)
            assert g.slice_pairing(f, axes, quarters) == (f * g).slice_mean(axes, quarters)
    # no mode pair survives: cos x * cos 2x has mean zero
    f, g = TrigPoly.cos_axis(2, 0), TrigPoly.cos_axis(2, 0, 2)
    assert f.slice_pairing(g, (0, 1), {}) == (Fraction(0), Fraction(0))
    with pytest.raises(ValueError, match="quarter turns must be integers"):
        f.slice_pairing(g, (0,), {1: 0.5})


def test_integral_helpers_match_formed_products():
    rng = random.Random(42)
    for dim in (2, 3, 4):
        for _ in range(12):
            k = rng.randint(0, dim - 1)
            cycle = _random_cycle(rng, dim, k)
            f = random_real_trigpoly(rng, dim)
            y = random_field(rng, dim)
            y = TorusVectorField(dim, y.components, rng.randint(-2, 2))
            form = random_form(rng, dim, k, n_terms=3).scale_pi(rng.randint(-2, 2))
            assert integrate_product(f, form, cycle) == integrate_over_cycle(f * form, cycle)
            form1 = random_form(rng, dim, k + 1, n_terms=3).scale_pi(rng.randint(-2, 2))
            assert integrate_contraction(y, form1, cycle) == integrate_over_cycle(
                contract(y, form1), cycle)
    # a pair with no surviving mode integrates to zero on both sides
    full = CoordinateCycle.full(2)
    f = TrigPoly.cos_axis(2, 0)
    form = TorusForm.basis(2, (0, 1), TrigPoly.cos_axis(2, 0, 2))
    assert integrate_product(f, form, full).is_zero()
    assert integrate_over_cycle(f * form, full).is_zero()
    y = coordinate_field(2, 1, TrigPoly.sin_axis(2, 1))
    form1 = TorusForm.basis(3, (0, 2), TrigPoly.cos_axis(3, 1, 3))
    circle = CoordinateCycle.circle(3, 0, offsets={1: 1, 2: 2})
    y3 = coordinate_field(3, 2, TrigPoly.sin_axis(3, 1))
    assert integrate_contraction(y3, form1, circle).is_zero()
    assert integrate_over_cycle(contract(y3, form1), circle).is_zero()
    assert integrate_contraction(y, TorusForm.zero(2, 2), CoordinateCycle.circle(2, 0)).is_zero()


def test_integral_helpers_reject_non_real_integrands():
    # i*cos x pairs to a non-real integral, on both paths, with one message
    f = TrigPoly(2, {(1, 0): (0, 1), (-1, 0): (0, 1)}, 2)
    form = TorusForm.basis(2, (0, 1), TrigPoly.cos_axis(2, 0))
    full = CoordinateCycle.full(2)
    for integral in (lambda: integrate_product(f, form, full),
                     lambda: integrate_over_cycle(f * form, full)):
        with pytest.raises(ValueError, match="integral of a non-real form"):
            integral()
    y = coordinate_field(2, 1, f)
    circle = CoordinateCycle.circle(2, 0, offsets={1: 1})
    for integral in (lambda: integrate_contraction(y, form, circle),
                     lambda: integrate_over_cycle(contract(y, form), circle)):
        with pytest.raises(ValueError, match="integral of a non-real form"):
            integral()
    with pytest.raises(ValueError, match="degree mismatch"):
        integrate_product(f, form, circle)
    with pytest.raises(ValueError, match="degree mismatch"):
        integrate_contraction(y, form, full)


# -- (2*pi) bookkeeping ----------------------------------------------------------

def test_pi_power_add_mismatch_raises():
    a = TorusForm.basis(2, (0,), pi_power=-1)
    b = TorusForm.basis(2, (0,))
    with pytest.raises(ValueError, match="powers"):
        a + b
    assert (a + TorusForm.zero(2, 1)).pi_power == -1


def test_pi_power_multiplicative():
    a = TorusForm.basis(3, (0,), pi_power=-1)
    b = TorusForm.basis(3, (1, 2), pi_power=2)
    assert wedge(a, b).pi_power == 1
    x = coordinate_field(3, 0)
    assert contract(x, a).pi_power == -1
    scaled = a * ExactScalar(Fraction(3), 4)
    assert scaled.pi_power == 3


# -- duals ------------------------------------------------------------------------

def test_poincare_dual_of_circles():
    # z-circle in T^3: dual is dx ^ dy / (2 pi)^2
    eta = poincare_dual_form(CoordinateCycle.circle(3, 2))
    assert eta == TorusForm.basis(3, (0, 1), pi_power=-2)
    # x-circle in T^2: dual is -dy / (2 pi)
    alpha = poincare_dual_form(CoordinateCycle.circle(2, 0))
    assert alpha == TorusForm(2, 1, {(1,): TrigPoly.const(2, -1)}, pi_power=-1)
    # y-circle in T^2: dual is +dx / (2 pi)
    beta = poincare_dual_form(CoordinateCycle.circle(2, 1))
    assert beta == TorusForm.basis(2, (0,), pi_power=-1)


def test_poincare_dual_defining_property():
    rng = random.Random(33)
    for _ in range(10):
        dim = 3
        k = rng.randint(1, 2)
        axes = tuple(rng.sample(range(dim), k))
        offsets = {a: rng.randrange(4) for a in range(dim) if a not in axes}
        cycle = CoordinateCycle(dim, axes, offsets)
        eta = poincare_dual_form(cycle)
        # test against every closed constant k-form, which spans the
        # degree-k cohomology
        from preqlat.combinat import degree_tuples

        for idx in degree_tuples(dim, k):
            gamma = TorusForm.basis(dim, idx)
            lhs = integrate_over_cycle(gamma, cycle)
            rhs = integrate_over_cycle(wedge(eta, gamma), CoordinateCycle.full(dim))
            assert lhs == rhs
