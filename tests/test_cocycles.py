"""Hamiltonian fields, brackets, and the degree-two cocycles on
symplectic and volume presets: exact values, exact cocycle conditions,
and the duality between cycle and form pictures."""

import itertools
import random
from fractions import Fraction

import pytest

from preqlat.exact import ExactScalar
from preqlat.toruscalc.contact import contact_field
from preqlat.toruscalc.forms import (
    CoordinateCycle,
    TorusForm,
    TorusVectorField,
    contract,
    exterior_derivative,
    integrate_over_cycle,
    poincare_dual_form,
    vf_bracket,
    wedge,
)
from preqlat.toruscalc.residuals import cocycle_residual
from preqlat.toruscalc.symplectic import (
    hamiltonian_field,
    ks_cocycle,
    liouville_power,
    poisson_bracket,
    roger_cocycle,
    singular_cocycle,
    standard_symplectic,
)
from preqlat.toruscalc.trig import TrigPoly
from preqlat.toruscalc.volume import (
    exact_field_from_potential,
    lichnerowicz_eta,
    lichnerowicz_singular,
    unit_volume_form,
)

from util import (
    coordinate_field,
    infinitesimal_flux,
    is_exact_field,
    kappa_rho,
    mean_against_volume,
    oracle_ks_cocycle,
    random_closed_oneform,
    random_field,
    random_form,
    random_fraction,
    random_real_trigpoly,
    scaled_symplectic,
)

T2 = standard_symplectic(1)


def zero_mean_poly_in_axis(rng, dim, axis, max_deg=3):
    f = TrigPoly.zero(dim)
    for j in range(1, max_deg + 1):
        wave = [j if c == axis else 0 for c in range(dim)]
        if rng.random() < 0.6:
            f = f + random_fraction(rng) * TrigPoly.cosine(dim, wave)
        if rng.random() < 0.6:
            f = f + random_fraction(rng) * TrigPoly.sine(dim, wave)
    if f.is_zero():
        f = TrigPoly.cos_axis(dim, axis)
    return f


# -- Hamiltonian fields -------------------------------------------------------

def test_hamiltonian_field_examples():
    g = TrigPoly.sin_axis(2, 1)  # sin y
    xg = hamiltonian_field(g, T2)
    assert xg.components[0] == -TrigPoly.cos_axis(2, 1)
    assert xg.components[1].is_zero()
    f = TrigPoly.sin_axis(2, 0)  # sin x
    xf = hamiltonian_field(f, T2)
    assert xf.components[1] == TrigPoly.cos_axis(2, 0)
    assert hamiltonian_field(TrigPoly.const(2, 7), T2).is_zero()


def test_hamiltonian_field_defining_equation():
    rng = random.Random(50)
    for scales in ([1], [2], [Fraction(1, 3)]):
        omega = scaled_symplectic(scales)
        for _ in range(8):
            f = random_real_trigpoly(rng, 2)
            xf = hamiltonian_field(f, omega)
            df = exterior_derivative(TorusForm.function(2, f))
            assert (contract(xf, omega) + df).is_zero()


def test_hamiltonian_field_t4():
    rng = random.Random(51)
    # dx0^dx1 + (2/3) dx0^dx3 + dx2^dx3 couples the coordinate planes
    coupled = TorusForm(4, 2, {
        (0, 1): TrigPoly.const(4, 1),
        (0, 3): TrigPoly.const(4, Fraction(2, 3)),
        (2, 3): TrigPoly.const(4, 1),
    })
    for omega in (scaled_symplectic([1, 3]), coupled):
        for _ in range(5):
            f = random_real_trigpoly(rng, 4, max_deg=1, n_modes=2)
            xf = hamiltonian_field(f, omega)
            df = exterior_derivative(TorusForm.function(4, f))
            assert (contract(xf, omega) + df).is_zero()
    omega = scaled_symplectic([2, Fraction(5, 7), 1])
    for _ in range(3):
        f = random_real_trigpoly(rng, 6, max_deg=1, n_modes=2)
        xf = hamiltonian_field(f, omega)
        df = exterior_derivative(TorusForm.function(6, f))
        assert (contract(xf, omega) + df).is_zero()


def test_degenerate_form_rejected():
    bad = TorusForm(2, 2, {})  # zero form
    with pytest.raises(ValueError, match="degenerate"):
        hamiltonian_field(TrigPoly.sin_axis(2, 0), bad)
    rank_two = TorusForm.basis(4, (0, 1))  # dx0^dx1 on T^4
    with pytest.raises(ValueError, match="degenerate"):
        hamiltonian_field(TrigPoly.sin_axis(4, 2), rank_two)


def test_hamiltonian_field_inverse_is_memoized_per_form():
    f = TrigPoly.sin_axis(2, 0) + Fraction(1, 3) * TrigPoly.cosine(2, (0, 2))
    first = hamiltonian_field(f, T2)
    assert hamiltonian_field(f, T2) == first
    assert hamiltonian_field(f, standard_symplectic(1)) == first
    # (1/3) dx^dy scales to the same integer matrix as T2; its inverse is 3x
    scaled = scaled_symplectic([Fraction(1, 3)])
    xf = hamiltonian_field(f, scaled)
    assert xf == TorusVectorField(2, [3 * c for c in first.components])
    df = exterior_derivative(TorusForm.function(2, f))
    assert (contract(xf, scaled) + df).is_zero()
    # a cached good form does not mask a degenerate one, on any call
    bad = TorusForm(2, 2, {(0, 1): TrigPoly.const(2, 0)})
    for _ in range(2):
        with pytest.raises(ValueError, match="degenerate symplectic form"):
            hamiltonian_field(f, bad)
    assert hamiltonian_field(f, T2) == first


# -- Poisson bracket and the point cocycle -------------------------------------

def test_poisson_bracket_example():
    f = TrigPoly.sin_axis(2, 0)
    g = TrigPoly.sin_axis(2, 1)
    pb = poisson_bracket(f, g, T2)
    assert pb == TrigPoly.cos_axis(2, 0) * TrigPoly.cos_axis(2, 1)
    assert ks_cocycle(f, g, T2, (0, 0)) == 1


def test_ks_antisymmetry_and_float_mode():
    f = TrigPoly.sin_axis(2, 0) + TrigPoly.cos_axis(2, 1)
    assert ks_cocycle(f, f, T2, (1, 2)) == 0
    g = TrigPoly.sin_axis(2, 1)
    with pytest.raises(ValueError):
        ks_cocycle(f, g, T2, (0.0, 0.0))
    with pytest.raises(ValueError):
        ks_cocycle(f, g, T2, (0.5, 0))


def _value_or_message(fn, *args):
    try:
        return fn(*args)
    except ValueError as exc:
        return str(exc)


def test_ks_cocycle_matches_bracket_at_every_quarter_point():
    """The gradient formula equals the formed bracket evaluated at the
    point, on seeded real polynomials and scaled forms, at every quarter
    point of the 2- and 4-torus; a non-real input raises as the formed
    bracket does."""
    rng = random.Random(24)
    for scales in ([1], [Fraction(-2, 3)], [1, Fraction(1, 2)], [Fraction(3, 5), -2]):
        omega = scaled_symplectic(scales)
        dim = omega.dim
        pairs = [(random_real_trigpoly(rng, dim, n_modes=2),
                  random_real_trigpoly(rng, dim, n_modes=2)) for _ in range(3)]
        pairs.append((TrigPoly.const(dim, 2), pairs[0][1]))
        for f, g in pairs:
            for point in itertools.product(range(4), repeat=dim):
                got = ks_cocycle(f, g, omega, point)
                assert got == oracle_ks_cocycle(f, g, omega, point)
                assert type(got) is Fraction
    # i exp(ix), i exp(iy) and (1 + i) cos(x + y): not real
    complex_polys = [TrigPoly(2, {(1, 0): (0, 1)}), TrigPoly(2, {(0, 1): (0, 1)}),
                     TrigPoly(2, {(1, 1): (1, 1), (-1, -1): (1, 1)}, 2)]
    seen = set()
    for f, g in itertools.product(complex_polys + [TrigPoly.sin_axis(2, 1)], repeat=2):
        for point in itertools.product(range(4), repeat=2):
            got = _value_or_message(ks_cocycle, f, g, T2, point)
            assert got == _value_or_message(oracle_ks_cocycle, f, g, T2, point)
            seen.add(got if isinstance(got, str) else type(got))
    assert seen == {Fraction, "bracket of non-real inputs at this point"}


def test_ks_checks_the_point_and_tori_before_any_work():
    """A constant or zero f gives no gradient to evaluate, yet the point
    and the tori are still checked, with the formed bracket's messages."""
    g = TrigPoly.sin_axis(2, 1)
    for f in (TrigPoly.const(2, 3), TrigPoly.zero(2)):
        assert ks_cocycle(f, g, T2, (1, 2)) == 0
        with pytest.raises(ValueError, match="point has wrong dimension"):
            ks_cocycle(f, g, T2, (0, 0, 0))
        with pytest.raises(ValueError, match="point has wrong dimension"):
            ks_cocycle(f, g, T2, (0,))
        with pytest.raises(ValueError, match="quarter turns must be integers"):
            ks_cocycle(f, g, T2, (0, 0.5))
        with pytest.raises(ValueError, match="quarter turns must be integers"):
            ks_cocycle(f, g, T2, (Fraction(1), 0))
    with pytest.raises(ValueError, match="different tori"):
        ks_cocycle(TrigPoly.const(4, 1), g, T2, (0, 0))
    with pytest.raises(ValueError, match="different tori"):
        ks_cocycle(g, TrigPoly.const(4, 1), T2, (0, 0))


def test_cached_functions_raise_on_every_call():
    """Exceptions are not cached: a degenerate form, a non-closed form and a
    non-invariant Hamiltonian raise on every call, with good calls in
    between."""
    f, g = TrigPoly.sin_axis(2, 0), TrigPoly.cos_axis(2, 1)
    degenerate = (TorusForm(2, 2, {(0, 1): TrigPoly.const(2, 0)}),
                  TorusForm.basis(4, (0, 1)))
    for bad in degenerate:
        dim = bad.dim
        fb, gb = TrigPoly.sin_axis(dim, 0), TrigPoly.cos_axis(dim, 1)
        for _ in range(2):
            for call in (lambda: hamiltonian_field(fb, bad),
                         lambda: poisson_bracket(fb, gb, bad),
                         lambda: ks_cocycle(fb, gb, bad, (0,) * dim)):
                with pytest.raises(ValueError, match="degenerate symplectic form"):
                    call()
            assert ks_cocycle(f, g, T2, (0, 0)) == oracle_ks_cocycle(f, g, T2, (0, 0))
    open_form = TorusForm(2, 1, {(0,): TrigPoly.sin_axis(2, 1)})
    closed = TorusForm.basis(2, (0,))
    for _ in range(2):
        with pytest.raises(ValueError, match="not closed"):
            roger_cocycle(open_form, f, g, T2)
        roger_cocycle(closed, f, g, T2)
    non_invariant = TrigPoly.cos_axis(3, 0)
    for _ in range(2):
        with pytest.raises(ValueError, match="not Reeb-invariant"):
            contact_field(non_invariant)
        contact_field(TrigPoly.cos_axis(3, 2))


def test_jacobi_identity_exact():
    rng = random.Random(52)
    for _ in range(25):
        f = random_real_trigpoly(rng, 2, n_modes=2)
        g = random_real_trigpoly(rng, 2, n_modes=2)
        h = random_real_trigpoly(rng, 2, n_modes=2)
        acc = (
            poisson_bracket(f, poisson_bracket(g, h, T2), T2)
            + poisson_bracket(g, poisson_bracket(h, f, T2), T2)
            + poisson_bracket(h, poisson_bracket(f, g, T2), T2)
        )
        assert acc.is_zero()


def test_bracket_leibniz():
    rng = random.Random(53)
    for _ in range(10):
        f = random_real_trigpoly(rng, 2, n_modes=2)
        g = random_real_trigpoly(rng, 2, n_modes=2)
        h = random_real_trigpoly(rng, 2, n_modes=2)
        lhs = poisson_bracket(f, g * h, T2)
        rhs = poisson_bracket(f, g, T2) * h + g * poisson_bracket(f, h, T2)
        assert (lhs - rhs).is_zero()


# -- degree-one-form cocycle ----------------------------------------------------

def test_roger_frozen_value():
    alpha = TorusForm.basis(2, (0,))  # dx
    f = TrigPoly.cos_axis(2, 1)
    g = TrigPoly.sin_axis(2, 1)
    # integrand is -cos^2 y over the unit-scaled torus
    assert roger_cocycle(alpha, f, g, T2) == ExactScalar(Fraction(-1, 2), 2)


def test_roger_vanishes_on_constants():
    alpha = TorusForm.basis(2, (0,))
    f = random_real_trigpoly(random.Random(1), 2)
    assert roger_cocycle(alpha, f, TrigPoly.const(2, 5), T2).is_zero()


def test_roger_rejects_non_closed():
    alpha = TorusForm(2, 1, {(0,): TrigPoly.sin_axis(2, 1)})
    with pytest.raises(ValueError, match="not closed"):
        roger_cocycle(alpha, TrigPoly.const(2, 1), TrigPoly.const(2, 1), T2)


def test_roger_antisymmetric_exactly():
    rng = random.Random(54)
    for _ in range(15):
        alpha = random_closed_oneform(rng, 2)
        f = random_real_trigpoly(rng, 2, n_modes=2)
        g = random_real_trigpoly(rng, 2, n_modes=2)
        assert roger_cocycle(alpha, f, g, T2) == -roger_cocycle(alpha, g, f, T2)


def test_singular_frozen_value():
    cycle = CoordinateCycle.circle(2, 0, offsets={1: 0})
    f = TrigPoly.sin_axis(2, 0)
    g = TrigPoly.cos_axis(2, 0)
    assert singular_cocycle(cycle, f, g, T2) == ExactScalar(Fraction(1, 2), 1)
    assert singular_cocycle(cycle, TrigPoly.const(2, 3), g, T2).is_zero()


def test_singular_dimension_check():
    with pytest.raises(ValueError, match="2n-1"):
        singular_cocycle(CoordinateCycle.full(2), TrigPoly.const(2, 1),
                         TrigPoly.const(2, 1), T2)


# -- cocycle conditions -----------------------------------------------------------

def test_cocycle_condition_roger():
    rng = random.Random(55)
    for _ in range(10):
        alpha = random_closed_oneform(rng, 2)
        f, g, h = (random_real_trigpoly(rng, 2, n_modes=2) for _ in range(3))
        res = cocycle_residual("roger", {"alpha": alpha, "omega": T2}, f, g, h)
        assert res.is_zero()


def test_cocycle_condition_singular():
    rng = random.Random(56)
    for _ in range(10):
        cycle = CoordinateCycle.circle(2, 0, offsets={1: rng.randrange(4)})
        f, g, h = (random_real_trigpoly(rng, 2, n_modes=2) for _ in range(3))
        res = cocycle_residual("singular", {"cycle": cycle, "omega": T2}, f, g, h)
        assert res.is_zero()


def test_cocycle_condition_ks():
    rng = random.Random(57)
    for _ in range(10):
        pt = tuple(rng.randrange(4) for _ in range(2))
        f, g, h = (random_real_trigpoly(rng, 2, n_modes=2) for _ in range(3))
        res = cocycle_residual("ks", {"omega": T2, "point": pt}, f, g, h)
        assert res.is_zero()


def test_unknown_kind_rejected():
    with pytest.raises(ValueError, match="unknown cocycle kind"):
        cocycle_residual("mystery", {}, None, None, None)


# -- volume side ---------------------------------------------------------------------

def test_unit_volume_normalization():
    nu = unit_volume_form(3)
    assert integrate_over_cycle(nu, CoordinateCycle.full(3)) == ExactScalar(Fraction(1), 0)


def test_exact_field_from_potential_solves():
    # potential -sin z dy: d(alpha) = cos z dy ^ dz, so the field is the
    # (2 pi)^3-scaled cos z d/dx
    alpha = TorusForm(3, 1, {(1,): -TrigPoly.sin_axis(3, 2)})
    x = exact_field_from_potential(alpha)
    assert x.pi_power == 3
    assert x.components[0] == TrigPoly.cos_axis(3, 2)
    assert x.components[1].is_zero() and x.components[2].is_zero()
    nu = unit_volume_form(3)
    assert (contract(x, nu) - exterior_derivative(alpha)).is_zero()


def test_exact_field_random_potentials():
    rng = random.Random(58)
    nu = unit_volume_form(3)
    for _ in range(10):
        alpha = random_form(rng, 3, 1, max_deg=2, n_terms=2)
        x = exact_field_from_potential(alpha)
        assert (contract(x, nu) - exterior_derivative(alpha)).is_zero()
        flux = infinitesimal_flux(x)
        assert all(v.is_zero() for v in flux.values())
        assert is_exact_field(x)


def test_flux_of_coordinate_field():
    flux = infinitesimal_flux(coordinate_field(3, 0))
    assert flux[(1, 2)] == ExactScalar(Fraction(1), -3)
    assert flux[(0, 1)].is_zero() and flux[(0, 2)].is_zero()


def test_lichnerowicz_equal_for_dual_pair():
    x = TorusVectorField(3, [TrigPoly.cos_axis(3, 2), TrigPoly.zero(3), TrigPoly.zero(3)])
    y = TorusVectorField(3, [TrigPoly.zero(3), TrigPoly.cos_axis(3, 2), TrigPoly.zero(3)])
    assert vf_bracket(x, y).is_zero()
    assert is_exact_field(x) and is_exact_field(y)
    q = CoordinateCycle.circle(3, 2)
    lam_q = lichnerowicz_singular(q, x, y)
    lam_eta = lichnerowicz_eta(poincare_dual_form(q), x, y)
    assert lam_q == lam_eta == ExactScalar(Fraction(1, 2), -2)


def test_lichnerowicz_alternation():
    x = TorusVectorField(3, [TrigPoly.cos_axis(3, 2), TrigPoly.sin_axis(3, 2),
                             TrigPoly.zero(3)])
    q = CoordinateCycle.circle(3, 2)
    assert lichnerowicz_singular(q, x, x).is_zero()


def test_lichnerowicz_duality_commuting_random():
    rng = random.Random(59)
    for axis, c1, c2 in [(2, 0, 1), (0, 1, 2), (1, 0, 2)]:
        q = CoordinateCycle.circle(
            3, axis, offsets={a: rng.randrange(4) for a in range(3) if a != axis}
        )
        eta = poincare_dual_form(q)
        for _ in range(8):
            x = TorusVectorField(3, _axis_field(rng, axis, c1, c2))
            y = TorusVectorField(3, _axis_field(rng, axis, c1, c2))
            assert vf_bracket(x, y).is_zero()
            assert is_exact_field(x) and is_exact_field(y)
            assert lichnerowicz_singular(q, x, y) == lichnerowicz_eta(eta, x, y)


def _axis_field(rng, axis, c1, c2):
    comps = [TrigPoly.zero(3)] * 3
    comps[c1] = zero_mean_poly_in_axis(rng, 3, axis)
    comps[c2] = zero_mean_poly_in_axis(rng, 3, axis)
    return comps


def test_cocycle_condition_lichnerowicz():
    rng = random.Random(60)
    q = CoordinateCycle.circle(3, 2)
    eta = poincare_dual_form(q)
    for _ in range(4):
        fields = [
            exact_field_from_potential(random_form(rng, 3, 1, max_deg=1, n_terms=2))
            for _ in range(3)
        ]
        res = cocycle_residual("lichnerowicz_q", {"cycle": q}, *fields)
        assert res.is_zero()
        res = cocycle_residual("lichnerowicz_eta", {"eta": eta}, *fields)
        assert res.is_zero()


def test_cocycles_match_formed_integrands():
    # each cocycle integral is read off mode pairs; here the integrand is
    # formed in full and integrated, on seeded inputs in dims 2 to 4
    rng = random.Random(61)
    for omega in (T2, scaled_symplectic([1, Fraction(-2, 3)])):
        dim, n = omega.dim, omega.dim // 2
        for _ in range(4):
            f, g = random_real_trigpoly(rng, dim), random_real_trigpoly(rng, dim)
            alpha = random_closed_oneform(rng, dim).scale_pi(-1)
            paired = contract(hamiltonian_field(g, omega), alpha)
            formed = (f * paired.coefficient(())) * liouville_power(omega, n)
            expect = integrate_over_cycle(formed.scale_pi(paired.pi_power),
                                          CoordinateCycle.full(dim))
            assert roger_cocycle(alpha, f, g, omega) == expect
            axes = tuple(rng.sample(range(dim), dim - 1))
            cycle = CoordinateCycle(dim, axes, {a: rng.randint(1, 3) for a in range(dim)
                                                if a not in axes})
            df = exterior_derivative(TorusForm.function(dim, f))
            expect = integrate_over_cycle(g * wedge(df, liouville_power(omega, n - 1)), cycle)
            assert singular_cocycle(cycle, f, g, omega) == expect
    for m in (3, 4):
        nu = unit_volume_form(m)
        for _ in range(4):
            x = TorusVectorField(m, random_field(rng, m, max_deg=1).components, 1)
            y = random_field(rng, m, max_deg=1)
            axes = tuple(rng.sample(range(m), m - 2))
            cycle = CoordinateCycle(m, axes, {a: rng.randint(1, 3) for a in range(m)
                                              if a not in axes})
            expect = integrate_over_cycle(contract(y, contract(x, nu)), cycle)
            assert lichnerowicz_singular(cycle, x, y) == expect
            # a closed, non-constant 2-form
            beta = random_form(rng, m, 1, max_deg=1, n_terms=2)
            eta = exterior_derivative(beta) + TorusForm.basis(m, (0, 1), random_fraction(rng))
            expect = integrate_over_cycle(wedge(eta, contract(y, contract(x, nu))),
                                          CoordinateCycle.full(m))
            assert lichnerowicz_eta(eta, x, y) == expect


# -- splitting maps ------------------------------------------------------------------

def test_mean_projection_values():
    assert mean_against_volume(TrigPoly.sin_axis(2, 0), T2) == 0
    assert mean_against_volume(TrigPoly.const(2, 1), T2) == 1
    rho, kappa = kappa_rho(TrigPoly.sin_axis(2, 0) + 3, T2)
    assert rho == 3
    assert kappa == TrigPoly.sin_axis(2, 0)


def test_kappa_pullbacks_constant_shift_invariant():
    rng = random.Random(61)
    cycle = CoordinateCycle.circle(2, 0, offsets={1: 1})
    for _ in range(15):
        alpha = random_closed_oneform(rng, 2)
        f = random_real_trigpoly(rng, 2, n_modes=2)
        g = random_real_trigpoly(rng, 2, n_modes=2)
        c1 = random_fraction(rng)
        c2 = random_fraction(rng)
        assert roger_cocycle(alpha, f, g, T2) == \
            roger_cocycle(alpha, f + c1, g + c2, T2)
        assert singular_cocycle(cycle, f, g, T2) == \
            singular_cocycle(cycle, f + c1, g + c2, T2)


def test_kappa_shift_example():
    alpha = TorusForm.basis(2, (0,))
    f = TrigPoly.cos_axis(2, 1)
    g = TrigPoly.sin_axis(2, 1)
    assert roger_cocycle(alpha, f, g, T2) == \
        roger_cocycle(alpha, f + 5, g + 7, T2)


# -- duality between cycle and form pictures -------------------------------------------

@pytest.mark.parametrize("axis", [0, 1])
def test_cycle_form_duality_on_commuting_pairs(axis):
    rng = random.Random(62 + axis)
    other = 1 - axis
    cycle = CoordinateCycle.circle(2, axis, offsets={other: rng.randrange(4)})
    alpha = poincare_dual_form(cycle)
    for _ in range(15):
        f = zero_mean_poly_in_axis(rng, 2, axis) + random_fraction(rng)
        g = zero_mean_poly_in_axis(rng, 2, axis) + random_fraction(rng)
        assert poisson_bracket(f, g, T2).is_zero()
        assert singular_cocycle(cycle, f, g, T2) == roger_cocycle(alpha, f, g, T2)


# -- witnesses of the verify suites -----------------------------------------------

def test_passing_suites_format_no_witness(monkeypatch):
    from preqlat import verify

    calls = []
    for name in ("poly_repr", "field_repr", "form_repr"):
        orig = getattr(verify, name)
        monkeypatch.setattr(verify, name,
                            lambda x, orig=orig, name=name: calls.append(name) or orig(x))
    results = verify.run_suites("all", 2, 3)
    assert not any(r["failed"] for r in results) and len(results) == len(verify.SUITE_NAMES)
    assert calls == []


def test_failing_trials_keep_their_own_witness(monkeypatch):
    """A witness is formatted after the check, from the inputs of the
    trial that failed, in the same format as before."""
    from preqlat import verify

    # jacobi: {f, g} := f makes the cyclic sum f + g + h
    monkeypatch.setattr(verify, "poisson_bracket", lambda f, g, omega: f)
    [res] = verify.run_suites(["jacobi"], 3, 5)
    rng = verify.suite_rng(5, "jacobi")
    expected = []
    for i in range(3):
        f, g, h = (verify._rand_poly(rng, 2, max_deg=2, n_modes=2) for _ in range(3))
        expected.append({"trial": i, "f": verify.poly_repr(f), "g": verify.poly_repr(g),
                         "h": verify.poly_repr(h)})
    assert res["passed"] == 0 and res["failures"] == expected

    # cocycles: six kinds per trial, each failing with its own residual
    seen = []

    def residual(kind, params, *args):
        seen.append((kind, args))
        return ExactScalar(Fraction(len(seen)), 0)

    monkeypatch.setattr(verify, "cocycle_residual", residual)
    [res] = verify.run_suites(["cocycles"], 2, 5)
    assert res["failures"] == [
        {
            "trial": n // 6,
            "kind": kind,
            "inputs": [verify.field_repr(a) if isinstance(a, TorusVectorField)
                       else verify.poly_repr(a) for a in args],
            "residual": str(ExactScalar(Fraction(n + 1), 0)),
        }
        for n, (kind, args) in enumerate(seen)
    ]
    assert len(seen) == 12


_ONE, _ZERO = ExactScalar(Fraction(1)), ExactScalar.zero()
_TRIALS = [0, 1, 2, 3]


@pytest.mark.parametrize("suite, fakes, labels", [
    ("calculus", {"ce_differential": lambda c, lie: _ONE}, _TRIALS),
    ("pullback", {"contact_pullback_residual": lambda cycle, f, g: _ONE},
     [("axis", 0), ("axis", 1), ("axis", 2)] + _TRIALS),
    ("flux", {"contact_flux": lambda f: {(0, 1): _ONE, (0, 2): _ZERO, (1, 2): _ZERO}},
     _TRIALS + [("span", [])]),
    ("shifts", {"roger_cocycle": lambda alpha, f, g, omega: object()}, _TRIALS),
    ("duality", {"poisson_bracket": lambda f, g, omega: _ONE, "vf_bracket": lambda x, y: _ONE},
     _TRIALS + _TRIALS),
], ids=["calculus", "pullback", "flux", "shifts", "duality"])
def test_every_failing_check_keeps_its_own_witness(suite, fakes, labels, monkeypatch):
    """With every check failing, each check leaves one witness, in check
    order, from its own inputs: a witness formatted after its suite
    resumed would show the next inputs, or the last trial's for all."""
    from preqlat import verify

    for name, fake in fakes.items():
        monkeypatch.setattr(verify, name, fake)
    [res] = verify.run_suites([suite], len(_TRIALS), 5)
    wits = res["failures"]
    assert res["passed"] == 0 and len(wits) == res["failed"] == res["trials"]
    assert [w["trial"] if "trial" in w else next(iter(w.items())) for w in wits] == labels
    inputs = [{k: v for k, v in w.items() if k != "trial"} for w in wits]
    assert all(a != b for a, b in zip(inputs, inputs[1:]))
