"""The non-regular contact 3-torus: Reeb data, strict contact fields,
the pullback identity for the cycle cocycle, and the flux image."""

import random
from fractions import Fraction

import pytest

from preqlat.cli import main
from preqlat.exact import ExactScalar
from preqlat.toruscalc.contact import (
    contact_bracket,
    contact_differential,
    contact_field,
    contact_flux,
    contact_flux_via_field,
    contact_form,
    contact_pullback_residual,
    contact_volume,
    is_reeb_invariant,
    reeb_field,
    rho_cochain,
    sigma_cocycle,
    transverse_field,
)
from preqlat.toruscalc.forms import (
    CoordinateCycle,
    TorusForm,
    TorusVectorField,
    contract,
    exterior_derivative,
    integrate_over_cycle,
)
from preqlat.toruscalc.residuals import cocycle_residual
from preqlat.toruscalc.symplectic import liouville_power
from preqlat.toruscalc.trig import TrigPoly

from util import coordinate_field, invariant_function, random_invariant, strict_contact_residual


def test_contact_volume_value():
    # (1/2) theta ^ d(theta) = -(1/2) dx ^ dy ^ dz
    mu = contact_volume()
    assert mu == TorusForm(3, 3, {(0, 1, 2): TrigPoly.const(3, Fraction(-1, 2))})


def test_reeb_field_characterization():
    e = reeb_field()
    theta = contact_form()
    assert e.components[0] == TrigPoly.cos_axis(3, 2)
    assert e.components[1] == TrigPoly.sin_axis(3, 2)
    assert contract(e, theta).as_function() == TrigPoly.const(3, 1)
    assert contract(e, exterior_derivative(theta)).is_zero()


def test_invariance_characterizes_functions_of_z():
    assert is_reeb_invariant(TrigPoly.cosine(3, (0, 0, 4)))
    assert is_reeb_invariant(TrigPoly.const(3, 9))
    assert not is_reeb_invariant(TrigPoly.sin_axis(3, 0))
    assert not is_reeb_invariant(TrigPoly.cos_axis(3, 1) * TrigPoly.cos_axis(3, 2))


def test_contact_field_of_constant_is_reeb():
    assert contact_field(TrigPoly.const(3, 1)) == reeb_field()


def test_contact_field_example():
    f = TrigPoly.sin_axis(3, 2)
    zf = contact_field(f)
    e, v = reeb_field(), transverse_field()
    expected = TorusVectorField(
        3,
        [
            f * e.components[0] + TrigPoly.cos_axis(3, 2) * v.components[0],
            f * e.components[1] + TrigPoly.cos_axis(3, 2) * v.components[1],
            TrigPoly.zero(3),
        ],
    )
    assert zf == expected


def test_contact_field_defining_equations():
    rng = random.Random(70)
    theta = contact_form()
    dtheta = exterior_derivative(theta)
    for _ in range(12):
        f = random_invariant(rng, max_deg=4)
        zf = contact_field(f)
        assert contract(zf, theta).as_function() == f
        got = contract(zf, dtheta)
        want = -exterior_derivative(TorusForm.function(3, f))
        assert (got - want).is_zero()


def test_contact_field_rejects_non_invariant():
    with pytest.raises(ValueError, match="not Reeb-invariant"):
        contact_field(TrigPoly.sin_axis(3, 0))


def test_bracket_law_matches_directional_derivative():
    rng = random.Random(71)
    for _ in range(10):
        f = random_invariant(rng, max_deg=3)
        g = random_invariant(rng, max_deg=3)
        lhs = contact_bracket(f, g)
        rhs = contact_field(f).apply(g)
        assert lhs == rhs
        assert lhs.is_zero()  # invariant brackets vanish identically here


def test_strict_contact_residuals():
    assert strict_contact_residual(coordinate_field(3, 0)).is_zero()
    assert strict_contact_residual(coordinate_field(3, 1)).is_zero()
    res = strict_contact_residual(coordinate_field(3, 2))
    expected = TorusForm(
        3, 1, {(0,): -TrigPoly.sin_axis(3, 2), (1,): TrigPoly.cos_axis(3, 2)}
    )
    assert res == expected
    rng = random.Random(72)
    for _ in range(6):
        f = random_invariant(rng, max_deg=3)
        assert strict_contact_residual(contact_field(f)).is_zero()


def test_sigma_and_rho_values():
    zc = CoordinateCycle.circle(3, 2)
    f = TrigPoly.sin_axis(3, 2)
    g = TrigPoly.cos_axis(3, 2)
    assert sigma_cocycle(zc, f, g) == ExactScalar(Fraction(1, 2), 1)
    assert sigma_cocycle(zc, TrigPoly.const(3, 4), g).is_zero()
    xc = CoordinateCycle.circle(3, 0, offsets={2: 0})
    assert rho_cochain(xc, TrigPoly.const(3, 1)) == ExactScalar(Fraction(-1), 1)


def test_pullback_residual_zero_on_z_circle_example():
    zc = CoordinateCycle.circle(3, 2)
    f = TrigPoly.sin_axis(3, 2)
    g = TrigPoly.cos_axis(3, 2)
    # both sides equal pi here
    mu = contact_volume()
    lam = contract(contact_field(g), contract(contact_field(f), mu))
    from preqlat.toruscalc.forms import integrate_over_cycle

    assert integrate_over_cycle(lam, zc) == ExactScalar(Fraction(1, 2), 1)
    assert contact_pullback_residual(zc, f, g).is_zero()


def test_contact_integrals_match_formed_integrands():
    # sigma, rho and the lambda term are read off mode pairs; here each
    # integrand is formed in full and integrated
    rng = random.Random(75)
    theta = TorusForm(3, 1, {(0,): TrigPoly.cos_axis(3, 2), (1,): TrigPoly.sin_axis(3, 2)})
    mu = TorusForm.basis(3, (0, 1, 2), Fraction(-1, 2))
    lams = []
    for axis in (0, 1, 2) * 4:
        offsets = {a: rng.randint(1, 3) for a in range(3) if a != axis}
        cycle = CoordinateCycle.circle(3, axis, offsets)
        f, g = random_invariant(rng, max_deg=4), random_invariant(rng, max_deg=4)
        df = exterior_derivative(TorusForm.function(3, f))
        sig = integrate_over_cycle(g * df, cycle)
        assert sigma_cocycle(cycle, f, g) == sig
        assert rho_cochain(cycle, g) == -integrate_over_cycle(g * theta, cycle)
        lam = integrate_over_cycle(contract(contact_field(g), contract(contact_field(f), mu)),
                                   cycle)
        drho = integrate_over_cycle(contact_bracket(f, g) * theta, cycle)
        assert contact_pullback_residual(cycle, f, g) == lam - sig - Fraction(1, 2) * drho
        if axis == 2:
            lams.append(lam)
    # contact fields of functions of z have no d/dz part, so lambda
    # vanishes on the x- and y-circles
    assert not any(lam.is_zero() for lam in lams)


def test_shared_contact_geometry_survives_verify_suites(capsys):
    # the preset's forms and fields are built once and shared; a whole
    # verify run must leave them equal to fresh builds
    assert main(["verify", "--suite", "all", "--trials", "2", "--seed", "5",
                 "--format", "json"]) == 0
    capsys.readouterr()
    cz, sz, zero = TrigPoly.cos_axis(3, 2), TrigPoly.sin_axis(3, 2), TrigPoly.zero(3)
    assert contact_form() is contact_form()
    assert contact_form() == TorusForm(3, 1, {(0,): cz, (1,): sz})
    assert contact_differential() == TorusForm(3, 2, {(0, 2): sz, (1, 2): -cz})
    assert contact_volume() == TorusForm.basis(3, (0, 1, 2), Fraction(-1, 2))
    assert reeb_field() == TorusVectorField(3, [cz, sz, zero])
    assert transverse_field() == TorusVectorField(3, [-sz, cz, zero])
    t2 = TorusForm.basis(2, (0, 1))
    assert liouville_power(t2, 1) is liouville_power(t2, 1)
    assert liouville_power(t2, 1) == t2
    assert liouville_power(t2, 0) == TorusForm.function(2, 1)


def test_pullback_residual_antisymmetric_input():
    zc = CoordinateCycle.circle(3, 2)
    f = random_invariant(random.Random(73))
    assert contact_pullback_residual(zc, f, f).is_zero()


def test_pullback_residual_all_circles_random():
    rng = random.Random(74)
    for axis in (0, 1, 2):
        for _ in range(10):
            offsets = {a: rng.randrange(4) for a in range(3) if a != axis}
            cycle = CoordinateCycle.circle(3, axis, offsets)
            f = random_invariant(rng, max_deg=4)
            g = random_invariant(rng, max_deg=4)
            assert contact_pullback_residual(cycle, f, g).is_zero()


def test_pullback_residual_requires_invariance():
    with pytest.raises(ValueError, match="not Reeb-invariant"):
        contact_pullback_residual(
            CoordinateCycle.circle(3, 2), TrigPoly.sin_axis(3, 0), TrigPoly.const(3, 1)
        )


def test_sigma_cocycle_condition():
    rng = random.Random(75)
    cycles = [CoordinateCycle.circle(3, a, {b: 1 for b in range(3) if b != a})
              for a in range(3)]
    for cycle in cycles:
        for _ in range(5):
            f, g, h = (random_invariant(rng, max_deg=3) for _ in range(3))
            assert cocycle_residual("sigma_q", {"cycle": cycle}, f, g, h).is_zero()


# -- flux ------------------------------------------------------------------------

def test_flux_coordinates_of_harmonics():
    flux = contact_flux(TrigPoly.cos_axis(3, 2))
    assert flux[(0, 1)].is_zero()
    assert flux[(0, 2)].is_zero()
    assert flux[(1, 2)] == ExactScalar(Fraction(-1, 2), 0)
    flux = contact_flux(TrigPoly.sin_axis(3, 2))
    assert flux[(0, 1)].is_zero()
    assert flux[(0, 2)] == ExactScalar(Fraction(1, 2), 0)
    assert flux[(1, 2)].is_zero()


def test_flux_of_reeb_class_is_zero():
    # f = 1 gives the class of d(theta), which is exact
    flux = contact_flux(TrigPoly.const(3, 1))
    assert all(v.is_zero() for v in flux.values())


def test_flux_kernel_characterization():
    rng = random.Random(76)
    for _ in range(10):
        f = random_invariant(rng, max_deg=5)
        flux = contact_flux(f)
        cz = (f * TrigPoly.cos_axis(3, 2)).mean()
        sz = (f * TrigPoly.sin_axis(3, 2)).mean()
        assert flux[(1, 2)].is_zero() == (cz == (0, 0))
        assert flux[(0, 2)].is_zero() == (sz == (0, 0))
        assert flux[(0, 1)].is_zero()


def test_flux_image_is_two_dimensional():
    probes = [TrigPoly.const(3, 1)] + [
        TrigPoly.cosine(3, (0, 0, j)) for j in range(1, 4)
    ] + [TrigPoly.sine(3, (0, 0, j)) for j in range(1, 4)]
    images = []
    for f in probes:
        flux = contact_flux(f)
        assert flux[(0, 1)].is_zero()
        images.append((flux[(0, 2)].q, flux[(1, 2)].q))
    span = {(a != 0, b != 0) for a, b in images if (a, b) != (0, 0)}
    assert (True, False) in span and (False, True) in span
    # only the first harmonics contribute
    assert images[0] == (0, 0)
    assert all(img == (0, 0) for img in images[2:4])


def test_flux_is_bracket_killing():
    # the image of a bracket is zero: brackets of invariants vanish, and
    # the flux of the zero function is zero
    rng = random.Random(77)
    f = random_invariant(rng)
    g = random_invariant(rng)
    br = contact_bracket(f, g)
    assert br.is_zero()
    assert all(v.is_zero() for v in contact_flux(br).values())


def test_flux_two_ways_agree():
    rng = random.Random(78)
    for _ in range(15):
        f = random_invariant(rng, max_deg=5)
        assert contact_flux(f) == contact_flux_via_field(f)


def test_invariant_function_builder():
    f = invariant_function((Fraction(1, 2), [(1, 0), (0, Fraction(2, 3))]))
    assert is_reeb_invariant(f)
    expected = (
        TrigPoly.const(3, Fraction(1, 2))
        + TrigPoly.cos_axis(3, 2)
        + Fraction(2, 3) * TrigPoly.sine(3, (0, 0, 2))
    )
    assert f == expected


def test_pullback_residual_builds_each_contact_field_once(monkeypatch):
    """70 residuals, as in 14 two-trial pullback suites: one contact field
    call per input, the bracket read off the fields already built.  The
    fields are memoized, so the Reeb-invariance check runs once per
    distinct input: the fixed (sin z, cos z) pair of every suite is
    checked once, from a cleared cache, and each random input once."""
    from preqlat.toruscalc import contact
    from preqlat.verify import run_pullback, suite_rng

    contact.contact_field.cache_clear()
    counts = {"contact_field": 0, "is_reeb_invariant": 0}
    for name in counts:
        orig = getattr(contact, name)

        def counted(*args, orig=orig, name=name):
            counts[name] += 1
            return orig(*args)

        monkeypatch.setattr(contact, name, counted)
    results = [run_pullback(2, suite_rng(seed, "pullback")) for seed in range(1, 15)]
    assert all(r.ok for r in results) and sum(r.trials for r in results) == 70
    assert counts == {"contact_field": 140, "is_reeb_invariant": 58}
    with pytest.raises(ValueError, match="not Reeb-invariant"):
        contact_pullback_residual(CoordinateCycle.circle(3, 2), TrigPoly.cos_axis(3, 2),
                                  TrigPoly.cos_axis(3, 0))
