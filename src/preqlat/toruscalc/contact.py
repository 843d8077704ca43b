"""The non-regular contact structure on the 3-torus.

The preset contact form is theta = cos z dx + sin z dy.  Its Reeb orbits
foliate each constant-z 2-torus with constant slope, which makes the
invariant Hamiltonians exactly the functions of z among trigonometric
polynomials; the strict contact fields split into the constant span of
(d/dx, d/dy) and an exact part.  Everything here is exact, including the
identity relating the pulled-back degree-two cocycle on fields to the
cycle cocycle on invariant functions.

The preset's fixed forms and fields (theta, d(theta), mu, the Reeb and
transverse fields) are built on first use and then shared by every call,
so callers must not change them.  A strict contact field takes one
``product_sum`` per component and is kept in a bounded cache keyed by
its Hamiltonian, so the bracket and the pullback residual of one input
share it.  The cycle integrals are read off mode pairs without forming
the integrand.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache, lru_cache

from ..exact import ExactScalar
from .forms import (
    CoordinateCycle,
    TorusForm,
    TorusVectorField,
    contract,
    exterior_derivative,
    integrate_contraction,
    integrate_product,
    wedge,
)
from .trig import TrigPoly, product_sum

DIM = 3
X_AXIS, Y_AXIS, Z_AXIS = 0, 1, 2


@cache
def contact_form() -> TorusForm:
    """theta = cos z dx + sin z dy."""
    return TorusForm(
        DIM,
        1,
        {
            (X_AXIS,): TrigPoly.cos_axis(DIM, Z_AXIS),
            (Y_AXIS,): TrigPoly.sin_axis(DIM, Z_AXIS),
        },
    )


@cache
def contact_differential() -> TorusForm:
    """d(theta) = sin z dx ^ dz - cos z dy ^ dz."""
    return exterior_derivative(contact_form())


@cache
def contact_volume() -> TorusForm:
    """mu = (1/2) theta ^ d(theta); equal to -(1/2) dx ^ dy ^ dz."""
    return Fraction(1, 2) * wedge(contact_form(), contact_differential())


@cache
def reeb_field() -> TorusVectorField:
    """E = cos z d/dx + sin z d/dy: i_E theta = 1, i_E d(theta) = 0."""
    return TorusVectorField(
        DIM,
        [TrigPoly.cos_axis(DIM, Z_AXIS), TrigPoly.sin_axis(DIM, Z_AXIS), TrigPoly.zero(DIM)],
    )


@cache
def transverse_field() -> TorusVectorField:
    """V = -sin z d/dx + cos z d/dy, the rotated companion of the Reeb field."""
    return TorusVectorField(
        DIM,
        [-TrigPoly.sin_axis(DIM, Z_AXIS), TrigPoly.cos_axis(DIM, Z_AXIS), TrigPoly.zero(DIM)],
    )


def is_reeb_invariant(f: TrigPoly) -> bool:
    """Exact check of L_E f = 0.  Within trigonometric polynomials this
    forces f to depend on z only."""
    return reeb_field().apply(f).is_zero()


@lru_cache(maxsize=64)
def contact_field(f: TrigPoly) -> TorusVectorField:
    """The strict contact field of an invariant Hamiltonian, built once
    per recent f and shared.

    zeta_f = f E + (df/dz) V - V(f) d/dz  satisfies i_zeta theta = f and
    i_zeta d(theta) = -df exactly.
    """
    if not is_reeb_invariant(f):
        raise ValueError("not Reeb-invariant")
    e = reeb_field().components
    v = transverse_field().components
    comps = [product_sum(DIM, ((e[j], f, None, 1), (v[j], f, Z_AXIS, 1)))
             for j in (X_AXIS, Y_AXIS)]
    comps.append(product_sum(DIM, ((c, f, axis, -1) for axis, c in enumerate(v))))
    return TorusVectorField(DIM, comps)


def contact_bracket(f: TrigPoly, g: TrigPoly) -> TrigPoly:
    """{f, g} = d(theta)(zeta_f, zeta_g) on invariant Hamiltonians."""
    return _field_bracket(contact_field(f), contact_field(g))


def _field_bracket(zf: TorusVectorField, zg: TorusVectorField) -> TrigPoly:
    """d(theta)(zeta_f, zeta_g), from contact fields already built."""
    return contract(zg, contract(zf, contact_differential())).as_function()


def sigma_cocycle(cycle: CoordinateCycle, f: TrigPoly, g: TrigPoly) -> ExactScalar:
    """integral over a 1-cycle of g df (the n = 1 case of g df ^ (dtheta)^{n-1})."""
    if len(cycle.axes) != 1:
        raise ValueError("cycle must be one-dimensional")
    df = exterior_derivative(TorusForm.function(DIM, f))
    return integrate_product(g, df, cycle)


def rho_cochain(cycle: CoordinateCycle, h: TrigPoly) -> ExactScalar:
    """-integral over a 1-cycle of h theta."""
    if len(cycle.axes) != 1:
        raise ValueError("cycle must be one-dimensional")
    return -integrate_product(h, contact_form(), cycle)


def contact_pullback_residual(cycle: CoordinateCycle, f: TrigPoly, g: TrigPoly) -> ExactScalar:
    """Residual of the pullback identity for the cycle cocycle.

    Evaluates  lambda_Q(zeta_f, zeta_g) - sigma_Q(f, g) - (1/2) (d rho_Q)(f, g)
    with lambda the cycle cocycle of the (unnormalized) contact volume
    mu = (1/2) theta ^ d(theta); identically zero on invariant inputs.
    """
    zf = contact_field(f)           # each raises "not Reeb-invariant"
    zg = contact_field(g)
    lam = integrate_contraction(zg, contract(zf, contact_volume()), cycle)
    sig = sigma_cocycle(cycle, f, g)
    # (d rho)(f, g) = -rho({f, g}) for a 1-cochain rho
    drho = -rho_cochain(cycle, _field_bracket(zf, zg))
    return lam - sig - Fraction(1, 2) * drho


def contact_flux(f: TrigPoly):
    """Class of f * d(theta) in degree-two coordinates.

    Returns {(0,1): ..., (0,2): ..., (1,2): ...}: the constant modes of
    the dx^dy, dx^dz and dy^dz coefficients.  The dx^dy coordinate is
    zero for every invariant f; the image over all invariant f spans the
    other two directions.
    """
    if not is_reeb_invariant(f):
        raise ValueError("not Reeb-invariant")
    return _two_form_class(f * contact_differential())


def contact_flux_via_field(f: TrigPoly):
    """Class of i_{zeta_f} mu, which matches contact_flux(f) coordinate
    by coordinate."""
    return _two_form_class(contract(contact_field(f), contact_volume()))


def _two_form_class(form: TorusForm):
    out = {}
    for idx in ((0, 1), (0, 2), (1, 2)):
        re, im = form.coefficient(idx).mean()
        if im:
            raise ValueError("class of a non-real form")
        out[idx] = ExactScalar(re, form.pi_power)
    return out
