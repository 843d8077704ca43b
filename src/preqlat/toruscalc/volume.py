"""Volume-preserving calculus: potentials, flux, and the degree-two
cocycles on divergence-free fields.

The default volume form is dx_1 ^ ... ^ dx_m / (2*pi)^m, so the torus has
unit volume and integral classes keep integer periods.
"""

from __future__ import annotations

from fractions import Fraction

from ..exact import ExactScalar
from .forms import (
    CoordinateCycle,
    TorusForm,
    TorusVectorField,
    contract,
    exterior_derivative,
    integrate_contraction,
    integrate_product,
)


def unit_volume_form(m) -> TorusForm:
    """dx_1 ^ ... ^ dx_m / (2*pi)^m: total volume one."""
    return TorusForm.basis(m, tuple(range(m)), 1, pi_power=-m)


def _constant_top_scale(nu: TorusForm):
    m = nu.dim
    if nu.degree != m:
        raise ValueError("volume form must have top degree")
    poly = nu.coefficient(tuple(range(m)))
    if poly.is_zero() or not poly.is_constant():
        raise ValueError("volume form must be a nonzero constant multiple of the top form")
    re, im = poly.mean()
    if im or re == 0:
        raise ValueError("volume form must have a real nonzero scale")
    return re


def exact_field_from_potential(alpha: TorusForm, nu: TorusForm | None = None) -> TorusVectorField:
    """The divergence-free field X with i_X nu = d(alpha).

    ``alpha`` has degree m-2.  With the unit-volume default the field
    picks up the (2*pi)^m of the normalization; its own power records
    that, so the defining identity holds exactly.
    """
    m = alpha.dim
    if alpha.degree != m - 2:
        raise ValueError("potential must have degree m-2")
    if nu is None:
        nu = unit_volume_form(m)
    scale = _constant_top_scale(nu)
    da = exterior_derivative(alpha)
    comps = []
    for j in range(m):
        complement = tuple(a for a in range(m) if a != j)
        beta = da.coefficient(complement)
        sign = -1 if j % 2 else 1
        comps.append(beta * (Fraction(sign) / scale))
    return TorusVectorField(m, comps, alpha.pi_power - nu.pi_power)


def lichnerowicz_singular(cycle: CoordinateCycle, x: TorusVectorField,
                          y: TorusVectorField, nu: TorusForm | None = None) -> ExactScalar:
    """integral over a codimension-two cycle of i_Y i_X nu."""
    m = x.dim
    if nu is None:
        nu = unit_volume_form(m)
    if len(cycle.axes) != m - 2:
        raise ValueError("cycle must have codimension two")
    return integrate_contraction(y, contract(x, nu), cycle)


def lichnerowicz_eta(eta: TorusForm, x: TorusVectorField, y: TorusVectorField,
                     nu: TorusForm | None = None) -> ExactScalar:
    """integral of eta ^ i_Y i_X nu for a closed 2-form eta."""
    m = x.dim
    if nu is None:
        nu = unit_volume_form(m)
    if eta.degree != 2:
        raise ValueError("need a 2-form")
    if not exterior_derivative(eta).is_zero():
        raise ValueError("2-form is not closed")
    # eta ^ i_Y i_X nu = eta(X, Y) nu, since eta ^ i_X nu and
    # i_Y eta ^ nu have degree m + 1 and vanish
    pair = contract(y, contract(x, eta))
    return integrate_product(pair.coefficient(()), nu.scale_pi(pair.pi_power),
                             CoordinateCycle.full(m))
