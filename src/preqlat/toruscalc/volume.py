"""Volume-preserving calculus: potentials, flux, and the degree-two
cocycles on divergence-free fields.

The volume form is the unit one, nu = dx_1 ^ ... ^ dx_m / (2*pi)^m, so
the torus has volume one and integral classes keep integer periods.
"""

from __future__ import annotations

from functools import lru_cache

from ..exact import ExactScalar
from .forms import (
    CoordinateCycle,
    TorusForm,
    TorusVectorField,
    contract,
    exterior_derivative,
    integrate_contraction,
    integrate_product,
    is_closed,
)


@lru_cache(maxsize=64)
def unit_volume_form(m) -> TorusForm:
    """dx_1 ^ ... ^ dx_m / (2*pi)^m: total volume one.  Built once per m
    and shared: callers must not change it."""
    return TorusForm.basis(m, tuple(range(m)), 1, pi_power=-m)


def exact_field_from_potential(alpha: TorusForm) -> TorusVectorField:
    """The divergence-free field X with i_X nu = d(alpha) for the unit
    volume form nu.

    ``alpha`` has degree m-2.  The field picks up the (2*pi)^m of the
    normalization; its own power records that, so the defining identity
    holds exactly.
    """
    m = alpha.dim
    if alpha.degree != m - 2:
        raise ValueError("potential must have degree m-2")
    da = exterior_derivative(alpha)
    comps = []
    for j in range(m):
        complement = tuple(a for a in range(m) if a != j)
        comps.append(da.coefficient(complement) * (-1 if j % 2 else 1))
    return TorusVectorField(m, comps, alpha.pi_power + m)


def lichnerowicz_singular(cycle: CoordinateCycle, x: TorusVectorField,
                          y: TorusVectorField) -> ExactScalar:
    """integral over a codimension-two cycle of i_Y i_X nu."""
    m = x.dim
    if len(cycle.axes) != m - 2:
        raise ValueError("cycle must have codimension two")
    return integrate_contraction(y, contract(x, unit_volume_form(m)), cycle)


def lichnerowicz_eta(eta: TorusForm, x: TorusVectorField, y: TorusVectorField) -> ExactScalar:
    """integral of eta ^ i_Y i_X nu for a closed 2-form eta."""
    m = x.dim
    if eta.degree != 2:
        raise ValueError("need a 2-form")
    if not is_closed(eta):
        raise ValueError("2-form is not closed")
    # eta ^ i_Y i_X nu = eta(X, Y) nu, since eta ^ i_X nu and
    # i_Y eta ^ nu have degree m + 1 and vanish
    pair = contract(y, contract(x, eta))
    return integrate_product(pair.coefficient(()), unit_volume_form(m).scale_pi(pair.pi_power),
                             CoordinateCycle.full(m))
