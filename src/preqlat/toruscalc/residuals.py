"""The cochain condition, evaluated exactly for every implemented
degree-two cocycle.

For a 2-cochain psi on a Lie algebra the differential is

    (d psi)(a, b, c) = -psi([a,b], c) + psi([a,c], b) - psi([b,c], a)

and the contract of every kind here is that it vanishes identically:
functions use the Poisson bracket of the symplectic preset, invariant
contact Hamiltonians their contact bracket, and fields the Lie bracket.
"""

from __future__ import annotations

from fractions import Fraction

from ..exact import ExactScalar
from .contact import contact_bracket, sigma_cocycle
from .forms import vf_bracket
from .symplectic import ks_cocycle, poisson_bracket, roger_cocycle, singular_cocycle
from .volume import lichnerowicz_eta, lichnerowicz_singular


def cocycle_residual(kind, params, a, b, c) -> ExactScalar:
    """(d psi)(a, b, c) for the requested cocycle kind.

    ``params`` carries the cocycle data: alpha/omega for roger,
    cycle/omega for singular, omega/point for ks, cycle for sigma_q, and
    cycle or eta for the field kinds, which use the unit volume form.
    Arguments are trigonometric polynomials, except for the field kinds
    where they are vector fields.
    """
    if kind == "roger":
        alpha, omega = params["alpha"], params["omega"]
        psi = lambda u, v: roger_cocycle(alpha, u, v, omega)
        bracket = lambda u, v: poisson_bracket(u, v, omega)
    elif kind == "singular":
        cycle, omega = params["cycle"], params["omega"]
        psi = lambda u, v: singular_cocycle(cycle, u, v, omega)
        bracket = lambda u, v: poisson_bracket(u, v, omega)
    elif kind == "ks":
        omega, point = params["omega"], params["point"]
        psi = lambda u, v: ExactScalar(Fraction(ks_cocycle(u, v, omega, point)))
        bracket = lambda u, v: poisson_bracket(u, v, omega)
    elif kind == "sigma_q":
        cycle = params["cycle"]
        psi = lambda u, v: sigma_cocycle(cycle, u, v)
        bracket = contact_bracket
    elif kind == "lichnerowicz_q":
        cycle = params["cycle"]
        psi = lambda u, v: lichnerowicz_singular(cycle, u, v)
        bracket = vf_bracket
    elif kind == "lichnerowicz_eta":
        eta = params["eta"]
        psi = lambda u, v: lichnerowicz_eta(eta, u, v)
        bracket = vf_bracket
    else:
        raise ValueError(f"unknown cocycle kind {kind!r}")

    return -psi(bracket(a, b), c) + psi(bracket(a, c), b) - psi(bracket(b, c), a)
