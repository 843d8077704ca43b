"""Seeded verification suites for the exact identities.

Each suite draws its inputs from a PRNG derived from (seed, suite name),
so reports are reproducible for a fixed seed; failures carry the exact
inputs that produced them.  The suites are the runtime counterpart of
the test suite: every identity is checked as an exact zero, never within
a tolerance.

A suite is a generator ``run_<name>(trials, rng)`` that yields one
``(ok, witness)`` pair per check.  ``witness`` is a zero-argument
callable that formats the check's inputs; ``run_suites`` calls it only
when the check fails, before the suite resumes and draws its next
input, and counts the checks, so no suite states its own count.

A random input polynomial is built once from its draws: every amplitude
is drawn in twelfths, and its numerators are summed per mode over the
denominator 24, so an input is one ``TrigPoly``, not one sum per term.
"""

from __future__ import annotations

import random
from fractions import Fraction

from . import SUITE_NAMES
from .cealg import Cochain, LieAlgebraPresentation, ce_differential
from .combinat import degree_tuples
from .toruscalc.contact import (
    contact_bracket,
    contact_flux,
    contact_flux_via_field,
    contact_pullback_residual,
)
from .toruscalc.forms import (
    CoordinateCycle,
    TorusForm,
    TorusVectorField,
    exterior_derivative,
    lie_derivative,
    poincare_dual_form,
    vf_bracket,
)
from .toruscalc.residuals import cocycle_residual
from .toruscalc.symplectic import (
    poisson_bracket,
    roger_cocycle,
    singular_cocycle,
    standard_symplectic,
)
from .toruscalc.trig import TrigPoly, add_wave
from .toruscalc.volume import (
    exact_field_from_potential,
    lichnerowicz_eta,
    lichnerowicz_singular,
)


def suite_rng(seed, name):
    return random.Random(f"{seed}:{name}")


def poly_repr(f: TrigPoly) -> str:
    terms = []
    for k in sorted(f.modes):
        re, im = f.coefficient(k)
        terms.append(f"{k}: {re}+{im}i")
    return "{" + ", ".join(terms) + "}"


def form_repr(f: TorusForm) -> str:
    items = sorted(f.coeffs.items())
    body = ", ".join(f"{idx}: {poly_repr(p)}" for idx, p in items)
    return f"deg{f.degree}(2pi^{f.pi_power}){{{body}}}"


def field_repr(x: TorusVectorField) -> str:
    return f"(2pi^{x.pi_power})[" + ", ".join(poly_repr(c) for c in x.components) + "]"


def _rand_twelfths(rng):
    """12 * p/q for random p in [-4, 4] and q in [1, 3], drawn in that order."""
    return rng.randint(-4, 4) * (12 // rng.randint(1, 3))


def _rand_fraction(rng):
    return Fraction(_rand_twelfths(rng), 12)


def _rand_poly(rng, dim, max_deg=2, n_modes=2):
    """A constant plus n_modes random waves a cos(k.x) + b sin(k.x)."""
    modes = {(0,) * dim: (2 * _rand_twelfths(rng), 0)}
    for _ in range(n_modes):
        k = [rng.randint(-max_deg, max_deg) for _ in range(dim)]
        if not any(k):
            k[rng.randrange(dim)] = 1
        add_wave(modes, k, _rand_twelfths(rng), _rand_twelfths(rng))
    return TrigPoly(dim, modes, 24)


def _rand_invariant(rng, max_deg=6):
    """A constant plus each of cos(jz) and sin(jz), j = 1..max_deg, with a
    random amplitude and probability 1/2, on the 3-torus."""
    modes = {(0, 0, 0): (2 * _rand_twelfths(rng), 0)}
    for j in range(1, max_deg + 1):
        a = _rand_twelfths(rng) if rng.random() < 0.5 else 0
        b = _rand_twelfths(rng) if rng.random() < 0.5 else 0
        add_wave(modes, (0, 0, j), a, b)
    return TrigPoly(3, modes, 24)


def _rand_form(rng, dim, degree, max_deg=1, n_terms=2):
    coeffs = {}
    tuples = degree_tuples(dim, degree)
    for idx in rng.sample(tuples, min(n_terms, len(tuples))):
        coeffs[idx] = _rand_poly(rng, dim, max_deg, n_modes=1)
    return TorusForm(dim, degree, coeffs)


def _rand_closed_oneform(rng, dim):
    alpha = TorusForm(
        dim, 1, {(i,): TrigPoly.const(dim, _rand_fraction(rng)) for i in range(dim)}
    )
    df = exterior_derivative(
        TorusForm.function(dim, _rand_poly(rng, dim, max_deg=1, n_modes=1))
    )
    return alpha + df


def _rand_two_step_presentation(rng, m):
    structure = {}
    for i in range(m - 2):
        for j in range(i + 1, m - 2):
            comps = {k: rng.randint(-3, 3) for k in (m - 2, m - 1)}
            comps = {k: Fraction(v) for k, v in comps.items() if v}
            if comps:
                structure[(i, j)] = comps
    return LieAlgebraPresentation(
        dim=m, basis_names=tuple(f"e{i+1}" for i in range(m)), structure=structure
    )


# -- suites -------------------------------------------------------------------

def run_calculus(trials, rng):
    """d^2 = 0, Cartan formula, graded Leibniz, and the square-zero
    property of random nilpotent presentations."""
    for i in range(trials):
        dim = rng.randint(2, 4)
        deg = rng.randint(0, dim - 1)
        f = _rand_form(rng, dim, deg, max_deg=2)
        ok = exterior_derivative(exterior_derivative(f)).is_zero()
        x = TorusVectorField(dim, [_rand_poly(rng, dim, 1, 1) for _ in range(dim)])
        cartan_lhs = lie_derivative(x, exterior_derivative(f))
        cartan_rhs = exterior_derivative(lie_derivative(x, f))
        ok = ok and (cartan_lhs - cartan_rhs).is_zero()
        lie = _rand_two_step_presentation(rng, rng.randint(3, 6))
        c = Cochain(
            lie.dim,
            1,
            {(k,): _rand_fraction(rng) for k in range(lie.dim)},
        )
        ok = ok and ce_differential(ce_differential(c, lie), lie).is_zero()
        yield ok, lambda: {"trial": i, "form": form_repr(f), "field": field_repr(x)}


def run_cocycles(trials, rng):
    """The cochain condition, exactly zero for every implemented kind."""
    t2 = standard_symplectic(1)
    zc = CoordinateCycle.circle(3, 2)
    eta = poincare_dual_form(zc)
    for i in range(trials):
        fs = [_rand_poly(rng, 2, max_deg=2, n_modes=2) for _ in range(3)]
        alpha = _rand_closed_oneform(rng, 2)
        cyc = CoordinateCycle.circle(2, 0, offsets={1: rng.randrange(4)})
        pt = tuple(rng.randrange(4) for _ in range(2))
        invs = [_rand_invariant(rng, max_deg=3) for _ in range(3)]
        q_axis = rng.randrange(3)
        q_inv = CoordinateCycle.circle(
            3, q_axis, {a: rng.randrange(4) for a in range(3) if a != q_axis}
        )
        fields = [
            exact_field_from_potential(_rand_form(rng, 3, 1, max_deg=1, n_terms=2))
            for _ in range(3)
        ]
        cases = [
            ("roger", {"alpha": alpha, "omega": t2}, fs),
            ("singular", {"cycle": cyc, "omega": t2}, fs),
            ("ks", {"omega": t2, "point": pt}, fs),
            ("sigma_q", {"cycle": q_inv}, invs),
            ("lichnerowicz_q", {"cycle": zc}, fields),
            ("lichnerowicz_eta", {"eta": eta}, fields),
        ]
        for kind, params, args in cases:
            out = cocycle_residual(kind, params, *args)
            yield out.is_zero(), lambda: {
                "trial": i,
                "kind": kind,
                "inputs": [
                    field_repr(a) if isinstance(a, TorusVectorField) else poly_repr(a)
                    for a in args
                ],
                "residual": str(out),
            }


def run_jacobi(trials, rng):
    """Jacobi identity of the Poisson bracket, exact."""
    t2 = standard_symplectic(1)
    for i in range(trials):
        f, g, h = (_rand_poly(rng, 2, max_deg=2, n_modes=2) for _ in range(3))
        acc = (
            poisson_bracket(f, poisson_bracket(g, h, t2), t2)
            + poisson_bracket(g, poisson_bracket(h, f, t2), t2)
            + poisson_bracket(h, poisson_bracket(f, g, t2), t2)
        )
        yield acc.is_zero(), lambda: {
            "trial": i, "f": poly_repr(f), "g": poly_repr(g), "h": poly_repr(h)}


def run_pullback(trials, rng):
    """The pullback identity on the contact 3-torus: the cycle cocycle of
    the contact volume pulled to invariant Hamiltonians equals the cycle
    cocycle plus half a coboundary, exactly, on every coordinate circle."""
    for axis in (0, 1, 2):
        cycle = CoordinateCycle.circle(3, axis, {a: 0 for a in range(3) if a != axis})
        out = contact_pullback_residual(
            cycle, TrigPoly.sin_axis(3, 2), TrigPoly.cos_axis(3, 2)
        )
        yield out.is_zero(), lambda: {"axis": axis, "residual": str(out)}
    for i in range(trials):
        axis = rng.randrange(3)
        offsets = {a: rng.randrange(4) for a in range(3) if a != axis}
        cycle = CoordinateCycle.circle(3, axis, offsets)
        f = _rand_invariant(rng, max_deg=6)
        g = _rand_invariant(rng, max_deg=6)
        out = contact_pullback_residual(cycle, f, g)
        yield out.is_zero(), lambda: {
            "trial": i, "axis": axis, "offsets": sorted(offsets.items()),
            "f": poly_repr(f), "g": poly_repr(g), "residual": str(out)}


def run_flux(trials, rng):
    """Flux image on the contact preset: no dx^dy component, agreement of
    the function and field pictures, and the two-dimensional span."""
    hits = set()
    for i in range(trials):
        f = _rand_invariant(rng, max_deg=5)
        fl = contact_flux(f)
        ok = fl[(0, 1)].is_zero() and contact_flux_via_field(f) == fl
        g = _rand_invariant(rng, max_deg=3)
        br = contact_bracket(f, g)
        ok = ok and all(v.is_zero() for v in contact_flux(br).values())
        hits |= _flux_span(fl)
        yield ok, lambda: {"trial": i, "f": poly_repr(f)}
    for f in (TrigPoly.cos_axis(3, 2), TrigPoly.sin_axis(3, 2)):
        hits |= _flux_span(contact_flux(f))
    yield hits == {"dx^dz", "dy^dz"}, lambda: {"span": sorted(hits)}


def _flux_span(fl):
    """The directions off dx^dy that the flux class ``fl`` reaches."""
    return {name for idx, name in (((0, 2), "dx^dz"), ((1, 2), "dy^dz"))
            if not fl[idx].is_zero()}


def run_shifts(trials, rng):
    """Constant-shift invariance of the Hamiltonian pullback cocycles."""
    t2 = standard_symplectic(1)
    cyc = CoordinateCycle.circle(2, 0, offsets={1: 1})
    for i in range(trials):
        alpha = _rand_closed_oneform(rng, 2)
        f = _rand_poly(rng, 2, max_deg=2, n_modes=2)
        g = _rand_poly(rng, 2, max_deg=2, n_modes=2)
        c1, c2 = _rand_fraction(rng), _rand_fraction(rng)
        ok = roger_cocycle(alpha, f, g, t2) == roger_cocycle(alpha, f + c1, g + c2, t2)
        ok = ok and singular_cocycle(cyc, f, g, t2) == singular_cocycle(
            cyc, f + c1, g + c2, t2
        )
        yield ok, lambda: {"trial": i, "f": poly_repr(f), "g": poly_repr(g),
                           "shifts": (str(c1), str(c2))}


def _axis_poly(rng, dim, axis, zero_mean=True):
    """A constant (unless zero_mean) plus each of cos(j x_axis) and sin(j x_axis),
    j = 1..3, with probability 0.6; cos(x_axis) if that leaves zero."""
    modes = {} if zero_mean else {(0,) * dim: (2 * _rand_twelfths(rng), 0)}
    for j in range(1, 4):
        a = _rand_twelfths(rng) if rng.random() < 0.6 else 0
        b = _rand_twelfths(rng) if rng.random() < 0.6 else 0
        add_wave(modes, [j if c == axis else 0 for c in range(dim)], a, b)
    f = TrigPoly(dim, modes, 24)
    if zero_mean and f.is_zero():
        f = TrigPoly.cos_axis(dim, axis)
    return f


def run_duality(trials, rng):
    """Cycle and form cocycles agree on bracket-commuting inputs paired
    through the computed duals, for functions and for fields."""
    t2 = standard_symplectic(1)
    for i in range(trials):
        axis = rng.randrange(2)
        cycle = CoordinateCycle.circle(2, axis, {1 - axis: rng.randrange(4)})
        alpha = poincare_dual_form(cycle)
        f = _axis_poly(rng, 2, axis, zero_mean=False)
        g = _axis_poly(rng, 2, axis, zero_mean=False)
        ok = poisson_bracket(f, g, t2).is_zero()
        ok = ok and singular_cocycle(cycle, f, g, t2) == roger_cocycle(alpha, f, g, t2)
        yield ok, lambda: {"trial": i, "axis": axis, "f": poly_repr(f), "g": poly_repr(g)}
    for i in range(trials):
        axis = rng.randrange(3)
        others = [a for a in range(3) if a != axis]
        cycle = CoordinateCycle.circle(3, axis, {a: rng.randrange(4) for a in others})
        eta = poincare_dual_form(cycle)
        x = TorusVectorField(3, _component_fields(rng, axis, others))
        y = TorusVectorField(3, _component_fields(rng, axis, others))
        ok = vf_bracket(x, y).is_zero()
        ok = ok and lichnerowicz_singular(cycle, x, y) == lichnerowicz_eta(eta, x, y)
        yield ok, lambda: {"trial": i, "axis": axis, "x": field_repr(x), "y": field_repr(y)}


def _component_fields(rng, axis, others):
    comps = [TrigPoly.zero(3)] * 3
    for c in others:
        comps[c] = _axis_poly(rng, 3, axis)
    return comps


_RUNNERS = {
    "calculus": run_calculus,
    "cocycles": run_cocycles,
    "jacobi": run_jacobi,
    "pullback": run_pullback,
    "flux": run_flux,
    "shifts": run_shifts,
    "duality": run_duality,
}


def run_suites(names, trials, seed):
    """Run the requested suites in order, each drawing from its own
    (seed, name) stream, and return one report entry per suite: its
    number of checks as "trials", how many passed and failed, and the
    witness of each failure."""
    if names == "all" or "all" in names:
        names = list(SUITE_NAMES)
    unknown = [n for n in names if n not in _RUNNERS]
    if unknown:
        raise ValueError(f"unknown suite {unknown[0]!r}; choose from {SUITE_NAMES} or 'all'")
    results = []
    for name in names:
        failures, count = [], 0
        for count, (ok, witness) in enumerate(_RUNNERS[name](trials, suite_rng(seed, name)), 1):
            if not ok:
                failures.append(witness())    # before the suite draws its next input
        results.append({"name": name, "trials": count, "passed": count - len(failures),
                        "failed": len(failures), "failures": failures})
    return results
