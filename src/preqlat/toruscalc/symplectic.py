"""Hamiltonian calculus on symplectic tori with constant coefficients.

The preset symplectic structure is the standard one, omega = sum
dx_{2i-1} ^ dx_{2i}, and the calculus takes any nondegenerate 2-form
with constant rational coefficients.  Hamiltonian fields are produced by
inverting the constant coefficient matrix, so every identity downstream
(bracket values, cocycle evaluations) is exact.  Each distinct form is
factored once: its Hamiltonian operator (the scaled inverse, as constant
polynomials) and its Liouville powers are built on first use and shared
by every later call with an equal form.  X_f takes one ``product_sum``
per component and {f, g} = omega(X_f, X_g) = X_f(g) one more; both are
kept in bounded caches keyed by their immutable arguments, so the
cocycle kinds of one trial, which bracket the same inputs, build each
field and bracket once.  The integral cocycles are integrals of
f * form, read off mode pairs unformed; the point cocycle is read off
the gradients at the point, with no field or bracket formed.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import factorial, lcm

from ..exact import ExactScalar
from ..intlinalg import rational_solver
from .forms import (
    CoordinateCycle,
    TorusForm,
    TorusVectorField,
    contract,
    exterior_derivative,
    integrate_product,
    is_closed,
    wedge,
)
from .trig import TrigPoly, product_sum


def standard_symplectic(n) -> TorusForm:
    """sum_i dx_{2i} ^ dx_{2i+1} on the 2n-torus (0-based pairs)."""
    dim = 2 * n
    return TorusForm(dim, 2, {(2 * i, 2 * i + 1): TrigPoly.const(dim, 1) for i in range(n)})


def _coefficient_matrix(omega: TorusForm):
    if omega.degree != 2:
        raise ValueError("symplectic form must have degree two")
    if omega.pi_power != 0:
        raise ValueError("symplectic preset must be (2*pi)-free")
    dim = omega.dim
    mat = [[Fraction(0)] * dim for _ in range(dim)]
    for (a, b), poly in omega.coeffs.items():
        if not poly.is_constant():
            raise ValueError("symplectic preset must have constant coefficients")
        re, im = poly.mean()
        if im:
            raise ValueError("symplectic coefficients must be real")
        mat[a][b] = re
        mat[b][a] = -re
    return mat


@lru_cache(maxsize=64)
def _hamiltonian_operator(omega: TorusForm):
    """Per row j of X_f, the (c, k) with X_f^j = sum c * df/dx_k: the
    nonzero entries of the inverse coefficient matrix as constant
    polynomials, one factorization per distinct form.  An invalid or
    degenerate form raises on every call, since exceptions are not
    cached."""
    mat = _coefficient_matrix(omega)
    dim = omega.dim
    # scale * mat is integral, and mat^{-1} = scale * (scale * mat)^{-1}
    scale = lcm(*(x.denominator for row in mat for x in row))
    cols = [[(i, int(scale * mat[i][j])) for i in range(dim) if mat[i][j]] for j in range(dim)]
    try:
        inv = rational_solver(cols, dim)
    except ValueError:
        raise ValueError("degenerate symplectic form") from None
    return tuple(tuple((TrigPoly.const(dim, scale * x), k) for k, x in enumerate(row) if x)
                 for row in inv)


@lru_cache(maxsize=64)
def hamiltonian_field(f: TrigPoly, omega: TorusForm) -> TorusVectorField:
    """The field X_f with i_{X_f} omega = -df, via the constant inverse;
    built once per recent (f, form) and shared."""
    dim, op = omega.dim, _hamiltonian_operator(omega)
    return TorusVectorField(dim, [product_sum(dim, ((c, f, k, 1) for c, k in row)) for row in op])


@lru_cache(maxsize=64)
def poisson_bracket(f: TrigPoly, g: TrigPoly, omega: TorusForm) -> TrigPoly:
    """{f, g} = omega(X_f, X_g) = dg(X_f) = X_f(g), since i_{X_g} omega = -dg;
    built once per recent (f, g, form) and shared."""
    return hamiltonian_field(f, omega).apply(g)


def ks_cocycle(f, g, omega, point):
    """{f, g} at the point (q_1*pi/2, ..., q_m*pi/2), as an exact Fraction.

    The entries q_i of ``point`` must be integers (quarter turns); the
    bracket of real inputs is real there.  Evaluation at the point is
    multiplicative, so {f, g} = sum_j X_f^j d_j g is read off the
    gradients of f and g there: X_f^j(x0) = sum c * d_k f(x0) over row j
    of the Hamiltonian operator.  No field or bracket is formed.
    """
    op, dim = _hamiltonian_operator(omega), omega.dim
    if f.dim != dim or g.dim != dim:
        raise ValueError("polynomials live on different tori")
    # every axis is evaluated, so the point is checked even for a constant f
    df = [f.diff(k).eval_quarter(point) for k in range(dim)]
    re = im = Fraction(0)
    for j, row in enumerate(op):
        # the operator's constants are real
        xr = xi = Fraction(0)
        for c, k in row:
            scale = c.mean()[0]
            xr += scale * df[k][0]
            xi += scale * df[k][1]
        if xr or xi:
            gr, gi = g.diff(j).eval_quarter(point)
            re += xr * gr - xi * gi
            im += xr * gi + xi * gr
    if im:
        raise ValueError("bracket of non-real inputs at this point")
    return re


@lru_cache(maxsize=64)
def liouville_power(omega: TorusForm, n) -> TorusForm:
    """omega^n / n! (the Liouville volume form at n = dim / 2), built
    once per (form, n) and shared: callers must not change it."""
    acc = TorusForm.function(omega.dim, TrigPoly.const(omega.dim, 1))
    for _ in range(n):
        acc = wedge(acc, omega)
    return acc * Fraction(1, factorial(n))


def roger_cocycle(alpha: TorusForm, f: TrigPoly, g: TrigPoly, omega: TorusForm) -> ExactScalar:
    """integral of  f * alpha(X_g) * omega^n/n!  for a closed 1-form."""
    if alpha.degree != 1:
        raise ValueError("need a 1-form")
    if not is_closed(alpha):
        raise ValueError("1-form is not closed")
    dim = omega.dim
    n = dim // 2
    xg = hamiltonian_field(g, omega)
    # alpha(X_g) is degree 0 and carries alpha's (2*pi) power
    form = wedge(contract(xg, alpha), liouville_power(omega, n))
    return integrate_product(f, form, CoordinateCycle.full(dim))


def singular_cocycle(cycle: CoordinateCycle, f: TrigPoly, g: TrigPoly,
                     omega: TorusForm) -> ExactScalar:
    """integral over the cycle of  g df ^ omega^{n-1}/(n-1)!."""
    dim = omega.dim
    n = dim // 2
    if len(cycle.axes) != 2 * n - 1:
        raise ValueError("cycle dimension must be 2n-1")
    df = exterior_derivative(TorusForm.function(dim, f))
    return integrate_product(g, wedge(df, liouville_power(omega, n - 1)), cycle)
