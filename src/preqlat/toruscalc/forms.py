"""Differential forms, vector fields and coordinate cycles on the torus.

Coefficients are trigonometric polynomials; a whole form additionally
carries an integer power of (2*pi), so normalized objects like the unit
volume form dx_1^...^dx_m/(2*pi)^m stay exact.  Addition requires equal
powers; products add them.  Integrals land in ExactScalar; an integral
of f * form or of i_Y form is read off mode pairs, never formed.

X(f), [X, Y], d, i_X and the wedge build each output coefficient with one
``product_sum`` over its terms, so no partial result is a polynomial.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from operator import lt

from .. import Value
from ..combinat import merge_tuples, remove_index, sort_sign
from ..exact import ExactScalar
from .trig import TrigPoly, product_sum


class TorusForm(Value):
    __slots__ = ("dim", "degree", "coeffs", "pi_power")

    def __init__(self, dim, degree, coeffs=None, pi_power=0):
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "degree", degree)
        clean = {}
        for idx, poly in (coeffs or {}).items():
            idx = tuple(idx)
            if len(idx) != degree:
                raise ValueError(f"index tuple {idx} has wrong length for degree {degree}")
            if not all(map(lt, idx, idx[1:])):
                raise ValueError(f"index tuple {idx} must be strictly increasing")
            if idx and (idx[0] < 0 or idx[-1] >= dim):
                raise ValueError(f"index {idx} out of range")
            if not isinstance(poly, TrigPoly):
                poly = TrigPoly.const(dim, poly)
            if poly.modes:
                clean[idx] = poly
        object.__setattr__(self, "coeffs", clean)
        object.__setattr__(self, "pi_power", pi_power if clean else 0)

    @staticmethod
    def zero(dim, degree):
        return TorusForm(dim, degree, {})

    @staticmethod
    def basis(dim, idx, poly=1, pi_power=0):
        idx = tuple(idx)
        return TorusForm(dim, len(idx), {idx: poly}, pi_power)

    @staticmethod
    def function(dim, poly):
        return TorusForm(dim, 0, {(): poly})

    def is_zero(self):
        return not self.coeffs

    def __hash__(self):
        return hash((self.dim, self.degree, self.pi_power, frozenset(self.coeffs.items())))

    def coefficient(self, idx) -> TrigPoly:
        poly = self.coeffs.get(tuple(idx))
        return TrigPoly.zero(self.dim) if poly is None else poly

    def as_function(self) -> TrigPoly:
        """The coefficient of a degree-zero form (pi_power must be 0)."""
        if self.degree != 0:
            raise ValueError("not a degree-zero form")
        if self.pi_power != 0:
            raise ValueError("degree-zero form carries a (2*pi) power")
        return self.coefficient(())

    def __add__(self, other):
        if not isinstance(other, TorusForm):
            return NotImplemented
        if self.dim != other.dim or self.degree != other.degree:
            raise ValueError("forms live in different spaces")
        if self.is_zero():
            return other
        if other.is_zero():
            return self
        if self.pi_power != other.pi_power:
            raise ValueError(
                f"cannot add forms with (2*pi) powers {self.pi_power} and {other.pi_power}"
            )
        coeffs = dict(self.coeffs)
        for idx, p in other.coeffs.items():
            q = coeffs.get(idx)
            coeffs[idx] = p if q is None else q + p
        return TorusForm(self.dim, self.degree, coeffs, self.pi_power)

    def __neg__(self):
        return TorusForm(
            self.dim, self.degree, {i: -p for i, p in self.coeffs.items()}, self.pi_power
        )

    def __mul__(self, other):
        """Scale by a rational, an ExactScalar, or a function."""
        if isinstance(other, ExactScalar):
            return TorusForm(
                self.dim,
                self.degree,
                {i: p * other.q for i, p in self.coeffs.items()},
                self.pi_power + other.pi_power,
            )
        if isinstance(other, (int, Fraction, TrigPoly)):
            return TorusForm(
                self.dim, self.degree,
                {i: p * other for i, p in self.coeffs.items()}, self.pi_power,
            )
        return NotImplemented

    __rmul__ = __mul__

    def scale_pi(self, d):
        """Multiply by (2*pi)**d."""
        return TorusForm(self.dim, self.degree, self.coeffs, self.pi_power + d)


class TorusVectorField(Value):
    __slots__ = ("dim", "components", "pi_power")

    def __init__(self, dim, components, pi_power=0):
        comps = []
        for c in components:
            if not isinstance(c, TrigPoly):
                c = TrigPoly.const(dim, c)
            comps.append(c)
        if len(comps) != dim:
            raise ValueError("need one component per coordinate")
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "components", tuple(comps))
        if all(c.is_zero() for c in comps):
            pi_power = 0
        object.__setattr__(self, "pi_power", pi_power)

    def is_zero(self):
        return all(c.is_zero() for c in self.components)

    def apply(self, f: TrigPoly) -> TrigPoly:
        """Directional derivative X(f); requires a (2*pi)-free field."""
        if self.pi_power != 0:
            raise ValueError("field carries a (2*pi) power; scale it away first")
        return product_sum(self.dim, ((c, f, axis, 1) for axis, c in enumerate(self.components)))


@lru_cache(maxsize=64)
def vf_bracket(x: TorusVectorField, y: TorusVectorField) -> TorusVectorField:
    """Lie bracket [X, Y]^k = X(Y^k) - Y(X^k); built once per recent pair
    and shared."""
    if x.dim != y.dim:
        raise ValueError("fields live on different tori")
    dim = x.dim
    comps = [
        product_sum(dim, [(x.components[j], y.components[k], j, 1) for j in range(dim)]
                    + [(y.components[j], x.components[k], j, -1) for j in range(dim)])
        for k in range(dim)
    ]
    return TorusVectorField(dim, comps, x.pi_power + y.pi_power)


def exterior_derivative(f: TorusForm) -> TorusForm:
    """d f: the coefficient at each index is a product_sum of signed
    derivatives of f's coefficients (times the constant 1)."""
    one = TrigPoly.const(f.dim, 1)
    terms = {}
    for idx, poly in f.coeffs.items():
        for axis in range(f.dim):
            if axis not in idx:
                new_idx, sign = merge_tuples((axis,), idx)
                terms.setdefault(new_idx, []).append((one, poly, axis, sign))
    return _form_of_terms(f.dim, f.degree + 1, terms, f.pi_power)


@lru_cache(maxsize=64)
def is_closed(f: TorusForm) -> bool:
    """d f = 0, checked once per recent form."""
    return exterior_derivative(f).is_zero()


def wedge(f: TorusForm, g: TorusForm) -> TorusForm:
    if f.dim != g.dim:
        raise ValueError("forms live on different tori")
    degree = f.degree + g.degree
    terms = {}
    for ia, pa in f.coeffs.items():
        for ib, pb in g.coeffs.items():
            merged = merge_tuples(ia, ib)
            if merged is not None:
                idx, sign = merged
                terms.setdefault(idx, []).append((pa, pb, None, sign))
    return _form_of_terms(f.dim, degree, terms, f.pi_power + g.pi_power)


def contract(x: TorusVectorField, f: TorusForm) -> TorusForm:
    """Interior product i_X f."""
    if x.dim != f.dim:
        raise ValueError("field and form live on different tori")
    if f.degree == 0:
        return TorusForm.zero(f.dim, 0)
    terms = {}
    for idx, poly in f.coeffs.items():
        for axis in idx:
            comp = x.components[axis]
            if not comp.is_zero():
                rest, sign = remove_index(axis, idx)
                terms.setdefault(rest, []).append((comp, poly, None, sign))
    return _form_of_terms(f.dim, f.degree - 1, terms, f.pi_power + x.pi_power)


def _form_of_terms(dim, degree, terms, pi_power):
    """The form whose coefficient at each index is the product_sum of the
    terms gathered there."""
    return TorusForm(
        dim, degree, {idx: product_sum(dim, ts) for idx, ts in terms.items()}, pi_power
    )


def lie_derivative(x: TorusVectorField, f: TorusForm) -> TorusForm:
    """Cartan formula L_X = i_X d + d i_X."""
    first = contract(x, exterior_derivative(f))
    if f.degree == 0:
        return first
    return first + exterior_derivative(contract(x, f))


class CoordinateCycle(Value):
    """An oriented coordinate subtorus; immutable.

    ``axes`` lists the coordinates of the cycle in integration order,
    which orients it: an odd permutation of the axes reverses it.
    Remaining coordinates are frozen at ``offsets[axis] * pi/2`` (quarter
    turns keep restriction exact, so an offset must be an ``int``).
    """

    __slots__ = ("dim", "axes", "offsets")

    def __init__(self, dim, axes, offsets=None):
        axes = tuple(axes)
        if len(set(axes)) != len(axes):
            raise ValueError("cycle axes must be distinct")
        if any(not 0 <= a < dim for a in axes):
            raise ValueError("cycle axis out of range")
        offs = {}
        for a, q in (offsets or {}).items():
            if a in axes:
                raise ValueError(f"axis {a} is integrated over; it cannot carry an offset")
            if not 0 <= a < dim:
                raise ValueError("offset axis out of range")
            if not isinstance(q, int):
                raise ValueError("quarter turns must be integers")
            offs[a] = q % 4
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "axes", axes)
        object.__setattr__(self, "offsets", offs)

    @staticmethod
    def full(dim):
        return CoordinateCycle(dim, tuple(range(dim)))

    @staticmethod
    def circle(dim, axis, offsets=None):
        return CoordinateCycle(dim, (axis,), offsets)


def integrate_over_cycle(f: TorusForm, cycle: CoordinateCycle) -> ExactScalar:
    """Exact integral of a real form over a coordinate cycle.

    The form restricts by evaluating frozen coordinates at the quarter
    offsets; only the constant mode along the cycle axes survives, scaled
    by (2*pi) per integrated axis.
    """
    axes = _cycle_slot(f.dim, f.degree, cycle)
    poly = f.coeffs.get(axes)
    if poly is None:
        return ExactScalar.zero()
    return _cycle_value(poly.slice_mean(axes, cycle.offsets), f.pi_power, cycle)


def integrate_product(f: TrigPoly, form: TorusForm, cycle: CoordinateCycle) -> ExactScalar:
    """integrate_over_cycle(f * form, cycle), read off the mode pairs of f
    and the form's coefficient along the cycle; the product is never
    formed."""
    axes = _cycle_slot(form.dim, form.degree, cycle)
    poly = form.coeffs.get(axes)
    if poly is None:
        return ExactScalar.zero()
    return _cycle_value(f.slice_pairing(poly, axes, cycle.offsets), form.pi_power, cycle)


def integrate_contraction(y: TorusVectorField, form: TorusForm,
                          cycle: CoordinateCycle) -> ExactScalar:
    """integrate_over_cycle(contract(y, form), cycle), read off mode pairs.

    The coefficient of i_Y form along the cycle is the sum over the axes
    a off the cycle of sign * Y^a * form[cycle + a], the sign being that
    of moving a to its sorted place; each term is a pairing.  As in
    ``contract``, a 0-form contracts to the zero 0-form.
    """
    if y.dim != form.dim:
        raise ValueError("field and form live on different tori")
    axes = _cycle_slot(form.dim, max(form.degree - 1, 0), cycle)
    re = im = 0
    for a, comp in enumerate(y.components):
        if a in axes or comp.is_zero():
            continue
        idx, sign = merge_tuples((a,), axes)
        poly = form.coeffs.get(idx)
        if poly is not None:
            term_re, term_im = comp.slice_pairing(poly, axes, cycle.offsets)
            re += sign * term_re
            im += sign * term_im
    return _cycle_value((re, im), form.pi_power + y.pi_power, cycle)


def _cycle_slot(dim, degree, cycle):
    """The sorted cycle axes: the index of the one coefficient of a form of
    this dimension and degree that the cycle integrates."""
    if dim != cycle.dim:
        raise ValueError("form and cycle live on different tori")
    if degree != len(cycle.axes):
        raise ValueError("degree mismatch between form and cycle")
    return tuple(sorted(cycle.axes))


def _cycle_value(mean, pi_power, cycle):
    """The integral from the slice mean (re, im) of the cycle's
    coefficient: the sign of the axis order, and one (2*pi) per
    integrated axis."""
    re, im = mean
    if im:
        raise ValueError("integral of a non-real form")
    sign = sort_sign(cycle.axes)
    return ExactScalar(sign * re, pi_power + len(cycle.axes))


def poincare_dual_form(cycle: CoordinateCycle) -> TorusForm:
    """The constant form eta with  integral_C gamma = integral eta ^ gamma
    for every closed gamma.

    The sign and the (2*pi) normalization are computed by evaluating both
    sides on the coordinate form along the cycle.
    """
    m = cycle.dim
    axes_sorted = tuple(sorted(cycle.axes))
    complement = tuple(a for a in range(m) if a not in axes_sorted)
    probe = TorusForm.basis(m, axes_sorted)
    lhs = integrate_over_cycle(probe, cycle)
    candidate = TorusForm.basis(m, complement)
    rhs = integrate_over_cycle(wedge(candidate, probe), CoordinateCycle.full(m))
    scale = lhs / rhs
    return candidate * scale
