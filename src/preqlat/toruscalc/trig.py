"""Trigonometric polynomials on the m-torus with exact coefficients.

A polynomial is a finitely supported map from integer wave vectors to
Gaussian-rational coefficients of exp(i k.x); coordinates have period
2*pi.  Real polynomials satisfy coeff(-k) == conj(coeff(k)).  Products
are convolutions, derivatives multiply modes by i*k_j, and the mean is
the constant mode, so all calculus downstream of this class is exact.

Storage: ``modes`` maps each wave vector k to a pair of ints (a, b) and
``den`` is one positive int, so the coefficient of mode k is
(a + b*i)/den.  Zero pairs are dropped and den is divided by the gcd of
itself and every numerator, so equal polynomials have equal fields (the
zero polynomial has den 1).  Exact values leave this module as (re, im)
pairs of Fractions; no other module reads the numerators or den.

``product_sum`` is the one convolution loop: it sums sign * p * d_axis(q)
over its terms into one polynomial; ``p * q`` is its one-term case.
``eval_quarter`` reads a value at a quarter point in one pass over the
modes, each turned by the power of i of its phase k.q mod 4.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from operator import add, mul

from .. import Value

# i**p as (re, im), for p mod 4
_I_POWERS = ((1, 0), (0, 1), (-1, 0), (0, -1))


class TrigPoly(Value):
    __slots__ = ("dim", "modes", "den")

    def __init__(self, dim, modes=None, den=1):
        if den <= 0:
            raise ValueError("denominator must be positive")
        clean = {}
        g = den
        for k, pair in (modes or {}).items():
            if len(k) != dim:
                raise ValueError(f"wave vector {k} has wrong length for dim {dim}")
            a, b = pair
            if a or b:
                clean[k] = (a, b)
                if g != 1:
                    g = gcd(g, a, b)
        if g != 1:
            clean = {k: (a // g, b // g) for k, (a, b) in clean.items()}
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "modes", clean)
        object.__setattr__(self, "den", den // g)

    # -- constructors -------------------------------------------------------

    @staticmethod
    def zero(dim):
        return TrigPoly(dim, {})

    @staticmethod
    def const(dim, value):
        value = Fraction(value)
        return TrigPoly(dim, {(0,) * dim: (value.numerator, 0)}, value.denominator)

    @staticmethod
    def cosine(dim, wavevec, amplitude=1):
        """amplitude * cos(k.x)"""
        k = tuple(int(x) for x in wavevec)
        if not any(k):
            return TrigPoly.const(dim, amplitude)
        amp = Fraction(amplitude)
        neg = tuple(-x for x in k)
        pair = (amp.numerator, 0)
        return TrigPoly(dim, {k: pair, neg: pair}, 2 * amp.denominator)

    @staticmethod
    def sine(dim, wavevec, amplitude=1):
        """amplitude * sin(k.x)"""
        k = tuple(int(x) for x in wavevec)
        if not any(k):
            return TrigPoly.zero(dim)
        amp = Fraction(amplitude)
        neg = tuple(-x for x in k)
        return TrigPoly(dim, {k: (0, -amp.numerator), neg: (0, amp.numerator)},
                        2 * amp.denominator)

    @staticmethod
    def cos_axis(dim, axis, freq=1, amplitude=1):
        k = [0] * dim
        k[axis] = freq
        return TrigPoly.cosine(dim, k, amplitude)

    @staticmethod
    def sin_axis(dim, axis, freq=1, amplitude=1):
        k = [0] * dim
        k[axis] = freq
        return TrigPoly.sine(dim, k, amplitude)

    # -- predicates -----------------------------------------------------------

    def is_zero(self):
        return not self.modes

    def is_constant(self):
        return all(not any(k) for k in self.modes)

    def __hash__(self):
        return hash((self.dim, self.den, frozenset(self.modes.items())))

    # -- arithmetic -------------------------------------------------------------

    def _check(self, other):
        if self.dim != other.dim:
            raise ValueError("polynomials live on different tori")

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = TrigPoly.const(self.dim, other)
        self._check(other)
        den = lcm(self.den, other.den)
        s, t = den // self.den, den // other.den
        modes = {k: (a * s, b * s) for k, (a, b) in self.modes.items()}
        for k, (a, b) in other.modes.items():
            prev = modes.get(k)
            if prev is None:
                modes[k] = (a * t, b * t)
            else:
                modes[k] = (prev[0] + a * t, prev[1] + b * t)
        return TrigPoly(self.dim, modes, den)

    __radd__ = __add__

    def __neg__(self):
        return TrigPoly(self.dim, {k: (-a, -b) for k, (a, b) in self.modes.items()}, self.den)

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            other = TrigPoly.const(self.dim, other)
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            p, q = other.numerator, other.denominator
            return TrigPoly(
                self.dim, {k: (a * p, b * p) for k, (a, b) in self.modes.items()}, self.den * q
            )
        if not isinstance(other, TrigPoly):
            return NotImplemented
        return product_sum(self.dim, ((self, other, None, 1),))

    __rmul__ = __mul__

    def diff(self, axis):
        """Partial derivative along a coordinate: mode k times i*k_axis."""
        return TrigPoly(
            self.dim,
            {k: (-b * k[axis], a * k[axis]) for k, (a, b) in self.modes.items() if k[axis]},
            self.den,
        )

    # -- exact values (re, im) ------------------------------------------------------

    def coefficient(self, k):
        """The coefficient of exp(i k.x)."""
        a, b = self.modes.get(k, (0, 0))
        return Fraction(a, self.den), Fraction(b, self.den)

    def mean(self):
        """The constant Fourier mode (the average over the torus)."""
        return self.coefficient((0,) * self.dim)

    def slice_mean(self, axes, quarters):
        """Mean over the coordinates in ``axes`` with every other
        coordinate a frozen at quarters.get(a, 0) * pi/2.

        Only modes constant along ``axes`` survive, and exp(i k_a q pi/2)
        is a power of i, so the value stays exact.
        """
        frozen = self._frozen(axes, quarters)
        re = im = 0
        for k, (a, b) in self.modes.items():
            if any(k[j] for j in axes):
                continue
            c, s = _I_POWERS[sum(k[j] * q for j, q in frozen) % 4]
            re += c * a - s * b
            im += c * b + s * a
        return Fraction(re, self.den), Fraction(im, self.den)

    def slice_pairing(self, other, axes, quarters):
        """slice_mean(axes, quarters) of self * other, read off mode pairs
        without forming the product.

        A mode k of self and a mode l of other meet in the slice when
        k + l vanishes along ``axes``, and their phases at the frozen
        point multiply.  So each factor first sums its modes per slice key
        (k_j for j in axes), each turned by its power of i, and only
        opposite keys pair up; on the full torus that is
        sum_k self_k * other_{-k}.
        """
        self._check(other)
        frozen = self._frozen(axes, quarters)
        mine, theirs = self._slice_sums(axes, frozen), other._slice_sums(axes, frozen)
        if len(mine) > len(theirs):
            mine, theirs = theirs, mine
        re = im = 0
        for key, (a1, b1) in mine.items():
            pair = theirs.get(tuple(-x for x in key))
            if pair is not None:
                a2, b2 = pair
                re += a1 * a2 - b1 * b2
                im += a1 * b2 + b1 * a2
        den = self.den * other.den
        return Fraction(re, den), Fraction(im, den)

    def _frozen(self, axes, quarters):
        """(axis, quarter turns) for every coordinate outside ``axes``."""
        frozen = [(a, quarters.get(a, 0)) for a in range(self.dim) if a not in axes]
        if not all(isinstance(q, int) for _, q in frozen):
            raise ValueError("quarter turns must be integers")
        return frozen

    def _slice_sums(self, axes, frozen):
        """Numerators summed per slice key, each mode turned by its power of
        i at the frozen quarter turns.  With nothing frozen every mode is
        its own slice, keyed by k itself."""
        if not frozen:
            return self.modes
        sums = {}
        for k, (a, b) in self.modes.items():
            c, s = _I_POWERS[sum(k[j] * q for j, q in frozen) % 4]
            key = tuple(k[j] for j in axes)
            prev = sums.get(key)
            re, im = c * a - s * b, c * b + s * a
            sums[key] = (re, im) if prev is None else (prev[0] + re, prev[1] + im)
        return sums

    def eval_quarter(self, quarters):
        """Exact value at the point (q_1*pi/2, ..., q_m*pi/2)."""
        if len(quarters) != self.dim:
            raise ValueError("point has wrong dimension")
        if not all(isinstance(q, int) for q in quarters):
            raise ValueError("quarter turns must be integers")
        re = im = 0
        for k, (a, b) in self.modes.items():
            c, s = _I_POWERS[sum(map(mul, k, quarters)) % 4]
            re += c * a - s * b
            im += c * b + s * a
        return Fraction(re, self.den), Fraction(im, self.den)


def product_sum(dim, terms) -> TrigPoly:
    """sum of sign * p * d_axis(q) over the (p, q, axis, sign) terms, built
    as one TrigPoly; axis None means the plain product p * q.

    Every mode pair of every term lands in one dict of numerators over the
    lcm of the terms' denominators: d_axis turns the numerator (a, b) of
    mode k into (-b * k_axis, a * k_axis) and drops the modes with
    k_axis = 0.  This is the calculus' only convolution loop.
    """
    terms = tuple(terms)
    for p, q, _, _ in terms:
        if p.dim != dim or q.dim != dim:
            raise ValueError("polynomials live on different tori")
    den = lcm(*(p.den * q.den for p, q, _, _ in terms))
    modes = {}
    for p, q, axis, sign in terms:
        if not p.modes:
            continue
        if axis is None:
            right = list(q.modes.items())
        else:
            right = [(k, (-b * k[axis], a * k[axis])) for k, (a, b) in q.modes.items() if k[axis]]
        if not right:
            continue
        s = sign * (den // (p.den * q.den))
        for k1, (a1, b1) in p.modes.items():
            a1, b1 = a1 * s, b1 * s
            for k2, (a2, b2) in right:
                k = tuple(map(add, k1, k2))
                re = a1 * a2 - b1 * b2
                im = a1 * b2 + b1 * a2
                prev = modes.get(k)
                modes[k] = (re, im) if prev is None else (prev[0] + re, prev[1] + im)
    return TrigPoly(dim, modes, den)
