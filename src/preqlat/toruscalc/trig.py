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
``_slice_sums`` is the one loop that turns modes, each by the power of i
of its phase k.q mod 4 at a quarter point q; ``slice_mean``,
``slice_pairing`` and ``eval_quarter`` read through it.  ``add_wave``
builds every wave: ``cosine``, ``sine`` and the verify inputs.
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
    def cosine(dim, wavevec):
        """cos(k.x); the constructor checks the length of k, also at k = 0"""
        return TrigPoly(dim, add_wave({}, wavevec, 1, 0), 2)

    @staticmethod
    def sine(dim, wavevec):
        """sin(k.x)"""
        return TrigPoly(dim, add_wave({}, wavevec, 0, 1), 2)

    @staticmethod
    def cos_axis(dim, axis):
        return TrigPoly.cosine(dim, (0,) * axis + (1,) + (0,) * (dim - axis - 1))

    @staticmethod
    def sin_axis(dim, axis):
        return TrigPoly.sine(dim, (0,) * axis + (1,) + (0,) * (dim - axis - 1))

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
        re, im = self._slice_sums(axes, quarters).get((0,) * len(axes), (0, 0))
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
        mine, theirs = self._slice_sums(axes, quarters), other._slice_sums(axes, quarters)
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

    def _slice_sums(self, axes, quarters):
        """Numerators summed per slice key (k_j for j in ``axes``), each mode
        turned by i**(k.q), q being 0 on ``axes`` and quarters.get(a, 0) off
        them.  With every coordinate in ``axes`` each mode is its own slice,
        keyed by k itself."""
        q = [0 if a in axes else quarters.get(a, 0) for a in range(self.dim)]
        if not all(isinstance(x, int) for x in q):
            raise ValueError("quarter turns must be integers")
        if all(a in axes for a in range(self.dim)):
            return self.modes
        sums = {}
        for k, (a, b) in self.modes.items():
            c, s = _I_POWERS[sum(map(mul, k, q)) % 4]
            key = tuple(k[j] for j in axes)
            prev = sums.get(key)
            re, im = c * a - s * b, c * b + s * a
            sums[key] = (re, im) if prev is None else (prev[0] + re, prev[1] + im)
        return sums

    def eval_quarter(self, quarters):
        """Exact value at the point (q_1*pi/2, ..., q_m*pi/2)."""
        if len(quarters) != self.dim:
            raise ValueError("point has wrong dimension")
        return self.slice_mean((), dict(enumerate(quarters)))


def add_wave(modes, k, a, b):
    """Add a - b*i to the numerator of mode k and a + b*i to that of mode
    -k (2a to mode 0 at k = 0), and return ``modes``.  Over the
    denominator 2d this adds (a cos(k.x) + b sin(k.x))/d."""
    k = tuple(k)
    if not all(isinstance(x, int) for x in k):
        raise ValueError(f"wave vector {k} must have integer entries")
    for key, im in ((k, -b), (tuple(-x for x in k), b)):
        re0, im0 = modes.get(key, (0, 0))
        modes[key] = (re0 + a, im0 + im)
    return modes


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
