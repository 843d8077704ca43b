"""Trigonometric polynomials on the m-torus with exact coefficients.

A polynomial is a finitely supported map from integer wave vectors to
Gaussian-rational coefficients of exp(i k.x); coordinates have period
2*pi.  Real polynomials satisfy coeff(-k) == conj(coeff(k)).  Products
are convolutions, derivatives multiply modes by i*k_j, and the mean is
the constant mode, so all calculus downstream of this class is exact.
"""

from __future__ import annotations

from fractions import Fraction

from .complexq import CQ_ZERO, ComplexRational


class TrigPoly:
    __slots__ = ("dim", "modes")

    def __init__(self, dim, modes=None):
        object.__setattr__(self, "dim", dim)
        clean = {}
        for k, c in (modes or {}).items():
            k = tuple(int(x) for x in k)
            if len(k) != dim:
                raise ValueError(f"wave vector {k} has wrong length for dim {dim}")
            if not isinstance(c, ComplexRational):
                c = ComplexRational(c)
            if c:
                clean[k] = c
        object.__setattr__(self, "modes", clean)

    def __setattr__(self, *args):
        raise AttributeError("TrigPoly is immutable")

    # -- constructors -------------------------------------------------------

    @staticmethod
    def zero(dim):
        return TrigPoly(dim, {})

    @staticmethod
    def const(dim, value):
        return TrigPoly(dim, {(0,) * dim: ComplexRational(value)})

    @staticmethod
    def cosine(dim, wavevec, amplitude=1):
        """amplitude * cos(k.x)"""
        k = tuple(wavevec)
        half = Fraction(amplitude) / 2
        neg = tuple(-x for x in k)
        modes = {k: ComplexRational(half)}
        modes[neg] = modes.get(neg, CQ_ZERO) + ComplexRational(half)
        return TrigPoly(dim, modes)

    @staticmethod
    def sine(dim, wavevec, amplitude=1):
        """amplitude * sin(k.x)"""
        k = tuple(wavevec)
        half = Fraction(amplitude) / 2
        neg = tuple(-x for x in k)
        modes = {k: ComplexRational(0, -half)}
        modes[neg] = modes.get(neg, CQ_ZERO) + ComplexRational(0, half)
        return TrigPoly(dim, modes)

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

    def is_real(self):
        return all(
            self.modes.get(tuple(-x for x in k), CQ_ZERO) == c.conj()
            for k, c in self.modes.items()
        )

    def max_degree(self):
        """Largest |k_j| over the support."""
        return max((abs(x) for k in self.modes for x in k), default=0)

    def __eq__(self, other):
        if not isinstance(other, TrigPoly):
            return NotImplemented
        return self.dim == other.dim and self.modes == other.modes

    def __hash__(self):
        return hash((self.dim, frozenset(self.modes.items())))

    def __repr__(self):
        return f"TrigPoly(dim={self.dim}, modes={len(self.modes)})"

    # -- arithmetic -------------------------------------------------------------

    def _check(self, other):
        if self.dim != other.dim:
            raise ValueError("polynomials live on different tori")

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = TrigPoly.const(self.dim, other)
        self._check(other)
        modes = dict(self.modes)
        for k, c in other.modes.items():
            modes[k] = modes.get(k, CQ_ZERO) + c
        return TrigPoly(self.dim, modes)

    __radd__ = __add__

    def __neg__(self):
        return TrigPoly(self.dim, {k: -c for k, c in self.modes.items()})

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            other = TrigPoly.const(self.dim, other)
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, ComplexRational)):
            return TrigPoly(self.dim, {k: c * other for k, c in self.modes.items()})
        if not isinstance(other, TrigPoly):
            return NotImplemented
        self._check(other)
        modes = {}
        for k1, c1 in self.modes.items():
            for k2, c2 in other.modes.items():
                k = tuple(a + b for a, b in zip(k1, k2))
                prev = modes.get(k)
                modes[k] = c1 * c2 if prev is None else prev + c1 * c2
        return TrigPoly(self.dim, modes)

    __rmul__ = __mul__

    def diff(self, axis):
        """Partial derivative along a coordinate."""
        return TrigPoly(
            self.dim,
            {
                k: c.times_i_power(1) * k[axis]
                for k, c in self.modes.items()
                if k[axis]
            },
        )

    def mean(self) -> ComplexRational:
        """The constant Fourier mode (the average over the torus)."""
        return self.modes.get((0,) * self.dim, CQ_ZERO)

    # -- evaluation ---------------------------------------------------------------

    def eval_quarter(self, quarters) -> ComplexRational:
        """Exact value at the point (q_1*pi/2, ..., q_m*pi/2)."""
        if len(quarters) != self.dim:
            raise ValueError("point has wrong dimension")
        if not all(isinstance(q, int) for q in quarters):
            raise ValueError("quarter turns must be integers")
        total = CQ_ZERO
        for k, c in self.modes.items():
            power = sum(a * q for a, q in zip(k, quarters))
            total = total + c.times_i_power(power)
        return total
