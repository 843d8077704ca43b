"""Exact scalars of the form q * (2*pi)**d with q rational.

Every integral computed by the torus calculus and every lattice prefactor
is of this shape, so identities can be asserted as exact equalities
instead of float comparisons.  The zero scalar is canonically (0, 0).
"""

from __future__ import annotations

from fractions import Fraction

from . import Value


class ExactScalar(Value):
    """An exact value ``q * (2*pi)**pi_power``; immutable."""

    __slots__ = ("q", "pi_power")

    def __init__(self, q, pi_power=0):
        q = Fraction(q)
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "pi_power", pi_power if q else 0)

    @staticmethod
    def zero() -> "ExactScalar":
        return ExactScalar(Fraction(0), 0)

    def is_zero(self) -> bool:
        return self.q == 0

    def __add__(self, other: "ExactScalar") -> "ExactScalar":
        if not isinstance(other, ExactScalar):
            return NotImplemented
        if self.q == 0:
            return other
        if other.q == 0:
            return self
        if self.pi_power != other.pi_power:
            raise ValueError(
                f"cannot add scalars with (2*pi) powers {self.pi_power} and {other.pi_power}"
            )
        return ExactScalar(self.q + other.q, self.pi_power)

    def __neg__(self) -> "ExactScalar":
        return ExactScalar(-self.q, self.pi_power)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return ExactScalar(self.q * other, self.pi_power)
        return NotImplemented

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, ExactScalar):
            if other.q == 0:
                raise ZeroDivisionError("division by zero ExactScalar")
            return ExactScalar(self.q / other.q, self.pi_power - other.pi_power)
        return NotImplemented

    def __str__(self) -> str:
        if self.pi_power == 0:      # as the zero scalar's is
            return str(self.q)
        if self.pi_power == 1:
            return f"{self.q}*(2*pi)"
        if self.pi_power == -1:
            return f"{self.q}/(2*pi)"
        return f"{self.q}*(2*pi)**{self.pi_power}"

    def to_json(self) -> dict:
        """Serialize with arbitrary-precision num/den as decimal strings."""
        return {
            "num": str(self.q.numerator),
            "den": str(self.q.denominator),
            "pi_power": self.pi_power,
        }

    @staticmethod
    def from_json(obj: dict) -> "ExactScalar":
        return ExactScalar(
            Fraction(int(obj["num"]), int(obj["den"])), int(obj["pi_power"])
        )
