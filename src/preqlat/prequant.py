"""Euler-class candidates, Gysin kernels and the lattice of integrable
cocycle classes of a prequantizable preset.

The circle bundle over a symplectic preset is pinned down by its Euler
class: the symplectic class in the free part of H^2 plus an arbitrary
torsion part.  Fiber integration of the bundle's integral degree-two
classes is, via the long exact sequence, the kernel of cupping with the
Euler class; scaled by (n+1)/(2*pi*vol) at level k it gives the lattice
of degree-one directions whose cocycles integrate.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product as iproduct
from math import factorial

from . import intlinalg as lin
from .cealg import Cochain
from .cohomring import CohomClass, CohomologyRing
from .exact import ExactScalar


def _integral(coords, what):
    """The coordinates as ints; ValueError names the first that is not."""
    for i, x in enumerate(coords):
        if x.denominator != 1:
            raise ValueError(f"{what} is not integral: free coordinate {i} is {x}")
    return tuple(int(x) for x in coords)


@dataclass(frozen=True)
class SymplecticClass:
    """Free H^2 coordinates, as ints, of an integral symplectic class on a
    2n-dimensional preset."""

    free: tuple
    n: int


@dataclass(frozen=True)
class EulerClass:
    """H^2 coordinates of a bundle's Euler class: the symplectic free
    part, as ints, plus a choice of torsion part."""

    free: tuple
    torsion: tuple

    def as_class(self) -> CohomClass:
        return CohomClass(2, self.free, self.torsion)


@dataclass(frozen=True)
class IntegrableLattice:
    """Lattice of integrable degree-one directions at a given level.

    ``generators`` are integer vectors in H^1 coordinates (a basis in
    column Hermite normal form); the lattice consists of the prefactor
    times their span.  The prefactor is exact, with the 1/(2*pi) kept
    symbolic; ``volume`` is the Liouville volume it was computed from.
    """

    generators: tuple
    prefactor: ExactScalar
    level: int
    euler: EulerClass
    n: int
    volume: Fraction

    @property
    def rank(self):
        return len(self.generators)


def symplectic_from_cochain(ring: CohomologyRing, omega: Cochain) -> SymplecticClass:
    """Reduce an explicit degree-two cocycle to its integral symplectic class."""
    cls = ring.reduce(omega)
    if any(cls.torsion):
        raise ValueError("symplectic cochain reduces with a torsion component")
    if ring.top_degree % 2:
        raise ValueError("preset has odd top degree")
    return SymplecticClass(_integral(cls.free, "symplectic class"), ring.top_degree // 2)


def liouville_volume(ring: CohomologyRing, omega: SymplecticClass) -> Fraction:
    """<omega^n, [M]> / n!; must be positive for the preset orientation."""
    if 2 * omega.n != ring.top_degree:
        raise ValueError("half-dimension does not match the preset")
    cls = CohomClass(2, omega.free, (0,) * len(ring.torsion(2)))
    acc = ring.unit()
    for _ in range(omega.n):
        acc = ring.cup(acc, cls)
    vol = Fraction(ring.fundamental_pairing(acc), factorial(omega.n))
    if vol <= 0:
        raise ValueError("not a positive symplectic class for this orientation")
    return vol


def euler_candidates(ring: CohomologyRing, omega: SymplecticClass):
    """One Euler class per torsion tuple of H^2 over the symplectic class."""
    factors = ring.torsion(2)
    return [
        EulerClass(tuple(omega.free), tors)
        for tors in iproduct(*[range(d) for d in factors])
    ]


def gysin_kernel(ring: CohomologyRing, e: EulerClass):
    """Integer basis of {a in H^1(Z) : e cup a = 0 in H^3(Z)}.

    The cup lands in free coordinates and torsion coordinates; a class is
    in the kernel iff the free coordinates vanish and each torsion
    coordinate vanishes modulo its invariant factor.  The basis comes
    back in column Hermite normal form.  A non-integral class raises.
    """
    _integral(e.free, "Euler class")
    b1 = ring.betti(1)
    if b1 == 0:
        return []
    e_cls = e.as_class()
    images = []
    for i in range(b1):
        alpha = CohomClass(1, tuple(1 if j == i else 0 for j in range(b1)), ())
        images.append(ring.cup(e_cls, alpha))
    b3 = len(images[0].free)
    mods = ring.torsion(3)
    t = len(mods)
    rows = []
    for j in range(b3):
        rows.append([images[i].free[j] for i in range(b1)] + [0] * t)
    for j in range(t):
        row = [images[i].torsion[j] for i in range(b1)]
        row += [mods[j] if jj == j else 0 for jj in range(t)]
        rows.append(row)
    ker = lin.kernel_basis(rows, ncols=b1 + t)
    projected = [v[:b1] for v in ker]
    return lin.column_style_hermite(projected, b1)


def integrable_lattice(ring: CohomologyRing, e: EulerClass, level: int = 1) -> IntegrableLattice:
    """Lattice of integrable degree-one classes at the given level.

    The generators span the Gysin kernel; the prefactor is
    level * (n+1) / (2*pi*vol).
    """
    if level < 1:
        raise ValueError("level must be a positive integer")
    n = ring.top_degree // 2
    vol = liouville_volume(ring, SymplecticClass(e.free, n))
    prefactor = ExactScalar(Fraction(level * (n + 1), 1) / vol, -1)
    gens = tuple(tuple(v) for v in gysin_kernel(ring, e))
    return IntegrableLattice(gens, prefactor, level, e, n, vol)


def generator_display(ring: CohomologyRing, coords) -> str:
    """Render an H^1 coordinate vector through the degree-one
    representatives, e.g. ``3*x*``."""
    cls = CohomClass(1, tuple(coords), (0,) * len(ring.torsion(1)))
    return ring.representative(cls).render(ring.cohomology.conames, star="")


def lattice_report(lattice: IntegrableLattice, ring: CohomologyRing) -> dict:
    """Serializable summary: rank, generators, exact prefactor, and the
    kernel for every Euler candidate over the same symplectic class (the
    lattice's own candidate reuses its generators)."""
    basis_names = [
        rep.render(ring.cohomology.conames, star="")
        for rep in ring.cohomology.data(1).free_reps
    ]
    candidates = []
    for cand in euler_candidates(ring, SymplecticClass(lattice.euler.free, lattice.n)):
        kernel = lattice.generators if cand == lattice.euler else gysin_kernel(ring, cand)
        candidates.append(
            {
                "torsion": list(cand.torsion),
                "kernel": [[int(x) for x in v] for v in kernel],
            }
        )
    return {
        "rank": lattice.rank,
        "level": lattice.level,
        "prefactor": lattice.prefactor.to_json(),
        "basis": basis_names,
        "generators": [
            {
                "coords": [str(x) for x in gen],
                "names": basis_names,
                "display": generator_display(ring, gen),
            }
            for gen in lattice.generators
        ],
        "euler_candidates": candidates,
    }
