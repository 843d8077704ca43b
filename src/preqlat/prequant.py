"""Euler-class candidates, Gysin kernels and the lattice of integrable
cocycle classes of a prequantizable preset.

The circle bundle over a symplectic preset is pinned down by its Euler
class: the symplectic class in the free part of H^2 plus an arbitrary
torsion part.  Fiber integration of the bundle's integral degree-two
classes is, via the long exact sequence, the kernel of cupping with the
Euler class; scaled by (n+1)/(2*pi*vol) at level k it gives the lattice
of degree-one directions whose cocycles integrate.

Symplectic and Euler classes are degree-two ``CohomClass``es: the
symplectic class has int free coordinates and a zero torsion part, and
each Euler candidate shares its free part and takes one torsion tuple.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product as iproduct
from math import factorial

from . import Value, intlinalg as lin
from .cealg import Cochain
from .cohomring import CohomClass, CohomologyRing
from .exact import ExactScalar


def _integral(coords, what):
    """The coordinates as ints; ValueError names the first that is not."""
    for i, x in enumerate(coords):
        if x.denominator != 1:
            raise ValueError(f"{what} is not integral: free coordinate {i} is {x}")
    return tuple(int(x) for x in coords)


class IntegrableLattice(Value):
    """Lattice of integrable degree-one directions at a given level.

    ``generators`` are integer vectors in H^1 coordinates (a basis in
    column Hermite normal form); the lattice consists of the prefactor
    times their span.  The prefactor is an exact ``ExactScalar``, with
    the 1/(2*pi) kept symbolic; ``volume`` is the Liouville volume (a
    ``Fraction``) it was computed from; ``euler`` is the Euler class, a
    degree-two ``CohomClass``.
    """

    __slots__ = ("generators", "prefactor", "level", "euler", "volume")

    @property
    def rank(self):
        return len(self.generators)


def symplectic_from_cochain(ring: CohomologyRing, omega: Cochain) -> CohomClass:
    """Reduce an explicit degree-two cocycle to its integral symplectic
    class: a torsion-free ``CohomClass`` with int coordinates."""
    cls = ring.reduce(omega)
    if any(cls.torsion):
        raise ValueError("symplectic cochain reduces with a torsion component")
    if ring.top_degree % 2:
        raise ValueError("preset has odd top degree")
    return CohomClass(2, _integral(cls.free, "symplectic class"), cls.torsion)


def liouville_volume(ring: CohomologyRing, omega: CohomClass) -> Fraction:
    """<omega^n, [M]> / n! for the free part of a degree-two class, with
    2n the preset's top degree; must be positive for the preset
    orientation."""
    n = ring.top_degree // 2
    cls = CohomClass(2, omega.free, (0,) * len(ring.torsion(2)))
    acc = ring.unit()
    for _ in range(n):
        acc = ring.cup(acc, cls)
    vol = Fraction(ring.fundamental_pairing(acc), factorial(n))
    if vol <= 0:
        raise ValueError("not a positive symplectic class for this orientation")
    return vol


def euler_candidates(ring: CohomologyRing, omega: CohomClass):
    """One Euler class per torsion tuple of H^2 over the free part of the
    symplectic class."""
    factors = ring.torsion(2)
    return [
        CohomClass(2, omega.free, tors)
        for tors in iproduct(*[range(d) for d in factors])
    ]


def gysin_kernel(ring: CohomologyRing, e: CohomClass):
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
    images = []
    for i in range(b1):
        alpha = CohomClass(1, tuple(1 if j == i else 0 for j in range(b1)), ())
        images.append(ring.cup(e, alpha))
    b3 = len(images[0].free)
    mods = ring.torsion(3)
    # one sparse column per alpha_i (its free, then torsion coordinates),
    # then one per torsion modulus
    cols = [[(j, x) for j, x in enumerate(img.free + img.torsion) if x] for img in images]
    cols += [[(b3 + j, d)] for j, d in enumerate(mods)]
    ker = lin.kernel_basis(cols, b3 + len(mods))
    projected = [v[:b1] for v in ker]
    return lin.column_style_hermite(projected, b1)


def integrable_lattice(ring: CohomologyRing, e: CohomClass, level: int = 1) -> IntegrableLattice:
    """Lattice of integrable degree-one classes at the given level.

    The generators span the Gysin kernel; the prefactor is
    level * (n+1) / (2*pi*vol).
    """
    if level < 1:
        raise ValueError("level must be a positive integer")
    n = ring.top_degree // 2
    vol = liouville_volume(ring, e)
    prefactor = ExactScalar(Fraction(level * (n + 1), 1) / vol, -1)
    gens = tuple(tuple(v) for v in gysin_kernel(ring, e))
    return IntegrableLattice(gens, prefactor, level, e, vol)


def generator_display(ring: CohomologyRing, coords) -> str:
    """Render an H^1 coordinate vector through the degree-one
    representatives, e.g. ``3*x*``."""
    cls = CohomClass(1, tuple(coords), (0,) * len(ring.torsion(1)))
    return ring.representative(cls).render(ring.conames)


def lattice_report(lattice: IntegrableLattice, ring: CohomologyRing) -> dict:
    """Serializable summary: rank, generators, exact prefactor, and the
    kernel for every Euler candidate over the same symplectic class (the
    lattice's own candidate reuses its generators)."""
    basis_names = [
        rep.render(ring.conames)
        for rep in ring.data(1).free_reps
    ]
    candidates = []
    for cand in euler_candidates(ring, lattice.euler):
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
