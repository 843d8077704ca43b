"""preqlat: exact computation of integrable 2-cocycle lattices.

Integral cohomology of nilpotent presentations with cup products and
torsion, Gysin kernels of Euler classes, and an exact trigonometric
calculus on tori that verifies the degree-two cocycle identities behind
the lattice construction.
"""

__version__ = "0.1.0"

# the seeded identity suites of ``preqlat.verify``, in run order; defined
# here so that the command-line parser can list them without importing
# the torus calculus
SUITE_NAMES = ("calculus", "cocycles", "jacobi", "pullback", "flux", "shifts", "duality")
