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


class Value:
    """An immutable value whose fields are its ``__slots__``, in order.

    Values of one type are equal when their fields are, a value hashes
    as the tuple of its fields, and ``a - b`` is ``a + (-b)``.  A
    subclass whose constructor checks or normalizes its arguments sets
    its slots itself, with ``object.__setattr__``; any other takes its
    fields positionally.
    """

    __slots__ = ()

    def __init__(self, *fields):
        if len(fields) != len(self.__slots__):
            raise TypeError(f"{type(self).__name__} takes {len(self.__slots__)} fields, "
                            f"not {len(fields)}")
        for name, value in zip(self.__slots__, fields):
            object.__setattr__(self, name, value)

    def __setattr__(self, *args):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        for name in self.__slots__:
            if getattr(self, name) != getattr(other, name):
                return False
        return True

    def __hash__(self):
        return hash(tuple(map(self.__getattribute__, self.__slots__)))

    def __sub__(self, other):
        return self + (-other)

    def __repr__(self):
        fields = map(self.__getattribute__, self.__slots__)
        return f"{type(self).__name__}({', '.join(map(repr, fields))})"
