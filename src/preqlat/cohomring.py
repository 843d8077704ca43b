"""Integral cohomology of finite free cochain complexes, with cup
products, torsion and the fundamental-class pairing.

The engine turns a complex of integer matrices into, per degree: the free
rank, the invariant factors, representative cocycles, and an exact
reduction map sending any cocycle to its (free, torsion) coordinates.
Presets cover the complexes the lattice computations need: nilmanifold
presentations, tori, and compact orientable surfaces (whose ring is
installed directly, since a genus >= 2 surface is not a nilmanifold).

Each degree is stored once, in integers: its representatives as lists of
(index tuple, int) terms and its reduction map as sparse columns, one
list of (class, int) pairs per basis position, free classes first and
torsion classes after.  The representatives are built with the degree;
the reduction columns only when something first reduces into the
degree, which a ``cohomology`` job does in the top degree alone.  Class
arithmetic works on supports, never on dense cochain vectors.  A support
is a list of (basis position, coefficient) pairs over the nonzero
coefficients of a cochain, with ``int`` coefficients when the cochain is
integral and ``Fraction`` ones otherwise.  Each degree keeps the sparse
columns of d_k from when it is built, and derives on first use the
position of every basis tuple; closedness and reduction then touch only
the columns in the support, and a cup product wedges the
representatives' terms directly.

The Smith form takes sparse columns: d_k as ``complex_matrices`` builds
it, and each degree's second-stage matrix (the coboundaries in kernel
coordinates).  No transform is formed: with SNF(d_k) = U D V of rank r,
the coboundary coordinates are rows r.. of V b, the column log run
forward over the sparse columns b of d_{k-1}; a representative is
V^{-1} [0; u] for a column u of the second form's U, and a reduction row
[0 | row] V for a row of its U^{-1}, each log replayed from just those
vectors.  The replay holds the reduction rows by position, which is
their sparse columns as they come back; what stays dense is the
representative columns the Hermite form takes (it reduces them as
sparse columns).
"""

from __future__ import annotations

from functools import cached_property
from math import comb
from operator import mul

from . import Value, intlinalg as lin
from .cealg import (
    Cochain,
    LieAlgebraPresentation,
    abelian,
    complex_matrices,
    render_terms,
    validate_presentation,
)
from .combinat import degree_tuples, merge_tuples


class CohomClass(Value):
    """Coordinates of a cohomology class: free part and torsion part, as
    tuples; immutable.

    Torsion coordinates are reduced into [0, d_i) for the invariant
    factors d_i of the degree.
    """

    __slots__ = ("degree", "free", "torsion")


class DegreeData:
    """One degree of the cohomology, held once in integers: one
    representative per class, the free classes first and the torsion
    classes after, and the reduction map as sparse columns, one list of
    (class, int) pairs per basis position.  The reduction columns and the
    position of each basis tuple (``pos``) are built on first use, so a
    degree that no class lands in builds neither;
    ``free_reps`` and ``torsion_reps`` build ``Cochain``s afresh on each
    read.  A group with neither classes nor a differential (a surface
    above degree 2) never lists its basis: every cochain there is closed
    and reduces to the empty class."""

    def __init__(self, degree, dim, betti, torsion, reps, make_reduce_cols, d_cols=None):
        self.degree = degree
        self.dim = dim                  # number of degree-one generators
        self.betti = betti
        self.torsion = torsion          # list of invariant factors > 1
        self.reps = reps                # [(index tuple, int)] per class
        self.make_reduce_cols = make_reduce_cols  # builds reduce_cols, once, on first read
        self.d_cols = d_cols            # [(row, entry)] per column of d_k; None: no differential

    @cached_property
    def reduce_cols(self):
        """[(class, int)] per basis position: the reduction map."""
        return self.make_reduce_cols()

    @property
    def basis(self):
        """Increasing index tuples of the cochain space, listed afresh."""
        return degree_tuples(self.dim, self.degree)

    @cached_property
    def pos(self):
        """Position of each basis tuple."""
        return {t: i for i, t in enumerate(self.basis)}

    @property
    def free_reps(self):
        """Representatives of the free classes, as Cochains."""
        return [Cochain(self.dim, self.degree, dict(t)) for t in self.reps[:self.betti]]

    @property
    def torsion_reps(self):
        """Representatives of the torsion classes, as Cochains."""
        return [Cochain(self.dim, self.degree, dict(t)) for t in self.reps[self.betti:]]

    def support(self, c: Cochain):
        """The (basis position, coefficient) pairs of a cochain of this
        degree; empty for a group with neither classes nor a differential,
        which reads none of them."""
        if self.d_cols is None and not self.betti and not self.torsion:
            return []
        return [(self.pos[idx], x) for idx, x in c.coeffs.items()]

    def is_closed(self, support) -> bool:
        return self.d_cols is None or _kills(self.d_cols, support)

    def reduce(self, support) -> CohomClass:
        """Class of the closed cochain with this support (see
        ``GradedCohomology.reduce``)."""
        integral = all(x.denominator == 1 for _, x in support)
        if integral:
            support = [(j, x.numerator) for j, x in support]
        if not self.is_closed(support):
            raise ValueError("not a cocycle")
        coords = [0] * len(self.reps)
        for j, x in support:
            for i, r in self.reduce_cols[j]:
                coords[i] += r * x
        free, tors = tuple(coords[:self.betti]), coords[self.betti:]
        if not integral:
            return CohomClass(self.degree, free, (0,) * len(tors))
        return CohomClass(self.degree, free, tuple(x % d for x, d in zip(tors, self.torsion)))

    def terms(self, cls: CohomClass) -> dict:
        """{index tuple: coefficient} of the representative of a class."""
        if len(cls.free) != self.betti or len(cls.torsion) != len(self.torsion):
            raise ValueError("class coordinates do not match the degree data")
        out = {}
        for coef, terms in zip((*cls.free, *cls.torsion), self.reps):
            if coef:
                for idx, x in terms:
                    out[idx] = out.get(idx, 0) + coef * x
        return out


def _kills(cols, support):
    """Whether the sparse columns ``cols`` send the support to zero."""
    image = {}
    for j, x in support:
        for i, d in cols[j]:
            image[i] = image.get(i, 0) + d * x
    return not any(image.values())


class GradedCohomology:
    """Per-degree cohomology data of a cochain complex on dim generators."""

    def __init__(self, dim, conames, degrees):
        self.dim = dim
        self.conames = tuple(conames)
        self.degrees = degrees

    def data(self, k) -> DegreeData:
        if not 0 <= k < len(self.degrees):
            raise ValueError(f"no degree {k} in this complex")
        return self.degrees[k]

    def betti(self, k):
        return self.data(k).betti if 0 <= k < len(self.degrees) else 0

    def torsion(self, k):
        return list(self.data(k).torsion) if 0 <= k < len(self.degrees) else []

    def reduce(self, c: Cochain) -> CohomClass:
        """Coordinates of the class of a closed cochain.

        Works on the cochain's support: d_k is applied only to the columns
        it touches, and each coordinate is a dot product over the same
        columns of the reduction map.  Integer cochains get integer free
        coordinates and torsion coordinates mod the invariant factors;
        rational cochains (real classes) get rational free coordinates
        with torsion dropped.
        """
        dd = self.data(c.degree)
        return dd.reduce(dd.support(c))

    def representative(self, cls: CohomClass) -> Cochain:
        return Cochain(self.dim, cls.degree, self.data(cls.degree).terms(cls))


def integral_cohomology(matrices, dim, conames) -> GradedCohomology:
    """Cohomology of the complex 0 -> Z^{N_0} -> ... -> Z^{N_m} -> 0.

    ``matrices[k]`` is d_k in the lexicographic increasing-tuple bases,
    as the sparse columns ``complex_matrices`` returns.  Raises
    ``ValueError('not a complex')`` unless d_{k+1} d_k = 0.
    """
    m = dim
    bases = [degree_tuples(m, k) for k in range(m + 1)]
    # d_{k+1} d_k = 0, one sparse column of d_k at a time
    for k in range(len(matrices) - 1):
        for col in matrices[k]:
            if col and not _kills(matrices[k + 1], col):
                raise ValueError("not a complex")
    degrees = []
    for k, basis in enumerate(bases):
        prev_cols = [c for c in matrices[k - 1] if c] if k >= 1 else []
        d_cols = matrices[k] if k < len(matrices) else None
        degrees.append(_degree_data(k, basis, prev_cols, d_cols, dim))
    return GradedCohomology(dim, conames, degrees)


def _degree_data(k, basis, prev_cols, d_cols, dim):
    n_k = len(basis)
    if d_cols is None:          # no differential: every cochain is a cocycle
        ker = lin.SmithDecomposition([], (0, n_k), 0, [], [])
    else:
        ker = lin.smith_normal_form(d_cols, comb(dim, k + 1))
    r = ker.rank
    s = n_k - r

    # coboundary image in kernel coordinates, rows r.. of V b for the
    # columns b of d_{k-1}: b is a cocycle (the complex was checked), so
    # rows ..r are 0, and rows r.. are integral, as V is unimodular
    image = lin.unpack(ker.forward(lin.pack(prev_cols, n_k), r), len(prev_cols))
    x_cols = [[(t, x) for t, x in enumerate(col) if x] for col in image]

    if prev_cols:
        snf = lin.smith_normal_form(x_cols, s)
    else:
        # the s x 0 matrix is its own Smith form, with identity transforms
        snf = lin.SmithDecomposition([], (s, 0), 0, [], [])
    diag = snf.diagonal + [0] * (s - len(snf.diagonal))
    free_idx = [i for i in range(s) if diag[i] == 0]
    tors_idx = [i for i in range(s) if diag[i] > 1]
    betti = len(free_idx)
    units = lin.pack([[(i, 1)] for i in free_idx + tors_idx], s)
    w = betti + len(tors_idx)

    # a representative is V^{-1} [0; u] for the column u of the second
    # form's U that gives its class
    cols = lin.unpack(ker.replay("vinv", [None] * r + snf.replay("u", units)), w)
    free_cols = cols[:betti]
    hnf_cols = lin.column_style_hermite(free_cols, n_k)
    signs = [-1 if next(x for x in col if x) < 0 else 1 for col in cols[betti:]]
    cols = hnf_cols + [[sign * x for x in col] for sign, col in zip(signs, cols[betti:])]

    def reduce_cols():
        # the rows of the second form's U^{-1} that read the classes, by
        # position, changed to the Hermite basis (the columns of the change
        # are the old basis in it; none when the free columns already are
        # that basis, as on a torus) and sign-fixed, each then [0 | row] V,
        # which comes back by position: the sparse columns
        t_inv = None
        if hnf_cols != free_cols:
            t_inv = list(zip(*lin.echelon_coords(hnf_cols, free_cols)))
        held = snf.replay("uinv", units)
        for t, p in enumerate(held):
            if p is not None:
                free = p[:betti] if t_inv is None else [sum(map(mul, row, p)) for row in t_inv]
                held[t] = free + [sign * x for sign, x in zip(signs, p[betti:])]
        return [[] if p is None else [(i, x) for i, x in enumerate(p) if x]
                for p in ker.replay("v", [None] * r + held)]

    return DegreeData(
        degree=k,
        dim=dim,
        betti=betti,
        torsion=[diag[i] for i in tors_idx],
        reps=[[(basis[j], x) for j, x in enumerate(col) if x] for col in cols],
        make_reduce_cols=reduce_cols,
        d_cols=d_cols,
    )


class CohomologyRing(GradedCohomology):
    """Graded cohomology with cup products and an orientation.

    ``cup`` wedges chosen representatives and reduces; for table-driven
    presets (surfaces) the custom reduction encodes the ring structure.
    """

    def __init__(self, groups: GradedCohomology, top_degree, lie=None):
        super().__init__(groups.dim, groups.conames, groups.degrees)
        self.top_degree = top_degree
        self.lie = lie
        self._orient()

    def _orient(self):
        if self.data(self.top_degree).betti != 1:
            raise ValueError("top cohomology is not of rank one; no orientation")
        dim = self.dim
        if dim != self.top_degree:
            # formal presets: keep the installed generator
            return
        # the Hermite basis makes the top representative +1 * the top monomial
        if self.reduce(Cochain.basis(dim, tuple(range(dim)))).free[0] != 1:
            raise ValueError("top monomial does not generate the orientation line")

    # -- class-level operations -------------------------------------------

    def unit(self) -> CohomClass:
        return CohomClass(0, (1,), ())

    def cup(self, u: CohomClass, v: CohomClass) -> CohomClass:
        degree = u.degree + v.degree
        if degree > self.dim:
            return CohomClass(degree, (), ())
        a = self.data(u.degree).terms(u)
        b = self.data(v.degree).terms(v)
        target = self.data(degree)
        if not target.betti and not target.torsion:
            # the wedge of two cocycles is closed, so it lands in a zero group
            return CohomClass(degree, (), ())
        image = {}
        for ia, ca in a.items():
            for ib, cb in b.items():
                merged = merge_tuples(ia, ib)
                if merged is not None:
                    j = target.pos[merged[0]]
                    image[j] = image.get(j, 0) + merged[1] * ca * cb
        return target.reduce(list(image.items()))

    def fundamental_pairing(self, t):
        """Coefficient of a top-degree class against the orientation generator."""
        if t.degree != self.top_degree:
            raise ValueError("pairing needs a top-degree class")
        return t.free[0]

    def report_fragment(self, k) -> dict:
        dd = self.data(k)
        return {
            "degree": k,
            "betti": dd.betti,
            "torsion": list(dd.torsion),
            "generators": [render_terms(t, self.conames) for t in dd.reps],
        }


# -- presets ---------------------------------------------------------------

def nilmanifold_ring(lie: LieAlgebraPresentation) -> CohomologyRing:
    """Ring of the cochain complex of an integral nilpotent presentation.

    The output is the cohomology of the presentation's Chevalley-Eilenberg
    cochain complex over the integers.  By Nomizu (1954) it agrees with the
    cohomology of the associated compact nilmanifold rationally (free
    ranks and the real ring); the torsion is that of the complex, which
    in general need not be the nilmanifold's.
    """
    report = validate_presentation(lie)
    if not report.jacobi_ok:
        raise ValueError(f"Jacobi identity fails on basis triple {report.jacobi_witness}")
    if not report.nilpotent:
        raise ValueError("presentation is not nilpotent")
    mats = complex_matrices(lie)
    conames = tuple(f"{n}*" for n in lie.basis_names)
    groups = integral_cohomology(mats, lie.dim, conames)
    return CohomologyRing(groups, top_degree=lie.dim, lie=lie)


def torus_ring(m) -> CohomologyRing:
    if m < 1:
        raise ValueError("torus dimension must be >= 1")
    lie = abelian(m, names=tuple(f"dx{i+1}" for i in range(m)))
    mats = complex_matrices(lie)
    groups = integral_cohomology(mats, m, lie.basis_names)
    return CohomologyRing(groups, top_degree=m, lie=lie)


def surface_ring(genus) -> CohomologyRing:
    """Cohomology ring of the closed orientable surface of a given genus.

    Installed directly on a formal exterior model with 2*genus degree-one
    generators a_i, b_i: H^0 = Z, H^1 = Z^{2g} with the symplectic cup
    pairing cup(a_i, b_j) = delta_ij * orientation, H^2 = Z, and nothing
    above degree two.  The genus-zero sphere keeps two formal generators
    u, v whose product represents the orientation while H^1 = 0.
    """
    if genus < 0:
        raise ValueError("genus must be >= 0")
    g = genus
    if g == 0:
        names, dim, pairs = ("u", "v"), 2, [(0, 1)]
    else:
        names = tuple(f"a{i+1}" for i in range(g)) + tuple(f"b{i+1}" for i in range(g))
        dim, pairs = 2 * g, [(i, g + i) for i in range(g)]
    b1 = 2 * g
    paired = set(pairs)
    degrees = [
        DegreeData(0, dim, 1, [], [[((), 1)]], lambda: [[(0, 1)]]),
        DegreeData(1, dim, b1, [], [[((i,), 1)] for i in range(b1)],
                   lambda: [[(j, 1)] if j < b1 else [] for j in range(dim)]),
        # the symplectic contraction: only the coefficients on the paired
        # tuples (a_i, b_i) survive, and they all agree in H^2
        DegreeData(2, dim, 1, [], [[(pairs[0], 1)]],
                   lambda: [[(0, 1)] if t in paired else [] for t in degree_tuples(dim, 2)]),
    ]
    degrees += [DegreeData(k, dim, 0, [], [], list) for k in range(3, dim + 1)]
    groups = GradedCohomology(dim, names, degrees)
    return CohomologyRing(groups, top_degree=2)

