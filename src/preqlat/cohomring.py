"""Integral cohomology of finite free cochain complexes, with cup
products, torsion and the fundamental-class pairing.

The engine turns a complex of integer matrices into, per degree: the free
rank, the invariant factors, representative cocycles, and an exact
reduction map sending any cocycle to its (free, torsion) coordinates.
Presets cover the complexes the lattice computations need: nilmanifold
presentations, tori, and compact orientable surfaces (whose ring is
installed directly, since a genus >= 2 surface is not a nilmanifold).

Each degree is stored once, in integers: its representatives as lists of
(index tuple, int) terms and its reduction map as integer rows, free
classes first and torsion classes after.  The representatives are built
with the degree, from just the columns of the Smith transform they need;
the reduction rows only when something first reduces into the degree,
which a ``cohomology`` job does in the top degree alone.  Class
arithmetic works on supports, never on dense cochain vectors.  A support
is a list of (basis position, coefficient) pairs over the nonzero
coefficients of a cochain, with ``int`` coefficients when the cochain is
integral and ``Fraction`` ones otherwise.  Each degree keeps the sparse
columns of d_k from when it is built, and derives on first use the
position of every basis tuple and the sparse columns of the reduction
map; closedness and reduction then touch only the columns in the
support, and a cup product wedges the representatives' terms directly.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass
from functools import cached_property
from math import comb

from . import intlinalg as lin
from .cealg import (
    Cochain,
    LieAlgebraPresentation,
    abelian,
    complex_matrices,
    heisenberg_times_line,
    render_terms,
    validate_presentation,
)
from .combinat import degree_tuples, merge_tuples


@dataclass(frozen=True)
class CohomClass:
    """Coordinates of a cohomology class: free part and torsion part.

    Torsion coordinates are reduced into [0, d_i) for the invariant
    factors d_i of the degree.
    """

    degree: int
    free: tuple
    torsion: tuple

    def is_zero(self):
        return all(x == 0 for x in self.free) and all(x == 0 for x in self.torsion)


@dataclass
class DegreeData:
    """One degree of the cohomology, held once in integers: one
    representative and one reduction row per class, the free classes
    first and the torsion classes after.  The reduction rows, and the
    views that class arithmetic reads (``pos``, ``reduce_cols``), are
    built on first use, so a degree that no class lands in builds none;
    ``free_reps`` and ``torsion_reps`` build ``Cochain``s afresh on each
    read.  A group with neither classes nor a differential (a surface
    above degree 2) never lists its basis: every cochain there is closed
    and reduces to the empty class."""

    degree: int
    dim: int                         # number of degree-one generators
    betti: int
    torsion: list                    # invariant factors > 1
    reps: list                       # [(index tuple, int)] per class
    make_reduce_rows: Callable[[], list]  # builds reduce_rows, once, on first read
    d_cols: list | None = None       # [(row, entry)] per column of d_k; None: no differential

    @cached_property
    def reduce_rows(self):
        """One int row of length N per class."""
        return self.make_reduce_rows()

    @property
    def basis(self):
        """Increasing index tuples of the cochain space, listed afresh."""
        return degree_tuples(self.dim, self.degree)

    @cached_property
    def pos(self):
        """Position of each basis tuple."""
        return {t: i for i, t in enumerate(self.basis)}

    @cached_property
    def reduce_cols(self):
        """[(row, entry)] per basis position: the reduction rows as sparse
        columns."""
        cols = [[] for _ in range(comb(self.dim, self.degree))]
        for i, row in enumerate(self.reduce_rows):
            for j, x in enumerate(row):
                if x:
                    cols[j].append((i, x))
        return cols

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
        coords = [0] * len(self.reduce_rows)
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

    def is_closed(self, c: Cochain) -> bool:
        dd = self.data(c.degree)
        return dd.is_closed(dd.support(c))

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

    ``matrices[k]`` is d_k in the lexicographic increasing-tuple bases.
    Raises ``ValueError('not a complex')`` unless d_{k+1} d_k = 0.
    """
    m = dim
    bases = [degree_tuples(m, k) for k in range(m + 1)]
    # every d_k as sparse (row, entry) columns
    cols = [_sparse_columns(mat, len(bases[k])) for k, mat in enumerate(matrices)]
    # d_{k+1} d_k = 0, one sparse column of d_k at a time
    for k in range(len(cols) - 1):
        for col in cols[k]:
            if col and not _kills(cols[k + 1], col):
                raise ValueError("not a complex")
    degrees = []
    for k, basis in enumerate(bases):
        d_k = matrices[k] if k < len(matrices) else []
        prev_cols = [c for c in cols[k - 1] if c] if k >= 1 else []
        d_cols = cols[k] if k < len(cols) else None
        degrees.append(_degree_data(k, basis, d_k, prev_cols, d_cols, dim))
    return GradedCohomology(dim, conames, degrees)


def _sparse_columns(mat, ncols):
    cols = [[] for _ in range(ncols)]
    for i, row in enumerate(mat):
        for j, x in enumerate(row):
            if x:
                if x.denominator != 1:
                    raise ValueError("non-integral basis")
                cols[j].append((i, x.numerator))
    return cols


def _degree_data(k, basis, d_k, prev_cols, d_cols, dim):
    n_k = len(basis)
    kercols, coord_rows = lin.kernel_transform(d_k, ncols=n_k)
    s = len(kercols)
    if s == 0:
        return DegreeData(k, dim, 0, [], [], list, d_cols)

    # coboundary image in kernel coordinates, read off the sparse columns of
    # the coordinate rows: one pass over the entries in the rows of the
    # coboundary's support.  The columns lie in the kernel (the complex was
    # checked), and the coordinates are integral because the kernel lattice
    # is saturated.
    coord_cols = [[(t, x) for t, x in enumerate(col) if x] for col in zip(*coord_rows)]
    x_cols = []
    for col in prev_cols:
        acc = [0] * s
        for i, x in col:
            for t, v in coord_cols[i]:
                acc[t] += v * x
        x_cols.append(acc)

    if x_cols:
        snf = lin.smith_normal_form([[c[i] for c in x_cols] for i in range(s)])
    else:
        # the s x 0 matrix is its own Smith form, with identity transforms
        snf = lin.SmithDecomposition([[] for _ in range(s)], 0, [], [])
    diag = snf.diagonal + [0] * (s - len(snf.diagonal))
    free_idx = [i for i in range(s) if diag[i] == 0]
    tors_idx = [i for i in range(s) if diag[i] > 1]
    betti = len(free_idx)

    # a representative is the kernel basis times a column of U; only the
    # columns of the free and torsion classes are replayed
    ker_terms = [[(row, x) for row, x in enumerate(kj) if x] for kj in kercols]
    cols = []
    for ucol in snf.read("u", free_idx + tors_idx):
        col = [0] * n_k
        for c, terms in zip(ucol, ker_terms):
            if c:
                for row, x in terms:
                    col[row] += c * x
        cols.append(col)
    free_cols = cols[:betti]
    hnf_cols = lin.column_style_hermite(free_cols, n_k) if free_cols else []
    signs = [-1 if next(x for x in col if x) < 0 else 1 for col in cols[betti:]]
    cols = hnf_cols + [[sign * x for x in col] for sign, col in zip(signs, cols[betti:])]

    def reduce_rows():
        # the basis changes act on the rows of U^{-1}, which are only s
        # wide; one product with the coordinate rows then gives every row
        rows = snf.read("uinv", free_idx + tors_idx)
        if free_cols:
            # the coordinates of the old basis in the Hermite basis are the
            # columns of the change of basis that carries the rows over
            t_inv = list(zip(*lin.echelon_coords(hnf_cols, free_cols)))
            rows[:betti] = lin.mat_mul(t_inv, rows[:betti])
        rows[betti:] = [[sign * x for x in row] for sign, row in zip(signs, rows[betti:])]
        return lin.mat_mul(rows, coord_rows)

    return DegreeData(
        degree=k,
        dim=dim,
        betti=betti,
        torsion=[diag[i] for i in tors_idx],
        reps=[[(basis[j], x) for j, x in enumerate(col) if x] for col in cols],
        make_reduce_rows=reduce_rows,
        d_cols=d_cols,
    )


class CohomologyRing:
    """Graded cohomology with cup products and an orientation.

    ``cup`` wedges chosen representatives and reduces; for table-driven
    presets (surfaces) the custom reduction encodes the ring structure.
    """

    def __init__(self, cohomology: GradedCohomology, top_degree, lie=None):
        self.cohomology = cohomology
        self.top_degree = top_degree
        self.lie = lie
        self._orient()

    def _orient(self):
        top = self.cohomology.data(self.top_degree)
        if top.betti != 1:
            raise ValueError("top cohomology is not of rank one; no orientation")
        dim = self.cohomology.dim
        if dim != self.top_degree:
            # formal presets: keep the installed generator
            return
        # the Hermite basis makes the top representative +1 * the top monomial
        if self.reduce(Cochain.basis(dim, tuple(range(dim)))).free[0] != 1:
            raise ValueError("top monomial does not generate the orientation line")

    # -- class-level operations -------------------------------------------

    def betti(self, k):
        return self.cohomology.betti(k)

    def torsion(self, k):
        return self.cohomology.torsion(k)

    def reduce(self, c: Cochain) -> CohomClass:
        return self.cohomology.reduce(c)

    def representative(self, cls: CohomClass) -> Cochain:
        return self.cohomology.representative(cls)

    def zero_class(self, degree):
        if degree >= len(self.cohomology.degrees):
            return CohomClass(degree, (), ())
        dd = self.cohomology.data(degree)
        return CohomClass(degree, (0,) * dd.betti, (0,) * len(dd.torsion))

    def unit(self) -> CohomClass:
        return CohomClass(0, (1,), ())

    def orientation_class(self) -> CohomClass:
        dd = self.cohomology.data(self.top_degree)
        return CohomClass(self.top_degree, (1,), (0,) * len(dd.torsion))

    def cup(self, u: CohomClass, v: CohomClass) -> CohomClass:
        degree = u.degree + v.degree
        if degree > self.cohomology.dim or u.degree > self.cohomology.dim \
                or v.degree > self.cohomology.dim:
            return CohomClass(degree, (), ())
        groups = self.cohomology
        a = groups.data(u.degree).terms(u)
        b = groups.data(v.degree).terms(v)
        target = groups.data(degree)
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
        """Coefficient of a top-degree class (or cocycle) against the
        orientation generator."""
        if isinstance(t, Cochain):
            t = self.reduce(t)
        if t.degree != self.top_degree:
            raise ValueError("pairing needs a top-degree class")
        return t.free[0]

    def report_fragment(self, k) -> dict:
        dd = self.cohomology.data(k)
        return {
            "degree": k,
            "betti": dd.betti,
            "torsion": list(dd.torsion),
            "generators": [render_terms(t, self.cohomology.conames, star="") for t in dd.reps],
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
    degrees = [
        DegreeData(0, dim, 1, [], [[((), 1)]], lambda: [[1]]),
        DegreeData(1, dim, b1, [], [[((i,), 1)] for i in range(b1)],
                   lambda: [[int(i == j) for j in range(dim)] for i in range(b1)]),
        # the symplectic contraction: only the coefficients on the paired
        # tuples (a_i, b_i) survive, and they all agree in H^2
        DegreeData(2, dim, 1, [], [[(pairs[0], 1)]],
                   lambda: [[int(t in pairs) for t in degree_tuples(dim, 2)]]),
    ]
    degrees += [DegreeData(k, dim, 0, [], [], list) for k in range(3, dim + 1)]
    groups = GradedCohomology(dim, names, degrees)
    return CohomologyRing(groups, top_degree=2)


def ring_from_preset(preset_id, **params) -> CohomologyRing:
    """Presets: nilmanifold(presentation=...), thurston(r=...), torus(m=...),
    surface(g=...)."""
    if preset_id == "nilmanifold":
        return nilmanifold_ring(params["presentation"])
    if preset_id == "thurston":
        return nilmanifold_ring(heisenberg_times_line(params.get("r", 1)))
    if preset_id == "torus":
        return torus_ring(params["m"])
    if preset_id == "surface":
        return surface_ring(params["g"])
    raise ValueError(f"unknown preset {preset_id!r}")

