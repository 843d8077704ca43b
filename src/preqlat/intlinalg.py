"""Exact linear algebra over the integers and rationals.

Integer matrices come in as sparse columns, (row, entry) pairs per
column in increasing row order, next to the row count.  The Smith normal
form holds them as sparse rows, ``{column: entry}`` dicts, mirrored by
sparse columns, ``{row: entry}`` dicts, so one add and one swap serve
rows and columns alike, and each operation costs the nonzero entries it
touches.  It logs its row and column operations, and a caller runs those
logs over the vectors it needs transformed, without forming a transform.
Pivots are chosen by minimal absolute value, first in row-major order,
to keep intermediate entries small.  The column Hermite normal form
works on sparse columns in the same way.  The d_4 of the dim-9 2-step
presentation ``two_step_presentation(random.Random(88), 9, 3, 2)`` of
``bench/jobs.py`` is 126 x 126 with 800 nonzero entries and rank 54:
eliminating it takes 0.010 s; running its column log forward over the 64
columns of d_3 (their kernel coordinates) takes 0.002 s, where reading
the 72 rows of V and columns of V^{-1} took 0.008 to 0.009 s, and all
four whole transforms take 0.045 s (medians of 9, two runs, Python 3.11,
2-core Xeon).
"""

from __future__ import annotations

from functools import cached_property
from fractions import Fraction
from itertools import compress


def identity(n):
    return [[int(i == j) for j in range(n)] for i in range(n)]


def mat_vec(a, v):
    return [sum(x * y for x, y in zip(row, v)) for row in a]


class SmithDecomposition:
    """A = U @ D @ V with U, V unimodular and D diagonal, d1 | d2 | ... >= 0.

    ``diagonal`` holds the min(n, m) diagonal entries of the n x m matrix
    D, which ``d`` lays out as a dense matrix when first read.  ``uinv``
    and ``vinv`` are the exact integer inverses of U and V.  The
    elimination logs each row operation (swap, add, negate) in
    ``row_ops`` and each column operation (swap, add) in ``col_ops``.
    ``replay`` and ``forward`` run a log over given vectors, held by
    position (see ``pack``), so a transform is applied without being
    formed; ``read`` is ``replay`` on unit vectors.  Each whole transform
    is read the same way when first asked for, and is then kept.
    ``rank`` is the number of nonzero diagonal entries.
    """

    def __init__(self, diagonal, shape, row_ops, col_ops):
        self.diagonal = diagonal
        self.shape = shape
        self.rank = len(diagonal) - diagonal.count(0)
        self.row_ops = row_ops
        self.col_ops = col_ops

    @cached_property
    def d(self):
        n, m = self.shape
        d = [[0] * m for _ in range(n)]
        for i, x in enumerate(self.diagonal):
            d[i][i] = x
        return d

    # A row op B <- E B keeps A = U B V when U <- U E^{-1}, and a column
    # op B <- B F when V <- F^{-1} V.  So U^{-T} = E_1^T ... E_k^T and
    # U = E_1^{-1} ... E_k^{-1} apply to a vector last op first.  The
    # transpose of a logged column op is the row op with the same
    # (src, dst, q), so V^{-1} and V^T apply the same way, and
    # V = F_k^{-1} ... F_1^{-1} first op first.
    def replay(self, name, held):
        """U y, V^{-1} y, or y^T U^{-1} or y^T V as columns, for ``name`` "u",
        "vinv", "uinv" or "v" and each vector y held by position in ``held``,
        in the same form: ("add", src, dst, q) as y[src] += q y[dst], or
        y[dst] -= q y[src] for "u" and "v"; a swap or a negation as is."""
        ops = self.row_ops if name[0] == "u" else self.col_ops
        inverse = name in ("u", "v")
        return _apply(reversed(ops), held, inverse, -1 if inverse else 1)

    def forward(self, held, first):
        """Rows first.. of V y for each vector y held by position in
        ``held``, in the same form: the column log runs first op first,
        ("add", src, dst, q) as y[src] -= q y[dst] and a swap as is.  A
        pass backwards over the log skips each add whose y[src] reaches no
        row first.., as a pivot column's do once its step ends."""
        need = [i >= first for i in range(len(held))]
        ops = []
        for op in reversed(self.col_ops):
            if op[0] == "swap":
                need[op[1]], need[op[2]] = need[op[2]], need[op[1]]
                ops.append(op)
            elif need[op[1]]:
                need[op[2]] = True
                ops.append(op)
        return _apply(reversed(ops), held, False, -1)[first:]

    def read(self, name, idx):
        """Rows idx of ``uinv`` or ``v``, or columns idx of ``u`` or ``vinv``,
        as lists: the unit vectors e_i, i in idx, replayed."""
        n = self.shape[name[0] != "u"]
        return unpack(self.replay(name, pack([[(i, 1)] for i in idx], n)), len(idx))

    # the replay holds its vectors by position, so U and V^{-1} come out whole
    @cached_property
    def uinv(self):
        return self.read("uinv", range(self.shape[0]))

    @cached_property
    def u(self):
        return self.replay("u", identity(self.shape[0]))

    @cached_property
    def v(self):
        return self.read("v", range(self.shape[1]))

    @cached_property
    def vinv(self):
        return self.replay("vinv", identity(self.shape[1]))


def pack(cols, n):
    """The sparse columns ``cols``, [(row, entry)] each, of length n, held
    by position: one list per row i of the entries of every column there,
    or None where every column is 0."""
    w = len(cols)
    held = [None] * n
    for c, col in enumerate(cols):
        for i, x in col:
            if held[i] is None:
                held[i] = [0] * w
            held[i][c] = x
    return held


def unpack(held, w):
    """The w vectors held by position in ``held``, as lists."""
    zero = (0,) * w
    cols = [list(col) for col in zip(*[zero if x is None else x for x in held])]
    return cols or [[] for _ in range(w)]     # no positions: w empty vectors


def _apply(ops, held, swapped, sign):
    """The ops, in the order given, on the vectors held by position in
    ``held``, which is left as it was: ("add", src, dst, q) as
    y[src] += sign q y[dst] (src and dst exchanged under ``swapped``),
    skipped while every vector is 0 at the position it reads; a swap or a
    negation as is."""
    held = list(held)
    for op in ops:
        kind = op[0]
        if kind == "add":
            _, src, dst, q = op
            if swapped:
                src, dst = dst, src
            y = held[dst]
            if y is not None:
                q *= sign
                x = held[src]
                held[src] = [q * b for b in y] if x is None else [a + q * b for a, b in zip(x, y)]
        elif kind == "swap":
            held[op[1]], held[op[2]] = held[op[2]], held[op[1]]
        elif held[op[1]] is not None:           # ("neg", i)
            held[op[1]] = [-a for a in held[op[1]]]
    return held


def smith_normal_form(cols, nrows) -> SmithDecomposition:
    """Smith normal form, with transforms, of the nrows x len(cols)
    integer matrix with the sparse columns ``cols``, left unchanged.

    The elimination runs on sparse rows, ``{column: entry}`` dicts of the
    nonzero entries, mirrored by sparse columns, ``{row: entry}`` dicts:
    one add and one swap serve rows and columns alike, an add touching the
    source line's entries and their mirrors, a swap the two lines' entries
    and theirs, and the scan for an entry the pivot does not divide reads
    nonzero entries only.

    Deterministic for a fixed input: the pivot of the trailing block is
    its first entry of least nonzero |x| in row-major order, that is, in
    the first row holding that |x|, the one in the smallest column.  The
    search stops at the first row holding a unit, which no entry
    undercuts, and a unit pivot skips the scan for an entry it does not
    divide, since it divides every entry.  Only D is eliminated here; the
    transforms are replayed from the operation logs when first read.
    """
    n, m = nrows, len(cols)
    rows = [{} for _ in range(n)]
    cols = [dict(col) for col in cols]
    for j, col in enumerate(cols):
        for i, x in col.items():
            rows[i][j] = x
    row_ops, col_ops = [], []

    def least_entry(t):
        # the first row holding the least |x| of rows t.., and in it the
        # smallest column holding that |x|; None if those rows are empty.
        # Rows and columns before t hold their diagonal entry alone, so
        # rows t.. are the whole trailing block.
        least, at = 0, None
        for i in range(t, n):
            row = rows[i]
            if row:
                x = min(map(abs, row.values()))
                if not least or x < least:
                    least, at = x, i
                    if x == 1:
                        break
        if at is None:
            return None
        return at, min(j for j, x in rows[at].items() if x == least or x == -least)

    size = min(n, m)
    t = 0
    while t < size:
        pivot = least_entry(t)
        if pivot is None:
            break
        while True:
            i0, j0 = pivot
            if i0 != t:
                _swap(rows, cols, row_ops, t, i0)
            if j0 != t:
                _swap(cols, rows, col_ops, t, j0)
            p = rows[t][t]
            done = True
            # rows, then columns: each op changes only the line it adds
            # into, and the column ops leave column t alone, so the entries
            # left to clear can be listed up front, in order
            for lines, cross, log in ((rows, cols, row_ops), (cols, rows, col_ops)):
                for i in sorted(cross[t]):
                    if i != t:
                        _add(lines, cross, log, t, i, -(lines[i][t] // p))
                        if t in lines[i]:
                            done = False
            if done:
                # pivot must divide the whole trailing block for the
                # divisibility chain; fold an offending row in and redo.
                # A unit divides everything.
                if p == 1 or p == -1:
                    break
                for i in range(t + 1, n):
                    if rows[i] and any(x % p for x in rows[i].values()):
                        _add(rows, cols, row_ops, i, t, 1)
                        break
                else:
                    break           # no offender: the step is done
            pivot = least_entry(t)
        if rows[t][t] < 0:
            rows[t][t] = cols[t][t] = -rows[t][t]
            row_ops.append(("neg", t))
        t += 1

    return SmithDecomposition([rows[i].get(i, 0) for i in range(size)], (n, m), row_ops, col_ops)


# ``lines`` are the rows and ``cross`` the columns for a row op, and the
# other way round for a column op.  q is never 0 in an add: the pivot is
# the least |x| of the block, and an offending row is folded in with q = 1.
def _add(lines, cross, log, src, dst, q):
    """lines[dst] += q lines[src], mirrored in ``cross``, and logged."""
    target = lines[dst]
    for k, y in lines[src].items():
        x = target.get(k, 0) + q * y
        if x:
            target[k] = cross[k][dst] = x
        else:
            del target[k], cross[k][dst]
    log.append(("add", src, dst, q))


def _swap(lines, cross, log, i, j):
    """Exchange lines[i] and lines[j], mirrored in ``cross``, and log it."""
    a, b = lines[i], lines[j]
    for k in a:
        del cross[k][i]
    for k in b:
        line = cross[k]
        line[i] = line.pop(j)
    for k, x in a.items():
        cross[k][j] = x
    lines[i], lines[j] = b, a
    log.append(("swap", i, j))


def kernel_basis(cols, nrows):
    """Basis of the integer kernel lattice {v : A v = 0}, for A given as
    the Smith form takes it.

    The result is a list of dense column vectors spanning ker(A) as a
    saturated sublattice of Z^m (every integer kernel vector is an integer
    combination of the basis): the columns r.. of V^{-1}, the only
    vectors replayed.  With no rows, that is the identity.
    """
    if not nrows:
        return identity(len(cols))
    snf = smith_normal_form(cols, nrows)
    return snf.read("vinv", range(snf.rank, len(cols)))


def column_style_hermite(cols, n):
    """Canonical basis, in column Hermite normal form, of the lattice
    generated by the given column vectors of length n.

    Pivots are positive, sit in strictly increasing rows, and all entries
    to the right of a pivot in its row are reduced into [0, pivot).
    Dependent generators are eliminated; the result is a basis.  The work
    runs on sparse columns, ``{row: entry}`` dicts, filed by the row of
    their first entry, and visits only the rows where some column starts.
    """
    # every column is zero above its first entry
    starts = {}
    for col in cols:
        c = dict(compress(enumerate(col), col))
        if c:
            starts.setdefault(min(c), []).append(c)
    basis = []
    while starts:
        row = min(starts)
        live = starts.pop(row)
        # gcd-combine all columns with a nonzero entry in this row; columns
        # whose entry clears are filed again under their new first row
        while len(live) > 1:
            live.sort(key=lambda c: abs(c[row]))
            c0 = live[0]
            still = [c0]
            for c in live[1:]:
                _add_scaled(c, c0, -(c[row] // c0[row]))
                if row in c:
                    still.append(c)
                elif c:
                    starts.setdefault(min(c), []).append(c)
            live = still
        piv = live[0]
        if piv[row] < 0:
            for i in piv:
                piv[i] = -piv[i]
        # reduce previously found pivot columns against this one
        for c in basis:
            if row in c:
                q = c[row] // piv[row]
                if q:
                    _add_scaled(c, piv, -q)
        basis.append(piv)
    out = []
    for c in basis:
        col = [0] * n
        for i, x in c.items():
            col[i] = x
        out.append(col)
    return out


def _add_scaled(c, src, q):
    """c += q * src on sparse columns, dropping the entries that cancel."""
    for i, y in src.items():
        x = c.get(i, 0) + q * y
        if x:
            c[i] = x
        else:
            c.pop(i, None)


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
    coords = mat_vec(rational_solver([[(i, x) for i, x in enumerate(c) if x] for c in cols], n),
                     target)
    if any(sum(c[i] * x for c, x in zip(cols, coords)) != target[i] for i in range(n)):
        return None         # outside the rational span
    if all(c.denominator == 1 for c in coords):
        return [int(c) for c in coords]
    # rational coordinates: in the Q-span only
    return None if all(isinstance(x, int) for x in target) else coords


def rational_solver(cols, n):
    """Matrix S with S @ x = coordinates of x in the independent column
    family ``cols`` (length n, sparse as the Smith form takes them),
    valid for any x in their rational span.

    Returns a k x n matrix of Fractions.
    """
    k = len(cols)
    snf = smith_normal_form(cols, n)
    if snf.rank < k:
        raise ValueError("columns are dependent")
    # x = U D V coords  =>  coords = Vinv D^+ Uinv x, and D^+ reads only
    # the first k rows of Uinv
    d = snf.diagonal
    s = [[Fraction(x, d[i]) for x in row] for i, row in enumerate(snf.read("uinv", range(k)))]
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

    With A = U D V and D = I, the inverse is V^{-1} U^{-1}: the columns of
    U^{-1}, whose rows hold them by position, replayed through V^{-1}."""
    n = len(a)
    snf = smith_normal_form([[(i, x) for i, x in enumerate(col) if x] for col in zip(*a)], n)
    if any(len(row) != n for row in a) or snf.rank != n or any(x != 1 for x in snf.diagonal):
        raise ValueError("matrix is not unimodular")
    return snf.replay("vinv", snf.uinv)
