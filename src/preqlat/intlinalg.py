"""Exact linear algebra over the integers and rationals.

Matrices are plain lists of row lists.  The Smith normal form eliminates
on the matrix alone and logs its row and column operations; a caller
replays from those logs just the rows or columns of the transforms it
reads.  Pivots are chosen by minimal absolute value to keep intermediate
entries small.  On the d_4 (126x126, rank 54) of the dim-9 2-step
presentation ``two_step_presentation(random.Random(88), 9, 3, 2)`` of
``bench/jobs.py``, eliminating takes about 0.04 s; reading the 72 rows of
V and columns of V^{-1} that ``kernel_transform`` returns takes 0.011 to
0.015 s, where replaying both whole took 0.028 to 0.038 s, and all four
whole transforms take 0.05 to 0.06 s (medians of 9, two runs, Python
3.11, 2-core Xeon).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction


def identity(n):
    eye = [[0] * n for _ in range(n)]
    for i in range(n):
        eye[i][i] = 1
    return eye


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

    ``uinv`` and ``vinv`` are the exact integer inverses of U and V.  The
    elimination works on D alone and logs each row operation (swap, add,
    negate) in ``row_ops`` and each column operation (swap, add) in
    ``col_ops``.  ``read`` replays a log on just the rows or columns asked
    for; each whole transform is read the same way when first asked for,
    and is then kept.  ``rank`` is the number of nonzero diagonal entries.
    """

    d: list
    rank: int
    row_ops: list
    col_ops: list

    @property
    def diagonal(self):
        n = min(len(self.d), len(self.d[0]) if self.d else 0)
        return [self.d[i][i] for i in range(n)]

    # A row op B <- E B keeps A = U B V when U <- U E^{-1}, and a column
    # op B <- B F when V <- F^{-1} V.  So U^{-1} = E_k ... E_1 is the row
    # log multiplied out, and U^T the same with each E as E^{-T}.  The
    # transpose of a logged column op is the row op with the same
    # (src, dst, q), so the column log multiplied out gives V^{-T}, and
    # with each op as its E^{-T} it gives V.
    def read(self, name, idx):
        """Rows idx of ``uinv`` or ``v``, or columns idx of ``u`` or ``vinv``
        as lists; sliced from the whole transform once that has been read."""
        whole = vars(self).get(name)
        if whole is not None:
            vectors = whole if name in ("uinv", "v") else _transpose(whole)
            return [list(vectors[i]) for i in idx]
        ops, n = (self.row_ops, len(self.d)) if name[0] == "u" else (self.col_ops, self._ncols)
        if not ops:         # an empty log, as for a zero matrix, is the identity
            eye = identity(n)
            return [eye[i] for i in idx]
        return _transpose(_replay(ops, n, idx, name in ("u", "v")))

    # the replay holds its vectors as columns, so U and V^{-1} come out whole
    @cached_property
    def uinv(self):
        return self.read("uinv", range(len(self.d)))

    @cached_property
    def u(self):
        return _replay(self.row_ops, len(self.d), range(len(self.d)), True)

    @cached_property
    def v(self):
        return self.read("v", range(self._ncols))

    @cached_property
    def vinv(self):
        return _replay(self.col_ops, self._ncols, range(self._ncols), False)

    @property
    def _ncols(self):
        return len(self.d[0]) if self.d else 0


def _replay(ops, n, idx, inverse):
    """Rows idx of E_k ... E_1 for the logged row operations (E^{-T} for E
    under ``inverse``), as the columns of an n x len(idx) matrix.  Row i
    is e_i^T E_k ... E_1, so the ops run last first, on all the vectors at
    once: ("add", src, dst, q) as x[src] += q x[dst] (x[dst] -= q x[src]
    for E^{-T}), skipped while the entry it reads is zero in every one.
    A position that is zero in every vector is one shared tuple."""
    w = len(idx)
    zero = (0,) * w         # shared by every position no vector has reached
    held = [zero] * n
    for c, i in enumerate(idx):
        if held[i] is zero:
            held[i] = [0] * w
        held[i][c] = 1
    for op in reversed(ops):
        kind = op[0]
        if kind == "add":
            _, src, dst, q = op
            if inverse:
                src, dst, q = dst, src, -q
            if held[dst] is not zero:
                held[src] = [a + q * b for a, b in zip(held[src], held[dst])]
        elif kind == "swap":
            _, i, j = op
            held[i], held[j] = held[j], held[i]
        elif held[op[1]] is not zero:           # ("neg", i)
            held[op[1]] = [-a for a in held[op[1]]]
    return held


def _transpose(rows):
    return [list(col) for col in zip(*rows)]


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
    every entry.  Only D is eliminated here; the transforms are replayed
    from the operation logs when first read.
    """
    n = len(a)
    m = len(a[0]) if n else 0
    b = [list(map(int, row)) for row in a]
    row_ops = []
    col_ops = []

    def swap_rows(i, j):
        b[i], b[j] = b[j], b[i]
        row_ops.append(("swap", i, j))

    def swap_cols(i, j):
        for row in b:
            row[i], row[j] = row[j], row[i]
        col_ops.append(("swap", i, j))

    def add_row(src, dst, q):
        # row[dst] += q * row[src]
        if q == 0:
            return
        b[dst] = [x + q * y for x, y in zip(b[dst], b[src])]
        row_ops.append(("add", src, dst, q))

    def add_col(src, dst, q, rows):
        # col[dst] += q * col[src], on the rows where col[src] is nonzero
        if q == 0:
            return
        for row in rows:
            row[dst] += q * row[src]
        col_ops.append(("add", src, dst, q))

    def negate_row(i):
        b[i] = [-x for x in b[i]]
        row_ops.append(("neg", i))

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
            # the column ops below leave column t alone, so its support is
            # fixed for the rest of the step: the pivot row alone when the
            # row ops cleared the column, as they do under a unit pivot
            rows = [row for row in b if row[t]]
            for j in range(t + 1, m):
                if b[t][j]:
                    add_col(t, j, -(b[t][j] // p), rows)
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
    return SmithDecomposition(d=b, rank=rank, row_ops=row_ops, col_ops=col_ops)


def kernel_transform(a, ncols=None):
    """Kernel basis of A together with the rows that read coordinates in it.

    Returns ``(basis, coords)``.  With A = U D V and r = rank, ``basis``
    is the columns r.. of V^{-1}: a saturated basis of ker(A) in Z^m.
    Since V V^{-1} = I, the rows ``coords`` (rows r.. of V) send a kernel
    vector to its coordinates in ``basis``.  Only those rows and columns
    are replayed.
    """
    if not a:
        eye = identity(ncols or 0)
        return eye, eye
    snf = smith_normal_form(a)
    # A (Vinv e_j) = U D e_j = 0 for j >= rank
    idx = range(snf.rank, len(a[0]))
    return snf.read("vinv", idx), snf.read("v", idx)


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
    coords = mat_vec(rational_solver(cols, n), target)
    if any(sum(c[i] * x for c, x in zip(cols, coords)) != target[i] for i in range(n)):
        return None         # outside the rational span
    if all(c.denominator == 1 for c in coords):
        return [int(c) for c in coords]
    # rational coordinates: in the Q-span only
    return None if all(isinstance(x, int) for x in target) else coords


def rational_solver(cols, n):
    """Matrix S with S @ x = coordinates of x in the independent column
    family ``cols``, valid for any x in their rational span.

    Returns a k x n matrix of Fractions.
    """
    k = len(cols)
    a = [[cols[j][i] for j in range(k)] for i in range(n)]
    snf = smith_normal_form(a)
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

    With A = U D V and D = I, the inverse is V^{-1} U^{-1}."""
    n = len(a)
    snf = smith_normal_form(a)
    if any(len(row) != n for row in a) or snf.rank != n or any(x != 1 for x in snf.diagonal):
        raise ValueError("matrix is not unimodular")
    return mat_mul(snf.vinv, snf.uinv)
