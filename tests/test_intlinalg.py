"""Smith/Hermite machinery against brute-force lattice oracles."""

import random
import signal
from fractions import Fraction
from itertools import combinations
from math import gcd

import pytest

from preqlat import intlinalg as lin
from preqlat.cealg import complex_matrices

from util import det, full_scan_smith_normal_form, rational_rank, two_step_presentation


def minor_gcd(a, k):
    """gcd of all k x k minors; d_1 * ... * d_k must equal it."""
    n, m = len(a), len(a[0])
    g = 0
    for rows in combinations(range(n), k):
        for cols in combinations(range(m), k):
            sub = [[a[i][j] for j in cols] for i in rows]
            g = gcd(g, abs(det(sub)))
    return g


def check_decomposition(a):
    snf = lin.smith_normal_form(a)
    n, m = len(a), len(a[0])
    assert lin.mat_mul(lin.mat_mul(snf.u, snf.d), snf.v) == [list(r) for r in a]
    assert abs(det(snf.u)) == 1
    assert abs(det(snf.v)) == 1
    assert lin.mat_mul(snf.u, snf.uinv) == lin.identity(n)
    assert lin.mat_mul(snf.v, snf.vinv) == lin.identity(m)
    diag = snf.diagonal
    for i in range(len(diag)):
        assert diag[i] >= 0
        for j in range(i + 1, len(diag)):
            if diag[i] and diag[j]:
                assert diag[j] % diag[i] == 0
        if diag[i] == 0:
            assert all(x == 0 for x in diag[i:])
    # off-diagonal zero
    for i in range(n):
        for j in range(m):
            if i != j:
                assert snf.d[i][j] == 0
    return snf


def test_smith_2x2_example():
    snf = check_decomposition([[2, 4], [6, 8]])
    assert snf.diagonal == [2, 4]


def test_smith_identity():
    snf = check_decomposition([[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    assert snf.diagonal == [1, 1, 1]


def test_smith_zero_matrix():
    snf = check_decomposition([[0, 0], [0, 0], [0, 0]])
    assert snf.diagonal == [0, 0]
    assert snf.rank == 0


def test_smith_random_against_minor_gcd_oracle():
    rng = random.Random(20240)
    for _ in range(60):
        n = rng.randint(1, 4)
        m = rng.randint(1, 4)
        a = [[rng.randint(-9, 9) for _ in range(m)] for _ in range(n)]
        snf = check_decomposition(a)
        diag = snf.diagonal
        acc = 1
        for k in range(1, min(n, m) + 1):
            acc *= diag[k - 1]
            assert abs(acc) == minor_gcd(a, k)


def test_smith_larger_random_roundtrip():
    rng = random.Random(7)
    for _ in range(10):
        n = rng.randint(5, 9)
        m = rng.randint(5, 9)
        a = [[rng.randint(-20, 20) for _ in range(m)] for _ in range(n)]
        check_decomposition(a)


def test_smith_deterministic():
    a = [[3, 1, -2], [0, 5, 4], [7, -1, 0]]
    s1 = lin.smith_normal_form(a)
    s2 = lin.smith_normal_form([row[:] for row in a])
    assert s1.d == s2.d and s1.u == s2.u and s1.v == s2.v


def snf_reference_inputs():
    """Seeded matrices for the full-scan oracle: sparse boundary-like ones
    with mostly unit entries, ones with no unit entry, zero matrices, single
    rows and columns, and every d_k of a 2-step presentation with torsion."""
    rng = random.Random(4711)

    def sparse(n, m, fill, values):
        return [[rng.choice(values) if rng.random() < fill else 0 for _ in range(m)]
                for _ in range(n)]

    mats = []
    for _ in range(80):
        mats.append(sparse(rng.randint(1, 12), rng.randint(1, 12), rng.uniform(0.1, 0.5),
                           (1, -1, 1, -1, 1, -1, 2, -2, 3)))
    for _ in range(50):
        mats.append(sparse(rng.randint(1, 7), rng.randint(1, 7), rng.uniform(0.3, 1.0),
                           (2, -2, 3, -3, 4, -4, 6, -6)))
    for n, m in [(1, 1), (1, 4), (4, 1), (3, 3), (2, 5), (5, 2), (6, 6), (1, 9), (9, 1), (7, 3)]:
        mats.append([[0] * m for _ in range(n)])
    for _ in range(40):
        k = rng.randint(1, 9)
        row = [rng.choice((0, 0, 1, -1, 2, -3, 4, 6, -6, 9)) for _ in range(k)]
        mats.append([row] if rng.random() < 0.5 else [[x] for x in row])
    for _ in range(20):
        n, m = rng.randint(2, 6), rng.randint(2, 6)
        mats.append([[rng.randint(-9, 9) for _ in range(m)] for _ in range(n)])
    mats.extend(d for d in complex_matrices(two_step_presentation("7-2", 7, 2, 3, 0.5)) if d)
    return mats


def _stuck(signum, frame):
    raise TimeoutError("smith_normal_form did not finish")


def test_smith_matches_full_scan_reference():
    """The pivot scan that stops at a unit, and skips the divisibility scan
    under one, makes the full scan's choices: every transform is equal.
    A pivot that is not the least entry can leave remainders that never
    shrink, so the whole comparison runs under an alarm."""
    mats = snf_reference_inputs()
    assert len(mats) >= 200
    previous = signal.signal(signal.SIGALRM, _stuck)
    signal.alarm(10)
    try:
        pairs = [(lin.smith_normal_form(a), full_scan_smith_normal_form(a)) for a in mats]
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    for got, want in pairs:
        assert got.rank == want.rank
        assert got.d == want.d
        assert got.u == want.u and got.v == want.v
        assert got.uinv == want.uinv and got.vinv == want.vinv


def test_smith_transforms_read_in_any_order():
    """Each transform is replayed from the operation logs on first read:
    read alone from a fresh decomposition, or all four in reverse order,
    each equals the full-scan oracle's, and together they factor A.  The
    input matrix is left as it was."""
    names = ("u", "uinv", "v", "vinv")
    for a in snf_reference_inputs():
        original = [row[:] for row in a]
        want = full_scan_smith_normal_form(a)
        for name in names:
            assert getattr(lin.smith_normal_form(a), name) == getattr(want, name), name
        snf = lin.smith_normal_form(a)
        got = {name: getattr(snf, name) for name in reversed(names)}
        assert got == {name: getattr(want, name) for name in names}
        n, m = len(a), len(a[0])
        assert lin.mat_mul(lin.mat_mul(snf.u, snf.d), snf.v) == original
        assert lin.mat_mul(snf.u, snf.uinv) == lin.identity(n)
        assert lin.mat_mul(snf.v, snf.vinv) == lin.identity(m)
        assert a == original


def _selected_read_inputs():
    """The full-scan oracle's matrices, seeded random shapes up to 14 x 14
    with mostly unit entries, and zero matrices."""
    rng = random.Random(2718)
    mats = snf_reference_inputs()
    for _ in range(40):
        n, m = rng.randint(1, 14), rng.randint(1, 14)
        fill = rng.uniform(0.1, 0.9)
        mats.append([[rng.choice((1, -1, 1, 2, -3, 5)) if rng.random() < fill else 0
                      for _ in range(m)] for _ in range(n)])
    mats += [[[0] * m for _ in range(n)] for n, m in [(1, 1), (3, 5), (6, 2)]]
    return mats


def test_selected_reads_match_full_transforms():
    """Rows of U^{-1} and V, and columns of U and V^{-1}, read for any
    index list (empty, one index, a random subset in random order, a
    repeated index, all of them) equal those rows and columns of the
    full-scan oracle's transforms: replayed alone, and again sliced from
    the whole transforms once those have been read."""
    rng = random.Random(31415)
    for a in _selected_read_inputs():
        want = full_scan_smith_normal_form(a)
        snf = lin.smith_normal_form(a)
        n, m = len(a), len(a[0])
        for whole in (False, True):
            if whole:
                assert [snf.u, snf.uinv, snf.v, snf.vinv] == [want.u, want.uinv, want.v, want.vinv]
            for size, name, full in ((n, "uinv", want.uinv),
                                     (n, "u", [list(c) for c in zip(*want.u)]),
                                     (m, "v", want.v),
                                     (m, "vinv", [list(c) for c in zip(*want.vinv)])):
                subset = rng.sample(range(size), rng.randint(1, size))
                for idx in ([], [size - 1], subset, subset[:1] * 2, range(size)):
                    assert snf.read(name, idx) == [full[i] for i in idx], name
            assert whole or not {"u", "uinv", "v", "vinv"} & set(vars(snf))


def test_kernel_basis_annihilates_and_saturates():
    rng = random.Random(99)
    for _ in range(40):
        n = rng.randint(1, 4)
        m = rng.randint(1, 5)
        a = [[rng.randint(-6, 6) for _ in range(m)] for _ in range(n)]
        ker = lin.kernel_basis(a, ncols=m)
        for v in ker:
            assert all(sum(row[j] * v[j] for j in range(m)) == 0 for row in a)
        # saturation: a random integer vector in the rational kernel must
        # have integer coordinates in the basis
        if ker:
            coeffs = [rng.randint(-3, 3) for _ in ker]
            vec = [sum(c * k[i] for c, k in zip(coeffs, ker)) for i in range(m)]
            coords = lin.solve_in_lattice(ker, vec, m)
            assert coords == coeffs


def test_kernel_of_zero_rows():
    ker = lin.kernel_basis([], ncols=3)
    assert len(ker) == 3


def test_kernel_transform_reads_coordinates():
    """The basis spans ker(A) over Q, and the coordinate rows read the
    coefficients of any kernel vector back off it."""
    rng = random.Random(17)
    for _ in range(40):
        n = rng.randint(1, 4)
        m = rng.randint(1, 6)
        a = [[rng.randint(-6, 6) for _ in range(m)] for _ in range(n)]
        ker, coords = lin.kernel_transform(a, ncols=m)
        assert len(coords) == len(ker) == m - rational_rank(a)
        assert all(len(row) == m for row in coords)
        assert not any(x for k in ker for x in lin.mat_vec(a, k))
        coeffs = [rng.randint(-3, 3) for _ in ker]
        vec = [sum(c * k[i] for c, k in zip(coeffs, ker)) for i in range(m)]
        assert lin.mat_vec(coords, vec) == coeffs


def test_echelon_coords_in_hermite_basis():
    rng = random.Random(23)
    for _ in range(40):
        n = rng.randint(1, 5)
        cols = [[rng.randint(-7, 7) for _ in range(n)] for _ in range(rng.randint(1, 5))]
        h = lin.column_style_hermite(cols, n)
        all_coords = lin.echelon_coords(h, cols)
        assert len(all_coords) == len(cols)
        for c, coords in zip(cols, all_coords):
            assert [sum(x * b[i] for x, b in zip(coords, h)) for i in range(n)] == c
    assert lin.echelon_coords([[2, 0], [0, 2]], []) == []
    # a column outside the lattice fails the batch wherever it stands
    with pytest.raises(ValueError):
        lin.echelon_coords([[2, 0], [0, 2]], [[1, 0], [2, 4]])
    with pytest.raises(ValueError):
        lin.echelon_coords([[1, 1]], [[1, 1], [3, 3], [1, 2]])


def test_hermite_canonical_and_same_lattice():
    rng = random.Random(5)
    for _ in range(40):
        n = rng.randint(1, 5)
        k = rng.randint(1, 5)
        cols = [[rng.randint(-7, 7) for _ in range(n)] for _ in range(k)]
        h = lin.column_style_hermite(cols, n)
        h2 = lin.column_style_hermite(h, n)
        assert h == h2  # canonical form is a fixed point
        # original generators lie in the lattice of the canonical basis
        for c in cols:
            coords = lin.solve_in_lattice(h, c, n) if h else (
                [] if not any(c) else None)
            assert coords is not None
            assert all(not isinstance(x, Fraction) or x.denominator == 1 for x in coords)
        # and adding the basis back to the generators changes nothing,
        # so the two lattices coincide
        assert lin.column_style_hermite([list(c) for c in cols] + h, n) == h


def test_hermite_pivots_positive_increasing():
    h = lin.column_style_hermite([[0, 2, 4], [0, -3, 1], [0, 0, 5]], 3)
    pivot_rows = []
    for col in h:
        row = next(i for i, x in enumerate(col) if x)
        assert col[row] > 0
        pivot_rows.append(row)
    assert pivot_rows == sorted(pivot_rows)


def test_solve_in_lattice_detects_non_membership():
    cols = [[2, 0], [0, 2]]
    assert lin.solve_in_lattice(cols, [1, 0], 2) is None
    assert lin.solve_in_lattice(cols, [4, -2], 2) == [2, -1]


def test_rational_solver_reproduces_coordinates():
    rng = random.Random(31)
    for _ in range(20):
        n = rng.randint(2, 5)
        k = rng.randint(1, n)
        while True:
            cols = [[rng.randint(-5, 5) for _ in range(n)] for _ in range(k)]
            mat = [[cols[j][i] for j in range(k)] for i in range(n)]
            if lin.smith_normal_form(mat).rank == k:
                break
        solver = lin.rational_solver(cols, n)
        coeffs = [Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(k)]
        vec = [sum(c * col[i] for c, col in zip(coeffs, cols)) for i in range(n)]
        got = [sum(row[i] * vec[i] for i in range(n)) for row in solver]
        assert got == coeffs


def test_int_inverse_unimodular():
    u = [[1, 2, 0], [0, 1, 3], [0, 0, 1]]
    inv = lin.int_inverse(u)
    assert lin.mat_mul(u, inv) == lin.identity(3)
    with pytest.raises(ValueError):
        lin.int_inverse([[2, 0], [0, 1]])
    with pytest.raises(ValueError):
        lin.int_inverse([[1, 2], [2, 4]])
    with pytest.raises(ValueError):
        lin.int_inverse([[1, 0]])
    rng = random.Random(23)
    for n in range(1, 7):
        for _ in range(4):
            # a product of elementary row operations is unimodular
            u = lin.identity(n)
            for _ in range(3 * n):
                i, j = rng.randrange(n), rng.randrange(n)
                op = rng.randrange(3)
                if op == 0 and i != j:
                    q = rng.randint(-3, 3)
                    u[i] = [x + q * y for x, y in zip(u[i], u[j])]
                elif op == 1:
                    u[i], u[j] = u[j], u[i]
                else:
                    u[i] = [-x for x in u[i]]
            inv = lin.int_inverse(u)
            assert lin.mat_mul(u, inv) == lin.identity(n)
            assert lin.mat_mul(inv, u) == lin.identity(n)


def test_det_bareiss():
    assert det([[1, 2], [3, 4]]) == -2
    assert det([[2, 0, 0], [0, 3, 0], [0, 0, 4]]) == 24
    assert det([[1, 1], [1, 1]]) == 0
