"""Smith/Hermite machinery against brute-force lattice oracles."""

import importlib.util
import os
import random
import signal
import tempfile
from fractions import Fraction
from itertools import combinations
from math import comb, gcd

import pytest

from preqlat import cli
from preqlat import intlinalg as lin
from preqlat.cohomring import CohomClass, nilmanifold_ring, torus_ring

from util import (
    dense_column_style_hermite,
    dense_complex,
    dense_matrix,
    det,
    full_scan_smith_normal_form,
    mat_mul,
    rational_rank,
    ring_from_preset,
    smith,
    sparse_columns,
    two_step_presentation,
)


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
    snf = smith(a)
    n, m = len(a), len(a[0])
    assert mat_mul(mat_mul(snf.u, snf.d), snf.v) == [list(r) for r in a]
    assert abs(det(snf.u)) == 1
    assert abs(det(snf.v)) == 1
    assert mat_mul(snf.u, snf.uinv) == lin.identity(n)
    assert mat_mul(snf.v, snf.vinv) == lin.identity(m)
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
    s1 = smith(a)
    s2 = smith([row[:] for row in a])
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
    mats.extend(dense_complex(two_step_presentation("7-2", 7, 2, 3, 0.5)))
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
        pairs = [(smith(a), full_scan_smith_normal_form(a)) for a in mats]
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    for got, want in pairs:
        assert got.rank == want.rank
        assert got.d == want.d
        assert got.u == want.u and got.v == want.v
        assert got.uinv == want.uinv and got.vinv == want.vinv


def _tie_inputs():
    """Matrices with no unit entry, so that every step runs the divisibility
    scan, whose least |x| repeats within rows and across rows: a column
    swap re-inserts the swapped entries, so later pivot rows hold their
    keys out of column order and the tie must still go to the smallest
    column.  The first one is built for that: the step-0 swap of columns
    0 and 1 leaves row 1 as {2: 2, 1: 2} after its row op, and step 1
    must pivot on column 1, not on column 2, which comes first in the
    row."""
    rng = random.Random(8128)
    mats = [[[4, 2, 0], [6, 2, 2]],
            [[3, 0, 2], [2, 4, 2]],
            [[4, 6, 4], [6, 4, 6], [4, 4, 6]],
            [[0, 6, 0, 6], [6, 0, 6, 0], [4, 6, 6, 4]],
            [[2, 2], [2, 2]],
            [[-2, 2, -2], [2, -2, 2], [2, 2, -2]]]
    for _ in range(150):
        n, m = rng.randint(2, 8), rng.randint(2, 8)
        values = rng.choice(((2, -2, 4), (2, -2, 3, -3), (2, 2, -2, 6, 9), (3, -3, 6, 9, -12)))
        fill = rng.uniform(0.3, 1.0)
        mats.append([[rng.choice(values) if rng.random() < fill else 0 for _ in range(m)]
                     for _ in range(n)])
    return mats


def _recorded_inputs(build):
    """The Smith form inputs, as dense rows, and the Hermite inputs of one
    ``build()``, with what it returns."""
    snf_in, hnf_in = [], []
    snf, hermite = lin.smith_normal_form, lin.column_style_hermite

    def record_smith(cols, nrows):
        snf_in.append(dense_matrix(cols, nrows))
        return snf(cols, nrows)

    def record_hermite(cols, n):
        hnf_in.append(([list(c) for c in cols], n))
        return hermite(cols, n)

    lin.smith_normal_form, lin.column_style_hermite = record_smith, record_hermite
    try:
        built = build()
    finally:
        lin.smith_normal_form, lin.column_style_hermite = snf, hermite
    return built, snf_in, hnf_in


def _recorded_ring_inputs():
    """The Smith form inputs (every d_k, then each degree's second-stage
    matrix of coboundaries in kernel coordinates) and the Hermite inputs
    (lower central series and free representatives) of one seeded dim-8
    half-density two-step presentation with torsion."""
    lie = two_step_presentation("8-2", 8, 2, 2, 0.5)
    ring, snf_in, hnf_in = _recorded_inputs(lambda: nilmanifold_ring(lie))
    return lie, ring, snf_in, hnf_in


def _benchmark_presentation_inputs():
    """Every Smith form input of the ring builds of the 33 seed-1 jobs of
    the benchmark's cohomology workload (32 seeded presentations of dims
    6 to 8 and the torus T^8): each d_k and each coboundary-coordinate
    matrix, as dense rows."""
    path = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                        "bench", "jobs.py")
    spec = importlib.util.spec_from_file_location("preqlat_bench_jobs", path)
    jobs_module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(jobs_module)
    with tempfile.TemporaryDirectory() as workdir:
        argvs = [job["argv"] for job in jobs_module.make_jobs("cohomology", 1, workdir)]
        lies = [cli.load_presentation(argv[-1]) for argv in argvs if argv[1] == "--input"]
    assert len(argvs) == 33 and len(lies) == 32
    _, snf_in, _ = _recorded_inputs(lambda: [nilmanifold_ring(lie) for lie in lies]
                                    + [torus_ring(8)])
    return lies, snf_in


def test_smith_op_log_matches_full_scan_on_ties_and_complexes():
    """The sparse elimination logs the full scan's operations, in order,
    and returns its D, rank and transforms: on inputs whose least entries
    tie within and across rows, and on every Smith input of a dim-8 ring
    build, each d_k and each second-stage matrix.  On every Smith input
    of the benchmark's seed-1 cohomology presentations, read off their
    sparse columns, it returns the full scan's diagonal and op logs.
    Under an alarm, as a wrong pivot can loop."""
    lies, bench_inputs = _benchmark_presentation_inputs()
    mats_k = [d for lie in lies for d in dense_complex(lie)]
    assert len(bench_inputs) > len(mats_k) and all(d in bench_inputs for d in mats_k)
    previous = signal.signal(signal.SIGALRM, _stuck)
    signal.alarm(20)
    try:
        pairs = [(a, smith(a), full_scan_smith_normal_form(a)) for a in bench_inputs]
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    for a, got, want in pairs:
        assert got.diagonal == [want.d[i][i] for i in range(min(len(a), len(a[0])))], a
        assert got.row_ops == want.row_ops and got.col_ops == want.col_ops, a
    lie, ring, recorded, _ = _recorded_ring_inputs()
    mats_k = dense_complex(lie)
    assert all(d in recorded for d in mats_k)
    second = [a for a in recorded if a not in mats_k]
    assert len(second) >= 4 and any(ring.torsion(k) for k in range(lie.dim + 1))
    ties = _tie_inputs()
    # the least |x| repeats within one row in most of them, and across rows
    def least_count(rows):
        least = min(abs(x) for row in rows for x in row if x)
        return [sum(1 for x in row if abs(x) == least) for row in rows]
    counts = [least_count(a) for a in ties if any(any(row) for row in a)]
    assert sum(max(c) >= 2 for c in counts) > 100
    assert sum(sum(1 for x in c if x) >= 2 for c in counts) > 100
    assert all(x not in (1, -1) for a in ties for row in a for x in row)
    previous = signal.signal(signal.SIGALRM, _stuck)
    signal.alarm(20)
    try:
        pairs = [(a, smith(a), full_scan_smith_normal_form(a))
                 for a in ties + mats_k + second]
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    for a, got, want in pairs:
        assert got.row_ops == want.row_ops and got.col_ops == want.col_ops, a
        assert got.rank == want.rank and got.d == want.d
        assert got.u == want.u and got.v == want.v
        assert got.uinv == want.uinv and got.vinv == want.vinv


def test_smith_transforms_read_in_any_order():
    """Each transform is replayed from the operation logs on first read:
    read alone from a fresh decomposition, or all four in reverse order,
    each equals the full-scan oracle's, and together they factor A.  The
    input matrix is left as it was, and so are the sparse columns passed
    to the Smith form and to ``kernel_basis``, and the columns and basis
    passed to ``column_style_hermite`` and ``echelon_coords``."""
    names = ("u", "uinv", "v", "vinv")
    for a in snf_reference_inputs():
        original = [row[:] for row in a]
        cols, dense = sparse_columns(a), [list(col) for col in zip(*a)]
        kept = [col[:] for col in cols], [col[:] for col in dense]
        lin.smith_normal_form(cols, len(a))
        lin.kernel_basis(cols, len(a))
        basis = lin.column_style_hermite(dense, len(a))
        kept_basis = [col[:] for col in basis]
        lin.echelon_coords(basis, dense)
        assert (cols, dense) == kept and basis == kept_basis
        want = full_scan_smith_normal_form(a)
        for name in names:
            assert getattr(smith(a), name) == getattr(want, name), name
        snf = smith(a)
        got = {name: getattr(snf, name) for name in reversed(names)}
        assert got == {name: getattr(want, name) for name in names}
        n, m = len(a), len(a[0])
        assert mat_mul(mat_mul(snf.u, snf.d), snf.v) == original
        assert mat_mul(snf.u, snf.uinv) == lin.identity(n)
        assert mat_mul(snf.v, snf.vinv) == lin.identity(m)
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
        snf = smith(a)
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
        ker = lin.kernel_basis(sparse_columns(a), n)
        for v in ker:
            assert all(sum(row[j] * v[j] for j in range(m)) == 0 for row in a)
        # saturation: a random integer vector in the rational kernel must
        # have integer coordinates in the basis
        if ker:
            coeffs = [rng.randint(-3, 3) for _ in ker]
            vec = [sum(c * k[i] for c, k in zip(coeffs, ker)) for i in range(m)]
            coords = lin.solve_in_lattice(ker, vec, m)
            assert coords == coeffs


def test_kernel_basis_replays_only_its_columns(monkeypatch):
    """kernel_basis reads the columns rank.. of V^{-1} and no row of V, and
    equals those columns of the full-scan oracle's V^{-1}; so does the
    Gysin kernel, one kernel_basis call per Euler candidate."""
    from preqlat.prequant import gysin_kernel

    reads = []
    read = lin.SmithDecomposition.read

    def counted(self, name, idx):
        reads.append(name)
        return read(self, name, idx)

    rng = random.Random(1618)
    ring = ring_from_preset("thurston", r=6)
    monkeypatch.setattr(lin.SmithDecomposition, "read", counted)
    for _ in range(30):
        n, m = rng.randint(1, 5), rng.randint(1, 6)
        a = [[rng.choice((0, 0, 1, -1, 2, 3, -4)) for _ in range(m)] for _ in range(n)]
        want = full_scan_smith_normal_form(a)
        want_basis = [list(c) for c in zip(*want.vinv)][want.rank:]
        assert lin.kernel_basis(sparse_columns(a), n) == want_basis
    assert reads == ["vinv"] * 30
    reads.clear()
    free = (1,) + (0,) * (ring.betti(2) - 1)
    assert ring.torsion(2) == [6]
    for t in range(6):
        gysin_kernel(ring, CohomClass(2, free, (t,)))
    # the first cup products build the reduction rows of H^3 from U^{-1}
    assert "v" not in reads and reads.count("vinv") == 6


def test_kernel_of_zero_rows():
    ker = lin.kernel_basis([[], [], []], 0)
    assert ker == lin.identity(3)


def _held(vectors, n):
    """Dense vectors of length n held by position, as the replays take
    them."""
    return lin.pack([[(i, x) for i, x in enumerate(v) if x] for v in vectors], n)


def test_replay_and_forward_apply_the_transforms():
    """On seeded matrices of size 0-6 x 0-6 (empty logs, zero rows and zero
    columns among them), ``forward`` gives the rows first.. of V b and
    ``replay`` gives V^{-1} y, y^T V, y^T U^{-1} and U y, for random vectors
    (zero ones among them) held by position: equal to the products with
    the full-scan oracle's dense transforms, with the input held as it
    was.  ``read`` is ``replay`` on unit vectors.  The columns rank.. of
    V^{-1} span ker(A) over Q, and ``forward`` from rank reads the
    coefficients of any kernel vector back off them."""
    rng = random.Random(1729)
    logs = zero_rows = zero_cols = 0
    for trial in range(200):
        n, m = rng.randint(0, 6), rng.randint(0, 6)
        fill = rng.choice((0.0, 0.3, 0.7, 1.0))
        a = [[rng.randint(-6, 6) if rng.random() < fill else 0 for _ in range(m)]
             for _ in range(n)]
        cols = [[(i, a[i][j]) for i in range(n) if a[i][j]] for j in range(m)]
        snf = lin.smith_normal_form(cols, n)
        want = full_scan_smith_normal_form(a, m)
        assert snf.row_ops == want.row_ops and snf.col_ops == want.col_ops
        logs += bool(snf.row_ops or snf.col_ops)
        zero_rows += any(not any(row) for row in a)
        zero_cols += not all(cols)
        for size, name, full in ((m, "vinv", want.vinv), (m, "v", _transpose(want.v)),
                                 (n, "uinv", _transpose(want.uinv)), (n, "u", want.u)):
            w = rng.randint(0, 4)
            ys = [[rng.randint(-4, 4) if rng.random() < 0.6 else 0 for _ in range(size)]
                  for _ in range(w)]
            held = _held(ys, size)
            before = [None if h is None else h[:] for h in held]
            got = lin.unpack(snf.replay(name, held), w)
            assert got == [lin.mat_vec(full, y) for y in ys], (trial, name)
            assert held == before
            idx = [rng.randrange(size) for _ in range(rng.randint(0, size))]
            units = lin.pack([[(i, 1)] for i in idx], size)
            assert snf.read(name, idx) == lin.unpack(snf.replay(name, units), len(idx))
        first = rng.randint(0, m)
        bs = [[rng.randint(-4, 4) if rng.random() < 0.6 else 0 for _ in range(m)]
              for _ in range(rng.randint(0, 4))]
        held = _held(bs, m)
        assert lin.unpack(snf.forward(held, first), len(bs)) == \
            [lin.mat_vec(want.v, b)[first:] for b in bs], trial
        # the kernel basis and its coordinates
        ker = snf.read("vinv", range(snf.rank, m))
        assert len(ker) == m - (rational_rank(a) if n else 0)
        assert not any(x for k in ker for x in lin.mat_vec(a, k))
        coeffs = [rng.randint(-3, 3) for _ in ker]
        vec = [sum(c * k[i] for c, k in zip(coeffs, ker)) for i in range(m)]
        assert lin.unpack(snf.forward(_held([vec], m), snf.rank), 1) == [coeffs]
    assert 20 < logs < 180 and zero_rows > 20 and zero_cols > 20, (logs, zero_rows, zero_cols)


def _transpose(a):
    return [list(col) for col in zip(*a)]


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


def test_hermite_matches_dense_reference():
    """The sparse column Hermite form returns the dense reference's basis:
    on seeded generator sets with dependent columns, zero columns and
    negative leading entries, and on every Hermite input of a dim-8 ring
    build, the free representatives among them."""
    rng = random.Random(2357)
    sets = []
    for _ in range(120):
        n = rng.randint(1, 9)
        cols = [[rng.choice((0, 0, 0, 1, -1, 2, -3, 5)) for _ in range(n)]
                for _ in range(rng.randint(1, 7))]
        if rng.random() < 0.5:     # a dependent column
            a, b = rng.choice(cols), rng.choice(cols)
            cols.append([rng.randint(-3, 3) * x + rng.randint(-3, 3) * y for x, y in zip(a, b)])
        if rng.random() < 0.3:
            cols.insert(rng.randrange(len(cols) + 1), [0] * n)
        if rng.random() < 0.5:     # a negative leading entry
            lead = next((c for c in cols if any(c)), None)
            if lead:
                i = next(i for i, x in enumerate(lead) if x)
                lead[i] = -abs(lead[i])
        sets.append((cols, n))
    sets += [([[0, 0, 0]], 3), ([], 4), ([[0, -2], [0, -3]], 2), ([[-4, 6], [-6, 9]], 2)]
    lie, ring, _, recorded = _recorded_ring_inputs()
    # a degree's free representatives: one column per free class, as long
    # as the degree's cochains
    free = {(comb(lie.dim, k), ring.betti(k)) for k in range(lie.dim + 1)}
    assert sum((n, len(cols)) in free for cols, n in recorded) >= 5
    for cols, n in sets + recorded:
        want = dense_column_style_hermite([list(c) for c in cols], n)
        assert lin.column_style_hermite([list(c) for c in cols], n) == want
    # the generators are not changed
    cols = [[0, -2, 4], [0, 3, 1]]
    lin.column_style_hermite(cols, 3)
    assert cols == [[0, -2, 4], [0, 3, 1]]


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
            if smith(mat).rank == k:
                break
        solver = lin.rational_solver(sparse_columns(mat), n)
        coeffs = [Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(k)]
        vec = [sum(c * col[i] for c, col in zip(coeffs, cols)) for i in range(n)]
        got = [sum(row[i] * vec[i] for i in range(n)) for row in solver]
        assert got == coeffs


def test_int_inverse_unimodular():
    u = [[1, 2, 0], [0, 1, 3], [0, 0, 1]]
    inv = lin.int_inverse(u)
    assert mat_mul(u, inv) == lin.identity(3)
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
            assert mat_mul(u, inv) == lin.identity(n)
            assert mat_mul(inv, u) == lin.identity(n)


def test_det_bareiss():
    assert det([[1, 2], [3, 4]]) == -2
    assert det([[2, 0, 0], [0, 3, 0], [0, 0, 4]]) == 24
    assert det([[1, 1], [1, 1]]) == 0
