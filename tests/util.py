"""Shared generators, the add-chain oracles of the verify input builders,
float evaluation, the float-grid quadrature oracle, the loop-form torus
calculus oracles, the dense and sparse matrix forms,
the full-scan Smith normal form oracle, the dense column Hermite normal
form oracle, the eager reduction-row oracle, the Bareiss determinant, the
Pfaffian, the rational rank, the Fraction validation oracle, and the
test-only conveniences on presentations, cochains, rings and the torus
calculus (mean and flux projections, invariant contact Hamiltonians).

Uniform-grid trapezoidal sums on the periodic torus integrate any
trigonometric polynomial of per-axis degree < N exactly, so they give an
independent numerical check of the exact integrals.
"""

import cmath
import math
import random
from collections import namedtuple
from fractions import Fraction

from preqlat.cealg import (
    Cochain,
    LieAlgebraPresentation,
    ValidationReport,
    complex_matrices,
    heisenberg_times_line,
)
from preqlat.cohomring import CohomClass, nilmanifold_ring, surface_ring, torus_ring
from preqlat.exact import ExactScalar
from preqlat.intlinalg import (
    SmithDecomposition,
    column_style_hermite,
    echelon_coords,
    identity,
    mat_vec,
    smith_normal_form,
)
from preqlat.combinat import degree_tuples, merge_tuples, remove_index, sort_sign
from preqlat.toruscalc.contact import DIM, Z_AXIS, contact_form, reeb_field, transverse_field
from preqlat.toruscalc.forms import (
    CoordinateCycle,
    TorusForm,
    TorusVectorField,
    contract,
    exterior_derivative,
    integrate_over_cycle,
    integrate_product,
    lie_derivative,
)
from preqlat.toruscalc.symplectic import liouville_power, poisson_bracket
from preqlat.toruscalc.trig import TrigPoly
from preqlat.toruscalc.volume import unit_volume_form


def random_fraction(rng, num=5, den=3):
    return Fraction(rng.randint(-num, num), rng.randint(1, den))


def random_real_trigpoly(rng, dim, max_deg=2, n_modes=3):
    f = TrigPoly.const(dim, random_fraction(rng))
    for _ in range(n_modes):
        k = [rng.randint(-max_deg, max_deg) for _ in range(dim)]
        if not any(k):
            k[rng.randrange(dim)] = rng.randint(1, max_deg)
        f = f + random_fraction(rng) * TrigPoly.cosine(dim, k)
        f = f + random_fraction(rng) * TrigPoly.sine(dim, k)
    return f


def random_form(rng, dim, degree, max_deg=2, n_terms=2):
    coeffs = {}
    tuples = degree_tuples(dim, degree)
    for idx in rng.sample(tuples, min(n_terms, len(tuples))):
        coeffs[idx] = random_real_trigpoly(rng, dim, max_deg, n_modes=2)
    return TorusForm(dim, degree, coeffs)


def random_field(rng, dim, max_deg=2):
    return TorusVectorField(
        dim, [random_real_trigpoly(rng, dim, max_deg, n_modes=2) for _ in range(dim)]
    )


def random_invariant(rng, max_deg=6):
    """Random trigonometric polynomial in z on the 3-torus."""
    f = TrigPoly.const(3, random_fraction(rng))
    for j in range(1, max_deg + 1):
        if rng.random() < 0.5:
            f = f + random_fraction(rng) * TrigPoly.cosine(3, (0, 0, j))
        if rng.random() < 0.5:
            f = f + random_fraction(rng) * TrigPoly.sine(3, (0, 0, j))
    return f


def random_closed_oneform(rng, dim):
    """Constant 1-form plus an exact piece: always closed."""
    coeffs = {
        (i,): TrigPoly.const(dim, random_fraction(rng)) for i in range(dim)
    }
    alpha = TorusForm(dim, 1, coeffs)
    df = exterior_derivative(
        TorusForm.function(dim, random_real_trigpoly(rng, dim, max_deg=1, n_modes=1))
    )
    return alpha + df


# -- the verify input builders as add chains ------------------------------------
# Each adds one normalized term at a time, in the order of its draws; the
# builders of ``preqlat.verify`` must give equal inputs from the same draws
# and leave the generator in the same state.

def oracle_rand_poly(rng, dim, max_deg, n_modes):
    f = TrigPoly.const(dim, random_fraction(rng, 4, 3))
    for _ in range(n_modes):
        k = [rng.randint(-max_deg, max_deg) for _ in range(dim)]
        if not any(k):
            k[rng.randrange(dim)] = 1
        f = f + random_fraction(rng, 4, 3) * TrigPoly.cosine(dim, k)
        f = f + random_fraction(rng, 4, 3) * TrigPoly.sine(dim, k)
    return f


def oracle_rand_invariant(rng, max_deg):
    f = TrigPoly.const(3, random_fraction(rng, 4, 3))
    for j in range(1, max_deg + 1):
        if rng.random() < 0.5:
            f = f + random_fraction(rng, 4, 3) * TrigPoly.cosine(3, (0, 0, j))
        if rng.random() < 0.5:
            f = f + random_fraction(rng, 4, 3) * TrigPoly.sine(3, (0, 0, j))
    return f


def oracle_rand_form(rng, dim, degree, max_deg, n_terms):
    coeffs = {}
    tuples = degree_tuples(dim, degree)
    for idx in rng.sample(tuples, min(n_terms, len(tuples))):
        coeffs[idx] = oracle_rand_poly(rng, dim, max_deg, n_modes=1)
    return TorusForm(dim, degree, coeffs)


def oracle_rand_closed_oneform(rng, dim):
    alpha = TorusForm(
        dim, 1, {(i,): TrigPoly.const(dim, random_fraction(rng, 4, 3)) for i in range(dim)}
    )
    df = exterior_derivative(
        TorusForm.function(dim, oracle_rand_poly(rng, dim, max_deg=1, n_modes=1))
    )
    return alpha + df


def oracle_axis_poly(rng, dim, axis, zero_mean):
    f = TrigPoly.zero(dim) if zero_mean else TrigPoly.const(dim, random_fraction(rng, 4, 3))
    for j in range(1, 4):
        wave = [j if c == axis else 0 for c in range(dim)]
        if rng.random() < 0.6:
            f = f + random_fraction(rng, 4, 3) * TrigPoly.cosine(dim, wave)
        if rng.random() < 0.6:
            f = f + random_fraction(rng, 4, 3) * TrigPoly.sine(dim, wave)
    if zero_mean and f.is_zero():
        f = TrigPoly.cos_axis(dim, axis)
    return f


def eval_float(poly: TrigPoly, point) -> complex:
    """Value of the polynomial at a real point, in binary64."""
    if len(point) != poly.dim:
        raise ValueError("point has wrong dimension")
    total = 0j
    for k in poly.modes:
        re, im = poly.coefficient(k)
        total += complex(float(re), float(im)) * cmath.exp(1j * sum(a * x for a, x in zip(k, point)))
    return total


def is_real(poly: TrigPoly) -> bool:
    """coeff(-k) == conj(coeff(k)) for every mode k."""
    return all(
        poly.modes.get(tuple(-x for x in k)) == (a, -b) for k, (a, b) in poly.modes.items()
    )


def max_degree(poly: TrigPoly) -> int:
    """Largest |k_j| over the support."""
    return max((abs(x) for k in poly.modes for x in k), default=0)


def quadrature_oracle(form: TorusForm, cycle: CoordinateCycle) -> float:
    """Trapezoidal integral over the cycle, on a grid fine enough to be
    exact for the form's degree."""
    max_deg = max((max_degree(poly) for poly in form.coeffs.values()), default=0)
    n = max(2 * max_deg + 2, 4)
    axes = sorted(cycle.axes)
    if form.degree != len(axes):
        raise ValueError("degree mismatch")
    sign = sort_sign(cycle.axes)
    poly = form.coeffs.get(tuple(axes))
    if poly is None:
        return 0.0
    base = [cycle.offsets.get(a, 0) * math.pi / 2 for a in range(form.dim)]
    total = 0.0
    steps = [0] * len(axes)

    def rec(level):
        nonlocal total
        if level == len(axes):
            pt = list(base)
            for a, s in zip(axes, steps):
                pt[a] = 2 * math.pi * s / n
            total += eval_float(poly, pt).real
            return
        for s in range(n):
            steps[level] = s
            rec(level + 1)

    rec(0)
    cell = (2 * math.pi / n) ** len(axes)
    return sign * total * cell * (2 * math.pi) ** form.pi_power


# Reference torus calculus: the loop forms, which build one intermediate
# polynomial per product and per partial sum, on a pairwise convolution of
# their own.  The library builds each result with one trig.product_sum
# call and must agree with these exactly, errors included.
def oracle_mul(f: TrigPoly, g: TrigPoly) -> TrigPoly:
    """f * g by the pairwise convolution loop."""
    if f.dim != g.dim:
        raise ValueError("polynomials live on different tori")
    modes = {}
    for k1, (a1, b1) in f.modes.items():
        for k2, (a2, b2) in g.modes.items():
            k = tuple(x + y for x, y in zip(k1, k2))
            re, im = modes.get(k, (0, 0))
            modes[k] = (re + a1 * a2 - b1 * b2, im + a1 * b2 + b1 * a2)
    return TrigPoly(f.dim, modes, f.den * g.den)


def oracle_apply(x: TorusVectorField, f: TrigPoly) -> TrigPoly:
    """X(f) = sum_j X^j df/dx_j, one product and one sum at a time."""
    if x.pi_power != 0:
        raise ValueError("field carries a (2*pi) power; scale it away first")
    out = TrigPoly.zero(x.dim)
    for axis, comp in enumerate(x.components):
        if not comp.is_zero():
            df = f.diff(axis)
            if not df.is_zero():
                out = out + oracle_mul(comp, df)
    return out


def oracle_vf_bracket(x: TorusVectorField, y: TorusVectorField) -> TorusVectorField:
    """[X, Y]^k = sum_j X^j d_j Y^k - Y^j d_j X^k."""
    if x.dim != y.dim:
        raise ValueError("fields live on different tori")
    dim = x.dim
    comps = []
    for k in range(dim):
        acc = TrigPoly.zero(dim)
        for j in range(dim):
            acc = acc + oracle_mul(x.components[j], y.components[k].diff(j))
            acc = acc - oracle_mul(y.components[j], x.components[k].diff(j))
        comps.append(acc)
    return TorusVectorField(dim, comps, x.pi_power + y.pi_power)


def oracle_contract(x: TorusVectorField, f: TorusForm) -> TorusForm:
    """i_X f, term by term."""
    if x.dim != f.dim:
        raise ValueError("field and form live on different tori")
    if f.degree == 0:
        return TorusForm.zero(f.dim, 0)
    out = {}
    for idx, poly in f.coeffs.items():
        for axis in idx:
            rest, sign = remove_index(axis, idx)
            term = oracle_mul(x.components[axis], poly)
            out[rest] = out.get(rest, TrigPoly.zero(f.dim)) + (term if sign > 0 else -term)
    return TorusForm(f.dim, f.degree - 1, out, f.pi_power + x.pi_power)


def oracle_wedge(f: TorusForm, g: TorusForm) -> TorusForm:
    """f ^ g, term by term."""
    if f.dim != g.dim:
        raise ValueError("forms live on different tori")
    degree = f.degree + g.degree
    if degree > f.dim:
        return TorusForm.zero(f.dim, degree)
    out = {}
    for ia, pa in f.coeffs.items():
        for ib, pb in g.coeffs.items():
            merged = merge_tuples(ia, ib)
            if merged is not None:
                idx, sign = merged
                term = oracle_mul(pa, pb)
                out[idx] = out.get(idx, TrigPoly.zero(f.dim)) + (term if sign > 0 else -term)
    return TorusForm(f.dim, degree, out, f.pi_power + g.pi_power)


def fraction_inverse(mat):
    """Inverse of a square Fraction matrix by Gauss-Jordan elimination."""
    n = len(mat)
    rows = [[Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(n)]
            for i, row in enumerate(mat)]
    for c in range(n):
        piv = next(r for r in range(c, n) if rows[r][c])
        rows[c], rows[piv] = rows[piv], rows[c]
        head = [x / rows[c][c] for x in rows[c]]
        rows = [head if r == c else [x - row[c] * y for x, y in zip(row, head)]
                for r, row in enumerate(rows)]
    return [row[n:] for row in rows]


def oracle_hamiltonian_field(f: TrigPoly, omega: TorusForm) -> TorusVectorField:
    """X_f = W^{-1} grad f for the antisymmetric coefficient matrix W of a
    constant omega, so that i_{X_f} omega = -df; W inverted with
    Fractions."""
    dim = omega.dim
    mat = [[Fraction(0)] * dim for _ in range(dim)]
    for (a, b), poly in omega.coeffs.items():
        mat[a][b] = poly.mean()[0]
        mat[b][a] = -mat[a][b]
    grads = [f.diff(k) for k in range(dim)]
    comps = []
    for row in fraction_inverse(mat):
        acc = TrigPoly.zero(dim)
        for k, c in enumerate(row):
            if c and not grads[k].is_zero():
                acc = acc + grads[k] * c
        comps.append(acc)
    return TorusVectorField(dim, comps)


def oracle_poisson_bracket(f: TrigPoly, g: TrigPoly, omega: TorusForm) -> TrigPoly:
    """{f, g} = omega(X_f, X_g), through two contractions into omega."""
    xf = oracle_hamiltonian_field(f, omega)
    xg = oracle_hamiltonian_field(g, omega)
    return oracle_contract(xg, oracle_contract(xf, omega)).as_function()


def oracle_ks_cocycle(f: TrigPoly, g: TrigPoly, omega: TorusForm, point) -> Fraction:
    """{f, g} at the quarter point, by forming the bracket polynomial and
    evaluating it there."""
    re, im = poisson_bracket(f, g, omega).eval_quarter(point)
    if im:
        raise ValueError("bracket of non-real inputs at this point")
    return re


def oracle_contact_field(f: TrigPoly) -> TorusVectorField:
    """zeta_f = f E + (df/dz) V - V(f) d/dz for a Reeb-invariant f on the
    contact 3-torus."""
    e, v = reeb_field(), transverse_field()
    if not oracle_apply(e, f).is_zero():
        raise ValueError("not Reeb-invariant")
    fz = f.diff(2)
    comps = [oracle_mul(f, e.components[j]) + oracle_mul(fz, v.components[j]) for j in (0, 1)]
    comps.append(-oracle_apply(v, f))
    return TorusVectorField(3, comps)


def close(exact: ExactScalar, approx: float):
    """Whether q * (2*pi)**d is within 1e-9 of a float."""
    value = float(exact.q) * (2.0 * math.pi) ** exact.pi_power
    return math.isclose(value, approx, rel_tol=1e-9, abs_tol=1e-9)


def two_step_presentation(seed, dim, centre, bound, density=1.0):
    """Seeded random 2-step nilpotent presentation: each bracket of the
    first dim-centre generators is drawn with probability ``density`` and
    lands in the span of the last ``centre`` ones, with coefficients in
    [-bound, bound]."""
    rng = random.Random(seed)
    structure = {}
    for i in range(dim - centre):
        for j in range(i + 1, dim - centre):
            if rng.random() >= density:
                continue
            comps = {k: Fraction(v) for k in range(dim - centre, dim)
                     if (v := rng.randint(-bound, bound))}
            if comps:
                structure[(i, j)] = comps
    return LieAlgebraPresentation(
        dim=dim, basis_names=tuple(f"e{i+1}" for i in range(dim)), structure=structure
    )


# The library passes every integer matrix as sparse columns, (row, int)
# pairs per column in increasing row order, with its row count beside it.
# The oracles below work on dense row lists; these convert between the two.
def mat_mul(a, b):
    """The product of two integer matrices given as dense rows."""
    n, k = len(a), len(b)
    m = len(b[0]) if b else 0
    out = [[0] * m for _ in range(n)]
    for i in range(n):
        ai, oi = a[i], out[i]
        for t in range(k):
            x = ai[t]
            if x:
                bt = b[t]
                for j in range(m):
                    oi[j] += x * bt[j]
    return out


def sparse_columns(dense):
    """The sparse columns of a matrix given as dense rows."""
    return [[(i, x) for i, x in enumerate(col) if x] for col in zip(*dense)]


def dense_matrix(cols, nrows):
    """The dense rows of the nrows x len(cols) matrix with these sparse
    columns."""
    rows = [[0] * len(cols) for _ in range(nrows)]
    for j, col in enumerate(cols):
        for i, x in col:
            rows[i][j] = x
    return rows


def dense_complex(lie):
    """d_0, ..., d_{m-1} of ``complex_matrices`` as dense rows; d_k has
    C(m, k+1) rows."""
    return [dense_matrix(d, math.comb(lie.dim, k + 1))
            for k, d in enumerate(complex_matrices(lie))]


def smith(a):
    """``intlinalg.smith_normal_form`` of a matrix given as dense rows."""
    return smith_normal_form(sparse_columns(a), len(a))


# Reference Smith normal form: every pivot search walks the whole trailing
# block of a dense matrix, and every pivot, units included, is followed by
# the divisibility scan.  intlinalg.smith_normal_form must make the same
# choices on sparse rows with less scanning, so it must return the same
# decomposition and log the same operations.  The transforms are kept
# current through every operation, so they also check the replay of
# intlinalg's operation logs.
FullScanSmith = namedtuple("FullScanSmith", "u d v uinv vinv rank row_ops col_ops")


def full_scan_smith_normal_form(a, ncols=0) -> FullScanSmith:
    """Smith normal form of an integer matrix, with transforms; a matrix
    with no rows has ``ncols`` columns.

    Deterministic for a fixed input: the pivot is always the nonzero
    entry of smallest absolute value (ties broken by position).
    """
    n = len(a)
    m = len(a[0]) if n else ncols
    b = [list(map(int, row)) for row in a]
    u = identity(n)
    uinv = identity(n)
    v = identity(m)
    vinv = identity(m)
    row_ops = []
    col_ops = []

    # Row op B <- E B keeps A = U B V when U <- U E^{-1}; col op B <- B F
    # needs V <- F^{-1} V.  The inverses absorb E and F directly.
    def swap_rows(i, j):
        b[i], b[j] = b[j], b[i]
        uinv[i], uinv[j] = uinv[j], uinv[i]
        for row in u:
            row[i], row[j] = row[j], row[i]
        row_ops.append(("swap", i, j))

    def swap_cols(i, j):
        for row in b:
            row[i], row[j] = row[j], row[i]
        for row in vinv:
            row[i], row[j] = row[j], row[i]
        v[i], v[j] = v[j], v[i]
        col_ops.append(("swap", i, j))

    def add_row(src, dst, q):
        # row[dst] += q * row[src]
        if q == 0:
            return
        b[dst] = [x + q * y for x, y in zip(b[dst], b[src])]
        uinv[dst] = [x + q * y for x, y in zip(uinv[dst], uinv[src])]
        for row in u:
            row[src] -= q * row[dst]
        row_ops.append(("add", src, dst, q))

    def add_col(src, dst, q):
        if q == 0:
            return
        for row in b:
            row[dst] += q * row[src]
        for row in vinv:
            row[dst] += q * row[src]
        v[src] = [x - q * y for x, y in zip(v[src], v[dst])]
        col_ops.append(("add", src, dst, q))

    def negate_row(i):
        b[i] = [-x for x in b[i]]
        uinv[i] = [-x for x in uinv[i]]
        for row in u:
            row[i] = -row[i]
        row_ops.append(("neg", i))

    size = min(n, m)
    t = 0
    while t < size:
        # smallest nonzero entry of the trailing block
        pivot = None
        for i in range(t, n):
            for j in range(t, m):
                x = b[i][j]
                if x and (pivot is None or abs(x) < abs(b[pivot[0]][pivot[1]])):
                    pivot = (i, j)
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
                # divisibility chain; fold an offending row in and redo
                p = b[t][t]
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
            pivot = None
            for i in range(t, n):
                for j in range(t, m):
                    x = b[i][j]
                    if x and (pivot is None or abs(x) < abs(b[pivot[0]][pivot[1]])):
                        pivot = (i, j)
        if b[t][t] < 0:
            negate_row(t)
        t += 1

    rank = sum(1 for i in range(size) if b[i][i])
    return FullScanSmith(u=u, d=b, v=v, uinv=uinv, vinv=vinv, rank=rank,
                         row_ops=row_ops, col_ops=col_ops)


# Reference column Hermite normal form on dense columns: every row is
# visited and every column operation runs over the whole column.
# intlinalg.column_style_hermite works on sparse columns; the Hermite
# basis of a lattice is unique, so the two must agree.
def dense_column_style_hermite(cols, n):
    """Canonical basis, in column Hermite normal form, of the lattice
    generated by the given column vectors of length n: positive pivots in
    strictly increasing rows, the entries to the right of a pivot in its
    row reduced into [0, pivot), dependent generators eliminated."""
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


# Reference reduction rows: the whole formula of the eager engine, which
# built every degree's rows with the degree from the full transforms.
# Here the transforms come from the full-scan oracle and the Hermite basis
# from the dense one, so the oracle shares neither the operation-log
# replay, the sparse elimination nor the laziness of cohomring.
def eager_reduce_rows(mats, k):
    """Reduction rows of degree k of the complex with differentials
    ``mats`` (d_0, ..., d_{m-1}): one integer row per class, free classes
    (in the Hermite basis of their representatives) first, then torsion
    classes (each representative's first nonzero entry positive)."""
    d_k = mats[k] if k < len(mats) else []
    n_k = len(d_k[0]) if d_k else len(mats[k - 1])
    if d_k:
        ker = full_scan_smith_normal_form(d_k)
        kercols = [list(c) for c in zip(*ker.vinv)][ker.rank:]
        coord_rows = ker.v[ker.rank:]
    else:
        kercols = coord_rows = identity(n_k)
    s = len(kercols)
    if s == 0:
        return []
    prev = [list(c) for c in zip(*mats[k - 1]) if any(c)] if k >= 1 else []
    x_cols = [mat_vec(coord_rows, c) for c in prev]
    if x_cols:
        x = full_scan_smith_normal_form([[c[i] for c in x_cols] for i in range(s)])
        diag = [x.d[i][i] for i in range(min(s, len(x_cols)))]
        diag += [0] * (s - len(diag))
        u, uinv = x.u, x.uinv
    else:
        diag, u, uinv = [0] * s, identity(s), identity(s)

    def rep_col(i):
        return [sum(u[j][i] * kercols[j][row] for j in range(s)) for row in range(n_k)]

    free_idx = [i for i in range(s) if diag[i] == 0]
    cols = [rep_col(i) for i in free_idx]
    rows = [uinv[i] for i in free_idx]
    if cols:
        hnf = dense_column_style_hermite(cols, n_k)
        t_inv_cols = echelon_coords(hnf, cols)
        rows = mat_mul([[c[i] for c in t_inv_cols] for i in range(len(hnf))], rows)
    for i in (i for i in range(s) if diag[i] > 1):
        sign = -1 if next(x for x in rep_col(i) if x) < 0 else 1
        rows.append([sign * x for x in uinv[i]])
    return mat_mul(rows, coord_rows)


# Reference degree data: the read-and-multiply construction the engine
# used before it ran the Smith logs over the vectors it keeps.  It reads
# the kernel basis (columns r.. of V^{-1}) and the coordinate rows (rows
# r.. of V) off the first Smith form, the columns of U and rows of U^{-1}
# it needs off the second, and multiplies; it shares the Smith
# elimination and the Hermite form with the engine, but not the replay of
# given vectors, the forward pass over the column log or the products.
def read_multiply_degree_data(mats, dim, k):
    """(betti, torsion, reps, reduce_rows) of degree k of the complex with
    the sparse differentials ``mats`` (as ``complex_matrices`` returns
    them) on dim generators, every reduction row built at once."""
    basis = degree_tuples(dim, k)
    n_k = len(basis)
    prev_cols = [c for c in mats[k - 1] if c] if k >= 1 else []
    if k < len(mats):
        ker = smith_normal_form(mats[k], math.comb(dim, k + 1))
        idx = range(ker.rank, n_k)
        kercols, coord_rows = ker.read("vinv", idx), ker.read("v", idx)
    else:
        kercols = coord_rows = identity(n_k)
    s = len(kercols)
    if s == 0:
        return 0, [], [], []
    coord_cols = [[(t, x) for t, x in enumerate(col) if x] for col in zip(*coord_rows)]
    x_cols = []
    for col in prev_cols:
        image = {}
        for i, x in col:
            for t, v in coord_cols[i]:
                image[t] = image.get(t, 0) + v * x
        x_cols.append(sorted((t, y) for t, y in image.items() if y))
    if prev_cols:
        snf = smith_normal_form(x_cols, s)
    else:
        snf = SmithDecomposition([], (s, 0), 0, [], [])
    diag = snf.diagonal + [0] * (s - len(snf.diagonal))
    free_idx = [i for i in range(s) if diag[i] == 0]
    tors_idx = [i for i in range(s) if diag[i] > 1]
    betti = len(free_idx)
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
    hnf_cols = column_style_hermite(free_cols, n_k)
    signs = [-1 if next(x for x in col if x) < 0 else 1 for col in cols[betti:]]
    cols = hnf_cols + [[sign * x for x in col] for sign, col in zip(signs, cols[betti:])]
    rows = snf.read("uinv", free_idx + tors_idx)
    t_inv = list(zip(*echelon_coords(hnf_cols, free_cols)))
    rows[:betti] = mat_mul(t_inv, rows[:betti])
    rows[betti:] = [[sign * x for x in row] for sign, row in zip(signs, rows[betti:])]
    reps = [[(basis[j], x) for j, x in enumerate(col) if x] for col in cols]
    return betti, [diag[i] for i in tors_idx], reps, mat_mul(rows, coord_rows)


def det(a):
    """Exact determinant via fraction-free Gaussian elimination (Bareiss)."""
    n = len(a)
    if n == 0:
        return 1
    m = [list(map(int, row)) for row in a]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            for i in range(k + 1, n):
                if m[i][k]:
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
            m[i][k] = 0
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


def pfaffian(coeffs, m):
    """Pfaffian of the antisymmetric m x m matrix with entries
    coeffs[(i, j)], i < j, by expansion along the first row; it is the
    volume of sum c_ij dx_i^dx_j on T^m in units of (2*pi)^m."""
    def pf(idx):
        if not idx:
            return 1
        first, rest = idx[0], idx[1:]
        return sum((-1) ** pos * coeffs.get((first, j), 0) * pf(rest[:pos] + rest[pos + 1:])
                   for pos, j in enumerate(rest))
    return pf(tuple(range(m)))


def rational_rank(mat):
    """Row-echelon rank over Q; independent of the Smith-form machinery."""
    rows = [[Fraction(x) for x in row] for row in mat if any(row)]
    rank = 0
    ncols = len(mat[0]) if mat else 0
    col = 0
    while rows and col < ncols:
        piv = next((i for i, r in enumerate(rows) if r[col]), None)
        if piv is None:
            col += 1
            continue
        rows[0], rows[piv] = rows[piv], rows[0]
        head = rows[0]
        rows = [
            [x - (r[col] / head[col]) * y for x, y in zip(r, head)] if r[col] else r
            for r in rows[1:]
        ]
        rows = [r for r in rows if any(r)]
        rank += 1
        col += 1
    return rank


# Reference validation: the Jacobi identity checked with Fraction dicts on
# every basis triple, and the lower central series spanned by Fraction
# Gaussian elimination.  cealg.validate_presentation works on the integer
# generator table and must return the same report.
def fraction_validate_presentation(lie: LieAlgebraPresentation) -> ValidationReport:
    """Check the Jacobi identity on all basis triples and that the lower
    central series reaches zero.  Failures are reported, not raised."""
    m = lie.dim
    jacobi_ok = True
    witness = None
    for i in range(m):
        for j in range(i + 1, m):
            for k in range(j + 1, m):
                acc = [Fraction(0)] * m
                for (a, b, c) in ((i, j, k), (j, k, i), (k, i, j)):
                    inner = bracket_basis(lie, a, b)
                    for t, coef in inner.items():
                        for s, coef2 in bracket_basis(lie, t, c).items():
                            acc[s] += coef * coef2
                if any(acc):
                    jacobi_ok = False
                    witness = (i, j, k)
                    break
            if witness:
                break
        if witness:
            break

    # lower central series over Q: L_1 = [g, g], L_{t+1} = [g, L_t]
    span = _basis_brackets_span(lie)
    step = 1
    while span:
        new_span = _bracket_span(lie, span)
        # [g, L_t] lies in L_t by bilinearity, so equal dimension means the series stalled
        if len(new_span) == len(span):
            return ValidationReport(jacobi_ok, witness, False, None, len(span))
        span = new_span
        step += 1
    return ValidationReport(jacobi_ok, witness, True, step, 0)


def _basis_brackets_span(lie):
    vecs = []
    for (i, j), comps in lie.structure.items():
        v = [Fraction(0)] * lie.dim
        for k, c in comps.items():
            v[k] = c
        vecs.append(v)
    return _row_reduce(vecs)


def _bracket_span(lie, span):
    vecs = []
    for i in range(lie.dim):
        ei = [Fraction(1 if t == i else 0) for t in range(lie.dim)]
        for w in span:
            vecs.append(_fraction_bracket(lie, ei, w))
    return _row_reduce(vecs)


def _row_reduce(vecs):
    rows = [list(v) for v in vecs if any(v)]
    basis = []
    for row in rows:
        for b in basis:
            piv = next(i for i, x in enumerate(b) if x)
            if row[piv]:
                f = row[piv] / b[piv]
                row = [x - f * y for x, y in zip(row, b)]
        if any(row):
            basis.append(row)
    return basis


def _fraction_bracket(lie, x, y):
    """Bracket of coefficient vectors (length-dim sequences)."""
    out = [Fraction(0)] * lie.dim
    for (i, j), comps in lie.structure.items():
        coef = x[i] * y[j] - x[j] * y[i]
        if coef:
            for k, c in comps.items():
                out[k] += coef * c
    return out


# Conveniences that only tests use, kept out of the library.
def bracket_basis(lie, i, j):
    """[e_i, e_j] of a presentation as a coefficient dict {k: Fraction}."""
    if i == j:
        return {}
    if i < j:
        return dict(lie.structure.get((i, j), {}))
    return {k: -c for k, c in lie.structure.get((j, i), {}).items()}


def cochain_wedge(a: Cochain, b: Cochain) -> Cochain:
    """Graded-commutative product of two ``Cochain``s; degree overflow
    gives the zero cochain."""
    if a.dim != b.dim:
        raise ValueError("cochains live in different spaces")
    degree = a.degree + b.degree
    if degree > a.dim:
        return Cochain(a.dim, degree)
    coeffs = {}
    for ia, ca in a.coeffs.items():
        for ib, cb in b.coeffs.items():
            merged = merge_tuples(ia, ib)
            if merged is None:
                continue
            idx, sign = merged
            coeffs[idx] = coeffs.get(idx, Fraction(0)) + sign * ca * cb
    return Cochain(a.dim, degree, coeffs)


def evaluate(c, indices):
    """Value of the cochain c on the basis vectors e_{indices}
    (alternating multilinear)."""
    if len(indices) != c.degree:
        raise ValueError("wrong number of arguments")
    sign = sort_sign(indices)
    if sign == 0:
        return Fraction(0)
    return sign * c.coeffs.get(tuple(sorted(indices)), Fraction(0))


def zero_class(ring, degree):
    """The zero class of a degree of a ring (empty above its top)."""
    if degree >= len(ring.degrees):
        return CohomClass(degree, (), ())
    dd = ring.data(degree)
    return CohomClass(degree, (0,) * dd.betti, (0,) * len(dd.torsion))


def orientation_class(ring):
    """The generator of the free part of a ring's top degree."""
    dd = ring.data(ring.top_degree)
    return CohomClass(ring.top_degree, (1,), (0,) * len(dd.torsion))


def coordinate_field(dim, axis, poly=1):
    """The field poly * d/dx_axis on the dim-torus."""
    comps = [TrigPoly.zero(dim)] * dim
    comps[axis] = poly if isinstance(poly, TrigPoly) else TrigPoly.const(dim, poly)
    return TorusVectorField(dim, comps)


def ring_from_preset(preset_id, **params):
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


def scaled_symplectic(scales):
    """sum_i c_i dx_{2i} ^ dx_{2i+1} on the 2n-torus, n = len(scales): the
    standard symplectic form with one scale per coordinate plane."""
    return TorusForm(2 * len(scales), 2, {(2 * i, 2 * i + 1): c for i, c in enumerate(scales)})


def mean_against_volume(f: TrigPoly, omega: TorusForm) -> Fraction:
    """(1/vol) integral of f omega^n/n!; the constants-part projection."""
    dim = omega.dim
    voln = liouville_power(omega, dim // 2)
    full = CoordinateCycle.full(dim)
    vol = integrate_over_cycle(voln, full)
    num = integrate_product(f, voln, full)
    return (num / vol).q


def kappa_rho(f: TrigPoly, omega: TorusForm):
    """Split a Hamiltonian into its mean and its mean-free part.

    Returns (rho(f), kappa(X_f)) = (mean, f - mean)."""
    rho = mean_against_volume(f, omega)
    return rho, f - rho


def invariant_function(coeffs) -> TrigPoly:
    """Build the Reeb-invariant f(z) = c_0 + sum_j (a_j cos jz + b_j sin jz)
    on the contact 3-torus from coeffs = (c_0, [(a_1, b_1), (a_2, b_2), ...])."""
    c0, harmonics = coeffs
    f = TrigPoly.const(DIM, c0)
    for j, (a, b) in enumerate(harmonics, start=1):
        if a:
            f = f + a * TrigPoly.cosine(DIM, (0, 0, j))
        if b:
            f = f + b * TrigPoly.sine(DIM, (0, 0, j))
    return f


def strict_contact_residual(x: TorusVectorField) -> TorusForm:
    """L_X theta; zero exactly when X preserves the contact form."""
    return lie_derivative(x, contact_form())


def infinitesimal_flux(x: TorusVectorField):
    """Coordinates of the class of i_X nu, for the unit volume form nu, in
    the coordinate basis of degree m-1: the constant mode of each
    coefficient, as exact scalars.  Zero exactly when the field has a
    potential."""
    m = x.dim
    form = contract(x, unit_volume_form(m))
    out = {}
    for idx in degree_tuples(m, m - 1):
        re, im = form.coefficient(idx).mean()
        if im:
            raise ValueError("flux of a non-real field")
        out[idx] = ExactScalar(re, form.pi_power if re else 0)
    return out


def is_exact_field(x: TorusVectorField) -> bool:
    return all(v.is_zero() for v in infinitesimal_flux(x).values())
