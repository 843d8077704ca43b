"""Shared generators, float evaluation, the float-grid quadrature oracle,
the full-scan Smith normal form oracle, the eager reduction-row oracle,
the Bareiss determinant, the rational rank and the Fraction validation
oracle.

Uniform-grid trapezoidal sums on the periodic torus integrate any
trigonometric polynomial of per-axis degree < N exactly, so they give an
independent numerical check of the exact integrals.
"""

import cmath
import math
import random
from collections import namedtuple
from fractions import Fraction

from preqlat.cealg import LieAlgebraPresentation, ValidationReport
from preqlat.exact import ExactScalar
from preqlat.intlinalg import column_style_hermite, echelon_coords, identity, mat_mul, mat_vec
from preqlat.toruscalc import CoordinateCycle, TorusForm, TorusVectorField, TrigPoly


def random_fraction(rng, num=5, den=3):
    return Fraction(rng.randint(-num, num), rng.randint(1, den))


def random_real_trigpoly(rng, dim, max_deg=2, n_modes=3, allow_const=True):
    f = TrigPoly.const(dim, random_fraction(rng)) if allow_const else TrigPoly.zero(dim)
    for _ in range(n_modes):
        k = [rng.randint(-max_deg, max_deg) for _ in range(dim)]
        if not any(k):
            k[rng.randrange(dim)] = rng.randint(1, max_deg)
        f = f + TrigPoly.cosine(dim, k, random_fraction(rng))
        f = f + TrigPoly.sine(dim, k, random_fraction(rng))
    return f


def random_form(rng, dim, degree, max_deg=2, n_terms=2):
    from preqlat.combinat import degree_tuples

    coeffs = {}
    tuples = degree_tuples(dim, degree)
    for idx in rng.sample(tuples, min(n_terms, len(tuples))):
        coeffs[idx] = random_real_trigpoly(rng, dim, max_deg, n_modes=2)
    return TorusForm(dim, degree, coeffs)


def random_field(rng, dim, max_deg=2):
    return TorusVectorField(
        dim, [random_real_trigpoly(rng, dim, max_deg, n_modes=2) for _ in range(dim)]
    )


def random_invariant(rng, max_deg=6, zero_mean=False):
    """Random trigonometric polynomial in z on the 3-torus."""
    f = TrigPoly.zero(3) if zero_mean else TrigPoly.const(3, random_fraction(rng))
    for j in range(1, max_deg + 1):
        if rng.random() < 0.5:
            f = f + TrigPoly.cos_axis(3, 2, j, random_fraction(rng))
        if rng.random() < 0.5:
            f = f + TrigPoly.sin_axis(3, 2, j, random_fraction(rng))
    return f


def random_closed_oneform(rng, dim, omega=None):
    """Constant 1-form plus an exact piece: always closed."""
    from preqlat.toruscalc import exterior_derivative

    coeffs = {
        (i,): TrigPoly.const(dim, random_fraction(rng)) for i in range(dim)
    }
    alpha = TorusForm(dim, 1, coeffs)
    df = exterior_derivative(
        TorusForm.function(dim, random_real_trigpoly(rng, dim, max_deg=1, n_modes=1))
    )
    return alpha + df


def random_exact_field(rng, dim, max_deg=1):
    """Field with a potential: build one from a random (m-2)-form."""
    from preqlat.toruscalc import exact_field_from_potential

    alpha = random_form(rng, dim, dim - 2, max_deg=max_deg, n_terms=2)
    return exact_field_from_potential(alpha)


def eval_float(poly: TrigPoly, point) -> complex:
    """Value of the polynomial at a real point, in binary64."""
    if len(point) != poly.dim:
        raise ValueError("point has wrong dimension")
    total = 0j
    for k in poly.modes:
        re, im = poly.coefficient(k)
        total += complex(float(re), float(im)) * cmath.exp(1j * sum(a * x for a, x in zip(k, point)))
    return total


def quadrature_oracle(form: TorusForm, cycle: CoordinateCycle, n_grid=None) -> float:
    """Trapezoidal integral over the cycle; exact for degree < n_grid."""
    max_deg = max(
        (poly.max_degree() for poly in form.coeffs.values()), default=0
    )
    n = n_grid or max(2 * max_deg + 2, 4)
    axes = sorted(cycle.axes)
    if form.degree != len(axes):
        raise ValueError("degree mismatch")
    from preqlat.combinat import sort_sign

    sign = sort_sign(cycle.axes) * cycle.orientation
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


def close(exact: ExactScalar, approx: float, tol=1e-9):
    return math.isclose(float(exact), approx, rel_tol=tol, abs_tol=tol)


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


# Reference Smith normal form: every pivot search walks the whole trailing
# block, and every pivot, units included, is followed by the divisibility
# scan.  intlinalg.smith_normal_form must make the same choices with less
# scanning, so it must return the same decomposition.  The transforms are
# kept current through every operation, so they also check the replay of
# intlinalg's operation logs.
FullScanSmith = namedtuple("FullScanSmith", "u d v uinv vinv rank")


def full_scan_smith_normal_form(a) -> FullScanSmith:
    """Smith normal form of an integer matrix, with transforms.

    Deterministic for a fixed input: the pivot is always the nonzero
    entry of smallest absolute value (ties broken by position).
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
    return FullScanSmith(u=u, d=b, v=v, uinv=uinv, vinv=vinv, rank=rank)


# Reference reduction rows: the whole formula of the eager engine, which
# built every degree's rows with the degree from the full transforms.
# Here the transforms come from the full-scan oracle, so the oracle shares
# neither the operation-log replay nor the laziness of cohomring.
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
        hnf = column_style_hermite(cols, n_k)
        t_inv_cols = echelon_coords(hnf, cols)
        rows = mat_mul([[c[i] for c in t_inv_cols] for i in range(len(hnf))], rows)
    for i in (i for i in range(s) if diag[i] > 1):
        sign = -1 if next(x for x in rep_col(i) if x) < 0 else 1
        rows.append([sign * x for x in uinv[i]])
    return mat_mul(rows, coord_rows)


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
                    inner = lie.bracket_basis(a, b)
                    for t, coef in inner.items():
                        for s, coef2 in lie.bracket_basis(t, c).items():
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
