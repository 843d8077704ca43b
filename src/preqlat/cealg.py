"""Exterior algebra on a dual basis and the cochain differential of a
finite-dimensional Lie algebra presentation.

A presentation stores rational structure constants c[i][j][k] for i < j,
meaning [e_i, e_j] = sum_k c_ijk e_k.  Cochains are finitely supported
maps from strictly increasing index tuples to rationals.  The differential
is fixed by  (d a)(x, y) = -a([x, y])  on degree one and extends as an
antiderivation; with this convention the differential of a basis covector
e_k is  -sum_{i<j} c_ijk e_i ^ e_j.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .combinat import degree_tuples, merge_tuples, sort_sign


@dataclass(frozen=True)
class LieAlgebraPresentation:
    """Structure constants of a Lie algebra on an ordered basis.

    ``structure`` maps (i, j) with i < j to {k: c} for the bracket
    [e_i, e_j] = sum c * e_k.  Indices are 0-based.
    """

    dim: int
    basis_names: tuple
    structure: dict = field(default_factory=dict)

    def __post_init__(self):
        if len(self.basis_names) != self.dim:
            raise ValueError("basis_names length must equal dim")
        clean = {}
        for (i, j), comps in self.structure.items():
            if not (0 <= i < j < self.dim):
                raise ValueError(f"bracket indices ({i},{j}) must satisfy 0 <= i < j < dim")
            entry = {k: Fraction(c) for k, c in comps.items() if Fraction(c) != 0}
            for k in entry:
                if not 0 <= k < self.dim:
                    raise ValueError(f"bracket target index {k} out of range")
            if entry:
                clean[(i, j)] = entry
        object.__setattr__(self, "structure", clean)

    def bracket_basis(self, i, j):
        """[e_i, e_j] as a coefficient dict {k: Fraction}."""
        if i == j:
            return {}
        if i < j:
            return dict(self.structure.get((i, j), {}))
        return {k: -c for k, c in self.structure.get((j, i), {}).items()}

    def bracket(self, x, y):
        """Bracket of coefficient vectors (length-dim sequences)."""
        out = [Fraction(0)] * self.dim
        for (i, j), comps in self.structure.items():
            coef = x[i] * y[j] - x[j] * y[i]
            if coef:
                for k, c in comps.items():
                    out[k] += coef * c
        return out

    def is_integral(self):
        return all(
            c.denominator == 1 for comps in self.structure.values() for c in comps.values()
        )


def heisenberg_times_line(r=1) -> LieAlgebraPresentation:
    """dim-4 presentation with [x, p] = r*h and z, h central.

    The basis order (x, p, z, h) makes the lexicographic top monomial
    x^ p^ z^ h^ the orientation used by the volume computations.
    """
    if r <= 0 or int(r) != r:
        raise ValueError("level r must be a positive integer")
    return LieAlgebraPresentation(
        dim=4,
        basis_names=("x", "p", "z", "h"),
        structure={(0, 1): {3: Fraction(int(r))}},
    )


def abelian(m, names=None) -> LieAlgebraPresentation:
    if names is None:
        names = tuple(f"e{i+1}" for i in range(m))
    return LieAlgebraPresentation(dim=m, basis_names=tuple(names), structure={})


@dataclass(frozen=True)
class Cochain:
    """Element of the exterior algebra on the dual basis.

    ``coeffs`` maps strictly increasing index tuples of length ``degree``
    to nonzero rationals; a missing tuple means coefficient zero.
    """

    dim: int
    degree: int
    coeffs: dict = field(default_factory=dict)

    def __post_init__(self):
        clean = {}
        for idx, c in self.coeffs.items():
            idx = tuple(idx)
            if len(idx) != self.degree:
                raise ValueError(f"index tuple {idx} has wrong length for degree {self.degree}")
            if list(idx) != sorted(set(idx)):
                raise ValueError(f"index tuple {idx} must be strictly increasing")
            if any(not 0 <= i < self.dim for i in idx):
                raise ValueError(f"index {idx} out of range for dim {self.dim}")
            c = Fraction(c)
            if c:
                clean[idx] = c
        object.__setattr__(self, "coeffs", clean)

    @staticmethod
    def zero(dim, degree):
        return Cochain(dim, degree, {})

    @staticmethod
    def basis(dim, idx):
        idx = tuple(idx)
        return Cochain(dim, len(idx), {idx: Fraction(1)})

    def is_zero(self):
        return not self.coeffs

    def __add__(self, other):
        self._check_compatible(other)
        coeffs = dict(self.coeffs)
        for idx, c in other.coeffs.items():
            coeffs[idx] = coeffs.get(idx, Fraction(0)) + c
        return Cochain(self.dim, self.degree, coeffs)

    def __neg__(self):
        return Cochain(self.dim, self.degree, {i: -c for i, c in self.coeffs.items()})

    def __sub__(self, other):
        return self + (-other)

    def __rmul__(self, scalar):
        scalar = Fraction(scalar)
        return Cochain(self.dim, self.degree, {i: scalar * c for i, c in self.coeffs.items()})

    def _check_compatible(self, other):
        if self.dim != other.dim or self.degree != other.degree:
            raise ValueError("cochains live in different spaces")

    def evaluate(self, indices):
        """Value on the basis vectors e_{indices} (alternating multilinear)."""
        if len(indices) != self.degree:
            raise ValueError("wrong number of arguments")
        sign = sort_sign(indices)
        if sign == 0:
            return Fraction(0)
        key = tuple(sorted(indices))
        return sign * self.coeffs.get(key, Fraction(0))

    def render(self, names, star="*"):
        """Human-readable form like ``2*x*^p* - h*`` given basis names."""
        if not self.coeffs:
            return "0"
        parts = []
        for idx in sorted(self.coeffs):
            c = self.coeffs[idx]
            mono = "^".join(f"{names[i]}{star}" for i in idx) if idx else "1"
            if c == 1:
                parts.append(mono)
            elif c == -1:
                parts.append(f"-{mono}")
            else:
                parts.append(f"{c}*{mono}")
        out = parts[0]
        for p in parts[1:]:
            out += f" {'-' if p.startswith('-') else '+'} {p.lstrip('-')}"
        return out


def wedge(a: Cochain, b: Cochain) -> Cochain:
    """Graded-commutative product; degree overflow gives the zero cochain."""
    if a.dim != b.dim:
        raise ValueError("cochains live in different spaces")
    degree = a.degree + b.degree
    if degree > a.dim:
        return Cochain.zero(a.dim, degree)
    coeffs = {}
    for ia, ca in a.coeffs.items():
        for ib, cb in b.coeffs.items():
            merged = merge_tuples(ia, ib)
            if merged is None:
                continue
            idx, sign = merged
            coeffs[idx] = coeffs.get(idx, Fraction(0)) + sign * ca * cb
    return Cochain(a.dim, degree, coeffs)


def ce_differential(c: Cochain, lie: LieAlgebraPresentation) -> Cochain:
    """Cochain differential determined by the presentation.

    On basis covectors d e_k = -sum_{i<j} c_ijk e_i ^ e_j; on products it
    acts as an antiderivation.  Squares to zero whenever the presentation
    satisfies the Jacobi identity.
    """
    if c.dim != lie.dim:
        raise ValueError("cochain does not match presentation dimension")
    m = lie.dim
    out = {}
    d1 = _differential_on_generators(lie)
    for idx, coef in c.coeffs.items():
        for pos, gen in enumerate(idx):
            rest = idx[:pos] + idx[pos + 1:]
            sgn_pos = -1 if pos % 2 else 1
            for pair, cc in d1[gen].items():
                merged = merge_tuples(pair, rest)
                if merged is None:
                    continue
                new_idx, sgn = merged
                val = coef * cc * sgn * sgn_pos
                if val:
                    out[new_idx] = out.get(new_idx, Fraction(0)) + val
    return Cochain(m, c.degree + 1, out)


def _differential_on_generators(lie):
    """d e_k as {(i, j): coefficient} for each generator k."""
    d1 = [dict() for _ in range(lie.dim)]
    for (i, j), comps in lie.structure.items():
        for k, c in comps.items():
            d1[k][(i, j)] = d1[k].get((i, j), Fraction(0)) - c
    return d1


def complex_matrices(lie: LieAlgebraPresentation):
    """Integer matrices of the differential on each exterior degree.

    Returns [d_0, ..., d_{m-1}] where d_k maps degree-k coefficient
    vectors (lexicographic increasing-tuple basis) to degree k+1.
    Raises ValueError unless the structure constants are integers.

    The column of a monomial e_I is the antiderivation rule of
    ``ce_differential`` on integers: for each position p of I, the
    tabulated terms of d e_{I_p} are merged with I minus I_p, with sign
    (-1)^p times the shuffle sign.
    """
    m = lie.dim
    if not lie.is_integral():
        raise ValueError("non-integral basis")
    gens = [[(pair, int(c)) for pair, c in dk.items()] for dk in _differential_on_generators(lie)]
    mats = []
    for k in range(m):
        src = degree_tuples(m, k)
        dst_pos = {t: i for i, t in enumerate(degree_tuples(m, k + 1))}
        mat = [[0] * len(src) for _ in dst_pos]
        for col, idx in enumerate(src):
            for pos, gen in enumerate(idx):
                if not gens[gen]:
                    continue
                rest = idx[:pos] + idx[pos + 1:]
                sgn_pos = -1 if pos % 2 else 1
                for pair, c in gens[gen]:
                    merged = merge_tuples(pair, rest)
                    if merged is not None:
                        mat[dst_pos[merged[0]]][col] += sgn_pos * merged[1] * c
        mats.append(mat)
    return mats


@dataclass
class ValidationReport:
    """Outcome of the Jacobi and nilpotency checks on a presentation."""

    jacobi_ok: bool
    jacobi_witness: tuple | None
    nilpotent: bool
    nilpotency_class: int | None
    stable_ideal_dim: int

    @property
    def ok(self):
        return self.jacobi_ok and self.nilpotent


def validate_presentation(lie: LieAlgebraPresentation) -> ValidationReport:
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
            vecs.append(lie.bracket(ei, w))
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
