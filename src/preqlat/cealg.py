"""Exterior algebra on a dual basis and the cochain differential of a
finite-dimensional Lie algebra presentation.

A presentation stores rational structure constants c[i][j][k] for i < j,
meaning [e_i, e_j] = sum_k c_ijk e_k.  Cochains are finitely supported
maps from strictly increasing index tuples to rationals.  The differential
is fixed by  (d a)(x, y) = -a([x, y])  on degree one and extends as an
antiderivation; with this convention the differential of a basis covector
e_k is  -sum_{i<j} c_ijk e_i ^ e_j.

Everything here reads one integer table: d e_k for each generator, scaled
by the lcm L of the constants' denominators.  ``complex_matrices`` needs
L = 1; ``validate_presentation`` checks the Jacobi identity (every
d(d e_k) vanishes) and nilpotency (the lower central series, as integer
Hermite bases, reaches zero) exactly on the scaled constants.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm

from . import Value, intlinalg as lin
from .combinat import degree_tuples, merge_tuples


class LieAlgebraPresentation(Value):
    """Structure constants of a Lie algebra on an ordered basis; immutable.

    ``structure`` maps (i, j) with i < j to {k: c} for the bracket
    [e_i, e_j] = sum c * e_k.  Indices are 0-based.
    """

    __slots__ = ("dim", "basis_names", "structure")

    def __init__(self, dim, basis_names, structure=None):
        if len(basis_names) != dim:
            raise ValueError("basis_names length must equal dim")
        clean = {}
        for (i, j), comps in (structure or {}).items():
            if not (0 <= i < j < dim):
                raise ValueError(f"bracket indices ({i},{j}) must satisfy 0 <= i < j < dim")
            entry = {k: Fraction(c) for k, c in comps.items() if Fraction(c) != 0}
            for k in entry:
                if not 0 <= k < dim:
                    raise ValueError(f"bracket target index {k} out of range")
            if entry:
                clean[(i, j)] = entry
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "basis_names", basis_names)
        object.__setattr__(self, "structure", clean)


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


class Cochain(Value):
    """Element of the exterior algebra on the dual basis; immutable.

    ``coeffs`` maps strictly increasing index tuples of length ``degree``
    to nonzero rationals; a missing tuple means coefficient zero.
    """

    __slots__ = ("dim", "degree", "coeffs")

    def __init__(self, dim, degree, coeffs=None):
        clean = {}
        for idx, c in (coeffs or {}).items():
            idx = tuple(idx)
            if len(idx) != degree:
                raise ValueError(f"index tuple {idx} has wrong length for degree {degree}")
            if list(idx) != sorted(set(idx)):
                raise ValueError(f"index tuple {idx} must be strictly increasing")
            if any(not 0 <= i < dim for i in idx):
                raise ValueError(f"index {idx} out of range for dim {dim}")
            c = Fraction(c)
            if c:
                clean[idx] = c
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "degree", degree)
        object.__setattr__(self, "coeffs", clean)

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

    def __rmul__(self, scalar):
        scalar = Fraction(scalar)
        return Cochain(self.dim, self.degree, {i: scalar * c for i, c in self.coeffs.items()})

    def _check_compatible(self, other):
        if self.dim != other.dim or self.degree != other.degree:
            raise ValueError("cochains live in different spaces")

    def render(self, names):
        """Human-readable form like ``2*x*^p* - h*`` given the names of
        the degree-one cochains (here ``x*``, ``p*``, ``h*``)."""
        return render_terms(sorted(self.coeffs.items()), names)


def render_terms(terms, names):
    """``2*x*^p* - h*`` from (index tuple, int or Fraction) terms, in order."""
    parts = []
    for idx, c in terms:
        mono = "^".join(names[i] for i in idx) if idx else "1"
        if c == 1:
            parts.append(mono)
        elif c == -1:
            parts.append(f"-{mono}")
        else:
            parts.append(f"{c}*{mono}")
    if not parts:
        return "0"
    out = parts[0]
    for p in parts[1:]:
        out += f" {'-' if p.startswith('-') else '+'} {p.lstrip('-')}"
    return out


def ce_differential(c: Cochain, lie: LieAlgebraPresentation) -> Cochain:
    """Cochain differential determined by the presentation.

    On basis covectors d e_k = -sum_{i<j} c_ijk e_i ^ e_j; on products it
    acts as an antiderivation.  Squares to zero whenever the presentation
    satisfies the Jacobi identity.
    """
    if c.dim != lie.dim:
        raise ValueError("cochain does not match presentation dimension")
    scale, gens = _integer_generators(lie)
    out = {}
    for idx, coef in c.coeffs.items():
        coef /= scale
        for t, x in _d_terms(gens, idx):
            out[t] = out.get(t, 0) + coef * x
    return Cochain(lie.dim, c.degree + 1, out)


def _integer_generators(lie):
    """The lcm L of the structure constants' denominators, and L * d e_k
    for each generator k as a list of ((i, j), int) terms."""
    scale = lcm(*(c.denominator for comps in lie.structure.values() for c in comps.values()))
    gens = [[] for _ in range(lie.dim)]
    for pair, comps in lie.structure.items():
        for k, c in comps.items():
            gens[k].append((pair, -c.numerator * (scale // c.denominator)))
    return scale, gens


def _d_terms(gens, idx):
    """Terms (tuple, int) of d e_I for the monomial I = idx, by the
    antiderivation rule: for each position p of I, the tabulated terms of
    d e_{I_p} merged with I minus I_p, with sign (-1)^p times the shuffle
    sign.  A tuple may repeat; the caller sums."""
    for pos, gen in enumerate(idx):
        if gens[gen]:
            rest = idx[:pos] + idx[pos + 1:]
            sgn_pos = -1 if pos % 2 else 1
            for pair, c in gens[gen]:
                merged = merge_tuples(pair, rest)
                if merged is not None:
                    yield merged[0], sgn_pos * merged[1] * c


def complex_matrices(lie: LieAlgebraPresentation):
    """Integer matrices of the differential on each exterior degree.

    Returns [d_0, ..., d_{m-1}] where d_k maps degree-k coefficient
    vectors (lexicographic increasing-tuple basis) to degree k+1, in the
    sparse form the Smith normal form takes: per monomial, the (row, int)
    pairs of its column in increasing row order, the cancelled ones left
    out.  Raises ValueError unless the structure constants are integers.
    The column of a monomial is summed from the integer generator table
    by the antiderivation rule of ``ce_differential``, on monomials held
    as bitmasks: the term c e_i^e_j of d e_g, at position pos of I, lands
    on rest | e_i | e_j (rest = I minus g) with sign (-1)^(pos + number
    of entries of rest below i + number below j), the merge's shuffle
    sign.
    """
    m = lie.dim
    scale, gens = _integer_generators(lie)
    if scale != 1:
        raise ValueError("non-integral basis")
    # per generator: (pair mask, mask below i, mask below j, c)
    table = [[((1 << i) | (1 << j), (1 << i) - 1, (1 << j) - 1, c) for (i, j), c in terms]
             for terms in gens]
    mats = []
    src = [((), 0)]
    for k in range(m):
        dst = [(t, sum(1 << i for i in t)) for t in degree_tuples(m, k + 1)]
        row_of = {mask: r for r, (_, mask) in enumerate(dst)}
        cols = []
        for idx, mask in src:
            col = {}
            for pos, g in enumerate(idx):
                rest = mask ^ (1 << g)
                for pair, below_i, below_j, c in table[g]:
                    if not rest & pair:
                        r = row_of[rest | pair]
                        if (pos + (rest & below_i).bit_count() + (rest & below_j).bit_count()) & 1:
                            c = -c
                        col[r] = col.get(r, 0) + c
            cols.append(sorted((r, x) for r, x in col.items() if x))
        mats.append(cols)
        src = dst
    return mats


class ValidationReport(Value):
    """Outcome of the Jacobi and nilpotency checks on a presentation;
    ``jacobi_witness`` is a tuple or None, ``nilpotency_class`` an int or
    None."""

    __slots__ = ("jacobi_ok", "jacobi_witness", "nilpotent", "nilpotency_class",
                 "stable_ideal_dim")


def validate_presentation(lie: LieAlgebraPresentation) -> ValidationReport:
    """Check the Jacobi identity on all basis triples and that the lower
    central series reaches zero.  Failures are reported, not raised.

    Both checks are exact and read the integer generator table, whose
    scaling by L changes neither the Jacobi identity nor any span.  The
    coefficient of e_i ^ e_j ^ e_k in d(d e_s) is the e_s-component of
    [[e_i, e_j], e_k] + [[e_j, e_k], e_i] + [[e_k, e_i], e_j], so the
    witness is the least triple on which some d(d e_s) is nonzero.
    """
    m = lie.dim
    _, gens = _integer_generators(lie)
    failing = set()
    for terms in gens:
        dde = {}
        for pair, c in terms:
            for t, x in _d_terms(gens, pair):
                dde[t] = dde.get(t, 0) + c * x
        failing.update(t for t, x in dde.items() if x)
    witness = min(failing, default=None)

    # [e_i, e_l] has e_k-coefficient c for each (l, k, c) in brackets[i]
    brackets = [[] for _ in range(m)]
    for k, terms in enumerate(gens):
        for (i, j), c in terms:
            brackets[i].append((j, k, -c))
            brackets[j].append((i, k, c))

    def commutators(span):
        """Hermite basis of [g, span] in Z^m."""
        vecs = []
        for terms in brackets:
            for w in span:
                v = [0] * m
                for l, k, c in terms:
                    v[k] += c * w[l]
                vecs.append(v)
        return lin.column_style_hermite(vecs, m)

    # lower central series: L_1 = [g, g], L_{t+1} = [g, L_t]
    span = commutators(lin.identity(m))
    step = 1
    while span:
        smaller = commutators(span)
        # [g, L_t] lies in L_t by bilinearity, so equal rank means the series stalled
        if len(smaller) == len(span):
            return ValidationReport(witness is None, witness, False, None, len(span))
        span = smaller
        step += 1
    return ValidationReport(witness is None, witness, True, step, 0)
