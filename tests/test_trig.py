"""Exact trigonometric polynomial arithmetic."""

import cmath
import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from preqlat.toruscalc.trig import TrigPoly
from preqlat.verify import poly_repr

from util import eval_float, is_real, random_real_trigpoly


def test_cosine_sine_mode_structure():
    c = TrigPoly.cos_axis(2, 0)
    assert c.modes == {(1, 0): (1, 0), (-1, 0): (1, 0)}
    assert c.den == 2
    s = TrigPoly.sin_axis(2, 1, freq=3, amplitude=2)
    assert s.modes == {(0, 3): (0, -1), (0, -3): (0, 1)}
    assert s.den == 1


def test_pythagorean_identity_exact():
    c = TrigPoly.cos_axis(1, 0)
    s = TrigPoly.sin_axis(1, 0)
    assert c * c + s * s == TrigPoly.const(1, 1)


def test_product_matches_pointwise_values():
    rng = random.Random(42)
    for _ in range(10):
        f = random_real_trigpoly(rng, 2)
        g = random_real_trigpoly(rng, 2)
        fg = f * g
        for _ in range(5):
            pt = [rng.uniform(0, 2 * math.pi) for _ in range(2)]
            lhs = eval_float(fg, pt)
            rhs = eval_float(f, pt) * eval_float(g, pt)
            assert cmath.isclose(lhs, rhs, rel_tol=1e-9, abs_tol=1e-9)


def test_reality_preserved_by_arithmetic():
    rng = random.Random(7)
    for _ in range(20):
        f = random_real_trigpoly(rng, 3)
        g = random_real_trigpoly(rng, 3)
        assert is_real(f) and is_real(g)
        assert is_real(f * g)
        assert is_real(f + g)
        assert is_real(f.diff(rng.randrange(3)))


def test_derivative_exact_values():
    # d/dz of sin z is cos z
    s = TrigPoly.sin_axis(3, 2)
    assert s.diff(2) == TrigPoly.cos_axis(3, 2)
    c = TrigPoly.cos_axis(3, 2, freq=4)
    assert c.diff(2) == TrigPoly.sin_axis(3, 2, freq=4, amplitude=-4)
    assert c.diff(0).is_zero()


def test_derivative_against_finite_difference():
    rng = random.Random(9)
    f = random_real_trigpoly(rng, 2, max_deg=3)
    h = 1e-6
    for axis in range(2):
        df = f.diff(axis)
        pt = [0.7, 1.9]
        up = list(pt)
        dn = list(pt)
        up[axis] += h
        dn[axis] -= h
        numeric = (eval_float(f, up).real - eval_float(f, dn).real) / (2 * h)
        assert math.isclose(eval_float(df, pt).real, numeric, rel_tol=1e-6, abs_tol=1e-6)


def test_mean_extracts_constant_mode():
    f = TrigPoly.const(2, Fraction(5, 7)) + TrigPoly.cos_axis(2, 0)
    assert f.mean() == (Fraction(5, 7), 0)
    assert TrigPoly.sin_axis(2, 1).mean() == (0, 0)


def test_quarter_evaluation_exact():
    c = TrigPoly.cos_axis(1, 0)
    s = TrigPoly.sin_axis(1, 0)
    # values at 0, pi/2, pi, 3pi/2
    assert [c.eval_quarter((q,)) for q in range(4)] == [(1, 0), (0, 0), (-1, 0), (0, 0)]
    assert [s.eval_quarter((q,)) for q in range(4)] == [(0, 0), (1, 0), (0, 0), (-1, 0)]


def test_quarter_evaluation_matches_float():
    rng = random.Random(13)
    f = random_real_trigpoly(rng, 3)
    for _ in range(8):
        q = [rng.randrange(4) for _ in range(3)]
        re, im = f.eval_quarter(q)
        approx = eval_float(f, [x * math.pi / 2 for x in q])
        assert cmath.isclose(complex(float(re), float(im)), approx, rel_tol=1e-9, abs_tol=1e-9)


def _seeded_polys(rng, dim):
    """Real polynomials from the test generator, the zero and a constant,
    and polynomials with arbitrary (not conjugate-symmetric) modes over
    rational denominators."""
    polys = [TrigPoly.zero(dim), TrigPoly.const(dim, Fraction(-7, 3))]
    for _ in range(6):
        polys.append(random_real_trigpoly(rng, dim, max_deg=3, n_modes=3))
        modes = {tuple(rng.randint(-5, 5) for _ in range(dim)):
                 (rng.randint(-9, 9), rng.randint(-9, 9)) for _ in range(5)}
        polys.append(TrigPoly(dim, modes, rng.randint(1, 12)))
    return polys


def test_quarter_evaluation_matches_slice_mean():
    """eval_quarter(q) is the slice mean over no axes with every
    coordinate frozen at q, at every quarter point of T^1-T^3 and at
    turns outside 0-3."""
    rng = random.Random(57)
    for dim in (1, 2, 3):
        points = list(itertools.product(range(4), repeat=dim))
        points += [tuple(rng.randint(-9, 9) for _ in range(dim)) for _ in range(4)]
        for f in _seeded_polys(rng, dim):
            for q in points:
                assert f.eval_quarter(q) == f.slice_mean((), dict(enumerate(q)))
                assert f.eval_quarter(list(q)) == f.eval_quarter(q)


@pytest.mark.parametrize("point, msg", [
    ((0, 0, 0), "point has wrong dimension"),
    ((0,), "point has wrong dimension"),
    ((0.5,), "point has wrong dimension"),
    ((0.5, 0, 1.0), "point has wrong dimension"),
    ((0.5, 0), "quarter turns must be integers"),
    ((1, 0.5), "quarter turns must be integers"),
    ((1.0, 0), "quarter turns must be integers"),
    ((0, 1.0), "quarter turns must be integers"),
], ids=["long", "short", "short-half", "long-half", "half", "half-last", "float",
        "float-last"])
def test_quarter_evaluation_checks_the_point_first(point, msg):
    """The length is checked before the turns, and both before any mode is
    read, so the zero polynomial raises as well."""
    for f in _seeded_polys(random.Random(3), 2):
        with pytest.raises(ValueError) as info:
            f.eval_quarter(point)
        assert str(info.value) == msg


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.integers(0, 10**6))
def test_ring_axioms(seed):
    rng = random.Random(seed)
    f = random_real_trigpoly(rng, 2, n_modes=2)
    g = random_real_trigpoly(rng, 2, n_modes=2)
    h = random_real_trigpoly(rng, 2, n_modes=2)
    assert f * g == g * f
    assert (f * g) * h == f * (g * h)
    assert f * (g + h) == f * g + f * h
    assert (f - f).is_zero()
    assert (f - f).den == 1
    assert hash(f * g) == hash(g * f)
    assert (f * 3) * Fraction(1, 3) == f
    neg = TrigPoly(f.dim, {k: (-a, -b) for k, (a, b) in f.modes.items()}, f.den)
    assert -f == neg and hash(-f) == hash(neg) and -(-f) == f


def test_leibniz_for_derivative():
    rng = random.Random(17)
    for _ in range(10):
        f = random_real_trigpoly(rng, 2, n_modes=2)
        g = random_real_trigpoly(rng, 2, n_modes=2)
        for axis in range(2):
            assert (f * g).diff(axis) == f.diff(axis) * g + f * g.diff(axis)


def test_dimension_mismatch_raises():
    with pytest.raises(ValueError):
        TrigPoly.const(2, 1) + TrigPoly.const(3, 1)
    with pytest.raises(ValueError):
        TrigPoly(2, {(1, 0, 0): 1})
    with pytest.raises(ValueError):
        TrigPoly.const(2, 1).eval_quarter((0,))
    with pytest.raises(ValueError):
        TrigPoly.sin_axis(2, 0).eval_quarter((0.5, 0))


def test_witness_format_and_canonical_form():
    f = TrigPoly.cosine(2, (1, -2), Fraction(2, 3)) + TrigPoly.sine(2, (0, 1), 3) + Fraction(-5, 4)
    assert poly_repr(f) == (
        "{(-1, 2): 1/3+0i, (0, -1): 0+3/2i, (0, 0): -5/4+0i, (0, 1): 0+-3/2i, (1, -2): 1/3+0i}"
    )
    assert f.den == 12
    assert f.modes[(0, 1)] == (0, -18)
    assert f.coefficient((5, 5)) == (0, 0)
    with pytest.raises(ValueError):
        TrigPoly(2, {(1, 0): (1, 0)}, 0)
