"""The fused mode-pair kernel of the torus calculus against the loop
forms it replaced.

``trig.product_sum`` sums sign * p * d_axis(q) over its terms into one
polynomial, and every bracket, field, contraction and wedge of the
calculus is built through it.  The oracles in ``util`` keep the loop
forms, one intermediate polynomial per product and per partial sum, on a
pairwise convolution of their own: the two must agree exactly, on every
dimension 1-4, on non-unit symplectic forms, on fields with (2*pi)
powers, zero components and rational denominators, and in the errors
they raise on mismatched dimensions.
"""

import json
import os
import random
import subprocess
import sys
from fractions import Fraction

import pytest

from preqlat.toruscalc.contact import contact_field
from preqlat.toruscalc.forms import (
    TorusForm,
    TorusVectorField,
    contract,
    is_closed,
    vf_bracket,
    wedge,
)
from preqlat.toruscalc.symplectic import hamiltonian_field, poisson_bracket, standard_symplectic
from preqlat.toruscalc.trig import TrigPoly, product_sum

from util import (
    oracle_apply,
    oracle_contact_field,
    oracle_contract,
    oracle_hamiltonian_field,
    oracle_mul,
    oracle_poisson_bracket,
    oracle_vf_bracket,
    oracle_wedge,
    random_form,
    random_invariant,
    random_real_trigpoly,
    scaled_symplectic,
)

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# TrigPoly constructions of one in-process `verify --suite all --trials 2
# --seed 1`: 3130 before the kernel went in, 1335 with it, and 1284 once
# TorusForm.coefficient and TorusForm.__add__ stopped building a zero
# polynomial as the default of every lookup, 1274 once the unit volume
# form was built once per dimension, and 1128 once Hamiltonian and
# contact fields, Poisson and vector-field brackets and closedness checks
# were cached per argument and the point cocycle stopped forming brackets,
# and 768 once each random polynomial, invariant and form coefficient was
# built as one polynomial instead of one sum per drawn term.
VERIFY_ALL_CONSTRUCTIONS = 768


def outcome(fn, *args):
    """("ok", value) or ("raises", type, message) of fn(*args)."""
    try:
        return ("ok", fn(*args))
    except ValueError as exc:
        return ("raises", type(exc), str(exc))


def assert_same(fn, oracle, *args):
    got, want = outcome(fn, *args), outcome(oracle, *args)
    assert got == want, (fn.__name__, got, want)


def random_poly(rng, dim):
    """A random polynomial: real or complex, with rational denominators,
    sometimes constant along an axis, sometimes zero."""
    roll = rng.random()
    if roll < 0.1:
        return TrigPoly.zero(dim)
    if roll < 0.2:
        return TrigPoly.const(dim, Fraction(rng.randint(-9, 9), rng.randint(1, 7)))
    f = random_real_trigpoly(rng, dim, max_deg=2, n_modes=rng.randint(1, 3))
    if roll < 0.3:
        # times i * (a rational with its own denominator): not real
        f = oracle_mul(f, TrigPoly(dim, {(0,) * dim: (0, rng.randint(1, 5))}, rng.randint(1, 6)))
    if rng.random() < 0.3:
        # constant along one axis
        axis = rng.randrange(dim)
        f = TrigPoly(dim, {k: ab for k, ab in f.modes.items() if not k[axis]}, f.den)
    return f


def random_vfield(rng, dim, pi_power=0):
    comps = [random_poly(rng, dim) for _ in range(dim)]
    comps[rng.randrange(dim)] = TrigPoly.zero(dim)     # a zero component
    return TorusVectorField(dim, comps, pi_power)


def test_product_sum_is_the_sum_of_its_terms():
    rng = random.Random(1601)
    for _ in range(150):
        dim = rng.randint(1, 4)
        terms = []
        for _ in range(rng.randint(0, 4)):
            axis = rng.choice([None] + list(range(dim)))
            terms.append((random_poly(rng, dim), random_poly(rng, dim), axis, rng.choice((1, -1))))
        want = TrigPoly.zero(dim)
        for p, q, axis, sign in terms:
            term = oracle_mul(p, q if axis is None else q.diff(axis))
            want = want + (term if sign > 0 else -term)
        assert product_sum(dim, terms) == want


def test_mul_apply_bracket_contract_wedge_match_the_loop_forms():
    rng = random.Random(1602)
    for trial in range(120):
        dim = 1 + trial % 4
        f, g = random_poly(rng, dim), random_poly(rng, dim)
        assert_same(TrigPoly.__mul__, oracle_mul, f, g)
        x = random_vfield(rng, dim)
        y = random_vfield(rng, dim, pi_power=rng.randint(-2, 2))
        assert_same(TorusVectorField.apply, oracle_apply, x, f)
        assert_same(TorusVectorField.apply, oracle_apply, y, g)   # (2*pi) powers raise
        assert_same(vf_bracket, oracle_vf_bracket, x, y)
        assert_same(vf_bracket, oracle_vf_bracket, y, y)
        form = random_form(rng, dim, rng.randint(0, dim), max_deg=2, n_terms=3)
        form = form.scale_pi(rng.randint(-dim, dim))
        assert_same(contract, oracle_contract, x, form)
        assert_same(contract, oracle_contract, y, form)
        other = random_form(rng, dim, rng.randint(0, dim), max_deg=1, n_terms=2)
        assert_same(wedge, oracle_wedge, form, other)
        assert_same(wedge, oracle_wedge, other, form)


OMEGAS = [
    standard_symplectic(1),
    scaled_symplectic([Fraction(-3, 2)]),
    scaled_symplectic([2, Fraction(5, 7)]),
    # not a sum of coordinate planes; Pfaffian 1*3 - 2*1 = 1
    TorusForm(4, 2, {(0, 1): 1, (0, 2): 2, (1, 3): 1, (2, 3): 3}),
    scaled_symplectic([1, -4, Fraction(1, 3)]),
]


@pytest.mark.parametrize("omega", OMEGAS, ids=lambda w: f"dim{w.dim}-{len(w.coeffs)}terms")
def test_hamiltonian_calculus_matches_the_loop_forms(omega):
    rng = random.Random(f"1603:{omega.dim}:{len(omega.coeffs)}")
    dim = omega.dim
    for _ in range(25):
        f, g = random_poly(rng, dim), random_poly(rng, dim)
        assert_same(hamiltonian_field, oracle_hamiltonian_field, f, omega)
        assert_same(poisson_bracket, oracle_poisson_bracket, f, g, omega)
        # the defining identity, independent of both: i_{X_f} omega = -df
        xf = hamiltonian_field(f, omega)
        df = TorusForm(dim, 1, {(k,): f.diff(k) for k in range(dim)})
        assert contract(xf, omega) == -df
        # {f, g} = X_f(g) = -X_g(f)
        assert poisson_bracket(f, g, omega) == -hamiltonian_field(g, omega).apply(f)


def test_contact_field_matches_the_loop_form():
    rng = random.Random(1604)
    for _ in range(40):
        f = random_invariant(rng, max_deg=4)
        f = oracle_mul(f, TrigPoly.const(3, Fraction(rng.randint(1, 9), rng.randint(1, 9))))
        assert_same(contact_field, oracle_contact_field, f)
    assert_same(contact_field, oracle_contact_field, TrigPoly.cos_axis(3, 0))


def test_cached_functions_equal_their_bodies():
    """Each function kept in a cache returns what its uncached body builds,
    and a repeated call returns the shared result."""
    rng = random.Random(1606)
    for trial in range(20):
        omega = OMEGAS[trial % len(OMEGAS)]
        dim = omega.dim
        f, g = random_poly(rng, dim), random_poly(rng, dim)
        x, y = random_vfield(rng, dim), random_vfield(rng, dim, pi_power=rng.randint(-2, 2))
        form = random_form(rng, dim, rng.randint(0, dim - 1), max_deg=2, n_terms=2)
        exact = TorusForm(dim, 1, {(k,): f.diff(k) for k in range(dim)})
        h = oracle_mul(random_invariant(rng, max_deg=3), TrigPoly.const(3, Fraction(1, trial + 1)))
        cases = [(hamiltonian_field, (f, omega)), (poisson_bracket, (f, g, omega)),
                 (vf_bracket, (x, y)), (contact_field, (h,)), (is_closed, (form,)),
                 (is_closed, (exact,))]
        for fn, args in cases:
            first = fn(*args)
            assert first == fn.__wrapped__(*args), fn.__name__
            assert fn(*args) is first, fn.__name__
        assert is_closed(exact)


def test_mismatched_dimensions_raise_the_loop_forms_messages():
    rng = random.Random(1605)
    f2, f3 = random_poly(rng, 2), random_real_trigpoly(rng, 3)
    x2 = TorusVectorField(2, [random_real_trigpoly(rng, 2), random_real_trigpoly(rng, 2)])
    x3 = random_vfield(rng, 3)
    w2, w3 = random_form(rng, 2, 1), random_form(rng, 3, 2)
    omega = standard_symplectic(1)
    cases = [
        (TrigPoly.__mul__, oracle_mul, (f2, f3)),
        (TorusVectorField.apply, oracle_apply, (x2, f3)),
        (vf_bracket, oracle_vf_bracket, (x2, x3)),
        (contract, oracle_contract, (x2, w3)),
        (contract, oracle_contract, (x3, w2)),
        (wedge, oracle_wedge, (w2, w3)),
        (hamiltonian_field, oracle_hamiltonian_field, (f3, omega)),
        (poisson_bracket, oracle_poisson_bracket, (f2, f3, omega)),
        (poisson_bracket, oracle_poisson_bracket, (f3, f2, omega)),
    ]
    for fn, oracle, args in cases:
        got = outcome(fn, *args)
        assert got[0] == "raises", fn.__name__
        assert got == outcome(oracle, *args), fn.__name__


class _CountingInt(int):
    """An int that counts the multiplications it takes part in."""

    count = 0

    def __mul__(self, other):
        _CountingInt.count += 1
        return int(self) * other

    __rmul__ = __mul__


def test_derivative_along_a_constant_axis_costs_no_arithmetic():
    """d_axis of a polynomial that is constant along the axis vanishes, and
    the kernel drops those modes before touching their numerators: here a
    product with such a derivative makes no multiplication of q's
    numerators at all."""
    q = TrigPoly(2, {(0, 1): (_CountingInt(3), _CountingInt(-2)),
                     (0, -1): (_CountingInt(3), _CountingInt(2))})
    p = Fraction(2, 3) * TrigPoly.cos_axis(2, 0)
    _CountingInt.count = 0
    assert product_sum(2, [(p, q, 0, 1), (q, q, 0, -1)]).is_zero()
    assert _CountingInt.count == 0
    assert product_sum(2, [(p, q, 1, 1)]) == oracle_mul(p, q.diff(1))
    assert _CountingInt.count > 0


def test_verify_all_builds_at_most_the_recorded_polynomials():
    """Every TrigPoly built in one `verify --suite all --trials 2 --seed 1`
    process, counted in a fresh interpreter so the per-form caches start
    cold.  A change that brings back intermediate polynomials fails
    here."""
    code = (
        "import contextlib, io, json\n"
        "from preqlat import cli\n"
        "from preqlat.toruscalc import trig\n"
        "count = [0]\n"
        "init = trig.TrigPoly.__init__\n"
        "def counting(self, *args, **kwargs):\n"
        "    count[0] += 1\n"
        "    init(self, *args, **kwargs)\n"
        "trig.TrigPoly.__init__ = counting\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    exit_code = cli.main(['verify', '--suite', 'all', '--trials', '2',\n"
        "                          '--seed', '1', '--format', 'json'])\n"
        "print(json.dumps([exit_code, count[0]]))\n"
    )
    env = dict(os.environ, PYTHONPATH="src")
    proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    exit_code, built = json.loads(proc.stdout)
    assert exit_code == 0
    assert built <= VERIFY_ALL_CONSTRUCTIONS
