"""The verify suites' input builders against the add chains they replaced.

Each builder makes one polynomial from its draws; the oracles in ``util``
add one normalized term per draw.  From the same seed the two must give
equal inputs and leave the generator in the same state after every call,
for every shape the suites draw, so every suite's inputs and reports stay
the same.
"""

import random

from preqlat import verify

from util import (
    oracle_axis_poly,
    oracle_rand_closed_oneform,
    oracle_rand_form,
    oracle_rand_invariant,
    oracle_rand_poly,
)


def _calls():
    """(builder, oracle, args) for every shape the suites draw."""
    calls = []
    # cocycles, jacobi and shifts; the calculus fields; the one-form's
    # potential; the coefficients of the calculus and cocycles forms
    shapes = [(2, 2, 2), (2, 1, 1), (3, 1, 1)]
    shapes += [(dim, max_deg, 1) for dim in (2, 3, 4) for max_deg in (1, 2)]
    calls += [(verify._rand_poly, oracle_rand_poly, s) for s in shapes]
    # cocycles, pullback and flux
    calls += [(verify._rand_invariant, oracle_rand_invariant, (d,)) for d in (3, 5, 6)]
    # calculus forms of every degree, and the cocycles potentials
    forms = [(dim, deg, 2, 2) for dim in (2, 3, 4) for deg in range(dim)] + [(3, 1, 1, 2)]
    calls += [(verify._rand_form, oracle_rand_form, s) for s in forms]
    calls.append((verify._rand_closed_oneform, oracle_rand_closed_oneform, (2,)))
    # duality: zero_mean=False on T^2 and True on T^3, along every axis;
    # both values on both tori
    axis_shapes = [(dim, axis, zero_mean) for dim in (2, 3) for axis in range(dim)
                   for zero_mean in (False, True)]
    calls += [(verify._axis_poly, oracle_axis_poly, s) for s in axis_shapes]
    return calls


def test_builders_match_the_add_chains():
    calls = _calls()
    for seed in range(300):
        mine, theirs = random.Random(seed), random.Random(seed)
        for build, oracle, args in calls:
            got, want = build(mine, *args), oracle(theirs, *args)
            assert got == want, (seed, build.__name__, args)
            assert mine.getstate() == theirs.getstate(), (seed, build.__name__, args)


def test_builders_cover_degenerate_draws():
    """Seeds 0-299 start with degenerate draws: a zero constant, modes
    that cancel or coincide, an invariant with no wave, and an axis
    polynomial that falls back to cos(x_axis)."""
    zero_const = fewer = bare = fallback = 0
    for seed in range(300):
        f = verify._rand_poly(random.Random(seed), 2, 2, 2)
        zero_const += (0, 0) not in f.modes
        fewer += len(f.modes) < 5
        bare += verify._rand_invariant(random.Random(seed), 3).is_constant()
        fallback += _draws_no_wave(random.Random(seed))
    assert zero_const and fewer and bare and fallback


def _draws_no_wave(rng):
    """Whether _axis_poly(rng, dim, axis) with zero_mean draws no nonzero
    amplitude, so it returns its fallback."""
    waves = 0
    for _ in range(6):
        if rng.random() < 0.6:
            waves += verify._rand_twelfths(rng) != 0
    return not waves
