"""The packed-lane vector engine against plain-int references.

Every vector operation of ``swiftagg.field`` runs on 64-bit lanes of one
Python int and reduces only when a lane could overflow.  These tests compare
it with per-entry arithmetic mod p, including the largest allowed prime,
where a missed reduction would wrap a lane.
"""

import os
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from swiftagg.field import (
    FieldSpec,
    _barrett,
    _pack,
    _reduce,
    lagrange_interpolate_at_zero,
    poly_eval,
    vec_add,
    vec_sum,
)
from swiftagg.sharing import SharePolynomial, sample_noise, uniform_element

PRIMES = [2, 3, 101, (1 << 31) - 1, 4294967291]
SRC = Path(__file__).resolve().parent.parent / "src"


def ref_eval(rows, x, p):
    """Plain-int value of sum_j rows[j] * x**j, entry by entry."""
    return tuple(
        sum(c * pow(x, j, p) for j, c in enumerate(column)) % p for column in zip(*rows)
    )


def ref_sum(rows, p):
    return tuple(sum(column) % p for column in zip(*rows))


@st.composite
def field_rows(draw, max_rows):
    """A prime and ``count`` rows of one length, filled from a drawn seed.

    A drawn share of the entries is pinned to p - 1, the largest lane
    input; the rest are uniform in [0, p).
    """
    p = draw(st.sampled_from(PRIMES))
    length = draw(st.integers(1, 64))
    count = draw(st.integers(1, max_rows))
    top_share = draw(st.sampled_from([0.0, 0.5, 1.0]))
    rng = random.Random(draw(st.integers(0, 2**32)))
    rows = [
        [p - 1 if rng.random() < top_share else rng.randrange(p) for _ in range(length)]
        for _ in range(count)
    ]
    return p, rows


def abscissa(p):
    return st.one_of(st.integers(0, p - 1), st.just(p - 1))


@settings(max_examples=150, deadline=None)
@given(data=field_rows(7), pick=st.data())
def test_horner_matches_reference(data, pick):
    p, rows = data
    x = pick.draw(abscissa(p))
    f = FieldSpec(p)
    coeffs = [f.vector(r) for r in rows]
    expected = ref_eval(rows, x, p)
    assert poly_eval(coeffs, x).values == expected
    assert SharePolynomial(coeffs).eval(x).values == expected


@settings(max_examples=150, deadline=None)
@given(data=field_rows(64))
def test_sums_match_reference(data):
    p, rows = data
    f = FieldSpec(p)
    vectors = [f.vector(r) for r in rows]
    assert vec_sum(vectors).values == ref_sum(rows, p)
    assert vec_add(vectors[0], vectors[-1]).values == ref_sum([rows[0], rows[-1]], p)


@settings(max_examples=150, deadline=None)
@given(data=field_rows(7), pick=st.data())
def test_interpolation_recovers_constant_term(data, pick):
    p, rows = data
    degree = min(len(rows) - 1, p - 2)
    rows = rows[: degree + 1]
    f = FieldSpec(p)
    count = degree + 1 + pick.draw(st.integers(0, min(3, p - 2 - degree)))
    abscissas = st.lists(st.integers(1, p - 1), min_size=count, max_size=count, unique=True)
    points = pick.draw(abscissas)
    pts = [(a, f.vector(ref_eval(rows, a, p))) for a in points]
    assert lagrange_interpolate_at_zero(pts, degree).values == tuple(rows[0])


@pytest.mark.parametrize("p", PRIMES)
def test_reduce_at_the_edges_of_each_path(p):
    # Bounds below 2p take one conditional subtraction, bounds below 2**b a
    # Barrett step first, and larger bounds the per-entry fallback.
    b = _barrett(5, p)[0]
    for bound in (p, 2 * p - 1, 2 * p, (1 << b) - 1, 1 << b, (1 << 64) - 1):
        lanes = [bound, bound - 1, bound // 2, p - 1, 0]
        assert _reduce(_pack(lanes), 5, p, bound) == tuple(v % p for v in lanes)


def test_mid_horner_reduction_at_largest_prime():
    # With every lane at p - 1 and x = p - 1, the second Horner step would
    # reach p * (p - 1)**2 > 2**64, so the kernel must reduce between steps.
    p = 4294967291
    f = FieldSpec(p)
    for degree in (2, 3, 6):
        rows = [[p - 1] * 5 for _ in range(degree + 1)]
        coeffs = [f.vector(r) for r in rows]
        expected = ref_eval(rows, p - 1, p)
        assert poly_eval(coeffs, p - 1).values == expected
        assert SharePolynomial(coeffs).eval(p - 1).values == expected


@pytest.mark.parametrize("p", [101, (1 << 31) - 1])
def test_sample_noise_matches_per_entry_draws(p):
    # At p = 101, 7-bit draws are rejected about 21% of the time.
    f = FieldSpec(p)
    batched, looped = random.Random(2024), random.Random(2024)
    noise = sample_noise(f, 3, 200, batched)
    expected = [tuple(uniform_element(f, looped) for _ in range(200)) for _ in range(3)]
    assert [z.values for z in noise] == expected
    assert batched.getstate() == looped.getstate()


def test_simulation_does_not_import_numpy():
    code = (
        "import sys\n"
        "from swiftagg import AdversaryConfig, DropoutPlan, FieldSpec, ProtocolParams, simulate\n"
        "f = FieldSpec(101)\n"
        "params = ProtocolParams(12, 2, 1, 4, f)\n"
        "models = [f.vector([u, u + 1, u + 2, u + 3]) for u in range(12)]\n"
        "plan, adversary = DropoutPlan.uniform([7]), AdversaryConfig.server_only()\n"
        "simulate(params, models, plan, adversary, seed=3)\n"
        "print('numpy' in sys.modules)\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(SRC)},
        check=True,
        timeout=60,
    )
    assert out.stdout.strip() == "False"
