"""Masking polynomials, shares, and exact aggregate reconstruction."""

import itertools
import random
from collections import Counter

import pytest

from swiftagg.errors import (
    ArityMismatchError,
    InsufficientPointsError,
    LengthMismatchError,
    MixedFieldError,
    ZeroEvaluationPointError,
)
from swiftagg.field import (
    FieldSpec,
    lagrange_interpolate_at_zero,
    sample_noise,
    uniform_element,
    vec_add,
)
from swiftagg.sharing import build_polynomial, share_for, user_rng


def test_build_polynomial_small_example():
    f = FieldSpec(7)
    poly = build_polynomial(f.vector([3]), [f.vector([2])], 1)
    assert poly.eval(1).values == (5,)
    assert poly.eval(2).values == (0,)  # 3 + 2*2 = 7


def test_zero_model_zero_noise_gives_zero_shares():
    f = FieldSpec(7)
    poly = build_polynomial(f.zeros(3), [f.zeros(3), f.zeros(3)], 2)
    for alpha in range(1, 7):
        assert share_for(poly, alpha) == f.zeros(3)


def test_constant_term_is_model_regardless_of_noise():
    f = FieldSpec(7)
    rng = random.Random(0)
    model = f.vector([4, 1])
    for _ in range(20):
        noise = sample_noise(f, 2, 2, rng)
        assert build_polynomial(model, noise, 2).eval(0) == model


def test_arity_mismatch():
    f = FieldSpec(7)
    with pytest.raises(ArityMismatchError):
        build_polynomial(f.vector([1]), [f.vector([2])], 2)
    with pytest.raises(LengthMismatchError):
        build_polynomial(f.vector([1]), [f.vector([2, 3])], 1)
    with pytest.raises(MixedFieldError):
        build_polynomial(f.vector([1]), [FieldSpec(11).vector([2])], 1)


def test_share_matches_poly_eval_oracle():
    f = FieldSpec(101)
    rng = random.Random(9)
    model = f.vector([rng.randrange(101) for _ in range(3)])
    noise = sample_noise(f, 2, 3, rng)
    poly = build_polynomial(model, noise, 2)
    rows = [c.values for c in (model, *noise)]
    for alpha in (1, 2, 3, 4):
        # Plain-int evaluation mod p, independent of the Horner kernel.
        expected = tuple(
            sum(c * alpha**j for j, c in enumerate(column)) % 101 for column in zip(*rows)
        )
        assert share_for(poly, alpha).values == expected
        # An abscissa is taken mod p.
        assert share_for(poly, alpha + 101) == poly.eval(alpha)


def test_share_at_zero_rejected():
    f = FieldSpec(7)
    poly = build_polynomial(f.vector([3]), [f.vector([2])], 1)
    with pytest.raises(ZeroEvaluationPointError):
        share_for(poly, 0)
    with pytest.raises(ZeroEvaluationPointError):
        share_for(poly, 7)  # 7 mod 7 == 0


def test_reconstruct_matches_plain_sum():
    f = FieldSpec(11)
    rng = random.Random(4)
    models = [f.vector([rng.randrange(11) for _ in range(2)]) for _ in range(4)]
    polys = [build_polynomial(m, sample_noise(f, 1, 2, rng), 1) for m in models]
    uploads = []
    for alpha in (1, 2, 3):
        total = share_for(polys[0], alpha)
        for poly in polys[1:]:
            total = vec_add(total, share_for(poly, alpha))
        uploads.append((alpha, total))

    expected = models[0]
    for m in models[1:]:
        expected = vec_add(expected, m)

    # any T+1-subset recovers the same sum; surplus is consistency-checked
    assert lagrange_interpolate_at_zero(uploads, 1) == expected
    for pair in itertools.combinations(uploads, 2):
        assert lagrange_interpolate_at_zero(list(pair), 1) == expected


def test_reconstruct_all_zero_models():
    f = FieldSpec(7)
    rng = random.Random(1)
    polys = [build_polynomial(f.zeros(1), sample_noise(f, 1, 1, rng), 1) for _ in range(3)]
    uploads = []
    for alpha in (1, 2):
        total = share_for(polys[0], alpha)
        for poly in polys[1:]:
            total = vec_add(total, share_for(poly, alpha))
        uploads.append((alpha, total))
    assert lagrange_interpolate_at_zero(uploads, 1) == f.zeros(1)


def test_reconstruct_insufficient_points():
    f = FieldSpec(7)
    with pytest.raises(InsufficientPointsError):
        lagrange_interpolate_at_zero([(1, f.vector([2]))], 1)


def test_shamir_hiding_exact_distribution():
    # For every model value, any <= T shares must have the identical exact
    # distribution over the noise: tested by enumerating all noise values.
    f = FieldSpec(5)
    t = 2
    for points in itertools.combinations(range(1, 5), t):
        distributions = []
        for w in range(5):
            counts = Counter()
            for z1 in range(5):
                for z2 in range(5):
                    poly = build_polynomial(
                        f.vector([w]), [f.vector([z1]), f.vector([z2])], t
                    )
                    counts[tuple(share_for(poly, a).values for a in points)] += 1
            distributions.append(counts)
        assert all(d == distributions[0] for d in distributions)


def test_uniform_element_range_and_coverage():
    f = FieldSpec(5)
    rng = random.Random(2)
    draws = [uniform_element(f, rng) for _ in range(500)]
    assert set(draws) == {0, 1, 2, 3, 4}


def test_user_rng_is_deterministic_and_user_specific():
    a1 = sample_noise(FieldSpec(101), 2, 3, user_rng(42, 1))
    a2 = sample_noise(FieldSpec(101), 2, 3, user_rng(42, 1))
    b = sample_noise(FieldSpec(101), 2, 3, user_rng(42, 2))
    assert a1 == a2
    assert a1 != b
