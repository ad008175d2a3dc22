"""Field arithmetic, vector ops, and interpolation round-trips."""

import random

import pytest

from swiftagg.errors import (
    ConsistencyError,
    DuplicateAbscissaError,
    InsufficientPointsError,
    LengthMismatchError,
    MixedFieldError,
    ZeroEvaluationPointError,
)
from swiftagg.field import (
    FieldSpec,
    ModelVector,
    is_prime,
    lagrange_interpolate_at_zero,
    sample_noise,
    vec_add,
    vec_sum,
)
from swiftagg.sharing import SharePolynomial

PRIMES = [5, 7, 11, 101, (1 << 31) - 1]


def test_modulus_must_be_prime():
    for bad in (0, 1, 4, 9, 100, 2**31 - 2):
        with pytest.raises(ValueError):
            FieldSpec(bad)
    for good in PRIMES:
        assert FieldSpec(good).p == good
    for bad, shown in ((101.0, "101.0"), (True, "True"), ("101", "'101'")):
        with pytest.raises(ValueError, match=f"^modulus must be an integer, got {shown}$"):
            FieldSpec(bad)


def test_is_prime_matches_a_sieve_below_200000():
    limit = 200_000
    sieve = bytearray([1]) * limit
    sieve[0] = sieve[1] = 0
    for i in range(2, int(limit**0.5) + 1):
        if sieve[i]:
            sieve[i * i :: i] = bytes(len(range(i * i, limit, i)))
    assert [n for n in range(limit) if is_prime(n)] == [n for n in range(limit) if sieve[n]]


def test_is_prime_on_pseudoprimes_and_the_top_of_the_range():
    assert not is_prime(2047)  # strong pseudoprime to base 2
    assert not is_prime(3215031751)  # strong pseudoprime to bases 2, 3, 5 and 7
    assert not is_prime(561)  # Carmichael number
    assert is_prime(4294967291)  # the largest prime below 2**32
    assert not is_prime(4294967295)
    assert FieldSpec(4294967291).p == 4294967291
    with pytest.raises(ValueError):
        FieldSpec(3215031751)


def test_modulus_bound():
    with pytest.raises(ValueError):
        FieldSpec((1 << 32) + 15)


def test_vec_add_examples():
    f7 = FieldSpec(7)
    assert vec_add(f7.vector([1, 2]), f7.vector([6, 5])).values == (0, 0)
    f5 = FieldSpec(5)
    assert vec_add(f5.vector([0, 0]), f5.vector([3, 4])).values == (3, 4)
    f11 = FieldSpec(11)
    assert vec_add(f11.vector([9, 9]), f11.vector([9, 9])).values == (7, 7)  # 18 mod 11


def test_vec_add_length_mismatch():
    f = FieldSpec(7)
    with pytest.raises(LengthMismatchError):
        vec_add(f.vector([1, 2]), f.vector([1, 2, 3]))


def test_vec_add_mixed_field():
    with pytest.raises(MixedFieldError):
        vec_add(FieldSpec(7).vector([1]), FieldSpec(11).vector([1]))


# Each op that combines vectors, called on three operands.
COMBINING_OPS = {
    "vec_sum": vec_sum,
    "vec_add": lambda vs: vec_add(vec_add(vs[0], vs[1]), vs[2]),
    "SharePolynomial": SharePolynomial,
    "lagrange_interpolate_at_zero": lambda vs: lagrange_interpolate_at_zero(
        list(zip((1, 2, 3), vs)), 2
    ),
}


@pytest.mark.parametrize("op", COMBINING_OPS.values(), ids=list(COMBINING_OPS))
def test_combining_ops_check_every_operand_against_the_first(op):
    f = FieldSpec(7)
    a, b = f.vector([1, 2]), f.vector([3, 4])
    op([a, b, f.vector([5, 6])])
    with pytest.raises(MixedFieldError):
        op([a, b, FieldSpec(11).vector([5, 6])])
    with pytest.raises(LengthMismatchError):
        op([a, b, f.vector([5, 6, 0])])


def test_vec_sum_needs_a_vector():
    with pytest.raises(ValueError, match="need at least one vector"):
        vec_sum([])


def test_poly_eval_examples():
    f7 = FieldSpec(7)
    coeffs = [f7.vector([3]), f7.vector([2])]
    assert SharePolynomial(coeffs).eval(0).values == (3,)
    assert SharePolynomial(coeffs).eval(2).values == (0,)  # 3 + 2*2 = 7
    f5 = FieldSpec(5)
    constant = [f5.vector([4]), f5.zeros(1), f5.zeros(1)]
    for x in range(5):
        assert SharePolynomial(constant).eval(x).values == (4,)


def test_poly_eval_at_zero_is_constant_term():
    rng = random.Random(3)
    for p in PRIMES:
        f = FieldSpec(p)
        coeffs = [f.vector([rng.randrange(p) for _ in range(4)]) for _ in range(3)]
        assert SharePolynomial(coeffs).eval(0) == coeffs[0]


def test_interpolate_constant_data():
    f = FieldSpec(7)
    pts = [(1, f.vector([4])), (2, f.vector([4]))]
    assert lagrange_interpolate_at_zero(pts, 1).values == (4,)


def test_interpolate_line_through_origin():
    f = FieldSpec(7)
    pts = [(1, f.vector([1])), (2, f.vector([2]))]
    assert lagrange_interpolate_at_zero(pts, 1).values == (0,)


def test_interpolate_round_trip_against_poly_eval():
    rng = random.Random(11)
    f = FieldSpec(101)
    coeffs = [f.vector([rng.randrange(101) for _ in range(2)]) for _ in range(3)]
    pts = [(alpha, SharePolynomial(coeffs).eval(alpha)) for alpha in (1, 2, 3)]
    assert lagrange_interpolate_at_zero(pts, 2) == coeffs[0]


def test_interpolate_round_trip_all_primes():
    rng = random.Random(13)
    for p in PRIMES:
        f = FieldSpec(p)
        degree = rng.randrange(1, min(4, p - 1))
        coeffs = [f.vector([rng.randrange(p)]) for _ in range(degree + 1)]
        alphas = rng.sample(range(1, min(p, 10_000)), degree + 1)
        pts = [(a, SharePolynomial(coeffs).eval(a)) for a in alphas]
        assert lagrange_interpolate_at_zero(pts, degree) == coeffs[0]


def test_interpolate_errors():
    f = FieldSpec(11)
    with pytest.raises(InsufficientPointsError):
        lagrange_interpolate_at_zero([(1, f.vector([1]))], 1)
    with pytest.raises(DuplicateAbscissaError):
        lagrange_interpolate_at_zero([(1, f.vector([1])), (1, f.vector([2]))], 1)
    with pytest.raises(ZeroEvaluationPointError):
        lagrange_interpolate_at_zero([(0, f.vector([1])), (2, f.vector([2]))], 1)
    with pytest.raises(InsufficientPointsError, match=r"^no points supplied$"):
        lagrange_interpolate_at_zero([], 1)
    with pytest.raises(ValueError, match=r"^degree bound must be >= 0$"):
        lagrange_interpolate_at_zero([(1, f.vector([1]))], -1)


def test_interpolate_checks_surplus_consistency():
    f = FieldSpec(11)
    rng = random.Random(5)
    coeffs = [f.vector([rng.randrange(11)]) for _ in range(2)]
    pts = [(a, SharePolynomial(coeffs).eval(a)) for a in (1, 2, 3)]
    assert lagrange_interpolate_at_zero(pts, 1) == coeffs[0]
    bad = pts[:2] + [(3, vec_add(pts[2][1], f.vector([1])))]
    with pytest.raises(ConsistencyError):
        lagrange_interpolate_at_zero(bad, 1)


def test_zeros_rejects_the_lengths_the_constructor_rejects():
    f = FieldSpec(7)
    assert f.zeros(3).values == (0, 0, 0)
    rng = random.Random(3)
    state = rng.getstate()
    for length in (0, -1):
        with pytest.raises(ValueError, match="vector must have length >= 1"):
            f.zeros(length)
        with pytest.raises(ValueError, match="vector must have length >= 1"):
            sample_noise(f, 2, length, rng)
        assert rng.getstate() == state


def test_vector_entries_reduced_and_immutable():
    f = FieldSpec(7)
    v = ModelVector(f, [9, -1])
    assert v.values == (2, 6)
    assert v.values[1] == 6
    with pytest.raises(ValueError):
        ModelVector(f, [])
    # Entries are integers: a float is not truncated to one.
    for bad in ([1.7, 2.2], [2.0], ["3"]):
        with pytest.raises(TypeError):
            f.vector(bad)
