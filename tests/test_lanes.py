"""The packed-lane vector engine against plain-int references.

Every vector operation of ``swiftagg.field`` runs on 64-bit lanes of one
Python int and reduces only when a lane could overflow.  These tests compare
it with per-entry arithmetic mod p, including the largest allowed prime,
where a missed reduction would wrap a lane.  Kernel outputs stay unreduced:
their lanes are congruent to the entries mod p and at most the vector's
``bound``, which is below 2**64; the tests below feed such vectors onward
as they are.
"""

import ast
import itertools
import os
import random
import re
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import swiftagg.field
from swiftagg.field import (
    FieldSpec,
    ModelVector,
    _barrett,
    _column_entries,
    _columns,
    _pack,
    _reduce,
    _unpack,
    lagrange_interpolate_at_zero,
    sample_noise,
    uniform_element,
    vec_add,
    vec_sum,
)
from swiftagg.protocol import AFTER_SHARING, DropoutPlan, ProtocolParams, execute_protocol
from swiftagg.sharing import SharePolynomial, share_for

# 2147483659 has a large 2**32 mod p (2147483637).
PRIMES = [2, 3, 101, (1 << 31) - 1, 2147483659, 4294967291]
# Bounded profile for the tests that chain whole kernels.
CHAINED = settings(max_examples=60, deadline=None)
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
    assert SharePolynomial(coeffs).eval(x).values == ref_eval(rows, x, p)


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
    # lane-wise Barrett step first, and larger bounds the same step at width
    # 64 on the even and odd lanes apart.
    b = _barrett(5, p)[0]
    for bound in (p, 2 * p - 1, 2 * p, (1 << b) - 1, 1 << b, (1 << 64) - 1):
        lanes = [bound, bound - 1, bound // 2, p - 1, 0]
        assert _unpack(_reduce(_pack(lanes), 5, p, bound), 5) == tuple(v % p for v in lanes)


def test_mid_horner_reduction_at_largest_prime():
    # With every lane at p - 1 and x = p - 1, the second Horner step would
    # reach p * (p - 1)**2 > 2**64, so the kernel must reduce between steps.
    p = 4294967291
    f = FieldSpec(p)
    for degree in (2, 3, 6):
        rows = [[p - 1] * 5 for _ in range(degree + 1)]
        coeffs = [f.vector(r) for r in rows]
        assert SharePolynomial(coeffs).eval(p - 1).values == ref_eval(rows, p - 1, p)


def per_entry_noise(f, count, length, rng):
    return [tuple(uniform_element(f, rng) for _ in range(length)) for _ in range(count)]


@pytest.mark.parametrize("p", PRIMES + [5, 7, 65521])
def test_sample_noise_matches_per_entry_draws(p):
    # At p = 101, 7-bit draws are rejected about 21% of the time, and at
    # 2147483659 about half, so most packed draws there are topped up from
    # the stream; 65521 at 2,048 entries tops up about one vector in
    # three.  The test below checks that every length and prime here takes
    # the packed draw.
    f = FieldSpec(p)
    for length in (1, 7, 8, 16, 17, 64, 200, 2048):
        for count in (1, 2, 3):
            for seed in (2024, 7, 13 * length + count):
                batched, looped = random.Random(seed), random.Random(seed)
                noise = sample_noise(f, count, length, batched)
                assert [z.values for z in noise] == per_entry_noise(f, count, length, looped)
                assert all(z.bound == p - 1 for z in noise)
                assert batched.getstate() == looped.getstate()


@pytest.mark.parametrize("p", PRIMES + [5, 7, 65521])
def test_sample_noise_takes_one_packed_draw_per_vector(p, monkeypatch):
    # Without this, the test above could pass with the packed path never taken.
    spreads = []
    spread = swiftagg.field._spread_words

    def counted(words, length):
        spreads.append(length)
        return spread(words, length)

    monkeypatch.setattr(swiftagg.field, "_spread_words", counted)
    for length in (1, 7, 8, 2048):
        sample_noise(FieldSpec(p), 2, length, random.Random(p))
    assert spreads == [1, 1, 7, 7, 8, 8, 2048, 2048]


def test_sample_noise_refills_a_packed_draw_with_a_rejected_entry(monkeypatch):
    # At p = 65521 one 16-bit draw in 4,369 is rejected, so about one
    # 64-entry packed draw in 68 holds a rejected entry; the packed path
    # unpacks only such a draw.
    f = FieldSpec(65521)
    unpacked = []
    unpack = swiftagg.field._unpack

    def counted(packed, length):
        unpacked.append(length)
        return unpack(packed, length)

    monkeypatch.setattr(swiftagg.field, "_unpack", counted)
    for seed in range(2000):
        batched = random.Random(seed)
        noise = sample_noise(f, 1, 64, batched)
        if unpacked:
            break
    assert unpacked == [64], "no seed below 2000 gave a rejected entry"
    words = random.Random(seed)
    assert max(words.getrandbits(16) for _ in range(64)) >= f.p
    looped = random.Random(seed)
    assert noise[0].values == per_entry_noise(f, 1, 64, looped)[0]
    assert batched.getstate() == looped.getstate()


def test_getrandbits_word_layout():
    # The packed noise path relies on CPython's Mersenne Twister layout: a
    # wide draw is the next 32-bit words, least significant first, and a
    # narrow draw is the top bits of the next word.
    for seed in (0, 1, 2024):
        for words in (1, 2, 17, 2048):
            wide, narrow = random.Random(seed), random.Random(seed)
            drawn = wide.getrandbits(32 * words)
            expected = sum(narrow.getrandbits(32) << 32 * k for k in range(words))
            assert drawn == expected
            assert wide.getstate() == narrow.getstate()
        for k in (1, 7, 31, 32):
            a, b = random.Random(seed), random.Random(seed)
            assert [a.getrandbits(k) for _ in range(50)] == [
                b.getrandbits(32) >> (32 - k) for _ in range(50)
            ]
            assert a.getstate() == b.getstate()


# What a vector's lane format consists of: the attributes that hold it and
# the helpers that read or write it.
LANE_ATTRIBUTES = {"lanes", "bound"}
LANE_HELPERS = {"_packed", "_pack", "_unpack", "_reduce", "_barrett", "_spread_words", "_codec"}
LANE_WORDS = re.compile(r"\b(%s)\b" % "|".join(LANE_ATTRIBUTES | LANE_HELPERS))


def lane_format_uses(source):
    """Each ``.lanes``/``.bound`` read and each lane-helper name in ``source``."""
    if not LANE_WORDS.search(source):  # only parse what could use the format
        return
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Attribute) and node.attr in LANE_ATTRIBUTES | LANE_HELPERS:
            yield node.lineno, node.attr
        elif isinstance(node, ast.Name) and node.id in LANE_HELPERS:
            yield node.lineno, node.id
        elif isinstance(node, ast.alias) and node.name in LANE_HELPERS:
            yield node.lineno, node.name


def test_only_the_field_module_knows_the_lane_format():
    # An engine change then touches field.py alone.
    assert sorted(lane_format_uses("v.lanes + v.bound\nfrom .field import _reduce")) == [
        (1, "bound"), (1, "lanes"), (2, "_reduce"),
    ]
    offenders = {
        path.name: list(lane_format_uses(path.read_text(encoding="utf-8")))
        for path in sorted((SRC / "swiftagg").glob("*.py"))
        if path.name != "field.py"
    }
    assert {name: uses for name, uses in offenders.items() if uses} == {}


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


# ---------------------------------------------------------------------------
# The lane-bound invariant across chained kernels
# ---------------------------------------------------------------------------


def assert_lanes(vec, expected):
    """``vec`` keeps the invariant and holds ``expected``, read without reducing it."""
    p = vec.field.p
    lanes = _unpack(vec.lanes, vec.length)
    assert vec.bound < 1 << 64
    assert max(lanes) <= vec.bound
    assert tuple(v % p for v in lanes) == tuple(expected)


def evaluated(f, rows, x):
    poly = SharePolynomial([f.vector(r) for r in rows])
    return share_for(poly, x) if x else poly.eval(x)


@st.composite
def unreduced_shares(draw, max_count):
    """Shares as ``share_for``/``SharePolynomial.eval`` return them, with references.

    Each share comes from its own polynomial of degree 0 to 6 at its own
    abscissa in [0, p), half of them at p - 1, where lane bounds grow
    fastest.
    """
    p = draw(st.sampled_from(PRIMES))
    length = draw(st.integers(1, 16))
    count = draw(st.integers(1, max_count))
    top_share = draw(st.sampled_from([0.0, 0.5, 1.0]))
    rng = random.Random(draw(st.integers(0, 2**32)))
    f = FieldSpec(p)
    shares, expected = [], []
    for _ in range(count):
        rows = [
            [p - 1 if rng.random() < top_share else rng.randrange(p) for _ in range(length)]
            for _ in range(rng.randint(1, 7))
        ]
        x = p - 1 if rng.random() < 0.5 else rng.randrange(p)
        shares.append(evaluated(f, rows, x))
        expected.append(ref_eval(rows, x, p))
    return f, shares, expected


@CHAINED
@given(data=unreduced_shares(64))
def test_unreduced_shares_sum(data):
    f, shares, expected = data
    for share, exp in zip(shares, expected):
        assert_lanes(share, exp)
    total = vec_sum(shares)
    assert_lanes(total, ref_sum(expected, f.p))
    assert total.values == ref_sum(expected, f.p)


@CHAINED
@given(data=unreduced_shares(12))
def test_unreduced_shares_chain_through_vec_add(data):
    f, shares, expected = data
    acc, ref = shares[0], expected[0]
    for share, exp in zip(shares[1:], expected[1:]):
        acc, ref = vec_add(acc, share), ref_sum([ref, exp], f.p)
        assert_lanes(acc, ref)
    assert acc.values == tuple(ref)


@CHAINED
@given(data=unreduced_shares(7), pick=st.data())
def test_horner_on_unreduced_coefficients(data, pick):
    # Shares as coefficients: Horner must read them reduced, since its bound
    # assumes coefficient lanes below p.
    f, shares, expected = data
    x = pick.draw(abscissa(f.p))
    assert SharePolynomial(shares).eval(x).values == ref_eval(expected, x, f.p)


@CHAINED
@given(data=unreduced_shares(8))
def test_unreduced_vectors_compare_and_hash_by_entries(data):
    f, shares, expected = data
    for share, exp in zip(shares, expected):
        twin = ModelVector._packed(f, share.lanes, share.length, share.bound)
        assert hash(share) == hash(f.vector(exp))
        assert twin == f.vector(exp)
        assert share == f.vector(share.values)
        assert hash(share) == hash(f.vector(share.values))
        assert twin != f.vector([exp[0] + 1] + list(exp[1:]))


@CHAINED
@given(pick=st.data())
def test_interpolation_of_unreduced_share_sums(pick):
    # Like the protocol: each point's value is a sum of unreduced shares of
    # several polynomials, and the constant terms' sum is recovered.
    p = pick.draw(st.sampled_from([101, (1 << 31) - 1, 2147483659, 4294967291]))
    f = FieldSpec(p)
    rng = random.Random(pick.draw(st.integers(0, 2**32)))
    length = pick.draw(st.integers(1, 16))
    degree = pick.draw(st.integers(0, 6))
    polys = [
        [[rng.randrange(p) for _ in range(length)] for _ in range(degree + 1)]
        for _ in range(pick.draw(st.integers(1, 4)))
    ]
    count = degree + 1 + pick.draw(st.integers(0, 3))
    high = pick.draw(st.booleans())
    xs = [p - 1 - k for k in range(count)] if high else list(range(1, count + 1))
    points = []
    for x in xs:
        y = vec_sum([evaluated(f, rows, x) for rows in polys])
        assert_lanes(y, ref_sum([ref_eval(rows, x, p) for rows in polys], p))
        points.append((x, y))
    recovered = lagrange_interpolate_at_zero(points, degree)
    assert recovered.bound == p - 1
    assert recovered.values == ref_sum([rows[0] for rows in polys], p)


def test_vec_add_reduces_two_horner_outputs_that_would_overflow():
    # At p = 4294967291 and x = p - 1 one Horner step leaves a bound of
    # p * (p - 1), just below 2**64, so the sum of two such shares must not
    # be formed before both are reduced.
    p = 4294967291
    f = FieldSpec(p)
    rows_a = [[p - 1, 3, 0], [p - 1, p - 1, 7]]
    rows_b = [[p - 1, 1, p - 2], [p - 1, 5, p - 1]]
    a, b = evaluated(f, rows_a, p - 1), evaluated(f, rows_b, p - 1)
    assert a.bound == b.bound == p * (p - 1)
    assert a.bound + b.bound >= 1 << 64
    expected = ref_sum([ref_eval(rows_a, p - 1, p), ref_eval(rows_b, p - 1, p)], p)
    total = vec_add(a, b)
    assert_lanes(total, expected)
    assert total.values == expected


@pytest.mark.parametrize("p", [(1 << 31) - 1, 2147483659])
def test_protocol_run_never_unpacks_until_the_result_is_read(monkeypatch, p):
    # Shares, share sums, sequence hops and recovery all stay packed: the
    # only unpack of a whole run is the caller's read of the result.
    calls = []
    unpack = swiftagg.field._unpack

    def counted(packed, length):
        calls.append(length)
        return unpack(packed, length)

    length = 2048
    f = FieldSpec(p)
    params = ProtocolParams(12, 2, 1, length, f)
    rng = random.Random(11)
    rows = [[rng.randrange(p) for _ in range(length)] for _ in range(params.n)]
    models = [f.vector(r) for r in rows]
    noise = {
        uid: sample_noise(f, params.t, length, random.Random(uid))
        for uid in range(1, params.n + 1)
    }
    monkeypatch.setattr(swiftagg.field, "_unpack", counted)
    run = execute_protocol(params, models, noise, DropoutPlan({5: AFTER_SHARING}))
    assert calls == []
    values = run.recovered.values
    assert calls == [length]
    assert values == ref_sum(rows, p)


# ---------------------------------------------------------------------------
# Integer keys of vector columns
# ---------------------------------------------------------------------------

KEY_PRIMES = [2, 3, 5, 7]


def key_columns(p, slots, rng):
    """Coordinate tuples of ``slots`` entries: all of them if few, else edges plus a sample.

    The edges put ``p - 1`` in each slot alone, so every bit field of every
    word, the first field past a word boundary too, is read on its own.
    """
    if p**slots <= 256:
        return list(itertools.product(range(p), repeat=slots))
    edges = [(0,) * slots, (p - 1,) * slots]
    edges += [tuple(p - 1 if i == k else 0 for i in range(slots)) for k in range(slots)]
    sample = {tuple(rng.randrange(p) for _ in range(slots)) for _ in range(200)}
    return edges + sorted(sample - set(edges))


@pytest.mark.parametrize("p", KEY_PRIMES)
def test_column_keys_decode_to_their_entries(p):
    f = FieldSpec(p)
    rng = random.Random(p)
    per = 64 // (p - 1).bit_length()
    # No vectors, one word filled, and one word plus a symbol of the next.
    for slots in (0, 1, per, per + 1):
        columns = key_columns(p, slots, rng)
        vectors = [f.vector(row) for row in zip(*columns)]
        keys = _columns(f, vectors, len(columns))
        assert all(type(key) is int for key in keys), slots
        assert [_column_entries(key, p, slots) for key in keys] == columns, slots
        assert len(set(keys)) == len(columns), slots  # distinct tuples, distinct keys
    assert _columns(f, [], 3) == (0, 0, 0)


@pytest.mark.parametrize("p", KEY_PRIMES)
def test_column_keys_of_unreduced_shares_follow_the_entries(p):
    f = FieldSpec(p)
    rng = random.Random(p)
    slots = 64 // (p - 1).bit_length() + 1
    polys = [[[rng.randrange(p) for _ in range(20)] for _ in range(3)] for _ in range(slots)]
    shares = [evaluated(f, rows, p - 1) for rows in polys]
    assert all(share.bound >= p for share in shares)  # Horner outputs, left unreduced
    keys = _columns(f, shares, 20)
    entries = [ref_eval(rows, p - 1, p) for rows in polys]
    assert keys == _columns(f, [f.vector(e) for e in entries], 20)
    assert [_column_entries(key, p, slots) for key in keys] == list(zip(*entries))
