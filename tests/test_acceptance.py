"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest -v -s tests/test_acceptance.py`` to see the per-criterion
lines as they complete.  Every tolerance here is exact equality; nothing is
calibrated or approximate.
"""

import itertools
import random
import time
from pathlib import Path

from swiftagg.field import (
    FieldSpec,
    lagrange_interpolate_at_zero,
    vec_add,
)
from swiftagg.privacy_oracle import (
    check_conditional_independence,
    check_noise_chain_independence,
    check_share_hiding,
    default_instances,
    enumerate_views,
)
from swiftagg.protocol import (
    AFTER_SHARING,
    BEFORE_SHARING,
    MID_SEQUENCE,
    run_protocol,
)
from swiftagg.sharing import SharePolynomial
from swiftagg.simnet import AdversaryConfig, DropoutPlan, simulate

from helpers import field_sum, make_params, random_models

DATA_DIR = Path(__file__).parent / "data"

PRIMES = [11, 101, (1 << 31) - 1]
TIMINGS = [BEFORE_SHARING, AFTER_SHARING, MID_SEQUENCE]


def report(number, name, ok=True):
    print(f"ACCEPTANCE {number} {'PASS' if ok else 'FAIL'}: {name}")
    assert ok, f"criterion {number} failed: {name}"


def test_criterion_1_correctness_randomized():
    """1,000 randomized runs: recovered aggregate equals the exact field sum."""
    combos = []
    for t in (1, 2, 3):
        for d in (0, 1, 2):
            nu = t + d + 1
            for n in range(4, 25):
                if n % nu == 0 and t + d < n:
                    combos.append((n, t, d))
    assert combos
    rng = random.Random(20240817)
    start = time.perf_counter()
    for i in range(1000):
        n, t, d = combos[rng.randrange(len(combos))]
        length = rng.choice([1, 8])
        p = rng.choice(PRIMES)
        params = make_params(n, t, d, length, p)
        models = random_models(params, rng)
        victims = rng.sample(range(1, n + 1), rng.randint(0, d))
        plan = DropoutPlan(
            {v: rng.choice(TIMINGS) for v in victims}
        )
        result = simulate(params, models, plan, AdversaryConfig.none(), seed=i)
        contributing = [
            m for uid, m in enumerate(models, start=1)
            if plan.timings.get(uid) != BEFORE_SHARING
        ]
        assert result.recovered == field_sum(params.field, contributing, length), (
            n, t, d, p, length, plan.timings,
        )
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0, f"1000 runs took {elapsed:.1f}s (budget 30s)"
    report(1, f"exact recovery on 1000 randomized runs ({elapsed:.1f}s)")


def test_criterion_2_motivating_example_golden():
    """Fixed 12-user run with one dropout matches the checked-in transcript."""
    f = FieldSpec(101)
    params = make_params(12, 2, 1, 3, 101)
    models = [f.vector([n, 2 * n + 1, 3 * n + 2]) for n in range(1, 13)]
    recovered, log = run_protocol(params, models, {7}, seed=11)

    expected = field_sum(f, [m for n, m in enumerate(models, start=1) if n != 7], 3)
    assert recovered == expected

    u7 = [m for m in log if m.sender is not None and log.user_of[m.sender] == 7]
    assert u7 and all(m.payload is None for m in u7)
    u11_upload = [m for m in log if m.phase == "upload" and log.user_of[m.sender] == 11]
    assert len(u11_upload) == 1 and u11_upload[0].payload is None
    uploads = {m.t for m in log if m.phase == "upload" and m.payload is not None}
    assert uploads == {1, 2, 4}

    golden = (DATA_DIR / "motivating_golden.log").read_text()
    assert log.serialize() == golden
    report(2, "motivating 12-user run matches the golden transcript exactly")


def test_criterion_3_load_formulas():
    """Dropout-free loads hit the exact formulas; any t+1 uploads recover."""
    rng = random.Random(52)
    for n, t, d, length in [
        (12, 2, 1, 1), (12, 2, 1, 8), (4, 1, 0, 3), (6, 1, 1, 8),
        (18, 2, 3, 2), (24, 3, 2, 1), (8, 3, 0, 5), (21, 1, 1, 8),
    ]:
        params = make_params(n, t, d, length, 101)
        models = random_models(params, rng)
        result = simulate(
            params, models, DropoutPlan.none(), AdversaryConfig.none(), seed=n
        )
        nu = params.group_size
        assert result.metrics.user_to_user_msgs == (n - 1) * nu
        assert result.metrics.server_msgs == t + d + 1
        assert result.metrics.max_user_outbound_elems == nu * length

        uploads = [
            (m.t, m.payload) for m in result.log if m.phase == "upload" and m.payload is not None
        ]
        total = field_sum(params.field, models, length)
        for subset in itertools.combinations(uploads, t + 1):
            assert lagrange_interpolate_at_zero(list(subset), t) == total
    report(3, "user msgs = (n-1)(t+d+1), uploads = t+d+1, any t+1-subset recovers")


def test_criterion_4_privacy_oracle_instances():
    """Exhaustive verdict 'independent' on the canned tiny instances."""
    budget = 300.0
    for instance in default_instances():
        start = time.perf_counter()
        dist = enumerate_views(instance)
        result = check_conditional_independence(dist)
        elapsed = time.perf_counter() - start
        assert result.independent, result.to_json()
        assert elapsed < budget, f"{instance.label} took {elapsed:.0f}s"
        print(f"  - {instance.label}: independent in {elapsed:.1f}s")

    # negative control: strip the noise and the colluder instance must fail
    control = default_instances()[1]
    result = check_conditional_independence(enumerate_views(control, zero_noise=True))
    assert not result.independent and result.witness is not None
    report(4, "three instances independent; no-noise control produced a witness")


def test_criterion_5_hiding_and_chain_properties():
    """Share-hiding equality at p=5, t=2; sequence-noise chain factorizes."""
    hiding = check_share_hiding(FieldSpec(5), 2)
    assert hiding.independent, hiding.to_json()

    two_groups = default_instances()[1]
    assert two_groups.params.num_groups == 2
    chain = check_noise_chain_independence(two_groups)
    assert chain.independent, chain.to_json()
    report(5, "share distributions identical across secrets; noise chain factorizes")


def test_criterion_6_field_layer_round_trips():
    """10,000 interpolation round-trips recover the constant term exactly."""
    rng = random.Random(77)
    start = time.perf_counter()
    for _ in range(10_000):
        p = rng.choice(PRIMES)
        f = FieldSpec(p)
        degree = rng.randint(1, 5)
        length = rng.choice([1, 3])
        coeffs = [
            f.vector([rng.randrange(p) for _ in range(length)])
            for _ in range(degree + 1)
        ]
        alphas = rng.sample(range(1, p), degree + 1)
        poly = SharePolynomial(coeffs)
        points = [(a, poly.eval(a)) for a in alphas]
        assert lagrange_interpolate_at_zero(points, degree) == coeffs[0]

    # field-axiom spot suite on random triples of single-entry vectors: sums
    # through vec_add, products through a Horner step of the share polynomial
    for p in PRIMES:
        f = FieldSpec(p)
        z = f.zeros(1)
        for _ in range(200):
            x = rng.randrange(p)
            a, b, c = (f.vector([v]) for v in (x, rng.randrange(p), rng.randrange(p)))
            assert vec_add(vec_add(a, b), c) == vec_add(a, vec_add(b, c))
            assert vec_add(a, b) == vec_add(b, a)
            assert vec_add(vec_add(a, b), f.vector([-b.values[0]])) == a
            assert SharePolynomial([z, vec_add(b, c)]).eval(x) == vec_add(
                SharePolynomial([z, b]).eval(x), SharePolynomial([z, c]).eval(x)
            )
            if x:
                assert SharePolynomial([z, a]).eval(pow(x, -1, p)) == f.vector([1])
    elapsed = time.perf_counter() - start
    report(6, f"10,000 exact interpolation round-trips and field axioms ({elapsed:.1f}s)")
