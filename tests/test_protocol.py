"""Grouping, message shapes, dropout semantics, and full runs.

The whole-protocol property test checks every drawn run against plain-int
column sums, the exact set of null slots and the exact load counts.
"""

import hashlib
import itertools
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from swiftagg.errors import IndivisibleNError, TooManyDropoutsError
from swiftagg.field import (
    FieldSpec,
    ModelVector,
    _barrett,
    _codec,
    _pack,
    is_prime,
    sample_noise,
    uniform_element,
)
from swiftagg.protocol import (
    AFTER_SHARING,
    BEFORE_SHARING,
    DROPOUT_TIMINGS,
    MID_SEQUENCE,
    CollusionBoundWarning,
    DropoutPlan,
    GroupPosition,
    Message,
    MessageLog,
    PHASE_INTRA,
    PHASE_SEQUENCE,
    PHASE_UPLOAD,
    ProtocolParams,
    ServerState,
    assign_groups,
    execute_protocol,
    execute_seeded,
    run_protocol,
)
from swiftagg.sharing import build_polynomial, share_for, user_rng
from swiftagg.simnet import count_loads

from helpers import field_sum, make_params, random_models

F101 = FieldSpec(101)


def sampled_noise(params, seed):
    return {
        uid: sample_noise(params.field, params.t, params.model_len, user_rng(seed, uid))
        for uid in range(1, params.n + 1)
    }


# ---------------------------------------------------------------------------
# Parameters and grouping
# ---------------------------------------------------------------------------


def test_params_reject_indivisible_n():
    with pytest.raises(IndivisibleNError):
        make_params(5, 1, 1)
    with pytest.raises(IndivisibleNError):
        make_params(10, 2, 1)


def test_params_reject_small_field():
    with pytest.raises(ValueError):
        make_params(4, 1, 0, p=2)  # group size 2 needs p > 2
    with pytest.raises(ValueError):
        make_params(8, 2, 1, p=3)  # group size 4 needs p > 4


def test_params_reject_bad_bounds():
    with pytest.raises(ValueError):
        make_params(2, 1, 1)  # t + d >= n
    with pytest.raises(ValueError):
        make_params(4, 0, 1)
    with pytest.raises(ValueError):
        make_params(4, 1, -1)


def test_t_equal_one_warns():
    with pytest.warns(CollusionBoundWarning):
        ProtocolParams(6, 1, 1, 1, FieldSpec(101))


def test_assign_groups_canonical_layout():
    params = make_params(12, 2, 1)
    positions = assign_groups(params)
    assert positions[8] == GroupPosition(2, 4)
    assert positions[7] == GroupPosition(2, 3)
    assert positions[11] == GroupPosition(3, 3)
    assert positions[11] == (3, 3)
    assert (str(positions[11]), repr(positions[11])) == ("(3,3)", "GroupPosition(gamma=3, t=3)")
    assert len(set(positions.values())) == 12


def test_assign_groups_single_group():
    params = make_params(4, 2, 1)
    positions = assign_groups(params)
    assert params.num_groups == 1
    assert {pos.gamma for pos in positions.values()} == {1}


def test_assign_groups_contiguous_formula():
    params = make_params(6, 1, 1)
    positions = assign_groups(params)
    assert positions[4] == GroupPosition(2, 1)


def test_assign_groups_shuffle_is_seeded_bijection():
    params = make_params(12, 2, 1)
    a = assign_groups(params, shuffle_seed=5)
    b = assign_groups(params, shuffle_seed=5)
    c = assign_groups(params, shuffle_seed=6)
    assert a == b
    assert a != c
    assert sorted(a) == list(range(1, 13))
    assert len(set(a.values())) == 12
    for pos in a.values():
        assert 1 <= pos.gamma <= 3 and 1 <= pos.t <= 4


# ---------------------------------------------------------------------------
# Server
# ---------------------------------------------------------------------------


def test_server_needs_enough_uploads():
    params = make_params(4, 2, 1)
    server = ServerState()
    server.receive(Message(PHASE_UPLOAD, GroupPosition(1, 1), None, 1, F101.vector([1])))
    server.receive(Message(PHASE_UPLOAD, GroupPosition(1, 2), None, 2, F101.vector([2])))
    with pytest.raises(TooManyDropoutsError):
        server.recover(params)


# ---------------------------------------------------------------------------
# Full runs
# ---------------------------------------------------------------------------


def test_motivating_scenario_facts():
    params = make_params(12, 2, 1, length=3)
    models = random_models(params, 21)
    recovered, log = run_protocol(params, models, {7}, seed=3)

    expected = field_sum(params.field, [m for n, m in enumerate(models, start=1) if n != 7])
    assert recovered == expected

    by_user = {}
    for msg in log:
        if msg.sender is not None:
            by_user.setdefault(log.user_of[msg.sender], []).append(msg)
    # the victim emits only null symbols
    assert all(m.payload is None for m in by_user[7])
    # its downstream neighbour goes silent in turn
    assert any(m.payload is None and m.phase == "upload" for m in by_user[11])
    uploads = {m.t for m in log if m.phase == "upload" and m.payload is not None}
    assert uploads == {1, 2, 4}


def test_no_dropout_run_all_uploads_arrive():
    params = make_params(12, 2, 1, length=2)
    models = random_models(params, 5)
    recovered, log = run_protocol(params, models, set(), seed=8)
    assert recovered == field_sum(params.field, models)
    uploads = [m for m in log if m.phase == "upload" and m.payload is not None]
    assert len(uploads) == params.group_size


def test_upload_equals_unrolled_group_sums():
    # oracle: unroll the sequence recursion by summing every group's in-group
    # share sum directly from the users' polynomials
    params = make_params(12, 2, 1, length=2)
    models = random_models(params, 13)
    noise = sampled_noise(params, seed=6)
    run = execute_protocol(params, models, noise, DropoutPlan.none())
    polys = {
        uid: build_polynomial(models[uid - 1], noise[uid], params.t)
        for uid in range(1, 13)
    }
    for msg in run.log:
        if not (msg.phase == "upload" and msg.payload is not None):
            continue
        t = msg.t
        q_sums = []
        for gamma in range(1, params.num_groups + 1):
            members = [uid for pos, uid in run.log.user_of.items() if pos.gamma == gamma]
            q_sums.append(
                field_sum(params.field, [share_for(polys[uid], t) for uid in members])
            )
        assert msg.payload == field_sum(params.field, q_sums)


def test_transcript_is_deterministic():
    params = make_params(6, 1, 1, length=2, p=11)
    models = random_models(params, 17)
    _, log_a = run_protocol(params, models, {2}, seed=99)
    _, log_b = run_protocol(params, models, {2}, seed=99)
    assert log_a.serialize() == log_b.serialize()
    _, log_c = run_protocol(params, models, {2}, seed=100)
    assert log_a.serialize() != log_c.serialize()


@pytest.mark.parametrize("p", [(1 << 31) - 1, 4294967291])
def test_wide_seeded_run_matches_per_entry_noise(p):
    # The golden transcript's vectors are too short for the packed noise
    # path; at 2,048 entries every user's noise takes it.
    params = make_params(12, 2, 1, length=2048, p=p)
    models = random_models(params, 5)
    plan = DropoutPlan({9: MID_SEQUENCE})
    run, _ = execute_seeded(params, models, plan, seed=21)
    looped = {}
    for uid in range(1, params.n + 1):
        rng = user_rng(21, uid)
        looped[uid] = tuple(
            params.field.vector([uniform_element(params.field, rng) for _ in range(2048)])
            for _ in range(params.t)
        )
    expected = execute_protocol(params, models, looped, plan)
    assert run.log.serialize() == expected.log.serialize()
    assert run.recovered == expected.recovered


def test_group_shuffle_preserves_recovery():
    params = make_params(12, 2, 1, length=2)
    models = random_models(params, 31)
    run, _ = execute_seeded(params, models, DropoutPlan.uniform([4]), seed=1, group_shuffle=True)
    expected = field_sum(params.field, [m for n, m in enumerate(models, start=1) if n != 4])
    assert run.recovered == expected


def test_phase_major_transcript_order():
    params = make_params(12, 2, 1)
    models = random_models(params, 2)
    _, log = run_protocol(params, models, set(), seed=0)
    phases = [m.phase for m in log]
    boundary = {"intra": 0, "sequence": 1, "upload": 2}
    assert phases == sorted(phases, key=boundary.__getitem__)


# ---------------------------------------------------------------------------
# Transcript serialization
# ---------------------------------------------------------------------------


def reference_digest(payload):
    if payload is None:
        return "-"
    data = f"{payload.field.p}:{','.join(map(str, payload.values))}"
    return hashlib.sha256(data.encode()).hexdigest()[:16]


def assert_digests_match_reference(log):
    # Serialize first: reading ``.values`` stores the reduced lanes in place.
    lines = log.to_lines()
    assert len(lines) == len(log)
    assert [line.rsplit(" payload=", 1)[1] for line in lines] == [
        reference_digest(m.payload) for m in log
    ]


def hand_built_log(payloads):
    a, b = GroupPosition(1, 1), GroupPosition(1, 2)
    log = MessageLog({a: 1, b: 2})
    log.extend(Message(PHASE_INTRA, a, b, 2, payload) for payload in payloads)
    return log


@pytest.mark.parametrize(
    "n, t, d, length, p, timings",
    [
        # More live payloads than one reduction step holds, plus null slots.
        (60, 2, 2, 16, (1 << 31) - 1, {7: BEFORE_SHARING, 31: MID_SEQUENCE}),
        # One payload is longer than a step.
        (4, 2, 1, 4097, 65521, {2: BEFORE_SHARING}),
    ],
)
def test_digests_match_reference_on_runs(n, t, d, length, p, timings):
    params = make_params(n, t, d, length, p)
    plan = DropoutPlan(timings)
    run, _ = execute_seeded(params, random_models(params, n), plan, seed=4, group_shuffle=True)
    assert any(m.payload is None for m in run.log)
    assert_digests_match_reference(run.log)


@pytest.mark.parametrize("p", [65521, 2147483659, 4294967291])
def test_digests_match_reference_on_wide_lanes(p):
    field = FieldSpec(p)
    rng = random.Random(p)
    top = (1 << 64) - 1
    payloads = []
    for k in range(300):
        bound = rng.choice([top, top - rng.randrange(p), p - 1, 2 * p])
        lanes = [rng.randint(0, bound) for _ in range(16)]
        if k % 3 == 0:
            lanes[0] = bound
        payloads.append(ModelVector._packed(field, _pack(lanes), 16, bound))
    payloads[5] = None
    assert_digests_match_reference(hand_built_log(payloads))


def test_digests_match_reference_across_fields_and_lengths():
    f101, f65521 = FieldSpec(101), FieldSpec(65521)
    rng = random.Random(8)
    payloads = []
    for k in range(40):
        field, length = [(f101, 3), (f65521, 3), (f101, 5), (f65521, 5)][k % 4]
        payloads.append(field.vector([rng.randrange(field.p) for _ in range(length)]))
        if k % 7 == 0:
            payloads.append(None)
    assert_digests_match_reference(hand_built_log(payloads))


@pytest.mark.parametrize(
    "p, digest",
    [
        ((1 << 31) - 1, "04d9c6ea4cb4d3b2348964fb147788f4bc83f4a67670941dd5ff61157f25e25f"),
        (4294967291, "a4559825bdd5c47088b6ed51eb8d406313f9b80c7d1760cd3540bbf996aa9ade"),
    ],
)
def test_golden_transcript_at_scale(p, digest):
    # 60 users, 16 entries: more than one reduction step of live payloads.
    params = ProtocolParams(60, 2, 2, 16, FieldSpec(p))
    models = [params.field.vector([(u * 1000003 + k) % p for k in range(16)]) for u in range(1, 61)]
    plan = DropoutPlan({7: AFTER_SHARING, 31: MID_SEQUENCE})
    run, _ = execute_seeded(params, models, plan, seed=5, group_shuffle=True)
    text = run.log.serialize()
    assert text.count("\n") == 300
    assert text.count("payload=-") == 5
    assert hashlib.sha256(text.encode()).hexdigest() == digest


def test_serializing_keeps_lane_caches_flat():
    # A step reduced at its own length would add a cache entry for every
    # distinct count of live payloads.
    params = make_params(60, 2, 2, 16, (1 << 31) - 1)
    models = random_models(params, 6)
    _barrett.cache_clear()
    _codec.cache_clear()
    logs = [
        execute_seeded(params, models, DropoutPlan(timings), seed=6)[0].log
        for timings in ({}, {7: BEFORE_SHARING}, {7: BEFORE_SHARING, 31: MID_SEQUENCE})
    ]
    assert len({sum(m.payload is not None for m in log) for log in logs}) == 3
    logs[0].to_lines()
    infos = (_barrett.cache_info(), _codec.cache_info())
    assert all(info.currsize < info.maxsize for info in infos)
    for log in logs[1:]:
        log.to_lines()
        assert (_barrett.cache_info().currsize, _codec.cache_info().currsize) == tuple(
            info.currsize for info in infos
        )


@pytest.mark.parametrize("timing", [BEFORE_SHARING, AFTER_SHARING, MID_SEQUENCE])
@pytest.mark.parametrize("victim", [1, 5, 7, 12])
def test_dropout_timing_semantics(timing, victim):
    params = make_params(12, 2, 1, length=2)
    models = random_models(params, victim * 7 + 1)
    noise = sampled_noise(params, seed=4)
    run = execute_protocol(params, models, noise, DropoutPlan({victim: timing}))
    if timing == BEFORE_SHARING:
        contributing = [m for n, m in enumerate(models, start=1) if n != victim]
    else:
        # shares were already distributed, so the model still reaches the sum
        contributing = models
    assert run.recovered == field_sum(params.field, contributing)
    # the users whose shares went out are exactly the contributors
    sharing = {
        run.log.user_of[m.sender]
        for m in run.log
        if m.phase == PHASE_INTRA and m.payload is not None
    }
    assert sharing == frozenset(
        n for n in range(1, 13) if timing == BEFORE_SHARING and n != victim or timing != BEFORE_SHARING
    )


def test_at_most_d_sequences_die():
    params = make_params(12, 1, 2, length=1)
    models = random_models(params, 3)
    noise = sampled_noise(params, seed=9)
    # two victims on the same sequence index kill only that one sequence
    positions = assign_groups(params)
    assert positions[1].t == positions[5].t
    run = execute_protocol(
        params, models, noise, DropoutPlan({1: BEFORE_SHARING, 5: MID_SEQUENCE})
    )
    null_uploads = [m for m in run.log if m.payload is None and m.phase == "upload"]
    assert len(null_uploads) == 1


def test_too_many_victims_rejected():
    params = make_params(6, 1, 1, p=11)
    models = random_models(params, 1)
    noise = sampled_noise(params, seed=2)
    with pytest.raises(ValueError):
        execute_protocol(
            params, models, noise, DropoutPlan({1: BEFORE_SHARING, 2: BEFORE_SHARING})
        )


@pytest.mark.parametrize(
    "spoil, message",
    [
        (lambda field, models, noise: (models[:-1], noise), "expected 6 models, got 5"),
        (
            lambda field, models, noise: ([FieldSpec(13).vector([0])] + models[1:], noise),
            "model vector lies in the wrong field",
        ),
        (
            lambda field, models, noise: ([field.vector([0, 0])] + models[1:], noise),
            "model vector has the wrong length",
        ),
        (
            lambda field, models, noise: (models, {u: z for u, z in noise.items() if u != 4}),
            "no noise vectors supplied for user 4",
        ),
    ],
    ids=["model_count", "field", "length", "noise"],
)
def test_malformed_run_inputs_rejected(spoil, message):
    params = make_params(6, 1, 1, p=11)
    models, noise = spoil(params.field, random_models(params, 1), sampled_noise(params, seed=2))
    with pytest.raises(ValueError, match=f"^{message}$"):
        execute_protocol(params, models, noise, DropoutPlan.none())


# ---------------------------------------------------------------------------
# Whole-protocol property
# ---------------------------------------------------------------------------


def smallest_prime_above(bound):
    return next(c for c in itertools.count(bound + 1) if is_prime(c))


@st.composite
def protocol_instances(draw):
    t = draw(st.integers(1, 3))
    d = draw(st.integers(0, 3))
    nu = t + d + 1
    n = nu * draw(st.integers(1, 5))
    p = draw(st.sampled_from(
        [smallest_prime_above(nu), 11, 101, 65521, (1 << 31) - 1, 4294967291]
    ))
    model_len = draw(st.integers(1, 16))
    victims = draw(st.lists(st.integers(1, n), unique=True, max_size=d))
    timings = {v: draw(st.sampled_from(DROPOUT_TIMINGS)) for v in victims}
    shuffle_seed = draw(st.none() | st.integers(0, 2**16))
    seed = draw(st.integers(0, 2**32))
    return n, t, d, p, model_len, timings, shuffle_seed, seed


def expected_null_slots(params, positions, timings):
    """A ``before_sharing`` victim's intra slots, plus every sequence and
    upload slot from each victim's own position to the end of its sequence."""
    nu, last = params.group_size, params.num_groups
    slots = set()
    for victim, timing in timings.items():
        pos = positions[victim]
        if timing == BEFORE_SHARING:
            slots |= {
                (PHASE_INTRA, pos, GroupPosition(pos.gamma, t2))
                for t2 in range(1, nu + 1)
                if t2 != pos.t
            }
        for gamma in range(pos.gamma, last + 1):
            sender = GroupPosition(gamma, pos.t)
            if gamma == last:
                slots.add((PHASE_UPLOAD, sender, None))
            else:
                slots.add((PHASE_SEQUENCE, sender, GroupPosition(gamma + 1, pos.t)))
    return slots


@settings(max_examples=80, deadline=None)
@given(instance=protocol_instances())
# The most silent groupmates a valid run allows: d = 2 of a group of 4.
@example(instance=(4, 1, 2, 5, 3, {2: BEFORE_SHARING, 3: BEFORE_SHARING}, None, 0))
def test_protocol_matches_sums_null_slots_and_loads(instance):
    n, t, d, p, model_len, timings, shuffle_seed, seed = instance
    params = make_params(n, t, d, length=model_len, p=p)
    models = random_models(params, seed)
    positions = assign_groups(params, shuffle_seed=shuffle_seed)
    noise = sampled_noise(params, seed)
    run = execute_protocol(params, models, noise, DropoutPlan(timings), positions)

    # Plain-int column sums of the models whose shares went out.
    contributing = [
        m.values for uid, m in enumerate(models, start=1)
        if timings.get(uid) != BEFORE_SHARING
    ]
    assert run.recovered.values == tuple(sum(column) % p for column in zip(*contributing))

    nu, last = params.group_size, params.num_groups
    assert len(run.log) == n * nu
    # Routing: every slot goes where its phase sends it, and no slot repeats.
    for m in run.log:
        if m.phase == PHASE_INTRA:
            assert m.recipient.gamma == m.sender.gamma
            assert m.recipient.t != m.sender.t
            assert m.t == m.recipient.t
        elif m.phase == PHASE_SEQUENCE:
            assert m.recipient == GroupPosition(m.sender.gamma + 1, m.sender.t)
            assert m.t == m.sender.t
        else:
            assert m.phase == PHASE_UPLOAD
            assert m.recipient is None and m.sender.gamma == last
            assert m.t == m.sender.t
    slots = [(m.phase, m.sender, m.recipient) for m in run.log]
    assert len(slots) == len(set(slots))

    null = [(m.phase, m.sender, m.recipient) for m in run.log if m.payload is None]
    expected = expected_null_slots(params, positions, timings)
    assert len(null) == len(set(null))
    assert set(null) == expected

    dead_uploads = sum(1 for phase, _, _ in expected if phase == PHASE_UPLOAD)
    metrics = count_loads(run.log, params)
    assert metrics.server_msgs == nu - dead_uploads
    assert metrics.user_to_user_msgs == (
        n * (nu - 1) + nu * (last - 1) - (len(expected) - dead_uploads)
    )
    if not timings:
        assert (metrics.user_to_user_msgs, metrics.server_msgs) == ((n - 1) * nu, nu)
