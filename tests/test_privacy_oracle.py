"""Exhaustive independence checks, their guards, and their negative controls."""

import itertools
from collections import Counter

import pytest

from swiftagg import privacy_oracle
from swiftagg.errors import TooLargeError
from swiftagg.field import FieldSpec, ModelVector
from swiftagg.privacy_oracle import (
    TinyInstance,
    check_conditional_independence,
    check_noise_chain_independence,
    check_share_hiding,
    default_instances,
    enumerate_views,
    run_privacy_suite,
)
from swiftagg.protocol import (
    AFTER_SHARING,
    BEFORE_SHARING,
    MID_SEQUENCE,
    assign_groups,
    execute_protocol,
)
from swiftagg.simnet import AdversaryConfig, DropoutPlan, collect_adversary_view

from helpers import make_params


def tiny(n, t, d, p, adversary, plan=None, label=""):
    return TinyInstance(
        make_params(n, t, d, p=p),
        plan if plan is not None else DropoutPlan.none(),
        adversary,
        label=label,
    )


# ---------------------------------------------------------------------------
# Guards
# ---------------------------------------------------------------------------


def test_instance_bounds_enforced():
    with pytest.raises(ValueError):
        TinyInstance(
            make_params(2, 1, 0, length=2, p=5),  # vectors, not scalars
            DropoutPlan.none(),
            AdversaryConfig.server_only(),
        )
    with pytest.raises(ValueError, match="modulus <= 7"):
        tiny(2, 1, 0, 11, AdversaryConfig.server_only())  # p > 7
    with pytest.raises(ValueError):
        tiny(8, 1, 0, 5, AdversaryConfig.server_only())  # n > 6
    with pytest.raises(ValueError):
        tiny(4, 3, 0, 5, AdversaryConfig.server_only())  # t > 2


def test_enumeration_guard_rejects_large_instances():
    # Each raises before it allocates; none of these may ever be enumerated.
    server = AdversaryConfig.server_only()
    for instance in (
        tiny(6, 2, 0, 7, server),  # 7**(6 + 12) assignments
        tiny(6, 1, 1, 5, server),  # 5**(6 + 6), about 17 GiB of views
        tiny(4, 2, 1, 7, AdversaryConfig.of([1, 2])),  # 7**(2 + 8)
    ):
        with pytest.raises(TooLargeError):
            enumerate_views(instance)
    with pytest.raises(TooLargeError):
        check_noise_chain_independence(tiny(6, 2, 0, 7, server))  # 7**12
    for p, degree in ((11, 7), (13, 4)):
        # (13, 4) has only 13**4 noise assignments but 13 * 13**4 * 793 counted tuples.
        with pytest.raises(TooLargeError):
            check_share_hiding(FieldSpec(p), degree)
    with pytest.raises(ValueError, match=r"^degree: must be >= 0, got -1$"):
        check_share_hiding(FieldSpec(5), -1)  # p**-1 is no width


def test_fixed_models_only_for_colluders():
    with pytest.raises(ValueError):
        TinyInstance(
            make_params(2, 1, 0, p=5),
            DropoutPlan.none(),
            AdversaryConfig.server_only(),
            colluder_models={1: 3},
        )


# ---------------------------------------------------------------------------
# Enumeration structure
# ---------------------------------------------------------------------------


def test_pair_instance_counts():
    instance = tiny(2, 1, 0, 5, AdversaryConfig.server_only(), label="pair")
    dist = enumerate_views(instance)
    # two users' models enumerated jointly, 25 noise assignments each
    assert len(dist.views) == 25
    assert all(sum(c.values()) == 25 for c in dist.views.values())
    aggregates = Counter(dist.aggregate_of.values())
    assert aggregates == Counter({a: 5 for a in range(5)})


def test_enumeration_respects_fixed_colluder_models():
    adversary = AdversaryConfig.of([3], server_curious=True)
    base = tiny(4, 1, 0, 3, adversary)
    shifted = TinyInstance(
        make_params(4, 1, 0, p=3),
        DropoutPlan.none(),
        adversary,
        colluder_models={3: 2},
    )
    for instance in (base, shifted):
        dist = enumerate_views(instance)
        assert len(dist.views) == 3**3  # three honest users
        result = check_conditional_independence(dist)
        assert result.independent, result.to_json()


def reference_views(instance, zero_noise=False):
    """One scalar protocol run per (honest models, noise) assignment."""
    params, p, honest = instance.params, instance.params.field.p, instance.honest
    positions = assign_groups(params)
    vec = [ModelVector._raw(params.field, (v,)) for v in range(p)]
    slots = instance.noise_symbol_count
    noise_assignments = (
        [(0,) * slots] if zero_noise else list(itertools.product(range(p), repeat=slots))
    )
    views, aggregate_of = {}, {}
    for w in itertools.product(range(p), repeat=len(honest)):
        models = [vec[instance.fixed_model_of(uid)] for uid in range(1, params.n + 1)]
        for uid, value in zip(honest, w):
            models[uid - 1] = vec[value]
        counter = Counter()
        for zs in noise_assignments:
            noise = {
                uid: [vec[v] for v in zs[(uid - 1) * params.t:uid * params.t]]
                for uid in range(1, params.n + 1)
            }
            run = execute_protocol(params, models, noise, instance.plan, positions)
            view = collect_adversary_view(run.log, instance.adversary, models, noise)
            counter[view.canonical()] += 1
        views[w] = counter
        aggregate_of[w] = sum(
            value for uid, value in zip(honest, w)
            if instance.plan.timings.get(uid) != BEFORE_SHARING
        ) % p
    return views, aggregate_of


def differential_instances():
    yield from default_instances()[:2]
    colluder = AdversaryConfig.of([1], server_curious=True)
    no_server = AdversaryConfig.of([3], server_curious=False)
    # The server-only case has three honest users (15,625 reference runs),
    # so it is paired with one timing only.
    cases = [(colluder, timing) for timing in (BEFORE_SHARING, AFTER_SHARING, MID_SEQUENCE)]
    cases += [(no_server, timing) for timing in (BEFORE_SHARING, AFTER_SHARING, MID_SEQUENCE)]
    cases.append((AdversaryConfig.server_only(), MID_SEQUENCE))
    for adversary, timing in cases:
        yield TinyInstance(
            make_params(3, 1, 1, p=5),
            DropoutPlan({2: timing}),
            adversary,
            colluder_models={uid: 3 for uid in adversary.colluders},
            label=f"n3_t1_d1_p5_{timing}",
        )


def test_batched_enumeration_matches_per_assignment_runs():
    for instance in differential_instances():
        for zero_noise in (False, True):
            dist = enumerate_views(instance, zero_noise=zero_noise)
            views, aggregate_of = reference_views(instance, zero_noise=zero_noise)
            case = (instance.label, instance.adversary, zero_noise)
            assert dist.views == views, case
            assert list(dist.views) == list(views), case
            assert dist.aggregate_of == aggregate_of, case


def test_forced_chunking_matches_per_assignment_runs(monkeypatch):
    default = privacy_oracle.RUN_COLUMNS
    instances = default_instances()[:2] + [
        TinyInstance(
            make_params(3, 1, 1, p=5),
            DropoutPlan({2: MID_SEQUENCE}),
            AdversaryConfig.of([1], server_curious=True),
            colluder_models={1: 3},
        )
    ]
    for instance in instances:
        for zero_noise in (False, True):
            views, aggregate_of = reference_views(instance, zero_noise=zero_noise)
            width = 1 if zero_noise else instance.params.field.p ** instance.noise_symbol_count
            # One column per run (a chunk is then one assignment), exactly one
            # noise block, four blocks plus a column (divides neither 25 nor
            # 27 assignments), and the default.
            for cap in (1, width, 4 * width + 1, default):
                monkeypatch.setattr(privacy_oracle, "RUN_COLUMNS", cap)
                dist = enumerate_views(instance, zero_noise=zero_noise)
                case = (instance.label, zero_noise, cap)
                assert dist.views == views, case
                assert list(dist.views) == list(views), case
                assert dist.aggregate_of == aggregate_of, case
    # The zero-noise control's witness, as `swiftagg privacy --no-noise` pins it.
    for cap in (1, 4, 26, default):
        monkeypatch.setattr(privacy_oracle, "RUN_COLUMNS", cap)
        dist = enumerate_views(default_instances()[1], zero_noise=True)
        assert check_conditional_independence(dist).witness == {
            "aggregate": 0,
            "assignment_a": [0, 0, 0],
            "assignment_b": [0, 1, 2],
            "view": "(((3, (0,), ((0,),)),), ((0,), (0,)), ((0,), (0,)))",
            "count_a": 1,
            "count_b": 0,
        }, cap


def test_enumeration_makes_one_run_per_chunk(monkeypatch):
    # 27 honest-model assignments fit one run with noise (81 columns each)
    # and without; one run per assignment would make 27.
    runs = []

    def counted(*args, **kwargs):
        runs.append(args[0].model_len)
        return execute_protocol(*args, **kwargs)

    monkeypatch.setattr(privacy_oracle, "execute_protocol", counted)
    instance = default_instances()[1]
    assert instance.label == "n4_t1_d0_p3_server_plus_colluder"
    for zero_noise, columns in ((False, 27 * 81), (True, 27)):
        runs.clear()
        enumerate_views(instance, zero_noise=zero_noise)
        assert runs == [columns], zero_noise


# ---------------------------------------------------------------------------
# Conditional independence
# ---------------------------------------------------------------------------


def test_server_only_pair_is_independent():
    dist = enumerate_views(tiny(2, 1, 0, 5, AdversaryConfig.server_only()))
    assert check_conditional_independence(dist).independent


def test_two_groups_with_colluder_is_independent():
    adversary = AdversaryConfig.of([3], server_curious=True)
    dist = enumerate_views(tiny(4, 1, 0, 3, adversary))
    assert check_conditional_independence(dist).independent


def test_dropout_instance_is_independent():
    # single group, one silent user, server watches: still nothing beyond the sum
    instance = tiny(
        3, 1, 1, 5, AdversaryConfig.server_only(), plan=DropoutPlan.uniform([2])
    )
    dist = enumerate_views(instance)
    assert check_conditional_independence(dist).independent


def test_t2_colluder_and_server_is_independent():
    # inside the paper's range 2 <= t < n - d: 5**(2 honest + 6 noise) assignments
    adversary = AdversaryConfig.of([2], server_curious=True)
    instance = tiny(3, 2, 0, 5, adversary, label="n3_t2_d0_p5_colluder2")
    result = check_conditional_independence(enumerate_views(instance))
    assert result.independent, result.to_json()

    control = check_conditional_independence(enumerate_views(instance, zero_noise=True))
    assert not control.independent
    assert control.witness is not None
    assert control.witness["assignment_a"] != control.witness["assignment_b"]


def test_no_noise_with_colluder_is_witnessed():
    adversary = AdversaryConfig.of([3], server_curious=True)
    dist = enumerate_views(tiny(4, 1, 0, 3, adversary), zero_noise=True)
    result = check_conditional_independence(dist)
    assert not result.independent
    witness = result.witness
    assert witness is not None
    # the witness pins two same-aggregate assignments with distinguishable views
    assert witness["assignment_a"] != witness["assignment_b"]
    assert witness["count_a"] != witness["count_b"]
    blob = result.to_json()
    assert blob["verdict"] == "dependent"
    assert "witness" in blob


def test_witness_is_the_first_differing_view_in_first_seen_order():
    # A view with a null slot: set order over such views followed hash(None),
    # which differs between processes on Python < 3.12.
    adversary = AdversaryConfig.of([1], server_curious=True)
    instance = tiny(4, 1, 2, 5, adversary, plan=DropoutPlan.uniform([3]))
    result = check_conditional_independence(enumerate_views(instance, zero_noise=True))
    assert result.witness == {
        "aggregate": 0,
        "assignment_a": [0, 0, 0],
        "assignment_b": [1, 0, 4],
        "view": "(((1, (0,), ((0,),)),), ((0,), None, (0,)), ((0,), (0,), None, (0,)))",
        "count_a": 1,
        "count_b": 0,
    }


def test_no_colluders_no_curious_server_trivially_independent():
    instance = tiny(2, 1, 0, 5, AdversaryConfig.none())
    dist = enumerate_views(instance)
    # every view is the empty view
    assert all(len(c) == 1 for c in dist.views.values())
    assert check_conditional_independence(dist).independent


def test_colluder_without_curious_server_is_independent():
    # the user-side-only threat model: colluders see their in-group shares
    # and upstream partial but no uploads
    adversary = AdversaryConfig.of([3], server_curious=False)
    dist = enumerate_views(tiny(4, 1, 0, 3, adversary))
    assert check_conditional_independence(dist).independent


# ---------------------------------------------------------------------------
# Noise-chain factorization
# ---------------------------------------------------------------------------


def test_noise_chain_factorizes_on_two_groups():
    server = AdversaryConfig.server_only()
    for instance in (
        tiny(4, 1, 0, 3, server),
        tiny(6, 1, 0, 3, server),  # three groups
        tiny(6, 1, 1, 5, server, plan=DropoutPlan({1: BEFORE_SHARING})),
    ):
        assert check_noise_chain_independence(instance).independent


def test_noise_chain_vacuous_for_single_group():
    instance = tiny(2, 1, 0, 5, AdversaryConfig.server_only())
    result = check_noise_chain_independence(instance)
    assert result.independent
    assert "vacuous" in result.detail


def test_noise_chain_detects_copied_noise():
    instance = tiny(4, 1, 0, 3, AdversaryConfig.server_only())
    result = check_noise_chain_independence(instance, copy_previous_group_noise=True)
    assert not result.independent
    assert result.witness["joint_count"] * result.witness["total"] != (
        result.witness["row_count"] * result.witness["col_count"]
    )
    assert result.witness == {
        "gamma": 1, "t": 1, "pair": [0, 0],
        "joint_count": 3, "row_count": 3, "col_count": 3, "total": 9,
    }
    # An after_sharing victim still shares, so its noise stays in the chain.
    victim = tiny(
        6, 1, 1, 5, AdversaryConfig.server_only(),
        plan=DropoutPlan({4: AFTER_SHARING}),
    )
    witness = check_noise_chain_independence(victim, copy_previous_group_noise=True).witness
    assert (witness["joint_count"], witness["total"]) == (25, 125)


# ---------------------------------------------------------------------------
# Share hiding
# ---------------------------------------------------------------------------


def test_share_hiding_up_to_degree():
    assert check_share_hiding(FieldSpec(5), 2).independent
    assert check_share_hiding(FieldSpec(7), 2).independent
    assert check_share_hiding(FieldSpec(5), 1).independent
    assert check_share_hiding(FieldSpec(3), 1).independent
    assert check_share_hiding(FieldSpec(3), 2).independent


def test_degree_plus_one_shares_do_reveal():
    # tightness: one more share than the degree pins the secret exactly
    p, degree = 5, 1
    counts_by_secret = []
    for secret in range(p):
        counter = Counter()
        for zs in itertools.product(range(p), repeat=degree):
            shares = tuple(
                (secret + sum(z * pow(beta, j + 1, p) for j, z in enumerate(zs))) % p
                for beta in (1, 2)
            )
            counter[shares] += 1
        counts_by_secret.append(counter)
    assert counts_by_secret[0] != counts_by_secret[1]


def test_share_hiding_check_witnesses_unmasked_shares(monkeypatch):
    # Negative control of the real check: with zero noise every share is the
    # secret itself, so one point already tells secret 0 from secret 1.
    real = privacy_oracle.build_polynomial

    def unmasked(model, noise, collusion_bound):
        zeros = [model.field.zeros(len(model))] * collusion_bound
        return real(model, zeros, collusion_bound)

    monkeypatch.setattr(privacy_oracle, "build_polynomial", unmasked)
    result = check_share_hiding(FieldSpec(5), 2)
    assert not result.independent
    assert result.witness == {
        "points": [1],
        "secret_a": 0,
        "secret_b": 1,
        "shares": [0],
        "count_a": 25,
        "count_b": 0,
    }


# ---------------------------------------------------------------------------
# Canned suite
# ---------------------------------------------------------------------------


def test_default_instances_are_valid_and_labeled():
    instances = default_instances()
    assert len(instances) == 3
    assert all(inst.label for inst in instances)
    assert instances[2].plan.excluded == frozenset({3})


def test_run_privacy_suite_negative_control():
    results = run_privacy_suite(no_noise=True)
    assert any(not r.independent for r in results)
