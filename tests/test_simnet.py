"""Load accounting, adversary views, and the comparison table."""

import dataclasses
import itertools
import json

import pytest

from swiftagg.field import lagrange_interpolate_at_zero
from swiftagg.protocol import (
    AFTER_SHARING,
    BEFORE_SHARING,
    MID_SEQUENCE,
    assign_groups,
)
from swiftagg.sharing import derive_subseed
from swiftagg.simnet import (
    AdversaryConfig,
    DropoutPlan,
    simulate,
    table1_analytic,
)

from helpers import field_sum, make_params, random_models


def run(params, models, plan=None, adversary=None, seed=0, **kw):
    plan = plan if plan is not None else DropoutPlan.none()
    adversary = adversary if adversary is not None else AdversaryConfig.none()
    return simulate(params, models, plan, adversary, seed, **kw)


# ---------------------------------------------------------------------------
# Plans and adversary configs
# ---------------------------------------------------------------------------


def test_plan_validation():
    params = make_params(6, 1, 1, p=11)
    DropoutPlan.uniform([3]).validate_for(params)
    assert DropoutPlan.uniform([7, 3]).timings == {7: BEFORE_SHARING, 3: BEFORE_SHARING}
    with pytest.raises(ValueError, match=r"^2 victims exceed the dropout bound d=1$"):
        DropoutPlan.uniform([1, 2]).validate_for(params)  # |victims| > d
    with pytest.raises(ValueError, match=r"^victim 9 is not a user id in \[1, 6\]$"):
        DropoutPlan.uniform([9]).validate_for(params)
    with pytest.raises(ValueError):
        DropoutPlan({3: "sometime"}).validate_for(params)
    with pytest.raises(ValueError, match=r"^victim '3' is not a user id in \[1, 6\]$"):
        DropoutPlan({"3": BEFORE_SHARING}).validate_for(params)  # no TypeError from <=
    # The aggregate leaves out exactly the users silent before sharing.
    assert DropoutPlan({1: BEFORE_SHARING, 2: AFTER_SHARING, 3: MID_SEQUENCE}).excluded == {1}
    assert DropoutPlan.none().excluded == frozenset()
    with pytest.raises(ValueError, match="duplicate user ids"):
        DropoutPlan.uniform([3, 3])  # the dict would keep one victim
    # simulate relies on execute_protocol's check of the same plans
    models = random_models(params, 1)
    for plan in (DropoutPlan({3: "sometime"}), DropoutPlan.uniform([1, 2])):
        with pytest.raises(ValueError):
            run(params, models, plan)


def test_adversary_validation():
    params = make_params(6, 1, 1, p=11)
    AdversaryConfig.of([4]).validate_for(params)
    assert AdversaryConfig.of([2, 3]).colluders == frozenset({2, 3})
    with pytest.raises(ValueError, match=r"^2 colluders exceed the collusion bound t=1$"):
        AdversaryConfig.of([1, 2]).validate_for(params)  # |colluders| > t
    with pytest.raises(ValueError, match=r"^colluder 7 is not a user id in \[1, 6\]$"):
        AdversaryConfig.of([7]).validate_for(params)
    with pytest.raises(ValueError, match=r"^colluder '3' is not a user id in \[1, 6\]$"):
        AdversaryConfig(frozenset({"3"}), True).validate_for(params)
    with pytest.raises(ValueError, match="duplicate user ids"):
        AdversaryConfig.of([2, 2])  # the set would keep one colluder


# ---------------------------------------------------------------------------
# Load accounting
# ---------------------------------------------------------------------------


def test_dropout_free_load_is_exact():
    for n, t, d in [(12, 2, 1), (4, 1, 0), (6, 1, 1), (8, 1, 0), (18, 3, 2)]:
        params = make_params(n, t, d, p=101)
        result = run(params, random_models(params, n))
        nu = params.group_size
        assert result.metrics.user_to_user_msgs == (n - 1) * nu
        assert result.metrics.server_msgs == nu


def test_single_group_load():
    params = make_params(4, 2, 1)
    result = run(params, random_models(params, 1))
    nu = params.group_size
    assert result.metrics.user_to_user_msgs == nu * (nu - 1)


def test_two_group_load_formula():
    params = make_params(8, 2, 1)  # nu = 4, two groups
    result = run(params, random_models(params, 2))
    nu = params.group_size
    assert result.metrics.user_to_user_msgs == 2 * nu * (nu - 1) + nu
    assert result.metrics.user_to_user_msgs == (params.n - 1) * nu


def test_motivating_run_counts():
    params = make_params(12, 2, 1, length=3)
    result = run(params, random_models(params, 44), plan=DropoutPlan.uniform([7]))
    assert result.metrics.server_msgs == 3
    assert result.metrics.user_to_user_msgs < 44


def test_per_user_outbound_volume():
    params = make_params(12, 2, 1, length=5)
    result = run(params, random_models(params, 3))
    assert result.metrics.max_user_outbound_elems == params.group_size * params.model_len
    dropped = run(params, random_models(params, 3), plan=DropoutPlan.uniform([2]))
    assert dropped.metrics.max_user_outbound_elems <= params.group_size * params.model_len


def test_adding_victims_never_increases_counts():
    params = make_params(12, 1, 2, length=2)
    models = random_models(params, 10)
    baseline = run(params, models)
    one = run(params, models, plan=DropoutPlan.uniform([3]))
    two = run(params, models, plan=DropoutPlan.uniform([3, 9]))
    seq = [baseline.metrics, one.metrics, two.metrics]
    for a, b in zip(seq, seq[1:]):
        assert b.user_to_user_msgs <= a.user_to_user_msgs
        assert b.server_msgs <= a.server_msgs
        assert b.max_user_outbound_elems <= a.max_user_outbound_elems


@pytest.mark.parametrize("timing", [BEFORE_SHARING, AFTER_SHARING, MID_SEQUENCE])
def test_recovery_succeeds_within_dropout_budget(timing):
    params = make_params(15, 2, 2, length=2, p=11)
    models = random_models(params, 6)
    for victims in [(), (4,), (4, 9), (1, 6)]:
        plan = DropoutPlan(dict.fromkeys(victims, timing))
        result = run(params, models, plan=plan)
        assert result.metrics.server_msgs >= params.t + 1
        assert params.t + 1 <= result.metrics.server_msgs <= params.group_size


def test_metrics_json_field_names():
    params = make_params(4, 1, 0, p=11)
    result = run(params, random_models(params, 8))
    blob = json.loads(json.dumps(dataclasses.asdict(result.metrics)))
    assert list(blob) == [
        "user_to_user_msgs",
        "server_msgs",
        "max_user_outbound_elems",
    ]


# ---------------------------------------------------------------------------
# Adversary views
# ---------------------------------------------------------------------------


def test_empty_adversary_sees_nothing():
    params = make_params(6, 1, 1, p=11)
    result = run(params, random_models(params, 4))
    assert result.view.colluder_inputs == ()
    assert result.view.received == ()
    assert result.view.uploads == ()


def test_server_only_view_is_uploads():
    params = make_params(6, 1, 1, p=11)
    result = run(params, random_models(params, 4), adversary=AdversaryConfig.server_only())
    assert result.view.received == ()
    assert len(result.view.uploads) == params.group_size
    assert all(m.phase == "upload" for m in result.view.uploads)


def test_colluder_view_contains_exactly_its_messages():
    seed = 7
    for n, t, d, colluders, shuffled in [(6, 1, 1, [4], False), (12, 2, 1, [3, 10], True)]:
        params = make_params(n, t, d, p=11)
        models = random_models(params, 4)
        adversary = AdversaryConfig.of(colluders, server_curious=shuffled)
        result = run(params, models, adversary=adversary, seed=seed, group_shuffle=shuffled)
        # Positions come from the layout itself, not from the transcript's map.
        shuffle_seed = derive_subseed(seed, "groups") if shuffled else None
        positions = assign_groups(params, shuffle_seed)
        assert (positions != assign_groups(params)) == shuffled
        held = {positions[uid] for uid in colluders}
        expected = [m for m in result.log if m.recipient in held]
        assert list(result.view.received) == expected
        # one intra share per groupmate, plus the upstream partial past group 1
        assert len(expected) == sum(
            params.group_size - 1 + (positions[uid].gamma > 1) for uid in colluders
        )
        uploads = [m for m in result.log if m.phase == "upload"]
        assert list(result.view.uploads) == (uploads if shuffled else [])
        assert [uid for uid, _, _ in result.view.colluder_inputs] == sorted(colluders)
        for uid, model, noise in result.view.colluder_inputs:
            assert model == models[uid - 1]
            assert len(noise) == params.t


def test_view_canonical_is_stable_and_hashable():
    params = make_params(4, 1, 0, p=11)
    models = random_models(params, 12)
    a = run(params, models, adversary=AdversaryConfig.server_only(), seed=5)
    b = run(params, models, adversary=AdversaryConfig.server_only(), seed=5)
    assert a.view.canonical() == b.view.canonical()
    assert hash(a.view.canonical()) == hash(b.view.canonical())


# ---------------------------------------------------------------------------
# Recovery from upload subsets, comparison table
# ---------------------------------------------------------------------------


def test_any_subset_of_uploads_recovers():
    params = make_params(12, 2, 1, length=2)
    models = random_models(params, 9)
    result = run(params, models)
    uploads = [
        (m.t, m.payload) for m in result.log if m.phase == "upload" and m.payload is not None
    ]
    expected = field_sum(params.field, models)
    for subset in itertools.combinations(uploads, params.t + 1):
        assert lagrange_interpolate_at_zero(list(subset), params.t) == expected


def test_table_rows_match_measured_maxima():
    params = make_params(12, 2, 1, length=10)
    rows = table1_analytic(params)
    ours = rows[-1]
    assert ours["approach"] == "SwiftAgg"
    assert ours["server_comm"] == 30
    assert ours["per_user_comm"] == 40
    result = run(params, random_models(params, 2))
    assert ours["per_user_comm"] == result.metrics.max_user_outbound_elems
    assert ours["server_comm"] == (params.t + 1) * params.model_len
    assert ours["server_comm"] <= result.metrics.server_msgs * params.model_len


def test_table_smallest_parameters():
    params = make_params(4, 1, 0, length=1, p=11)
    ours = table1_analytic(params)[-1]
    assert ours["server_comm"] == 2
    assert ours["per_user_comm"] == 2


def test_table_competitor_labels():
    params = make_params(4, 1, 0, p=11)
    names = [row["approach"] for row in table1_analytic(params)]
    assert names == [
        "SecAgg", "SecAgg+", "TurboAgg", "Choi et al.", "LightSecAgg", "SwiftAgg",
    ]
    for row in table1_analytic(params)[:-1]:
        assert isinstance(row["server_comm"], str) and row["server_comm"].startswith("O(")
