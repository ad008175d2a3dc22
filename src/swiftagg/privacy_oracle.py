"""Exhaustive privacy verification on tiny instances.

These checks decide, by exact integer counting rather than estimation,
whether an adversary's view tells it anything about honest models beyond
their aggregate.  For every assignment of honest models and every assignment
of all noise vectors, the adversary view of the real protocol is recorded;
two conditional distributions count as equal only if they match
view-for-view and count-for-count, which for finite exact distributions is
the same statement as zero mutual information.

Every protocol step acts coordinate by coordinate, so the noise assignments
are batched into vector coordinates: one run per honest-model assignment
carries all noise assignments at once, and its view is counted column by
column.

The oracle also houses the derived noise quantities used by the chain and
hiding checks: the accumulated sequence noise ``ztilde(gamma, t)`` (the
noise component of a running sequence sum) and per-user share noise, which
exist only as proof devices and have no role in the protocol itself.

Instance sizes are guarded: enumeration covers p**(#honest models + N*T)
assignments, rejected above 10**9.
"""

from __future__ import annotations

import dataclasses
import itertools
import warnings
from collections import Counter
from dataclasses import dataclass, field as dc_field
from typing import Mapping, Optional

from .errors import TooLargeError
from .field import FieldSpec, ModelVector
from .protocol import (
    BEFORE_SHARING,
    CollusionBoundWarning,
    DropoutPlan,
    GroupPosition,
    ProtocolParams,
    assign_groups,
    execute_protocol,
)
from .simnet import AdversaryConfig, collect_adversary_view

ENUMERATION_GUARD = 10**9


@dataclass(frozen=True)
class TinyInstance:
    """A fully enumerable configuration: scalar models, tiny field and user count."""

    params: ProtocolParams
    plan: DropoutPlan
    adversary: AdversaryConfig
    colluder_models: Optional[Mapping[int, int]] = None
    label: str = ""

    def __post_init__(self):
        p = self.params
        if p.model_len != 1:
            raise ValueError("tiny instances use scalar models (model_len = 1)")
        if p.field.p > 7:
            raise ValueError("tiny instances require a field modulus <= 7")
        if p.n > 6:
            raise ValueError("tiny instances require n <= 6")
        if p.t > 2:
            raise ValueError("tiny instances require t <= 2")
        self.plan.validate_for(p)
        self.adversary.validate_for(p)
        if self.colluder_models is not None:
            extra = set(self.colluder_models) - set(self.adversary.colluders)
            if extra:
                raise ValueError(f"fixed models given for non-colluders {sorted(extra)}")
        if self.enumeration_size > ENUMERATION_GUARD:
            raise TooLargeError(
                f"enumeration would cover {self.enumeration_size} assignments "
                f"(guard: {ENUMERATION_GUARD})"
            )

    @property
    def honest(self) -> tuple:
        return tuple(
            uid for uid in range(1, self.params.n + 1)
            if uid not in self.adversary.colluders
        )

    @property
    def noise_symbol_count(self) -> int:
        return self.params.n * self.params.t

    @property
    def enumeration_size(self) -> int:
        return self.params.field.p ** (len(self.honest) + self.noise_symbol_count)

    def fixed_model_of(self, uid: int) -> int:
        if self.colluder_models is None:
            return 0
        return int(self.colluder_models.get(uid, 0)) % self.params.field.p


@dataclass
class ViewDistribution:
    """Exact view counts per honest-model assignment, keyed for conditioning.

    ``views[w]`` counts canonical views over all noise assignments for the
    honest-model assignment ``w`` (a tuple aligned with ``honest``);
    ``aggregate_of[w]`` is the sum of the honest users whose shares entered
    the run, i.e. the quantity the privacy statement conditions on.
    """

    instance: TinyInstance
    honest: tuple
    views: dict = dc_field(default_factory=dict)
    aggregate_of: dict = dc_field(default_factory=dict)


@dataclass(frozen=True)
class Witness:
    """Concrete evidence of dependence: same aggregate, distinguishable views."""

    aggregate: int
    assignment_a: tuple
    assignment_b: tuple
    view: tuple
    count_a: int
    count_b: int

    def to_json(self) -> dict:
        return {
            "aggregate": self.aggregate,
            "assignment_a": list(self.assignment_a),
            "assignment_b": list(self.assignment_b),
            "view": repr(self.view),
            "count_a": self.count_a,
            "count_b": self.count_b,
        }


@dataclass(frozen=True)
class CheckResult:
    """Outcome of one exact check; a failure carries its witness."""

    check: str
    instance: str
    independent: bool
    witness: Optional[object] = None
    detail: str = ""

    def to_json(self) -> dict:
        out = {
            "check": self.check,
            "instance": self.instance,
            "verdict": "independent" if self.independent else "dependent",
        }
        if self.detail:
            out["detail"] = self.detail
        if self.witness is not None:
            out["witness"] = (
                self.witness.to_json() if hasattr(self.witness, "to_json") else self.witness
            )
        return out


def enumerate_views(instance: TinyInstance, zero_noise: bool = False) -> ViewDistribution:
    """Count the adversary view for every (honest models, all noise) assignment.

    One protocol run per honest-model assignment carries every noise
    assignment: coordinate ``k`` of the noise vectors holds the ``k``-th
    tuple of ``itertools.product(range(p), repeat=N*T)`` and each model is a
    constant vector, so column ``k`` of the view is exactly the canonical
    view of a scalar run on that assignment.  ``zero_noise`` replaces the
    noise enumeration with the single all-zero assignment; it exists as a
    negative control and must break privacy for any adversary that sees
    unaggregated material.
    """
    params = instance.params
    spec = params.field
    p = spec.p
    honest = instance.honest
    positions = assign_groups(params)
    timings = dict(instance.plan.timings)

    slots = instance.noise_symbol_count
    if zero_noise:
        assignments = [(0,) * slots]
    else:
        assignments = list(itertools.product(range(p), repeat=slots))
    width = len(assignments)
    # Slot (uid, j) is entry (uid - 1) * T + j of every noise assignment.
    slot_columns = list(zip(*assignments))
    noise = {
        uid: tuple(
            ModelVector._raw(spec, slot_columns[(uid - 1) * params.t + j])
            for j in range(params.t)
        )
        for uid in range(1, params.n + 1)
    }
    with warnings.catch_warnings():
        # The instance itself already warned about t = 1.
        warnings.simplefilter("ignore", CollusionBoundWarning)
        wide = dataclasses.replace(params, model_len=width)
    const = [ModelVector._raw(spec, (v,) * width) for v in range(p)]
    singles = [(v,) for v in range(p)]

    # Contributing honest users: everyone whose shares entered the run.
    contributing = [
        uid for uid in honest if timings.get(uid) != BEFORE_SHARING
    ]
    honest_index = {uid: i for i, uid in enumerate(honest)}

    base_models = [const[instance.fixed_model_of(uid)] for uid in range(1, params.n + 1)]

    # Colluder models and noise do not depend on the honest models, so the
    # colluder-inputs part of every column's key is built once.
    own_parts = [
        [
            (uid, singles[instance.fixed_model_of(uid)], zs)
            for zs in zip(*(map(singles.__getitem__, z.values) for z in noise[uid]))
        ]
        for uid in sorted(instance.adversary.colluders)
    ]
    own = list(zip(*own_parts)) if own_parts else [()] * width

    dist = ViewDistribution(instance, honest)
    for w in itertools.product(range(p), repeat=len(honest)):
        models = list(base_models)
        for uid, value in zip(honest, w):
            models[uid - 1] = const[value]
        aggregate = sum(w[honest_index[uid]] for uid in contributing) % p

        run = execute_protocol(wide, models, noise, timings, positions)
        view = collect_adversary_view(run.log, instance.adversary, models, noise, positions)
        received = _payload_columns(view.received, width, singles)
        uploads = _payload_columns(view.uploads, width, singles)
        dist.views[w] = Counter(zip(own, received, uploads))
        dist.aggregate_of[w] = aggregate
    return dist


def _payload_columns(messages, width: int, singles: list):
    """Per-coordinate payload tuples, as ``AdversaryView.canonical`` forms them."""
    if not messages:
        return itertools.repeat((), width)
    return zip(*(
        itertools.repeat(None, width)
        if m.payload is None
        else map(singles.__getitem__, m.payload.values)
        for m in messages
    ))


def check_conditional_independence(dist: ViewDistribution) -> CheckResult:
    """Exact-MI verdict: within each aggregate class, all view multisets match.

    Equality of the conditional view distributions for every pair of honest
    assignments with the same aggregate is equivalent to the view carrying
    zero information about the models beyond that aggregate.  Failure returns
    the first concrete witness found.
    """
    classes: dict = {}
    for w, aggregate in dist.aggregate_of.items():
        classes.setdefault(aggregate, []).append(w)

    label = dist.instance.label or "tiny-instance"
    for aggregate, members in sorted(classes.items()):
        reference = dist.views[members[0]]
        for w in members[1:]:
            candidate = dist.views[w]
            if candidate == reference:
                continue
            for view_key in reference.keys() | candidate.keys():
                if reference[view_key] != candidate[view_key]:
                    witness = Witness(
                        aggregate=aggregate,
                        assignment_a=members[0],
                        assignment_b=w,
                        view=view_key,
                        count_a=reference[view_key],
                        count_b=candidate[view_key],
                    )
                    return CheckResult(
                        "conditional_independence", label, False, witness
                    )
    return CheckResult(
        "conditional_independence",
        label,
        True,
        detail=f"{len(classes)} aggregate classes, {len(dist.views)} assignments",
    )


def _sequence_noise_values(instance, noise_values, alphas, positions):
    """The accumulated sequence noise per (gamma, t) for one noise assignment.

    ``ztilde(gamma, t)`` is the noise part of the running sequence sum after
    group ``gamma``: sum over j of alpha_t**j times the degree-j noise of all
    contributing users in groups 1..gamma.
    """
    params = instance.params
    p = params.field.p
    nu, num_groups = params.group_size, params.num_groups
    timings = instance.plan.timings

    # prefix[g][j] = sum of degree-(j+1) noise over contributing users in groups 1..g
    prefix = [[0] * params.t for _ in range(num_groups + 1)]
    for uid in range(1, params.n + 1):
        if timings.get(uid) == BEFORE_SHARING:
            continue
        g = positions[uid].gamma
        for j in range(params.t):
            prefix[g][j] = (prefix[g][j] + noise_values[uid][j]) % p
    for g in range(1, num_groups + 1):
        for j in range(params.t):
            prefix[g][j] = (prefix[g][j] + prefix[g - 1][j]) % p

    ztilde = {}
    for g in range(1, num_groups + 1):
        for t in range(1, nu + 1):
            total = 0
            power = 1
            for j in range(params.t):
                power = power * alphas[t] % p
                total = (total + power * prefix[g][j]) % p
            ztilde[(g, t)] = total
    return ztilde


def check_noise_chain_independence(
    instance: TinyInstance, copy_previous_group_noise: bool = False
) -> CheckResult:
    """Factorization check of consecutive sequence-noise pairs.

    For each sequence index t and each group boundary, the joint counts of
    ``(ztilde(gamma, t), ztilde(gamma+1, t))`` over all noise assignments must
    factor exactly into the product of their marginals.  A single-group
    instance passes vacuously.  ``copy_previous_group_noise`` is a negative
    control: it reuses group 1's noise in every later group, which makes the
    chain perfectly dependent and must be witnessed.
    """
    params = instance.params
    p = params.field.p
    nu, num_groups = params.group_size, params.num_groups
    label = instance.label or "tiny-instance"
    if num_groups < 2:
        return CheckResult(
            "noise_chain_independence", label, True, detail="single group: vacuous"
        )

    positions = assign_groups(params)
    by_position = {pos: uid for uid, pos in positions.items()}
    alphas = {t: t % p for t in range(1, nu + 1)}

    if copy_previous_group_noise:
        free_users = [by_position[GroupPosition(1, t)] for t in range(1, nu + 1)]
    else:
        free_users = list(range(1, params.n + 1))
    free_slots = [(uid, j) for uid in free_users for j in range(params.t)]

    joints: dict = {
        (g, t): Counter()
        for g in range(1, num_groups)
        for t in range(1, nu + 1)
    }
    for zs in itertools.product(range(p), repeat=len(free_slots)):
        noise_values = {uid: [0] * params.t for uid in range(1, params.n + 1)}
        for (uid, j), value in zip(free_slots, zs):
            noise_values[uid][j] = value
        if copy_previous_group_noise:
            for uid in range(1, params.n + 1):
                pos = positions[uid]
                if pos.gamma > 1:
                    source = by_position[GroupPosition(1, pos.t)]
                    noise_values[uid] = list(noise_values[source])
        ztilde = _sequence_noise_values(instance, noise_values, alphas, positions)
        for (g, t), counter in joints.items():
            counter[(ztilde[(g, t)], ztilde[(g + 1, t)])] += 1

    for (g, t), joint in sorted(joints.items()):
        total = sum(joint.values())
        rows: Counter = Counter()
        cols: Counter = Counter()
        for (a, b), c in joint.items():
            rows[a] += c
            cols[b] += c
        for a in rows:
            for b in cols:
                if joint[(a, b)] * total != rows[a] * cols[b]:
                    return CheckResult(
                        "noise_chain_independence",
                        label,
                        False,
                        witness={
                            "gamma": g,
                            "t": t,
                            "pair": [a, b],
                            "joint_count": joint[(a, b)],
                            "row_count": rows[a],
                            "col_count": cols[b],
                            "total": total,
                        },
                    )
    return CheckResult(
        "noise_chain_independence",
        label,
        True,
        detail=f"{len(joints)} group-boundary pairs factor exactly",
    )


def check_share_hiding(
    spec: FieldSpec, degree: int, points: Optional[tuple] = None
) -> CheckResult:
    """Any <=``degree`` shares of one scalar secret are distribution-identical.

    Enumerates all noise coefficient assignments for a degree-``degree``
    masking polynomial and verifies, for every subset of up to ``degree``
    distinct nonzero points, that the exact joint share distribution is the
    same for every secret value.
    """
    p = spec.p
    if points is None:
        points = tuple(range(1, p))
    label = f"p{p}_degree{degree}"
    for size in range(1, degree + 1):
        for combo in itertools.combinations(points, size):
            reference = None
            reference_secret = None
            for secret in range(p):
                counter: Counter = Counter()
                for zs in itertools.product(range(p), repeat=degree):
                    shares = tuple(
                        (secret + sum(z * pow(beta, j + 1, p) for j, z in enumerate(zs))) % p
                        for beta in combo
                    )
                    counter[shares] += 1
                if reference is None:
                    reference = counter
                    reference_secret = secret
                elif counter != reference:
                    diff = next(
                        k for k in reference.keys() | counter.keys()
                        if reference[k] != counter[k]
                    )
                    return CheckResult(
                        "share_hiding",
                        label,
                        False,
                        witness={
                            "points": list(combo),
                            "secret_a": reference_secret,
                            "secret_b": secret,
                            "shares": list(diff),
                            "count_a": reference[diff],
                            "count_b": counter[diff],
                        },
                    )
    return CheckResult(
        "share_hiding", label, True, detail=f"all subsets of up to {degree} points match"
    )


# ---------------------------------------------------------------------------
# Canned suite (used by the CLI and the acceptance tests)
# ---------------------------------------------------------------------------


def default_instances() -> list:
    """The standard tiny instances: lone pair, two groups plus colluder, dropout.

    They use t = 1 on purpose (the smallest enumerable instances), so the
    collusion-range warning meant for user-built parameters is silenced here.
    """
    f5 = FieldSpec(5)
    f3 = FieldSpec(3)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", CollusionBoundWarning)
        return [
            TinyInstance(
                ProtocolParams(2, 1, 0, 1, f5),
                DropoutPlan.none(),
                AdversaryConfig.server_only(),
                label="n2_t1_d0_p5_server_only",
            ),
            TinyInstance(
                ProtocolParams(4, 1, 0, 1, f3),
                DropoutPlan.none(),
                AdversaryConfig.of([3], server_curious=True),
                label="n4_t1_d0_p3_server_plus_colluder",
            ),
            TinyInstance(
                ProtocolParams(4, 1, 2, 1, f5),
                DropoutPlan.uniform([3]),
                AdversaryConfig.server_only(),
                label="n4_t1_d2_p5_server_only_one_dropout",
            ),
        ]


def run_privacy_suite(no_noise: bool = False) -> list:
    """Every canned check, in order; ``no_noise`` flips to the negative control."""
    results = []
    instances = default_instances()
    for instance in instances:
        dist = enumerate_views(instance, zero_noise=no_noise)
        results.append(check_conditional_independence(dist))
    if not no_noise:
        results.append(check_noise_chain_independence(instances[1]))
        results.append(check_share_hiding(FieldSpec(5), 2))
    return results
