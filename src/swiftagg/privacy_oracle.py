"""Exhaustive privacy verification on tiny instances.

These checks decide, by exact integer counting rather than estimation,
whether an adversary's view tells it anything about honest models beyond
their aggregate.  For every assignment of honest models and every assignment
of all noise vectors, the adversary view of the real protocol is recorded;
two conditional distributions count as equal only if they match
view-for-view and count-for-count, which for finite exact distributions is
the same statement as zero mutual information.

Every protocol step acts coordinate by coordinate, so every check batches
its noise assignments into vector coordinates (``_enumerated``) and computes
on the package's own kernels: one run per chunk of honest-model
assignments carries all noise assignments of the view check, one zero-model
run yields every accumulated sequence noise ``ztilde(gamma, t)`` of the
chain check, and the hiding check evaluates real masking polynomials with
``share_for``.  Each result is then counted column by column.

Sizes are guarded where the work is done: ``enumerate_views`` covers
p**(#honest models + N*T) assignments, the chain check p**(N*T), and the
hiding check counts p * p**degree * sum(C(p-1, s) for s = 1..degree), one per
secret, noise assignment and set of at most ``degree`` points; each raises
``TooLargeError`` above ``ENUMERATION_GUARD`` before it allocates.
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass, field as dc_field
from math import comb
from typing import Mapping, Optional

from .errors import TooLargeError
from .field import FieldSpec, _join, _stretch
from .protocol import (
    PHASE_INTRA,
    AdversaryConfig,
    DropoutPlan,
    GroupPosition,
    ProtocolParams,
    _quiet_params,
    assign_groups,
    execute_protocol,
)
from .sharing import build_polynomial, share_for
from .simnet import collect_adversary_view

# A view enumeration holds about 75 bytes per assignment at its peak, so the
# guard keeps one under about 0.7 GiB.
ENUMERATION_GUARD = 10**7

# Most columns one view-enumeration run carries; a run takes at least one assignment.
RUN_COLUMNS = 1 << 14


def _check_size(assignments: int) -> None:
    if assignments > ENUMERATION_GUARD:
        raise TooLargeError(
            f"enumeration would cover {assignments} assignments (guard: {ENUMERATION_GUARD})"
        )


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
    honest-model assignment ``w`` (a tuple aligned with ``instance.honest``);
    ``aggregate_of[w]`` is the sum of the honest users whose shares entered
    the run, i.e. the quantity the privacy statement conditions on.
    """

    instance: TinyInstance
    views: dict = dc_field(default_factory=dict)
    aggregate_of: dict = dc_field(default_factory=dict)


@dataclass(frozen=True)
class CheckResult:
    """Outcome of one exact check; a failure carries a JSON-ready witness dict."""

    check: str
    instance: str
    independent: bool
    witness: Optional[dict] = None
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
            out["witness"] = self.witness
        return out


def _enumerated(spec: FieldSpec, slots: int, zero_noise: bool = False) -> tuple:
    """``slots`` noise vectors that carry every noise assignment at once.

    Coordinate ``k`` of the vectors holds the ``k``-th tuple of
    ``itertools.product(range(p), repeat=slots)``: slot ``i`` steps through
    ``range(p)`` every ``p**(slots - 1 - i)`` coordinates.  ``zero_noise``
    holds only the all-zero tuple.
    """
    if zero_noise:
        return (spec.zeros(1),) * slots
    p = spec.p
    return tuple(
        _join([_stretch(spec, range(p), p ** (slots - 1 - i))], p**i) for i in range(slots)
    )


def _widened(params: ProtocolParams, width: int) -> ProtocolParams:
    """``params`` with ``width``-long models, one coordinate per assignment."""
    return _quiet_params(params.n, params.t, params.d, width, params.field)


def enumerate_views(instance: TinyInstance, zero_noise: bool = False) -> ViewDistribution:
    """Count the adversary view for every (honest models, all noise) assignment.

    One protocol run covers a chunk of up to ``RUN_COLUMNS // p**(N*T)``
    honest-model assignments: block ``j`` of its columns holds every noise
    assignment of the ``N*T`` slots from ``_enumerated`` with the ``j``-th
    assignment's constant models, so each column is exactly the canonical
    view of a scalar run.  ``zero_noise`` keeps only the all-zero
    assignment; it exists as a negative control and must break privacy for
    any adversary that sees unaggregated material.
    """
    _check_size(instance.enumeration_size)
    params = instance.params
    spec = params.field
    p = spec.p
    honest = instance.honest
    positions = assign_groups(params)
    plan = instance.plan

    columns = _enumerated(spec, instance.noise_symbol_count, zero_noise)
    width = len(columns[0])
    # Slot (uid, j) is entry (uid - 1) * T + j of every noise assignment.
    noise = {uid: columns[(uid - 1) * params.t : uid * params.t] for uid in range(1, params.n + 1)}
    singles = [(v,) for v in range(p)]

    contributing = [uid for uid in honest if uid not in plan.excluded]
    honest_index = {uid: i for i, uid in enumerate(honest)}

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

    dist = ViewDistribution(instance)
    assignments = itertools.product(range(p), repeat=len(honest))
    while chunk := list(itertools.islice(assignments, max(1, RUN_COLUMNS // width))):
        total = len(chunk) * width
        # Block j of the columns is chunk[j]'s run: noise repeats, models are constant.
        wide_noise = {uid: tuple(_join([z], len(chunk)) for z in zs) for uid, zs in noise.items()}
        held = {
            u: (instance.fixed_model_of(u),) * len(chunk) for u in instance.adversary.colluders
        }
        held.update(zip(honest, zip(*chunk)))
        models = [_stretch(spec, held[u], width) for u in sorted(held)]
        run = execute_protocol(_widened(params, total), models, wide_noise, plan, positions)
        view = collect_adversary_view(run.log, instance.adversary, models, wide_noise)
        received = _payload_columns(view.received, total, singles)
        uploads = _payload_columns(view.uploads, total, singles)
        for w in chunk:
            # ``own`` is one block long, so each Counter takes its own columns.
            dist.views[w] = Counter(zip(own, received, uploads))
            dist.aggregate_of[w] = sum(w[honest_index[uid]] for uid in contributing) % p
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


def _first_difference(a: Counter, b: Counter):
    """The first key, in first-seen order, counted differently in ``a`` and ``b``.

    Set order would depend on hashes, and ``hash(None)`` differs between
    processes on Python < 3.12, so a witness would too.
    """
    return next(k for k in itertools.chain(a, b) if a[k] != b[k])


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
            # dict.__eq__ skips Counter's generator walk; neither holds a zero count.
            if dict.__eq__(candidate, reference):
                continue
            view_key = _first_difference(reference, candidate)
            witness = {
                "aggregate": aggregate,
                "assignment_a": list(members[0]),
                "assignment_b": list(w),
                "view": repr(view_key),
                "count_a": reference[view_key],
                "count_b": candidate[view_key],
            }
            return CheckResult("conditional_independence", label, False, witness)
    return CheckResult(
        "conditional_independence",
        label,
        True,
        detail=f"{len(classes)} aggregate classes, {len(dist.views)} assignments",
    )


def check_noise_chain_independence(
    instance: TinyInstance, copy_previous_group_noise: bool = False
) -> CheckResult:
    """Factorization check of consecutive sequence-noise pairs.

    ``ztilde(gamma, t)``, the noise sequence t has accumulated by group
    ``gamma``, is what user ``(gamma, t)`` sends when every model is zero.
    One zero-model run with nobody silent and every noise assignment in its
    coordinates yields all of them; a ``before_sharing`` victim gets zero
    noise, matching the zero shares its groupmates presume.

    For each sequence index t and each group boundary, the joint counts of
    ``(ztilde(gamma, t), ztilde(gamma+1, t))`` over all noise assignments must
    factor exactly into the product of their marginals.  A single-group
    instance passes vacuously.  ``copy_previous_group_noise`` is a negative
    control: it reuses group 1's noise in every later group, which makes the
    chain perfectly dependent and must be witnessed.
    """
    params = instance.params
    spec = params.field
    nu, num_groups = params.group_size, params.num_groups
    label = instance.label or "tiny-instance"
    if num_groups < 2:
        return CheckResult(
            "noise_chain_independence", label, True, detail="single group: vacuous"
        )
    _check_size(spec.p ** instance.noise_symbol_count)

    positions = assign_groups(params)
    by_position = {pos: uid for uid, pos in positions.items()}

    if copy_previous_group_noise:
        free_users = [by_position[GroupPosition(1, t)] for t in range(1, nu + 1)]
    else:
        free_users = list(range(1, params.n + 1))
    columns = _enumerated(spec, len(free_users) * params.t)
    total = len(columns[0])
    noise = {
        uid: columns[i * params.t : (i + 1) * params.t]
        for i, uid in enumerate(free_users)
    }
    if copy_previous_group_noise:
        for uid, pos in positions.items():
            if pos.gamma > 1:
                noise[uid] = noise[by_position[GroupPosition(1, pos.t)]]
    zero = spec.zeros(total)
    for uid in instance.plan.excluded:
        noise[uid] = (zero,) * params.t

    run = execute_protocol(
        _widened(params, total), [zero] * params.n, noise, DropoutPlan.none(), positions
    )
    ztilde = {
        (m.sender.gamma, m.sender.t): m.payload.values
        for m in run.log
        if m.phase != PHASE_INTRA
    }
    joints = {
        (g, t): Counter(zip(ztilde[(g, t)], ztilde[(g + 1, t)]))
        for g in range(1, num_groups)
        for t in range(1, nu + 1)
    }

    for (g, t), joint in sorted(joints.items()):
        rows = Counter(ztilde[(g, t)])
        cols = Counter(ztilde[(g + 1, t)])
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


def check_share_hiding(spec: FieldSpec, degree: int) -> CheckResult:
    """Any <=``degree`` shares of one scalar secret are distribution-identical.

    For each secret, one masking polynomial from ``build_polynomial`` carries
    every assignment of its ``degree`` noise coefficients in its coordinates,
    and ``share_for`` evaluates it at every nonzero point.  For every subset
    of up to ``degree`` distinct nonzero points, the exact joint share
    distribution must be the same for every secret value as for secret 0.
    """
    if degree < 0:
        raise ValueError(f"degree: must be >= 0, got {degree}")
    p = spec.p
    label = f"p{p}_degree{degree}"
    width = p**degree
    _check_size(p * width * sum(comb(p - 1, s) for s in range(1, degree + 1)))
    noise = _enumerated(spec, degree)
    shares = [
        {beta: share_for(poly, beta).values for beta in range(1, p)}
        for poly in (
            build_polynomial(_stretch(spec, [secret], width), noise, degree)
            for secret in range(p)
        )
    ]
    for size in range(1, degree + 1):
        for combo in itertools.combinations(range(1, p), size):
            reference = Counter(zip(*(shares[0][beta] for beta in combo)))
            for secret in range(1, p):
                counter = Counter(zip(*(shares[secret][beta] for beta in combo)))
                if not dict.__eq__(counter, reference):
                    diff = _first_difference(reference, counter)
                    return CheckResult(
                        "share_hiding",
                        label,
                        False,
                        witness={
                            "points": list(combo),
                            "secret_a": 0,
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
    return [
        TinyInstance(
            _quiet_params(2, 1, 0, 1, f5),
            DropoutPlan.none(),
            AdversaryConfig.server_only(),
            label="n2_t1_d0_p5_server_only",
        ),
        TinyInstance(
            _quiet_params(4, 1, 0, 1, f3),
            DropoutPlan.none(),
            AdversaryConfig.of([3], server_curious=True),
            label="n4_t1_d0_p3_server_plus_colluder",
        ),
        TinyInstance(
            _quiet_params(4, 1, 2, 1, f5),
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
