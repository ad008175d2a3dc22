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

Negative controls: ``zero_noise`` of ``enumerate_views`` (behind ``swiftagg
privacy --no-noise``) must break privacy.  The chain and hiding controls are
patches in the tests: they replace ``_enumerated`` or ``build_polynomial``
here, so the real checks must witness the dependence they plant.
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass, field as dc_field
from math import comb
from operator import index
from typing import Mapping, Optional

from .errors import TooLargeError
from .field import FieldSpec, _column_entries, _columns, _join, _stretch
from .protocol import (
    PHASE_INTRA,
    AdversaryConfig,
    DropoutPlan,
    ProtocolParams,
    _quiet_params,
    assign_groups,
    execute_protocol,
)
from .sharing import build_polynomial, share_for
from .simnet import collect_adversary_view

# tracemalloc reads at most 210 bytes per assignment at a view enumeration's
# peak on the canned instances, so the guard keeps one under 2 GiB.
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
        return index(self.colluder_models.get(uid, 0)) % self.params.field.p


@dataclass
class ViewDistribution:
    """Exact view counts per honest-model assignment, keyed for conditioning.

    ``views[w]`` counts views over all noise assignments for the
    honest-model assignment ``w`` (a tuple aligned with ``instance.honest``);
    ``aggregate_of[w]`` is the sum of the honest users whose shares entered
    the run, i.e. the quantity the privacy statement conditions on.

    Each view is counted by one int key from ``field._columns``: the
    colluders' noise (ascending id), then the non-null received payloads and
    uploads.  The colluders' models and the null slots (``received_nulls``,
    ``upload_nulls``) are fixed by the instance and its plan, so
    ``canonical(key)`` decodes a key to ``AdversaryView.canonical()`` form.
    """

    instance: TinyInstance
    views: dict = dc_field(default_factory=dict)
    aggregate_of: dict = dc_field(default_factory=dict)
    received_nulls: tuple = ()
    upload_nulls: tuple = ()

    def canonical(self, key: int) -> tuple:
        """The ``AdversaryView.canonical()`` tuple of the view counted as ``key``."""
        instance = self.instance
        t = instance.params.t
        colluders = sorted(instance.adversary.colluders)
        slots = len(colluders) * t + (self.received_nulls + self.upload_nulls).count(False)
        symbols = iter(_column_entries(key, instance.params.field.p, slots))
        own = tuple(
            (uid, (instance.fixed_model_of(uid),), tuple((next(symbols),) for _ in range(t)))
            for uid in colluders
        )
        got = tuple(None if null else (next(symbols),) for null in self.received_nulls)
        ups = tuple(None if null else (next(symbols),) for null in self.upload_nulls)
        return (own, got, ups)


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


def _user_noise(params: ProtocolParams, zero_noise: bool = False) -> dict:
    """Every user's ``t`` vectors from ``_enumerated``, one noise assignment per column.

    Slot ``(uid, j)`` is entry ``(uid - 1) * t + j`` of every assignment.
    """
    t = params.t
    columns = _enumerated(params.field, params.n * t, zero_noise)
    return {uid: columns[(uid - 1) * t : uid * t] for uid in range(1, params.n + 1)}


def _batched_run(params: ProtocolParams, models, noise, plan: DropoutPlan):
    """One protocol run on ``params``' layout whose coordinates are the columns."""
    wide = _quiet_params(params.n, params.t, params.d, len(models[0]), params.field)
    return execute_protocol(wide, models, noise, plan, assign_groups(params))


def enumerate_views(instance: TinyInstance, zero_noise: bool = False) -> ViewDistribution:
    """Count the adversary view for every (honest models, all noise) assignment.

    One protocol run covers a chunk of up to ``RUN_COLUMNS // p**(N*T)``
    honest-model assignments: block ``j`` of its columns holds every noise
    assignment of the ``N*T`` slots from ``_enumerated`` with the ``j``-th
    assignment's constant models, so each column is exactly the view of a
    scalar run, counted by its key (see ``ViewDistribution``).
    ``zero_noise`` keeps only the all-zero assignment; it exists as a
    negative control and must break privacy for any adversary that sees
    unaggregated material.
    """
    _check_size(instance.enumeration_size)
    params = instance.params
    spec = params.field
    p = spec.p
    honest = instance.honest
    plan = instance.plan

    noise = _user_noise(params, zero_noise)
    width = len(noise[1][0])
    contributing = [uid for uid in honest if uid not in plan.excluded]
    honest_index = {uid: i for i, uid in enumerate(honest)}

    dist = ViewDistribution(instance)
    assignments = itertools.product(range(p), repeat=len(honest))
    while chunk := list(itertools.islice(assignments, max(1, RUN_COLUMNS // width))):
        # Block j of the columns is chunk[j]'s run: noise repeats, models are constant.
        wide_noise = {uid: tuple(_join([z], len(chunk)) for z in zs) for uid, zs in noise.items()}
        held = {
            u: (instance.fixed_model_of(u),) * len(chunk) for u in instance.adversary.colluders
        }
        held.update(zip(honest, zip(*chunk)))
        models = [_stretch(spec, held[u], width) for u in sorted(held)]
        run = _batched_run(params, models, wide_noise, plan)
        view = collect_adversary_view(run.log, instance.adversary, models, wide_noise)
        # Colluder models and null slots are fixed, so a key packs only what varies.
        dist.received_nulls = tuple(m.payload is None for m in view.received)
        dist.upload_nulls = tuple(m.payload is None for m in view.uploads)
        slots = [z for _, _, zs in view.colluder_inputs for z in zs]
        slots += [m.payload for m in view.received + view.uploads if m.payload is not None]
        keys = _columns(spec, slots, len(chunk) * width)
        for j, w in enumerate(chunk):
            dist.views[w] = Counter(keys[j * width : (j + 1) * width])
            dist.aggregate_of[w] = sum(w[honest_index[uid]] for uid in contributing) % p
    return dist


def _first_difference(a: Counter, b: Counter):
    """The first key, in first-seen order, counted differently in ``a`` and ``b``.

    Set order would follow the keys' hashes rather than the columns, and the
    CLI goldens pin the witness this order gives.
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
                "view": repr(dist.canonical(view_key)),
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


def check_noise_chain_independence(instance: TinyInstance) -> CheckResult:
    """Factorization check of consecutive sequence-noise pairs.

    ``ztilde(gamma, t)``, the noise sequence t has accumulated by group
    ``gamma``, is what user ``(gamma, t)`` sends when every model is zero.
    One zero-model run with nobody silent and every noise assignment in its
    coordinates yields all of them; a ``before_sharing`` victim gets zero
    noise, matching the zero shares its groupmates presume.

    For each sequence index t and each group boundary, the joint counts of
    ``(ztilde(gamma, t), ztilde(gamma+1, t))`` over all noise assignments must
    factor exactly into the product of their marginals.  A single-group
    instance passes vacuously.
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

    noise = _user_noise(params)
    total = len(noise[1][0])
    zero = spec.zeros(total)
    for uid in instance.plan.excluded:
        noise[uid] = (zero,) * params.t

    run = _batched_run(params, [zero] * params.n, noise, DropoutPlan.none())
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
