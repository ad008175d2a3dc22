"""The SwiftAgg protocol: grouping, share exchange, sequence sums, recovery.

Users are partitioned into groups of size ``t + d + 1`` and the protocol runs
in three message phases over that layout:

1. ``intra``:    every user evaluates its masking polynomial at the group's
                 points and sends one share to each groupmate (the share for
                 its own point stays local and is not a message).
2. ``sequence``: each user adds its in-group share sum to the running partial
                 it received from the previous group and forwards the result
                 to the same sequence index in the next group.
3. ``upload``:   the last group sends the surviving sequence sums to the
                 server, which interpolates the aggregate at x = 0.

Dropouts are injected by timing label.  ``before_sharing`` victims never send
anything; groupmates presume their shares are zero and their models are
excluded from the recovered sum.  ``after_sharing`` and ``mid_sequence``
victims distribute shares first and go silent before forwarding, so their
models still reach the server through the shares their group already holds.
A user that receives the null symbol instead of a sequence partial sends
the null symbol on, so a victim silences the rest of its own sequence and
nothing else.  ``execute_protocol`` runs the phases itself, over a list of
received shares per user and one running partial per sequence index.

A transcript is a ``MessageLog``: a list of ``Message`` slots, each a phase,
sender, recipient (None for the server), sequence index ``t`` and payload,
where ``payload=None`` is the null symbol (written ⊥ in the paper).

Message delivery is phase-major with a fixed sender order inside each phase
(ascending user id; the sequence phase advances one group hop at a time), so
identical inputs always produce bit-identical transcripts.
"""

from __future__ import annotations

import hashlib
import random
import warnings
from dataclasses import dataclass
from types import MappingProxyType
from typing import Mapping, NamedTuple, Optional, Sequence

from .errors import IndivisibleNError, TooManyDropoutsError
from .field import (
    FieldSpec,
    ModelVector,
    _join,
    is_integer,
    lagrange_interpolate_at_zero,
    sample_noise,
    vec_add,
    vec_sum,
)
from .sharing import build_polynomial, derive_subseed, share_for, user_rng

PHASE_INTRA = "intra"
PHASE_SEQUENCE = "sequence"
PHASE_UPLOAD = "upload"

BEFORE_SHARING = "before_sharing"
AFTER_SHARING = "after_sharing"
MID_SEQUENCE = "mid_sequence"
DROPOUT_TIMINGS = (BEFORE_SHARING, AFTER_SHARING, MID_SEQUENCE)


class CollusionBoundWarning(UserWarning):
    """Warned by every ``ProtocolParams`` with t = 1, outside the range 2 <= t < n - d.

    Python's default filter shows it once per call site.
    """


class GroupPosition(NamedTuple):
    """Coordinates (gamma, t): group index and within-group sequence index.

    A plain tuple underneath, so hashing and equality (every transcript,
    load and view lookup by position) run in C.
    """

    gamma: int
    t: int

    def __str__(self):
        return f"({self.gamma},{self.t})"


@dataclass(frozen=True)
class ProtocolParams:
    """Validated run parameters; group size and count are derived."""

    n: int
    t: int
    d: int
    model_len: int
    field: FieldSpec

    def __post_init__(self):
        for name in ("n", "t", "d", "model_len"):
            if not is_integer(value := getattr(self, name)):
                raise ValueError(f"{name}: must be an integer, got {value!r}")
        if self.t < 1:
            raise ValueError(f"t: must be >= 1, got {self.t}")
        if self.d < 0:
            raise ValueError(f"d: must be >= 0, got {self.d}")
        if self.t + self.d >= self.n:
            raise ValueError(
                f"n: must exceed t + d, got n={self.n} t={self.t} d={self.d}"
            )
        if self.model_len < 1:
            raise ValueError(f"model_len: must be >= 1, got {self.model_len}")
        nu = self.t + self.d + 1
        if self.n % nu != 0:
            raise IndivisibleNError(
                f"n: {self.n} is not a multiple of the group size t+d+1={nu}"
            )
        if self.field.p <= nu:
            raise ValueError(
                f"field: modulus {self.field.p} must exceed the group size {nu} "
                "to provide distinct nonzero evaluation points"
            )
        if self.t == 1 and not _quiet:
            warnings.warn(
                "t=1 is below the protocol's stated collusion range 2 <= t < n - d; "
                "execution is still exact",
                CollusionBoundWarning,
                stacklevel=3,
            )

    @property
    def group_size(self) -> int:
        return self.t + self.d + 1

    @property
    def num_groups(self) -> int:
        return self.n // self.group_size


# Set while ``_quiet_params`` builds: leaving ``warnings.catch_warnings()``
# would clear every module's warning registry, so shown warnings would repeat.
_quiet = False


def _quiet_params(n, t, d, model_len, field) -> ProtocolParams:
    """``ProtocolParams`` for the package's own t = 1 instances, without the warning."""
    global _quiet
    _quiet = True
    try:
        return ProtocolParams(n, t, d, model_len, field)
    finally:
        _quiet = False


def assign_groups(params: ProtocolParams, shuffle_seed: Optional[int] = None):
    """Map user ids to positions; contiguous by default, seeded shuffle on request."""
    order = list(range(1, params.n + 1))
    if shuffle_seed is not None:
        random.Random(shuffle_seed).shuffle(order)
    nu = params.group_size
    return {
        user: GroupPosition(i // nu + 1, i % nu + 1) for i, user in enumerate(order)
    }


def _distinct_ids(ids) -> list:
    ids = list(ids)
    if len(set(ids)) != len(ids):  # a dict or set would keep one copy silently
        raise ValueError("duplicate user ids")
    return ids


def _check_ids(ids, n: int, role: str, bound: str, cap: int) -> None:
    """Every id an integer (``is_integer``) in ``[1, n]``, and at most ``cap``."""
    for uid in ids:
        if not (is_integer(uid) and 1 <= uid <= n):
            raise ValueError(f"{role} {uid!r} is not a user id in [1, {n}]")
    if len(ids) > cap:
        raise ValueError(f"{len(ids)} {role}s exceed the {bound}={cap}")


@dataclass(frozen=True)
class DropoutPlan:
    """Which users go silent and when; at most ``d`` victims per run.

    ``timings`` is a read-only copy of the mapping given, so a plan is a
    value: later changes to the caller's dict leave it as it is.
    """

    timings: Mapping[int, str]

    def __post_init__(self):
        object.__setattr__(self, "timings", MappingProxyType(dict(self.timings)))

    def __hash__(self):
        return hash(frozenset(self.timings.items()))

    def __reduce__(self):  # a mappingproxy does not pickle; its copy does
        return (DropoutPlan, (dict(self.timings),))

    @classmethod
    def none(cls) -> "DropoutPlan":
        return cls({})

    @classmethod
    def uniform(cls, victims) -> "DropoutPlan":
        return cls(dict.fromkeys(_distinct_ids(victims), BEFORE_SHARING))

    @property
    def excluded(self) -> frozenset:
        """The users the aggregate leaves out: the victims silent before sharing."""
        return frozenset(uid for uid, when in self.timings.items() if when == BEFORE_SHARING)

    def validate_for(self, params: ProtocolParams) -> None:
        _check_ids(self.timings, params.n, "victim", "dropout bound d", params.d)
        for timing in self.timings.values():
            if timing not in DROPOUT_TIMINGS:
                raise ValueError(f"unknown dropout timing {timing!r}")


@dataclass(frozen=True)
class AdversaryConfig:
    """The colluding set (size <= t) plus whether the server is curious."""

    colluders: frozenset
    server_curious: bool

    @classmethod
    def none(cls) -> "AdversaryConfig":
        return cls(frozenset(), False)

    @classmethod
    def server_only(cls) -> "AdversaryConfig":
        return cls(frozenset(), True)

    @classmethod
    def of(cls, colluders, server_curious: bool = True) -> "AdversaryConfig":
        return cls(frozenset(_distinct_ids(colluders)), server_curious)

    def validate_for(self, params: ProtocolParams) -> None:
        _check_ids(self.colluders, params.n, "colluder", "collusion bound t", params.t)


# ---------------------------------------------------------------------------
# Messages
# ---------------------------------------------------------------------------


class Message(NamedTuple):
    """One transcript slot; ``payload=None`` is the null symbol (nothing sent).

    ``recipient`` is None for server uploads.  ``t`` is the sequence index the
    slot belongs to: the recipient's for intra shares, the sender's otherwise.
    """

    phase: str
    sender: GroupPosition
    recipient: Optional[GroupPosition]
    t: int
    payload: Optional[ModelVector]


# Entries per step of ``payload_digests``.  One fixed width keeps the field
# engine's per-length caches at one entry per field however many payloads a
# log holds; a longer payload is a step of its own, at its own length.
_DIGEST_STEP = 4096


def payload_digests(payloads: Sequence[Optional[ModelVector]]) -> list[str]:
    """Short stable digest per transcript payload; '-' for the null symbol.

    A digest is the first 16 hex digits of the SHA-256 of ``"p:v0,v1,..."``
    over the canonical entries.  Payloads of one field and length are
    handled in bulk, one step of ``_DIGEST_STEP`` entries at a time: they
    are joined into one vector whose canonical entries are read once.
    """
    digests = ["-"] * len(payloads)
    groups: dict = {}
    for i, payload in enumerate(payloads):
        if payload is not None:
            groups.setdefault((payload.field.p, payload.length), []).append(i)
    sha256 = hashlib.sha256
    for (p, length), indices in groups.items():
        # ``%d`` of a nonnegative int is its ``str``, at about half the cost
        # of joining ``map(str, ...)``.
        fmt = f"{p}:" + ",".join(["%d"] * length)
        width = max(_DIGEST_STEP, length)
        per_step = width // length
        for start in range(0, len(indices), per_step):
            chunk = indices[start : start + per_step]
            step = [payloads[i] for i in chunk]
            # Zeros pad the step to its full width.
            pad = width - len(chunk) * length
            values = _join(step + [step[0].field.zeros(pad)] if pad else step).values
            for k, i in enumerate(chunk):
                text = fmt % values[k * length : (k + 1) * length]
                digests[i] = sha256(text.encode()).hexdigest()[:16]
    return digests


class MessageLog(list):
    """Ordered transcript of every message slot, null symbols included.

    ``user_of`` maps each group position to the user id that holds it.
    """

    __slots__ = ("user_of",)

    def __init__(self, user_of: Mapping[GroupPosition, int]):
        super().__init__()
        self.user_of = user_of

    def to_lines(self) -> list[str]:
        # Each position's printed name is resolved once per call.
        names = {pos: f"u{uid}{pos}" for pos, uid in self.user_of.items()}
        names[None] = "server"
        name = names.__getitem__
        digests = payload_digests([m.payload for m in self])
        return [
            f"{m.phase} from={name(m.sender)} to={name(m.recipient)} "
            f"t={m.t} payload={digest}"
            for m, digest in zip(self, digests)
        ]

    def serialize(self) -> str:
        return "\n".join(self.to_lines()) + "\n"


class ServerState:
    """Collects uploads by sequence index and interpolates the aggregate."""

    __slots__ = ("uploads",)

    def __init__(self):
        self.uploads: dict[int, ModelVector] = {}

    def recover(self, params: ProtocolParams) -> ModelVector:
        if len(self.uploads) < params.t + 1:
            raise TooManyDropoutsError(
                f"only {len(self.uploads)} uploads arrived; "
                f"recovery needs at least {params.t + 1}"
            )
        return lagrange_interpolate_at_zero(sorted(self.uploads.items()), params.t)


# ---------------------------------------------------------------------------
# Orchestration
# ---------------------------------------------------------------------------


class ProtocolRun(NamedTuple):
    recovered: ModelVector
    log: MessageLog


def _validate_run_inputs(params, models, noise, plan):
    if len(models) != params.n:
        raise ValueError(f"expected {params.n} models, got {len(models)}")
    for m in models:
        if m.field.p != params.field.p:
            raise ValueError("model vector lies in the wrong field")
        if len(m) != params.model_len:
            raise ValueError("model vector has the wrong length")
    plan.validate_for(params)
    for uid in range(1, params.n + 1):
        if uid not in noise:
            raise ValueError(f"no noise vectors supplied for user {uid}")


def execute_protocol(
    params: ProtocolParams,
    models: Sequence[ModelVector],
    noise: Mapping[int, tuple],
    plan: DropoutPlan,
    positions: Optional[Mapping[int, GroupPosition]] = None,
) -> ProtocolRun:
    """Drive every phase over prebuilt inputs and return the full transcript.

    ``models`` holds one vector per user (index ``uid - 1``); ``noise`` maps a
    user id to its ``t`` masking vectors; ``plan`` says which users go silent
    and when.  Randomness comes in explicitly so callers can either sample it
    (simulation harness) or enumerate it exhaustively (privacy oracle).  The
    recovered sum covers exactly the users whose shares were distributed,
    i.e. everyone but ``plan.excluded``.
    """
    _validate_run_inputs(params, models, noise, plan)
    if positions is None:
        positions = assign_groups(params)
    num_groups = params.num_groups
    log = MessageLog({pos: uid for uid, pos in positions.items()})

    # Group membership, ordered by sequence index, precomputed once: the
    # phase loops below visit every transcript slot, which dominates runs
    # with many users and short models.
    members: dict[int, list] = {g: [] for g in range(1, num_groups + 1)}
    for uid in range(1, params.n + 1):
        pos = positions[uid]
        members[pos.gamma].append((pos.t, uid, pos))
    for group in members.values():
        group.sort()

    # Phase 1: every sharing user sends one share per groupmate; its own
    # point is evaluated locally.  A ``before_sharing`` victim leaves null
    # slots and adds nothing to its groupmates' lists: the share they presume
    # for it is zero, which changes no entry and no lane bound of their sums,
    # so leaving it out is exact.
    excluded = plan.excluded
    shares: dict[int, list] = {uid: [] for uid in range(1, params.n + 1)}
    for uid in range(1, params.n + 1):
        pos = positions[uid]
        poly = None
        if uid not in excluded:
            poly = build_polynomial(models[uid - 1], noise[uid], params.t)
        for t2, peer_uid, peer_pos in members[pos.gamma]:
            payload = None
            if poly is not None:
                payload = share_for(poly, t2)
                shares[peer_uid].append(payload)
            if t2 != pos.t:
                log.append(Message(PHASE_INTRA, pos, peer_pos, t2, payload))

    # Phases 2 and 3: partial sums advance one group hop at a time, senders
    # in id order; the last group uploads to the server.  ``partial[t]`` is
    # sequence t's running sum, or None once a victim (every timing goes
    # silent before forwarding) or a null upstream slot has silenced it.
    server = ServerState()
    partial: dict[int, Optional[ModelVector]] = {}
    for gamma in range(1, num_groups + 1):
        last = gamma == num_groups
        phase = PHASE_UPLOAD if last else PHASE_SEQUENCE
        for uid in sorted(uid for _, uid, _ in members[gamma]):
            pos = positions[uid]
            t = pos.t
            next_pos = None if last else GroupPosition(gamma + 1, t)
            if uid in plan.timings or (gamma > 1 and partial[t] is None):
                partial[t] = None
            else:
                q = vec_sum(shares[uid])
                partial[t] = q if gamma == 1 else vec_add(partial[t], q)
            log.append(Message(phase, pos, next_pos, t, partial[t]))
            if last and partial[t] is not None:
                server.uploads[t] = partial[t]

    return ProtocolRun(server.recover(params), log)


def execute_seeded(
    params: ProtocolParams,
    models: Sequence[ModelVector],
    plan: DropoutPlan,
    seed: int,
    group_shuffle: bool = False,
) -> tuple:
    """Derive the group layout and every user's noise from ``seed``, then run.

    Returns ``(run, noise)``; the noise is what the adversary view of a
    colluder's own inputs is built from.
    """
    shuffle_seed = derive_subseed(seed, "groups") if group_shuffle else None
    positions = assign_groups(params, shuffle_seed=shuffle_seed)
    noise = {
        uid: sample_noise(params.field, params.t, params.model_len, user_rng(seed, uid))
        for uid in range(1, params.n + 1)
    }
    return execute_protocol(params, models, noise, plan, positions), noise


def run_protocol(params: ProtocolParams, models: Sequence[ModelVector], dropouts, seed: int):
    """Sample noise from ``seed`` and run; dropouts stay silent from the start.

    Returns the ``ProtocolRun``, which unpacks as ``(recovered, log)``; the
    recovered vector equals the exact field sum of the non-dropped users' models.
    """
    return execute_seeded(params, models, DropoutPlan.uniform(dropouts), seed)[0]
