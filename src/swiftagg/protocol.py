"""The SwiftAgg state machines: grouping, share exchange, sequence sums, recovery.

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
A user that receives the null symbol instead of a sequence partial stays
silent for the rest of the run, which is what caps the damage at one
sequence index per victim.

Message delivery is phase-major with a fixed sender order inside each phase
(ascending user id; the sequence phase advances one group hop at a time), so
identical inputs always produce bit-identical transcripts.
"""

from __future__ import annotations

import hashlib
import random
import warnings
from dataclasses import dataclass
from typing import ClassVar, Mapping, NamedTuple, Optional, Sequence

from .errors import (
    IndivisibleNError,
    PhaseViolationError,
    TooManyDropoutsError,
    WrongSequenceError,
)
from .field import (
    FieldSpec,
    ModelVector,
    lagrange_interpolate_at_zero,
    vec_add,
    vec_sum,
)
from .sharing import (
    SharePolynomial,
    build_polynomial,
    derive_subseed,
    sample_noise,
    share_for,
    user_rng,
)

PHASE_INTRA = "intra"
PHASE_SEQUENCE = "sequence"
PHASE_UPLOAD = "upload"

BEFORE_SHARING = "before_sharing"
AFTER_SHARING = "after_sharing"
MID_SEQUENCE = "mid_sequence"
DROPOUT_TIMINGS = (BEFORE_SHARING, AFTER_SHARING, MID_SEQUENCE)


class CollusionBoundWarning(UserWarning):
    """Raised once for t = 1 runs, which sit outside the stated range 2 <= t < n - d."""


@dataclass(frozen=True, slots=True)
class GroupPosition:
    """Coordinates (gamma, t): group index and within-group sequence index."""

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
        if self.t == 1:
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


def assign_groups(params: ProtocolParams, shuffle_seed: Optional[int] = None):
    """Map user ids to positions; contiguous by default, seeded shuffle on request."""
    order = list(range(1, params.n + 1))
    if shuffle_seed is not None:
        random.Random(shuffle_seed).shuffle(order)
    nu = params.group_size
    return {
        user: GroupPosition(i // nu + 1, i % nu + 1) for i, user in enumerate(order)
    }


@dataclass(frozen=True)
class DropoutPlan:
    """Which users go silent and when; at most ``d`` victims per run."""

    timings: Mapping[int, str]

    @classmethod
    def none(cls) -> "DropoutPlan":
        return cls({})

    @classmethod
    def uniform(cls, victims, timing: str = BEFORE_SHARING) -> "DropoutPlan":
        return cls({int(v): timing for v in victims})

    @property
    def victims(self) -> frozenset:
        return frozenset(self.timings)

    def validate_for(self, params: ProtocolParams) -> None:
        for uid, timing in self.timings.items():
            if not 1 <= uid <= params.n:
                raise ValueError(f"victim {uid} is not a user id in [1, {params.n}]")
            if timing not in DROPOUT_TIMINGS:
                raise ValueError(f"unknown dropout timing {timing!r}")
        if len(self.timings) > params.d:
            raise ValueError(
                f"{len(self.timings)} victims exceed the dropout bound d={params.d}"
            )


# ---------------------------------------------------------------------------
# Messages
# ---------------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class IntraShare:
    """A polynomial evaluation sent between two members of one group."""

    sender: GroupPosition
    recipient: GroupPosition
    payload: ModelVector

    phase: ClassVar[str] = PHASE_INTRA

    def __post_init__(self):
        if self.sender.gamma != self.recipient.gamma:
            raise ValueError("intra-group share must stay within one group")
        if self.sender.t == self.recipient.t:
            raise ValueError("a user's own share is local, not a message")

    @property
    def t(self) -> int:
        return self.recipient.t


@dataclass(frozen=True, slots=True)
class SequencePartial:
    """Running sequence sum forwarded to the same index in the next group."""

    sender: GroupPosition
    recipient: GroupPosition
    payload: ModelVector

    phase: ClassVar[str] = PHASE_SEQUENCE

    def __post_init__(self):
        if self.recipient.gamma != self.sender.gamma + 1:
            raise ValueError("sequence partial must go to the next group")
        if self.recipient.t != self.sender.t:
            raise ValueError("sequence partial must keep its sequence index")

    @property
    def t(self) -> int:
        return self.sender.t


@dataclass(frozen=True, slots=True)
class ServerUpload:
    """Final sequence sum sent from the last group to the server."""

    sender: GroupPosition
    payload: ModelVector

    phase: ClassVar[str] = PHASE_UPLOAD
    recipient: ClassVar[None] = None

    @property
    def t(self) -> int:
        return self.sender.t


@dataclass(frozen=True, slots=True)
class Null:
    """The null symbol: a message slot where nothing was sent."""

    phase: str
    sender: GroupPosition
    recipient: Optional[GroupPosition]
    t: int

    payload: ClassVar[None] = None


# Tagged union of everything a transcript can contain.
ProtocolMessage = IntraShare | SequencePartial | ServerUpload | Null


def payload_digest(payload: Optional[ModelVector]) -> str:
    """Short stable digest for transcript lines; '-' for the null symbol."""
    if payload is None:
        return "-"
    data = f"{payload.field.p}:{','.join(map(str, payload.values))}"
    return hashlib.sha256(data.encode()).hexdigest()[:16]


class MessageLog:
    """Ordered transcript of every message slot, null symbols included."""

    __slots__ = ("messages", "user_of")

    def __init__(self, user_of: Mapping[GroupPosition, int]):
        self.messages: list[ProtocolMessage] = []
        self.user_of = dict(user_of)

    def append(self, msg: ProtocolMessage) -> None:
        self.messages.append(msg)

    def __iter__(self):
        return iter(self.messages)

    def __len__(self):
        return len(self.messages)

    def __getitem__(self, i):
        return self.messages[i]

    def to_lines(self) -> list[str]:
        # Each position's printed name is resolved once per call.
        names = {pos: f"u{uid}{pos}" for pos, uid in self.user_of.items()}
        names[None] = "server"
        name = names.__getitem__
        return [
            f"{m.phase} from={name(m.sender)} to={name(m.recipient)} "
            f"t={m.t} payload={payload_digest(m.payload)}"
            for m in self.messages
        ]

    def serialize(self) -> str:
        return "\n".join(self.to_lines()) + "\n"


# ---------------------------------------------------------------------------
# Per-actor state
# ---------------------------------------------------------------------------


class UserState:
    """One user's mutable record, driven through the phases by the harness.

    ``received_shares`` maps a sender's sequence index to the share received
    from it (a presumed-zero entry is stored for silent senders), ``q`` is the
    in-group share sum, and ``upstream`` the partial received from the
    previous group.  ``alive`` drops when the dropout plan says so; ``silenced``
    latches once a null symbol arrives from upstream, and a silenced user
    emits only null symbols afterwards.
    """

    __slots__ = (
        "position",
        "poly",
        "received_shares",
        "q",
        "upstream",
        "alive",
        "silenced",
    )

    def __init__(self, position: GroupPosition, poly: Optional[SharePolynomial]):
        self.position = position
        self.poly = poly
        self.received_shares: dict[int, ModelVector] = {}
        self.q: Optional[ModelVector] = None
        self.upstream: Optional[ModelVector] = None
        self.alive = True
        self.silenced = False

    def receive_share(self, sender_t: int, payload: ModelVector) -> None:
        self.received_shares[sender_t] = payload

    def mark_missing(self, sender_t: int, zero: ModelVector) -> None:
        """Presume a silent groupmate's share to be the zero vector."""
        self.received_shares[sender_t] = zero

    def compute_q(self, group_size: int) -> ModelVector:
        """Sum the in-group shares once every sender slot is resolved."""
        missing = [t2 for t2 in range(1, group_size + 1) if t2 not in self.received_shares]
        if missing:
            raise PhaseViolationError(
                f"user {self.position} still waits on shares from t'={missing}"
            )
        self.q = vec_sum([self.received_shares[t2] for t2 in range(1, group_size + 1)])
        return self.q

    def step_sequence(self, incoming, num_groups: int) -> ProtocolMessage:
        """Consume the upstream message (if any) and emit this user's output.

        Group-1 users take no incoming message.  The output goes to the next
        group, or to the server when this user sits in the last group; a
        dropped or silenced user emits the null symbol instead.
        """
        pos = self.position
        last = pos.gamma == num_groups
        if pos.gamma == 1:
            if incoming is not None:
                raise WrongSequenceError("group-1 users take no upstream message")
        else:
            if incoming is None:
                raise PhaseViolationError(f"user {pos} has no upstream message yet")
            if incoming.t != pos.t:
                raise WrongSequenceError(
                    f"message for sequence {incoming.t} delivered to sequence {pos.t}"
                )
            if isinstance(incoming, Null):
                self.silenced = True
            else:
                self.upstream = incoming.payload

        next_pos = None if last else GroupPosition(pos.gamma + 1, pos.t)
        if not self.alive or self.silenced:
            self.silenced = True
            phase = PHASE_UPLOAD if last else PHASE_SEQUENCE
            return Null(phase, pos, next_pos, pos.t)

        if self.q is None:
            raise PhaseViolationError(f"user {pos} must compute its share sum first")
        total = self.q if self.upstream is None else vec_add(self.upstream, self.q)
        if last:
            return ServerUpload(pos, total)
        return SequencePartial(pos, next_pos, total)


class ServerState:
    """Collects uploads by sequence index and interpolates the aggregate."""

    __slots__ = ("uploads", "recovered")

    def __init__(self):
        self.uploads: dict[int, ModelVector] = {}
        self.recovered: Optional[ModelVector] = None

    def receive(self, msg: ProtocolMessage) -> None:
        if isinstance(msg, ServerUpload):
            self.uploads[msg.t] = msg.payload

    def recover(self, params: ProtocolParams) -> ModelVector:
        if len(self.uploads) < params.t + 1:
            raise TooManyDropoutsError(
                f"only {len(self.uploads)} uploads arrived; "
                f"recovery needs at least {params.t + 1}"
            )
        self.recovered = lagrange_interpolate_at_zero(sorted(self.uploads.items()), params.t)
        return self.recovered


# ---------------------------------------------------------------------------
# Orchestration
# ---------------------------------------------------------------------------


class ProtocolRun(NamedTuple):
    recovered: ModelVector
    log: MessageLog
    contributors: frozenset
    positions: dict


def _validate_run_inputs(params, models, noise, timings):
    if len(models) != params.n:
        raise ValueError(f"expected {params.n} models, got {len(models)}")
    for m in models:
        if m.field.p != params.field.p:
            raise ValueError("model vector lies in the wrong field")
        if len(m) != params.model_len:
            raise ValueError("model vector has the wrong length")
    DropoutPlan(timings).validate_for(params)
    for uid in range(1, params.n + 1):
        if uid not in noise:
            raise ValueError(f"no noise vectors supplied for user {uid}")


def execute_protocol(
    params: ProtocolParams,
    models: Sequence[ModelVector],
    noise: Mapping[int, tuple],
    timings: Mapping[int, str],
    positions: Optional[Mapping[int, GroupPosition]] = None,
) -> ProtocolRun:
    """Drive every phase over prebuilt inputs and return the full transcript.

    ``models`` holds one vector per user (index ``uid - 1``); ``noise`` maps a
    user id to its ``t`` masking vectors; ``timings`` maps victim ids to a
    dropout timing.  Randomness comes in explicitly so callers can either
    sample it (simulation harness) or enumerate it exhaustively (privacy
    oracle).  The recovered sum covers exactly the users whose shares were
    distributed, i.e. everyone except ``before_sharing`` victims.
    """
    _validate_run_inputs(params, models, noise, timings)
    if positions is None:
        positions = assign_groups(params)
    user_of = {pos: uid for uid, pos in positions.items()}
    nu, num_groups = params.group_size, params.num_groups
    zero = params.field.zeros(params.model_len)
    log = MessageLog(user_of)

    users: dict[int, UserState] = {}
    for uid in range(1, params.n + 1):
        if timings.get(uid) == BEFORE_SHARING:
            poly = None
        else:
            poly = build_polynomial(models[uid - 1], noise[uid], params.t)
        users[uid] = UserState(positions[uid], poly)

    # Group membership, ordered by sequence index, precomputed once: the
    # phase loops below are the hot path of the exhaustive privacy oracle.
    members: dict[int, list] = {g: [] for g in range(1, num_groups + 1)}
    for uid in range(1, params.n + 1):
        pos = positions[uid]
        members[pos.gamma].append((pos.t, uid, pos))
    for group in members.values():
        group.sort()

    # Phase 1: every sharing user sends one share per groupmate; its own
    # point is evaluated locally.  Silent victims leave null slots, and each
    # groupmate presumes the missing share to be zero.
    for uid in range(1, params.n + 1):
        sender = users[uid]
        pos = sender.position
        poly = sender.poly
        for t2, peer_uid, peer_pos in members[pos.gamma]:
            if t2 == pos.t:
                if poly is not None:
                    sender.receive_share(pos.t, share_for(poly, t2))
                continue
            if poly is None:
                log.append(Null(PHASE_INTRA, pos, peer_pos, t2))
                users[peer_uid].mark_missing(pos.t, zero)
            else:
                payload = share_for(poly, t2)
                log.append(IntraShare(pos, peer_pos, payload))
                users[peer_uid].receive_share(pos.t, payload)

    for uid in range(1, params.n + 1):
        timing = timings.get(uid)
        if timing == BEFORE_SHARING:
            users[uid].alive = False
            continue
        users[uid].compute_q(nu)
        if timing in (AFTER_SHARING, MID_SEQUENCE):
            # Shares are already out; the user goes silent before forwarding.
            users[uid].alive = False

    # Phases 2 and 3: partial sums advance one group hop at a time (a user
    # cannot forward before its upstream slot resolved), senders in id
    # order; the last group uploads to the server.
    server = ServerState()
    delivered: dict[int, ProtocolMessage] = {}
    for gamma in range(1, num_groups + 1):
        next_uid_by_t = {t2: peer_uid for t2, peer_uid, _ in members.get(gamma + 1, ())}
        for uid in sorted(uid for _, uid, _ in members[gamma]):
            msg = users[uid].step_sequence(delivered.pop(uid, None), num_groups)
            log.append(msg)
            if gamma == num_groups:
                server.receive(msg)
            else:
                delivered[next_uid_by_t[msg.t]] = msg

    recovered = server.recover(params)
    contributors = frozenset(
        uid for uid in range(1, params.n + 1) if timings.get(uid) != BEFORE_SHARING
    )
    return ProtocolRun(recovered, log, contributors, dict(positions))


def execute_seeded(
    params: ProtocolParams,
    models: Sequence[ModelVector],
    timings: Mapping[int, str],
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
    return execute_protocol(params, models, noise, timings, positions), noise


def run_protocol(
    params: ProtocolParams,
    models: Sequence[ModelVector],
    dropouts,
    seed: int,
    group_shuffle: bool = False,
):
    """Sample noise from ``seed`` and run; dropouts stay silent from the start.

    Returns ``(recovered, log)`` where the recovered vector equals the exact
    field sum of the non-dropped users' models.
    """
    timings = {int(uid): BEFORE_SHARING for uid in dropouts}
    run, _ = execute_seeded(params, models, timings, seed, group_shuffle)
    return run.recovered, run.log
