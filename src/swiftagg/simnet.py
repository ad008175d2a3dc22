"""Deterministic simulation harness: adversary views and load accounting.

The harness runs the protocol from a seed (``protocol.execute_seeded``), then
derives everything else from the transcript: message counts, the normalized
communication loads, and the exact set of messages a semi-honest adversary
(colluding users, optionally the curious server) gets to see.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, NamedTuple, Sequence

from .field import ModelVector
from .protocol import (
    PHASE_UPLOAD,
    AdversaryConfig,
    DropoutPlan,
    MessageLog,
    ProtocolParams,
    execute_seeded,
)


@dataclass(frozen=True)
class AdversaryView:
    """Everything the adversary legitimately holds after one run.

    ``colluder_inputs`` lists each colluder's own model and noise vectors
    (ascending id).  ``received`` is every message slot addressed to a
    colluder, and ``uploads`` every server-bound slot when the server is
    curious, both in transcript order with null symbols kept so the slot
    structure is fixed per instance.
    """

    colluder_inputs: tuple
    received: tuple
    uploads: tuple

    def canonical(self) -> tuple:
        """Hashable payload-only form; slot order is fixed by the scheduler."""
        own = tuple(
            (uid, model.values, tuple(z.values for z in zs))
            for uid, model, zs in self.colluder_inputs
        )
        got = tuple(m.payload.values if m.payload is not None else None for m in self.received)
        ups = tuple(m.payload.values if m.payload is not None else None for m in self.uploads)
        return (own, got, ups)


def collect_adversary_view(
    log: MessageLog,
    adversary: AdversaryConfig,
    models: Sequence[ModelVector],
    noise: Mapping[int, tuple],
) -> AdversaryView:
    """Assemble the view: slots addressed to a colluder, and uploads if the server is curious."""
    colluders = adversary.colluders
    colluder_positions = {pos for pos, uid in log.user_of.items() if uid in colluders}
    received = []
    uploads = []
    curious = adversary.server_curious
    for msg in log:
        if msg.recipient in colluder_positions:
            received.append(msg)
        if curious and msg.phase == PHASE_UPLOAD:
            uploads.append(msg)
    inputs = tuple(
        (uid, models[uid - 1], tuple(noise[uid])) for uid in sorted(colluders)
    )
    return AdversaryView(inputs, tuple(received), tuple(uploads))


@dataclass(frozen=True)
class RunMetrics:
    """Directed-message counts and the normalized loads derived from them.

    Payloads are always whole vectors of ``model_len`` field elements, so the
    per-message load normalized by the model length is exactly 1 and the
    normalized loads coincide with message counts.
    """

    user_to_user_msgs: int
    server_msgs: int
    max_user_outbound_elems: int


def count_loads(log: MessageLog, params: ProtocolParams) -> RunMetrics:
    """Count non-null directed messages; null slots cost nothing."""
    user_to_user = 0
    server = 0
    outbound: dict = {}
    for msg in log:
        if msg.payload is None:
            continue
        outbound[msg.sender] = outbound.get(msg.sender, 0) + params.model_len
        if msg.phase == PHASE_UPLOAD:
            server += 1
        else:
            user_to_user += 1
    return RunMetrics(
        user_to_user_msgs=user_to_user,
        server_msgs=server,
        max_user_outbound_elems=max(outbound.values(), default=0),
    )


class SimulationResult(NamedTuple):
    recovered: ModelVector
    metrics: RunMetrics
    view: AdversaryView
    log: MessageLog


def simulate(
    params: ProtocolParams,
    models: Sequence[ModelVector],
    plan: DropoutPlan,
    adversary: AdversaryConfig,
    seed: int,
    group_shuffle: bool = False,
) -> SimulationResult:
    """One deterministic run: execute, account loads, capture the adversary view."""
    adversary.validate_for(params)
    run, noise = execute_seeded(params, models, plan, seed, group_shuffle)
    metrics = count_loads(run.log, params)
    view = collect_adversary_view(run.log, adversary, models, noise)
    return SimulationResult(run.recovered, metrics, view, run.log)


# Asymptotic rows for the published baselines; ours is emitted with exact
# element counts for the given parameters.
_BASELINE_ROWS = (
    ("SecAgg", "O(N*L + N^2)", "O(L + N)"),
    ("SecAgg+", "O(N*L + N*log N)", "O(L + log N)"),
    ("TurboAgg", "O(N*L*log N)", "O(L*log N)"),
    ("Choi et al.", "O(N*(sqrt(N*log N) + L))", "O(sqrt(N*log N) + L)"),
    ("LightSecAgg", "O(N*L)", "O(L)"),
)


def table1_analytic(params: ProtocolParams) -> list:
    """Communication-load comparison rows: baselines symbolic, SwiftAgg exact."""
    rows = [
        {"approach": name, "server_comm": server, "per_user_comm": per_user}
        for name, server, per_user in _BASELINE_ROWS
    ]
    rows.append(
        {
            "approach": "SwiftAgg",
            "server_comm": (params.t + 1) * params.model_len,
            "per_user_comm": (params.t + params.d + 1) * params.model_len,
        }
    )
    return rows
