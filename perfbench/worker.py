"""One benchmark process: set up one workload, then run checked ops in a closed loop.

Started by ``run.py`` as a fresh, single-threaded interpreter.  It prints a
``ready`` line the moment the first (untimed, checked) op has finished, so
the parent can time set-up from process start, then a ``result`` line.

  python3 perfbench/worker.py --workload wide_model --seed 1 --seconds 5 [--trace]

Every op checks the program's outputs against references the benchmark
computes itself: expected aggregates are plain-int column sums mod p (never
``swiftagg.field.vec_add``), transcripts must have exactly n*(t+d+1) slots,
and privacy verdicts are fixed (independent, except the zero-noise control,
which must be dependent with a witness).  A failed check or an exception
counts the op as failed; the loop goes on.
"""

from __future__ import annotations

import argparse
import json
import random
import resource
import sys
import time
import traceback
import warnings
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from swiftagg import field, privacy_oracle, protocol, simnet  # noqa: E402

from tracer import SETUP_SPANS, Tracer  # noqa: E402

GOLDEN = ROOT / "tests" / "data" / "motivating_golden.log"


class Simulation:
    """``simnet.simulate`` rounds with a curious server, t colluders and victims.

    Models are drawn once from ``random.Random(seed)``; each op takes the next
    entry of a fixed schedule (victims, their timings, colluders) and a fresh
    noise seed, so no two ops repeat their inputs.
    """

    period = 6

    def __init__(self, seed, corrupt, n, t, d, model_len, p, victims, shuffle, serialize):
        rng = random.Random(seed)
        self.field = field.FieldSpec(p)
        self.params = protocol.ProtocolParams(n, t, d, model_len, self.field)
        raw = [[rng.randrange(p) for _ in range(model_len)] for _ in range(n)]
        self.models = [self.field.vector(values) for values in raw]
        total = [sum(column) % p for column in zip(*raw)]
        self.slots = n * (t + d + 1)
        self.shuffle = shuffle
        self.serialize = serialize
        self.schedule = []
        for k in range(self.period):
            chosen = rng.sample(range(1, n + 1), victims + t)
            timings = {
                uid: protocol.DROPOUT_TIMINGS[(k + j) % 3]
                for j, uid in enumerate(chosen[:victims])
            }
            silent = [uid for uid, when in timings.items() if when == protocol.BEFORE_SHARING]
            expected = list(total)
            for uid in silent:
                expected = [(e - x) % p for e, x in zip(expected, raw[uid - 1])]
            if corrupt:
                expected[0] = (expected[0] + 1) % p
            self.schedule.append(
                (
                    simnet.DropoutPlan(timings),
                    simnet.AdversaryConfig.of(chosen[victims:], server_curious=True),
                    tuple(expected),
                    (n - len(silent)) * model_len,
                )
            )
        self.rng = rng

    def op(self, i):
        """Returns (outputs correct, model elements aggregated, assignments run)."""
        plan, adversary, expected, elems = self.schedule[i % self.period]
        result = simnet.simulate(
            self.params,
            self.models,
            plan,
            adversary,
            seed=self.rng.getrandbits(64),
            group_shuffle=self.shuffle,
        )
        ok = (
            result.recovered.field.p == self.field.p
            and result.recovered.values == expected
            and len(result.log) == self.slots
        )
        if self.serialize:
            ok = len(result.log.to_lines()) == self.slots and ok
        return ok, elems, 1


def wide_model(seed, corrupt):
    return Simulation(seed, corrupt, 24, 2, 1, 2048, (1 << 31) - 1, 1, False, False)


def many_users(seed, corrupt):
    return Simulation(seed, corrupt, 1200, 2, 2, 16, (1 << 31) - 1, 2, True, True)


class PrivacyAudit:
    """One pass of the exhaustive privacy checks on two instances plus controls.

    The first instance is the canned ``n4_t1_d0_p3_server_plus_colluder``, the
    second ``n3_t1_d1_p5`` with colluder 1 and user 2 dropping after sharing;
    the seed picks the colluders' fixed models for each schedule entry.
    """

    period = 3
    # Protocol runs per pass: 3**(3 honest + 4 noise) and 5**(2 honest + 3
    # noise) assignments, plus 3**3 for the zero-noise control.
    assignments = 3**7 + 5**5 + 3**3
    # Contributing users times model_len, summed over those runs.
    agg_elems = 3**7 * 4 + 5**5 * 3 + 3**3 * 4

    def __init__(self, seed, corrupt):
        rng = random.Random(seed)
        self.f3 = field.FieldSpec(3)
        self.f5 = field.FieldSpec(5)
        n4 = protocol.ProtocolParams(4, 1, 0, 1, self.f3)
        n3 = protocol.ProtocolParams(3, 1, 1, 1, self.f5)
        self.schedule = [
            (
                privacy_oracle.TinyInstance(
                    n4,
                    simnet.DropoutPlan.none(),
                    simnet.AdversaryConfig.of([3], server_curious=True),
                    colluder_models={3: rng.randrange(3)},
                    label="n4_t1_d0_p3_server_plus_colluder",
                ),
                privacy_oracle.TinyInstance(
                    n3,
                    simnet.DropoutPlan({2: protocol.AFTER_SHARING}),
                    simnet.AdversaryConfig.of([1], server_curious=True),
                    colluder_models={1: rng.randrange(5)},
                    label="n3_t1_d1_p5_colluder1_after_sharing",
                ),
            )
            for _ in range(self.period)
        ]
        self.independent = not corrupt

    def op(self, i):
        oracle = privacy_oracle
        first, second = self.schedule[i % self.period]
        verdicts = [
            oracle.check_conditional_independence(oracle.enumerate_views(first)),
            oracle.check_conditional_independence(oracle.enumerate_views(second)),
            oracle.check_noise_chain_independence(first),
            oracle.check_share_hiding(self.f5, 2),
        ]
        control = oracle.check_conditional_independence(
            oracle.enumerate_views(first, zero_noise=True)
        )
        ok = (
            all(v.independent == self.independent for v in verdicts)
            and control.independent != self.independent
            and (control.witness is not None) == self.independent
        )
        return ok, self.agg_elems, self.assignments


WORKLOADS = {"wide_model": wide_model, "many_users": many_users, "privacy_audit": PrivacyAudit}


def golden_guard(corrupt):
    """Re-run the 12-user motivating example against the checked-in transcript."""
    p = 101
    spec = field.FieldSpec(p)
    params = protocol.ProtocolParams(12, 2, 1, 3, spec)
    raw = [[u, 2 * u + 1, 3 * u + 2] for u in range(1, 13)]
    models = [spec.vector(values) for values in raw]
    recovered, log = protocol.run_protocol(params, models, {7}, seed=11)
    expected = [sum(column) % p for column in zip(*(raw[:6] + raw[7:]))]
    if corrupt:
        expected[0] = (expected[0] + 1) % p
    return recovered.values == tuple(expected) and log.serialize().encode() == GOLDEN.read_bytes()


class Tally:
    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def run(self, fn, *args):
        """Call ``fn``; an exception or a false first result is a failed op."""
        self.attempted += 1
        try:
            result = fn(*args)
        except Exception:  # the benchmark must keep measuring; report and count it
            if self.failed < 3:
                traceback.print_exc()
            result = None
        ok = result is not None and (result[0] if isinstance(result, tuple) else result)
        if not ok:
            self.failed += 1
        return result if ok else None


def cross_checked(tracer, op):
    """Wrap ``op`` with the traced run's exact count checks.

    Every transcript of the op must have n*(t+d+1) slots, and when the op
    called ``count_loads``, its user-to-user plus server messages must equal
    the payload-carrying slots the transcripts held.
    """
    if not {"protocol.execute", "simnet.count_loads"} <= tracer.spans.keys():
        return op

    def counts():
        return (
            tracer.value("protocol.execute", "slot_mismatches"),
            tracer.value("protocol.execute", "payload_slots"),
            tracer.value("simnet.count_loads", "calls"),
            tracer.value("simnet.count_loads", "user_to_user_msgs")
            + tracer.value("simnet.count_loads", "server_msgs"),
        )

    def checked(i):
        before = counts()
        ok, *work = op(i)
        mismatches, payload, loads_calls, msgs = (a - b for a, b in zip(counts(), before))
        if mismatches or (loads_calls and payload != msgs):
            print(f"op {i}: traced count cross-check failed", file=sys.stderr)
            ok = False
        return (ok, *work)

    return checked


def emit(obj):
    print(json.dumps(obj), flush=True)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--trace", action="store_true", help="install the layer wrappers first")
    ap.add_argument("--probe", action="store_true", help="stop after set-up and the first op")
    ap.add_argument("--corrupt-reference", action="store_true")
    args = ap.parse_args(argv)
    warnings.simplefilter("ignore", protocol.CollusionBoundWarning)

    tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.install()
    tally = Tally()
    workload = WORKLOADS[args.workload](args.seed, args.corrupt_reference)
    op = cross_checked(tracer, workload.op) if tracer else workload.op
    tally.run(op, -1)
    emit({"event": "ready"})
    out = {"event": "result"}
    if not args.probe:
        setup = tracer.snapshot(SETUP_SPANS) if tracer else None
        tally.run(golden_guard, args.corrupt_reference)
        if tracer:
            tracer.reset()
        op_s, agg_rates, assignment_rates = [], [], []
        # A traced process runs at least one whole schedule cycle and takes
        # its counts from that cycle alone, so they repeat exactly for a seed.
        min_ops = workload.period if tracer else 1
        clock = time.perf_counter
        deadline = clock() + args.seconds
        i = 0
        while i < min_ops or clock() < deadline:
            start = clock()
            result = tally.run(op, i)
            elapsed = clock() - start
            i += 1
            op_s.append(elapsed)
            if result is not None:
                agg_rates.append(result[1] / elapsed)
                assignment_rates.append(result[2] / elapsed)
            if tracer and i == min_ops:
                counted = tracer.snapshot()
        out.update(
            ops=i,
            op_s=op_s,
            agg_elems_per_s=agg_rates,
            assignments_per_s=assignment_rates,
            peak_rss_kib=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        )
        if tracer:
            out.update(
                layers=tracer.metrics(setup, counted, min_ops, tracer.snapshot(), i),
                layer_self_s=tracer.self_time(),
            )
    out.update(attempted=tally.attempted, failed=tally.failed)
    if tracer:
        tracer.uninstall()
    emit(out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
