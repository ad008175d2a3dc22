"""Per-layer spans for the traced benchmark run, installed from outside the package.

Every span wraps one public function of swiftagg at each module or class
attribute where a caller looks it up (``swiftagg.protocol.vec_add`` as well
as ``swiftagg.field.vec_add``), so nothing under ``src/`` changes.  Spans
are aggregated as they close: per span name, the number of calls, the self
time (duration minus the time of spans opened inside it) and a few counts.
Counting runs after the span closes and is excluded from every self time,
so it shows up only as lower ``trace.coverage``.

A site whose attribute no longer exists is skipped with a warning; a span
with no site left drops its own metrics, and nothing else.
"""

from __future__ import annotations

import importlib
import time
import warnings


def _count_elems(tracer, c, args, result):
    c["elems"] = c.get("elems", 0) + len(result.values)


def _count_interp(tracer, c, args, result):
    points, degree_bound = args[0], args[1]
    c["surplus_points"] = c.get("surplus_points", 0) + len(points) - (degree_bound + 1)


def _count_noise(tracer, c, args, result):
    c["elems"] = c.get("elems", 0) + sum(len(z.values) for z in result)


def _count_execute(tracer, c, args, run):
    params = args[0]
    slots = len(run.log)
    c["slots"] = c.get("slots", 0) + slots
    c["payload_slots"] = c.get("payload_slots", 0) + sum(
        1 for m in run.log if m.payload is not None
    )
    if slots != params.n * params.group_size:
        c["slot_mismatches"] = c.get("slot_mismatches", 0) + 1
    if tracer.inside("privacy_oracle.enumerate"):
        enum = tracer.spans["privacy_oracle.enumerate"].counts
        enum["protocol_runs"] = enum.get("protocol_runs", 0) + 1


def _count_lines(tracer, c, args, lines):
    c["lines"] = c.get("lines", 0) + len(lines)


def _count_loads(tracer, c, args, metrics):
    c["user_to_user_msgs"] = c.get("user_to_user_msgs", 0) + metrics.user_to_user_msgs
    c["server_msgs"] = c.get("server_msgs", 0) + metrics.server_msgs


def _count_view(tracer, c, args, view):
    c["msgs"] = c.get("msgs", 0) + len(view.received) + len(view.uploads)


def _count_enumerate(tracer, c, args, dist):
    c["assignments"] = c.get("assignments", 0) + sum(
        sum(counter.values()) for counter in dist.views.values()
    )
    c["distinct_views"] = c.get("distinct_views", 0) + len(
        set().union(*dist.views.values())
    )


# span name -> (sites as (module, attribute path), counter or None)
SPANS = {
    "field.vec_add": (
        [("swiftagg.field", "vec_add"), ("swiftagg.protocol", "vec_add")],
        _count_elems,
    ),
    "field.interp": (
        [
            ("swiftagg.protocol", "lagrange_interpolate_at_zero"),
            ("swiftagg.sharing", "lagrange_interpolate_at_zero"),
        ],
        _count_interp,
    ),
    "field.spec": ([("swiftagg.field", "FieldSpec.__init__")], None),
    "field.vector": ([("swiftagg.field", "FieldSpec.vector")], _count_elems),
    "sharing.noise": (
        [("swiftagg.simnet", "sample_noise"), ("swiftagg.protocol", "sample_noise")],
        _count_noise,
    ),
    "sharing.eval": ([("swiftagg.sharing", "SharePolynomial.eval")], _count_elems),
    "sharing.build_poly": ([("swiftagg.protocol", "build_polynomial")], None),
    "protocol.execute": (
        [
            ("swiftagg.protocol", "execute_protocol"),
            ("swiftagg.simnet", "execute_protocol"),
            ("swiftagg.privacy_oracle", "execute_protocol"),
        ],
        _count_execute,
    ),
    "protocol.recover": ([("swiftagg.protocol", "ServerState.recover")], None),
    "protocol.assign_groups": (
        [
            ("swiftagg.protocol", "assign_groups"),
            ("swiftagg.simnet", "assign_groups"),
            ("swiftagg.privacy_oracle", "assign_groups"),
        ],
        None,
    ),
    "protocol.serialize": ([("swiftagg.protocol", "MessageLog.to_lines")], _count_lines),
    "simnet.simulate": ([("swiftagg.simnet", "simulate")], None),
    "simnet.count_loads": ([("swiftagg.simnet", "count_loads")], _count_loads),
    "simnet.view": (
        [
            ("swiftagg.simnet", "collect_adversary_view"),
            ("swiftagg.privacy_oracle", "collect_adversary_view"),
        ],
        _count_view,
    ),
    "privacy_oracle.enumerate": (
        [("swiftagg.privacy_oracle", "enumerate_views")],
        _count_enumerate,
    ),
    "privacy_oracle.check": (
        [("swiftagg.privacy_oracle", "check_conditional_independence")],
        None,
    ),
    "privacy_oracle.chain": (
        [("swiftagg.privacy_oracle", "check_noise_chain_independence")],
        None,
    ),
    "privacy_oracle.share_hiding": (
        [("swiftagg.privacy_oracle", "check_share_hiding")],
        None,
    ),
}

# Spans that run during set-up; the rest are reported per timed op.
SETUP_SPANS = ("field.spec", "field.vector")

# (metric, the end-to-end metric and workload it should move); units and
# directions are in BENCHMARK.json.
LAYER_METRICS = [
    ("field.vec_add.calls", "op_ms_tail on privacy_audit (per-call cost)"),
    ("field.vec_add.elems", "op_ms_tail, agg_elems_per_s on wide_model"),
    ("field.vec_add.self_s", "op_ms_tail, agg_elems_per_s on wide_model"),
    ("field.interp.calls", "op_ms_tail on privacy_audit"),
    ("field.interp.surplus_points", "op_ms_tail on many_users"),
    ("field.interp.self_s", "op_ms_tail on privacy_audit"),
    ("field.spec.calls", "setup_s on every workload"),
    ("field.spec.self_s", "setup_s on every workload"),
    ("field.vector.elems", "setup_s on every workload"),
    ("field.vector.self_s", "setup_s on every workload"),
    ("sharing.noise.calls", "op_ms_tail on wide_model"),
    ("sharing.noise.elems", "op_ms_tail, agg_elems_per_s on wide_model"),
    ("sharing.noise.self_s", "op_ms_tail, agg_elems_per_s on wide_model"),
    ("sharing.eval.calls", "op_ms_tail on wide_model"),
    ("sharing.eval.elems", "op_ms_tail, agg_elems_per_s on wide_model"),
    ("sharing.eval.self_s", "op_ms_tail, agg_elems_per_s on wide_model"),
    ("sharing.build_poly.calls", "op_ms_tail on wide_model"),
    ("sharing.build_poly.self_s", "op_ms_tail on wide_model"),
    ("protocol.execute.calls", "assignments_per_s on privacy_audit"),
    ("protocol.execute.self_s", "op_ms_tail on many_users; assignments_per_s on privacy_audit"),
    ("protocol.slots", "op_ms_tail on many_users"),
    ("protocol.payload_slots", "op_ms_tail on many_users"),
    ("protocol.useful_slot_ratio", "op_ms_tail on many_users"),
    ("protocol.recover.self_s", "op_ms_tail on many_users"),
    ("protocol.assign_groups.self_s", "op_ms_tail on many_users"),
    ("protocol.serialize.lines", "op_ms_tail on many_users only"),
    ("protocol.serialize.self_s", "op_ms_tail on many_users only"),
    ("simnet.simulate.self_s", "op_ms_tail on many_users"),
    ("simnet.count_loads.self_s", "op_ms_tail on many_users"),
    ("simnet.view.calls", "op_ms_tail on many_users"),
    ("simnet.view.msgs", "op_ms_tail on many_users"),
    ("simnet.view.self_s", "op_ms_tail on many_users"),
    ("simnet.user_to_user_msgs", "op_ms_tail on many_users"),
    ("simnet.server_msgs", "op_ms_tail on many_users"),
    ("privacy_oracle.enumerate.calls", "assignments_per_s on privacy_audit only"),
    ("privacy_oracle.enumerate.self_s", "assignments_per_s on privacy_audit only"),
    ("privacy_oracle.protocol_runs", "assignments_per_s on privacy_audit only"),
    ("privacy_oracle.assignments", "assignments_per_s on privacy_audit only"),
    ("privacy_oracle.assignments_per_run", "assignments_per_s on privacy_audit only"),
    ("privacy_oracle.distinct_views", "assignments_per_s on privacy_audit only"),
    ("privacy_oracle.check.self_s", "assignments_per_s on privacy_audit only"),
    ("privacy_oracle.chain.self_s", "assignments_per_s on privacy_audit only"),
    ("privacy_oracle.share_hiding.self_s", "assignments_per_s on privacy_audit only"),
    ("trace.overhead_frac", "none: traced op_ms_p50 over untraced, minus 1"),
    ("trace.coverage", "none: layer self time over traced op time"),
]

# Metrics read from a counter of another span, and ratios of two counters.
_COUNTERS = {
    "protocol.slots": ("protocol.execute", "slots"),
    "protocol.payload_slots": ("protocol.execute", "payload_slots"),
    "simnet.user_to_user_msgs": ("simnet.count_loads", "user_to_user_msgs"),
    "simnet.server_msgs": ("simnet.count_loads", "server_msgs"),
    "privacy_oracle.protocol_runs": ("privacy_oracle.enumerate", "protocol_runs"),
    "privacy_oracle.assignments": ("privacy_oracle.enumerate", "assignments"),
    "privacy_oracle.distinct_views": ("privacy_oracle.enumerate", "distinct_views"),
}
_RATIOS = {
    "protocol.useful_slot_ratio": ("protocol.execute", "payload_slots", "slots"),
    "privacy_oracle.assignments_per_run": (
        "privacy_oracle.enumerate",
        "assignments",
        "protocol_runs",
    ),
}
# protocol_runs is counted by the protocol.execute wrapper.
_ALSO_NEEDS = {
    "privacy_oracle.protocol_runs": "protocol.execute",
    "privacy_oracle.assignments_per_run": "protocol.execute",
}


class Span:
    __slots__ = ("calls", "self_s", "counts")

    def __init__(self):
        self.reset()

    def reset(self):
        self.calls = 0
        self.self_s = 0.0
        self.counts = {}

    def get(self, key):
        if key in ("calls", "self_s"):
            return getattr(self, key)
        return self.counts.get(key, 0)


def _resolve(module_name, path):
    owner = importlib.import_module(module_name)
    *parents, attr = path.split(".")
    for part in parents:
        owner = getattr(owner, part)
    return owner, attr


class Tracer:
    """Installs the wrappers, aggregates spans, and restores the originals."""

    def __init__(self, spans=SPANS):
        self.spec = spans
        self.spans = {}
        self.open = []  # [span name, child time] per open span, innermost last
        self._installed = []

    def install(self):
        for name, (sites, counter) in self.spec.items():
            span = Span()
            for module_name, path in sites:
                try:
                    owner, attr = _resolve(module_name, path)
                    original = getattr(owner, attr)
                except (ImportError, AttributeError):
                    warnings.warn(
                        f"trace target {module_name}.{path} not found; "
                        f"span {name} loses this site",
                        RuntimeWarning,
                        stacklevel=2,
                    )
                    continue
                setattr(owner, attr, self._wrap(name, span, original, counter))
                self._installed.append((owner, attr, original))
                self.spans[name] = span

    def uninstall(self):
        for owner, attr, original in reversed(self._installed):
            setattr(owner, attr, original)
        self._installed.clear()

    def _wrap(self, name, span, fn, counter):
        opened = self.open
        clock = time.perf_counter
        tracer = self

        def wrapper(*args, **kwargs):
            frame = [name, 0.0]
            opened.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                opened.pop()
                span.calls += 1
                span.self_s += end - start - frame[1]
            if counter is not None:
                counter(tracer, span.counts, args, result)
            if opened:
                # The parent loses this span's duration and the counting above.
                opened[-1][1] += clock() - start
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def inside(self, name):
        return any(open_name == name for open_name, _ in self.open)

    def reset(self):
        for span in self.spans.values():
            span.reset()

    def value(self, span, key):
        return self.spans[span].get(key) if span in self.spans else 0

    def snapshot(self, names=None):
        return {
            name: {"calls": s.calls, "self_s": s.self_s, **s.counts}
            for name, s in self.spans.items()
            if names is None or name in names
        }

    def self_time(self):
        return sum(s.self_s for s in self.spans.values())

    def metrics(self, setup, counted, count_ops, timed, ops):
        """Per-layer values from three ``snapshot`` results.

        Set-up spans come from ``setup``; counts are per op over the
        ``count_ops`` ops of ``counted``; self times are per op over the
        ``ops`` ops of ``timed``.  Metrics of a span with no installed site
        are left out.
        """
        out = {}
        for metric, _moves in LAYER_METRICS:
            if metric.startswith("trace."):
                continue
            den = None
            if metric in _RATIOS:
                span, key, den = _RATIOS[metric]
            else:
                span, key = _COUNTERS.get(metric) or metric.rsplit(".", 1)
            if span not in self.spans or _ALSO_NEEDS.get(metric, span) not in self.spans:
                continue
            if span in SETUP_SPANS:
                out[metric] = setup[span].get(key, 0)
            elif den is not None:
                base = counted[span].get(den, 0)
                out[metric] = counted[span].get(key, 0) / base if base else 0.0
            elif key == "self_s":
                out[metric] = timed[span]["self_s"] / ops
            else:
                out[metric] = counted[span].get(key, 0) / count_ops
        return out
