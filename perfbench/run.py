"""swiftagg benchmark: run one workload, check its outputs, print its metrics.

  python3 perfbench/run.py --workload wide_model --seed 1 --seconds 30 --trace 0

Run from the repository root.  Each process of a run is a fresh, single-
threaded interpreter (``perfbench/worker.py``), started only after the
previous one has ended: a closed loop with one client.

--trace 0   set-up is timed in five fresh processes (median reported), the
            middle one of which runs checked ops for ``--seconds`` seconds;
            the end-to-end metrics of BENCHMARK.json are printed.
--trace 1   one untraced and one traced process share ``--seconds``; the
            per-layer metrics of BENCHMARK.json are printed, with the traced
            op_ms_p50 over the untraced one (``trace.overhead_frac``).

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The line before it
is the run record: seeds, versions, nproc, git SHA, op counts, the median
op latency, the percentile behind ``op_ms_tail`` and the failed fraction.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from importlib import metadata
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKER = Path(__file__).resolve().parent / "worker.py"
WORKLOADS = ("wide_model", "many_users", "privacy_audit")
# Fresh processes that only set up and run the first op; the measuring
# process adds one more set-up sample.
SETUP_PROBES = 4
# Every run must end within 180 s; workers still running at this point are killed.
TIME_LIMIT_S = 170


class WorkerError(RuntimeError):
    pass


def run_worker(argv, deadline):
    """Run one worker to completion; return (seconds until ready, result)."""
    start = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(WORKER), *argv], cwd=ROOT, stdout=subprocess.PIPE, text=True
    )
    watchdog = threading.Timer(max(deadline - time.monotonic(), 0.0), proc.kill)
    watchdog.start()
    try:
        ready = proc.stdout.readline()
        setup_s = time.perf_counter() - start
        rest = proc.stdout.read()
        code = proc.wait()
    finally:
        watchdog.cancel()
        if proc.poll() is None:
            proc.kill()
        proc.wait()
        proc.stdout.close()
    if code != 0 or not ready.strip():
        raise WorkerError(f"worker {' '.join(argv)} exited with code {code}")
    return setup_s, json.loads(rest.strip().splitlines()[-1])


def tail(samples, high_is_worse=True):
    """The 11th-worst sample and the nearest-rank percentile it sits at.

    That is the highest percentile with at least 10 samples beyond it.
    Below 20 samples it would fall under the median, so the median is given.
    """
    ordered = sorted(samples, reverse=high_is_worse)
    n = len(ordered)
    if n < 20:
        return 50.0, statistics.median(ordered)
    return 100 * (n - 10) / n, ordered[10]


def git_sha():
    """HEAD of the checkout, read from .git without running git; None if absent."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def measure_end_to_end(args, seed, deadline):
    """Set-up probes, then one measuring process; returns (metrics, record, tally)."""
    base = ["--workload", args.workload, "--seed", str(seed)]
    if args.corrupt_reference:
        base.append("--corrupt-reference")
    setup_samples, attempted, failed = [], 0, 0
    # The probes straddle the measuring process, so the set-up samples span
    # the run instead of one moment of it.
    for k in range(SETUP_PROBES + 1):
        measuring = k == SETUP_PROBES // 2
        extra = ["--seconds", str(args.seconds)] if measuring else ["--probe"]
        setup_s, out = run_worker(base + extra, deadline)
        setup_samples.append(setup_s)
        attempted += out["attempted"]
        failed += out["failed"]
        if measuring:
            res = out
    q, tail_s = tail(res["op_s"])
    metrics = {
        "setup_s": statistics.median(setup_samples),
        "op_ms_tail": tail_s * 1e3,
        "agg_elems_per_s": tail(res["agg_elems_per_s"] or [0.0], high_is_worse=False)[1],
        "assignments_per_s": tail(res["assignments_per_s"] or [0.0], high_is_worse=False)[1],
        "peak_rss_mb": res["peak_rss_kib"] / 1024,
    }
    record = {
        "seed": seed,
        "ops": res["ops"],
        "op_ms_p50": statistics.median(res["op_s"]) * 1e3,
        "op_ms_tail_percentile": q,
        "setup_samples_s": setup_samples,
    }
    return metrics, record, (attempted, failed)


def measure_layers(args, seed, deadline):
    """An untraced and a traced process; returns (metrics, record, tally)."""
    base = ["--workload", args.workload, "--seed", str(seed), "--seconds", str(args.seconds / 2)]
    if args.corrupt_reference:
        base.append("--corrupt-reference")
    _, plain = run_worker(base, deadline)
    _, traced = run_worker(base + ["--trace"], deadline)
    metrics = dict(traced["layers"])
    metrics["trace.overhead_frac"] = (
        statistics.median(traced["op_s"]) / statistics.median(plain["op_s"]) - 1
    )
    metrics["trace.coverage"] = traced["layer_self_s"] / sum(traced["op_s"])
    record = {"seed": seed, "ops": plain["ops"], "traced_ops": traced["ops"]}
    tally = (
        plain["attempted"] + traced["attempted"],
        plain["failed"] + traced["failed"],
    )
    return metrics, record, tally


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument(
        "--second-seed",
        type=int,
        help="repeat the whole run on this seed too; its metrics go to the run record",
    )
    ap.add_argument(
        "--corrupt-reference",
        action="store_true",
        help="negative control: off-by-one expected sums and flipped verdicts, so every op fails",
    )
    args = ap.parse_args(argv)
    deadline = time.monotonic() + TIME_LIMIT_S

    spec_path = ROOT / "BENCHMARK.json"
    missing = [
        path
        for path in (spec_path, ROOT / "src" / "swiftagg" / "__init__.py", WORKER.parent / "tracer.py")
        if not path.is_file()
    ]
    if missing:
        print(f"run.py: missing {', '.join(map(str, missing))}; run from a swiftagg checkout",
              file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())
    listed = spec["per_layer"] if args.trace else spec["end_to_end"]

    measure = measure_layers if args.trace else measure_end_to_end
    seeds = [args.seed] + ([args.second_seed] if args.second_seed is not None else [])
    try:
        runs = [measure(args, seed, deadline) for seed in seeds]
    except WorkerError as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 1

    attempted = sum(tally[0] for _, _, tally in runs)
    failed = sum(tally[1] for _, _, tally in runs)
    values, record, _ = runs[0]
    dropped = [m["name"] for m in listed if m["name"] not in values]
    if dropped:
        print(f"run.py: no trace target for {', '.join(dropped)}", file=sys.stderr)
    record.update(
        workload=args.workload,
        trace=args.trace,
        seconds=args.seconds,
        fail_frac=failed / attempted,
        python=platform.python_version(),
        numpy=_version("numpy"),
        nproc=os.cpu_count(),
        git_sha=git_sha(),
    )
    if len(runs) > 1:
        second_values, second_record, (second_attempted, second_failed) = runs[1]
        second_record.update(
            metrics=second_values,
            fail_frac=second_failed / second_attempted,
        )
        record["second_seed"] = second_record
    print(json.dumps({"record": record}))
    metrics = {
        m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
        for m in listed
        if m["name"] in values
    }
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": metrics,
            }
        )
    )
    return 0


def _version(dist):
    try:
        return metadata.version(dist)
    except metadata.PackageNotFoundError:
        return None


if __name__ == "__main__":
    sys.exit(main())
