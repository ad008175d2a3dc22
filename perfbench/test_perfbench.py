"""Smoke test of the benchmark itself (about two minutes).

  PYTHONPATH=src python3 -m pytest perfbench -q

Each workload runs for a second or so.  The test checks five things. Every
metric in BENCHMARK.json is printed with its unit. Good runs fail no op. A
corrupted reference fails every op. Traced counts repeat exactly for a seed.
A wrapper whose target has gone drops only its own span's metrics.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]

sys.path.insert(0, str(HERE))
import tracer  # noqa: E402


def bench(workload, trace, *extra):
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "5",
         "--seconds", "1", "--trace", str(trace), *extra],
        cwd=ROOT, capture_output=True, text=True, timeout=180,
    )
    assert out.returncode == 0, out.stderr
    *_, record_line, result_line = out.stdout.strip().splitlines()
    result = json.loads(result_line)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    return json.loads(record_line)["record"], result


def units(listed):
    return {m["name"]: m["unit"] for m in listed}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics_and_no_failures(workload):
    record, result = bench(workload, 0)
    assert {k: v["unit"] for k, v in result["metrics"].items()} == units(SPEC["end_to_end"])
    assert all(v["value"] > 0 for v in result["metrics"].values())
    assert result["correct"] and result["failed"] == 0 and record["fail_frac"] == 0
    assert record["seed"] == 5 and record["ops"] >= 1 and record["op_ms_tail_percentile"]
    assert record["op_ms_p50"] > 0


@pytest.mark.parametrize("workload", WORKLOADS)
def test_layer_metrics_and_exact_counts(workload):
    runs = [bench(workload, 1) for _ in range(2)]
    counts = []
    for _, result in runs:
        assert {k: v["unit"] for k, v in result["metrics"].items()} == units(SPEC["per_layer"])
        assert result["correct"] and result["failed"] == 0
        counts.append({
            k: v["value"] for k, v in result["metrics"].items()
            if v["unit"] != "s" and not k.startswith("trace.")
        })
    assert counts[0] == counts[1]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_corrupted_reference_fails_every_op(workload):
    record, result = bench(workload, 1, "--corrupt-reference")
    assert not result["correct"]
    assert result["failed"] == result["attempted"] > 0 and record["fail_frac"] == 1


def test_layer_table_matches_benchmark_json():
    assert [name for name, _ in tracer.LAYER_METRICS] == [m["name"] for m in SPEC["per_layer"]]


def test_missing_trace_target_drops_only_its_span():
    spans = dict(tracer.SPANS)
    spans["field.vec_add"] = ([("swiftagg.field", "vec_add_renamed")], None)
    t = tracer.Tracer(spans)
    with pytest.warns(RuntimeWarning, match="vec_add_renamed"):
        t.install()
    try:
        from swiftagg import field

        spec = field.FieldSpec(7)
        a = spec.vector([1, 2])
        assert field.vec_add(a, a).values == (2, 4)
        setup = t.snapshot(tracer.SETUP_SPANS)
        snap = t.snapshot()
        metrics = t.metrics(setup, snap, 1, snap, 1)
    finally:
        t.uninstall()
    assert not any(name.startswith("field.vec_add.") for name in metrics)
    assert metrics["field.spec.calls"] == 1 and metrics["field.vector.elems"] == 2
    assert "sharing.eval.calls" in metrics
