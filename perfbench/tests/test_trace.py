"""Observation never changes results: a traced run returns the same top-k
lists and final manifest stats as an untraced run with the same seed.

Each case runs the benchmark twice in fresh processes (Ray, one CPU) with
a fixed number of operations, so expect a few minutes in all.
"""

import json
import os
import subprocess
import sys

import pytest

from perfbench import trace

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


def _run(workload: str, traced: int, max_ops: int, out_dir: str) -> dict:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "5",
         "--seconds", "1", "--trace", str(traced), "--max-ops", str(max_ops), "--out", out_dir],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr[-3000:]
    lines = proc.stdout.strip().splitlines()
    report, result = json.loads(lines[-2])["report"], json.loads(lines[-1])
    assert result["correct"] and result["failed"] == 0, report["errors"]
    return {"report": report, "result": result}


@pytest.mark.parametrize("workload,max_ops", [("ingest", 1), ("query", 150), ("nrt", 4)])
def test_traced_run_matches_untraced(workload, max_ops, tmp_path):
    plain = _run(workload, 0, max_ops, str(tmp_path))
    traced = _run(workload, 1, max_ops, str(tmp_path))
    assert traced["report"]["digest"] == plain["report"]["digest"]
    assert traced["report"]["attempted"] == plain["report"]["attempted"] == max_ops

    metrics = traced["result"]["metrics"]
    assert set(metrics) == {name for name, _ in trace.PER_LAYER_METRICS}
    assert set(plain["result"]["metrics"]) == {
        "setup_s", "peak_rss_mb", "throughput_per_s", "latency_p50_ms", "index_bytes_per_input_byte"
    }
    # the layers' self times account for the traced wall time
    assert abs(metrics["trace.attributed_ratio"]["value"] - 1) < 0.05
    spans_dir = traced["report"]["trace_summary"]["dir"]
    with open(os.path.join(spans_dir, "spans.jsonl")) as f:
        first = json.loads(f.readline())
    assert {"name", "start_ns", "end_ns", "parent", "rid", "self_ns"} <= set(first)
    assert os.path.exists(os.path.join(spans_dir, "summary.json"))


def test_self_time_subtracts_union_of_children():
    spans = [
        {"id": "p", "start_ns": 0, "end_ns": 100},
        {"id": "a", "start_ns": 10, "end_ns": 40},
        {"id": "b", "start_ns": 30, "end_ns": 60},  # overlaps a
        {"id": "c", "start_ns": 90, "end_ns": 120},  # runs past the parent
    ]
    trace._self_times(spans, {"p": spans[1:]})
    assert spans[0]["self_ns"] == 100 - 50 - 10
    assert spans[1]["self_ns"] == 30
