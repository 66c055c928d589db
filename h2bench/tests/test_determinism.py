"""Same seed and op count => the same counts and simulated times.

Each run is a separate process with its own hash seed, so nothing may
depend on set or dict iteration order of strings.  Wall-clock metrics
(throughput, wall latency, set-up time, memory, self times, tracing
overhead) are excluded: they are measurements, not counts.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
WALL = {"ops_per_s", "wall_p50_us", "wall_p99_us", "setup_s", "peak_rss_mb"}


def run(workload: str, trace: int, hash_seed: str) -> dict:
    env = dict(os.environ, PYTHONHASHSEED=hash_seed)
    cmd = [
        sys.executable, "h2bench/run.py", "--workload", workload, "--seed", "3",
        "--seconds", "1", "--ops", "300", "--setups", "1", "--trace", str(trace),
    ]
    out = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True, timeout=600)
    assert out.returncode == 0, out.stderr[-2000:]
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert result["correct"], out.stderr[-2000:]
    assert result["attempted"] == 300 and result["failed"] == 0
    return result["metrics"]


def deterministic(metrics: dict) -> dict:
    return {
        name: m["value"]
        for name, m in metrics.items()
        if name not in WALL
        and not name.endswith("self_us_per_op")
        and name not in ("gc.self_ms", "trace.overhead_ratio")
    }


@pytest.mark.parametrize("workload", ["hotdir-churn", "paper-mix", "deep-read"])
def test_end_to_end_counts_and_sim_times_repeat(workload):
    first = deterministic(run(workload, 0, "1"))
    second = deterministic(run(workload, 0, "2"))
    assert "sim_read_p50_ms" in first and "store_requests_per_op" in first
    assert first == second


@pytest.mark.parametrize("workload", ["hotdir-churn", "paper-mix"])
def test_per_layer_counts_repeat(workload):
    first = deterministic(run(workload, 1, "1"))
    second = deterministic(run(workload, 1, "2"))
    assert "integrity.bytes_checksummed_per_op" in first
    assert first == second
