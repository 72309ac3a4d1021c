"""P1 — kernel perf scenarios: the three canonical 16-node runs.

Times the exact scenario shapes ``repro bench`` measures (traditional,
LARD, L2S on the calgary trace, two passes), built through
``figshared.canonical_perf_simulation`` so the perf suite, the figure
benchmarks, and the CLI harness all share one scenario definition.

These are timing benchmarks plus determinism canaries — the CI
regression gate itself is ``repro bench --repeats 2 --check
BENCH_kernel.json``, at the baseline's full scale (see docs/KERNEL.md).
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from figshared import canonical_perf_simulation
from repro.bench import (
    CANONICAL_NODES,
    CANONICAL_PASSES,
    CANONICAL_POLICIES,
    CANONICAL_TRACE,
    QUICK_REQUESTS,
)

REPO_ROOT = Path(__file__).resolve().parents[2]
BASELINE = REPO_ROOT / "BENCH_kernel.json"


@pytest.mark.parametrize("policy", CANONICAL_POLICIES)
def test_canonical_scenario(benchmark, policy):
    """Wall-clock per canonical scenario (quick scale), one fresh
    Simulation per round so cache warm-up is inside the measurement."""

    def setup():
        sim = canonical_perf_simulation(policy, num_requests=QUICK_REQUESTS)
        return (sim,), {}

    result = benchmark.pedantic(
        lambda sim: sim.run(), setup=setup, rounds=3, iterations=1
    )
    assert result.throughput_rps > 0
    assert result.requests_measured > 0


@pytest.mark.parametrize("policy", CANONICAL_POLICIES)
def test_canonical_scenario_deterministic(policy):
    """Two builds of the same scenario simulate identically — the
    property the ``throughput_rps`` canary in ``repro bench --check``
    stands on."""
    runs = []
    for _ in range(2):
        sim = canonical_perf_simulation(policy, num_requests=QUICK_REQUESTS)
        result = sim.run()
        runs.append((result.throughput_rps, sim.env.event_count))
    assert runs[0] == runs[1]


def test_committed_baseline_matches_canonical_shape():
    """BENCH_kernel.json (the CI regression baseline) must stay in sync
    with the canonical scenario constants and cover every policy."""
    payload = json.loads(BASELINE.read_text())
    meta = payload["meta"]
    assert meta["trace"] == CANONICAL_TRACE
    assert meta["nodes"] == CANONICAL_NODES
    assert meta["passes"] == CANONICAL_PASSES
    for policy in CANONICAL_POLICIES:
        scenario = payload["scenarios"][policy]
        assert scenario["requests_per_s"] > 0
        assert scenario["events_per_s"] > 0
        assert scenario["throughput_rps"] > 0
