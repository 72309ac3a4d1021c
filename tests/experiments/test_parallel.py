"""Tests for parallel experiment fan-out (process-pool execution)."""

import pytest

from repro.experiments import scaling_experiment
from repro.farm.runner import farm_workers


def test_bench_workers_env(monkeypatch):
    # The scaling experiments default through the farm's worker count.
    monkeypatch.delenv("REPRO_FARM_WORKERS", raising=False)
    assert farm_workers() == 1
    assert farm_workers(3) == 3
    monkeypatch.setenv("REPRO_FARM_WORKERS", "4")
    assert farm_workers() == 4
    assert farm_workers(2) == 2  # an explicit count wins
    monkeypatch.setenv("REPRO_FARM_WORKERS", "0")
    assert farm_workers() == 1  # clamped
    assert farm_workers(-2) == 1


def test_parallel_matches_serial():
    """Every cell is deterministic, so fan-out must be bit-identical."""
    kwargs = dict(
        systems=("l2s", "traditional"),
        node_counts=(2, 4),
        num_requests=1500,
    )
    serial = scaling_experiment("calgary", workers=1, **kwargs)
    parallel = scaling_experiment("calgary", workers=4, **kwargs)
    assert serial.model == parallel.model
    for system in kwargs["systems"]:
        for n in kwargs["node_counts"]:
            a = serial.results[system][n]
            b = parallel.results[system][n]
            assert a.throughput_rps == b.throughput_rps
            assert a.miss_rate == b.miss_rate
            assert a.node_completions == b.node_completions
