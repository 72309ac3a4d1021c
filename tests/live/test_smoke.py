"""Marked ``live`` integration tests: real sockets, real subprocesses.

Deselected from tier-1 by ``addopts = "-m 'not live'"``; CI's
``live-smoke`` job runs them with ``-m live``.  Two contracts live here:

* the 4-node process-mode cluster boots, replays a trace, conserves
  every request, shows a nonzero cache hit rate, and shuts down cleanly
  (every worker exits 0);
* the ISSUE acceptance point — ``repro live compare --policy lard
  --nodes 4 --trace <fixture>`` — completes end-to-end with live cache
  hit ratio and hand-off fraction within thresholds of the sim.
"""

import asyncio

import pytest

from repro.cli import main as repro_main
from repro.live import LiveCluster, LiveClusterConfig, LoadTestConfig, run_loadtest
from repro.servers import make_policy
from repro.workload import synthesize

pytestmark = pytest.mark.live


def small_trace(requests=600, seed=0):
    return synthesize("calgary", num_requests=requests, seed=seed)


@pytest.mark.parametrize("policy_name", ["traditional", "lard"])
def test_four_node_process_cluster_smoke(tmp_path, policy_name):
    trace = small_trace()
    cluster = LiveCluster(
        make_policy(policy_name),
        trace,
        LiveClusterConfig(nodes=4, backend_mode="process", root=tmp_path),
    )

    async def run():
        await cluster.start()
        procs = list(cluster._procs)
        assert len(procs) == 4
        try:
            result = await run_loadtest(
                cluster, trace, LoadTestConfig(concurrency=8, passes=2)
            )
        finally:
            await cluster.stop()
        return result, procs

    result, procs = asyncio.run(run())
    # Request conservation: generated == warmed + measured + failed.
    assert result.verify() == []
    assert result.requests_measured == len(trace)
    assert result.requests_failed == 0
    # Second pass over a cached working set must hit.
    assert 1.0 - result.miss_rate > 0.0
    # Clean shutdown: every worker exited voluntarily (exit code 0).
    assert [p.returncode for p in procs] == [0, 0, 0, 0]


def test_failed_boot_leaves_no_worker_running(tmp_path, monkeypatch):
    # Node 2's worker comes up, but its handshake is then rejected: the
    # raising start() must still reap it and every sibling it spawned.
    spawned = []
    read_handshake = LiveCluster._read_handshake

    async def flaky_handshake(proc, node_id):
        spawned.append(proc)
        port = await read_handshake(proc, node_id)
        if node_id == 2:
            raise RuntimeError("planted bad handshake")
        return port

    monkeypatch.setattr(
        LiveCluster, "_read_handshake", staticmethod(flaky_handshake)
    )
    cluster = LiveCluster(
        make_policy("lard"),
        small_trace(requests=100),
        LiveClusterConfig(nodes=4, backend_mode="process", root=tmp_path),
    )
    with pytest.raises(RuntimeError, match="planted bad handshake"):
        asyncio.run(cluster.start())
    assert len(spawned) == 4
    assert all(proc.returncode is not None for proc in spawned)
    assert cluster._procs == [] and cluster.frontend is None


def test_inline_cluster_serves_and_conserves(tmp_path):
    # The hermetic deployment shape used by the loadtest CLI's
    # --backend-mode inline: same conservation contract, no subprocesses.
    trace = small_trace(requests=300)
    cluster = LiveCluster(
        make_policy("round-robin"),
        trace,
        LiveClusterConfig(nodes=4, backend_mode="inline", root=tmp_path),
    )

    async def run():
        await cluster.start()
        try:
            result = await run_loadtest(
                cluster, trace, LoadTestConfig(concurrency=8, passes=2)
            )
            backends = await cluster.backend_stats()
        finally:
            await cluster.stop()
        return result, backends

    result, backends = asyncio.run(run())
    assert result.verify() == []
    # Every measured completion is attributable to exactly one backend.
    assert sum(b["served"] for b in backends) == result.requests_measured
    assert sum(b["cache_hits"] for b in backends) > 0


def test_acceptance_compare_lard_4_nodes_within_thresholds(tmp_path):
    """ISSUE acceptance: ``repro live compare --policy lard --nodes 4
    --trace <fixture>`` exits 0 with both structural metrics in band."""
    fixture = tmp_path / "fixture.npz"
    small_trace(requests=800, seed=1).save(fixture)
    exit_code = repro_main(
        [
            "live",
            "compare",
            "--policy",
            "lard",
            "--nodes",
            "4",
            "--trace",
            str(fixture),
            "--requests",
            "800",
            "--root",
            str(tmp_path / "files"),
        ]
    )
    assert exit_code == 0  # within thresholds, conservation clean
