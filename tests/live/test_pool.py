"""Marked ``live``: pooled keep-alive hops and the per-request chaos proxy.

The cluster's internal hops (front-end → back-end, back-end → back-end
relays) reuse open connections from an ``http11.ConnectionPool``.  These
tests pin the pool's contract on real loopback sockets: one connection
per (caller, back-end) pair under sequential load, stale idle
connections dropped before reuse, a timed-out connection never returned
to the pool, bounded shutdown with warm pools, and chaos faults judged
per request rather than per connection.
"""

import asyncio

import pytest

from repro.live import (
    ChaosProxy,
    LiveCluster,
    LiveClusterConfig,
    LoadTestConfig,
    run_loadtest,
)
from repro.live import http11
from repro.live.backend import BackendServer
from repro.live.clock import Deadline
from repro.live.fileset import materialize_fileset
from repro.servers import make_policy
from repro.workload import synthesize

pytestmark = pytest.mark.live

HOST = "127.0.0.1"


def get(path):
    return http11.render_request("GET", path, keep_alive=True)


def small_trace(requests=200):
    return synthesize("calgary", num_requests=requests, seed=3)


def inline_cluster(tmp_path, policy="lard", requests=200):
    trace = small_trace(requests)
    cluster = LiveCluster(
        make_policy(policy),
        trace,
        LiveClusterConfig(nodes=4, backend_mode="inline", root=tmp_path),
    )
    return cluster, trace


async def started_backend(tmp_path):
    trace = small_trace()
    materialize_fileset(trace, tmp_path)
    backend = BackendServer(node_id=0, root=tmp_path, cache_bytes=1 << 20)
    await backend.start()
    return backend, int(trace.file_ids[0])


def test_sequential_requests_open_one_connection_per_hop(tmp_path):
    cluster, trace = inline_cluster(tmp_path)

    async def run():
        await cluster.start()
        try:
            result = await run_loadtest(
                cluster, trace,
                LoadTestConfig(concurrency=1, passes=1, warmup_fraction=0.0),
            )
            return result, await cluster.backend_stats()
        finally:
            await cluster.stop()

    result, backends = asyncio.run(run())
    assert result.verify() == []
    assert result.requests_failed == 0
    assert sum(b["relayed"] for b in backends) > 0  # LARD hands off
    # Per back-end: one pooled connection from the front-end, at most one
    # from each other back-end's relay pool, and the /stats scrape.
    nodes = cluster.config.nodes
    for b in backends:
        assert b["connections"] <= 1 + (nodes - 1) + 1, b


def test_idle_connection_closed_by_peer_is_dropped_not_failed(tmp_path):
    async def run():
        backend, fid = await started_backend(tmp_path)
        pool = http11.ConnectionPool(HOST)
        try:
            first = await pool.request(backend.port, get(f"/f/{fid}"))
            assert len(pool._idle[backend.port]) == 1
            backend.close_idle()  # the peer closes the idle connection
            await asyncio.sleep(0.05)
            second = await pool.request(backend.port, get(f"/f/{fid}"))
        finally:
            pool.close()
            await backend.stop()
        return first, second, backend

    first, second, backend = asyncio.run(run())
    assert (first.status, second.status) == (200, 200)
    assert backend.connections == 2  # the stale connection was replaced
    assert backend.errors == 0


def test_timeout_mid_response_closes_the_connection():
    async def run():
        peer_saw_eof = asyncio.Event()

        class HalfResponder(asyncio.Protocol):
            def connection_made(self, transport):
                self.transport = transport

            def data_received(self, data):
                self.transport.write(
                    b"HTTP/1.1 200 OK\r\nContent-Length: 100\r\n\r\npartial"
                )

            def eof_received(self):
                peer_saw_eof.set()

        loop = asyncio.get_running_loop()
        server = await loop.create_server(HalfResponder, HOST, 0)
        port = server.sockets[0].getsockname()[1]
        pool = http11.ConnectionPool(HOST)
        try:
            with pytest.raises(asyncio.TimeoutError):
                with Deadline(0.2):
                    await pool.request(port, get("/f/1"))
            idle = pool._idle.get(port, [])
            await asyncio.wait_for(peer_saw_eof.wait(), 2.0)
        finally:
            pool.close()
            server.close()
            await server.wait_closed()
        return idle

    assert asyncio.run(run()) == []


def test_stop_is_bounded_with_warm_pools(tmp_path):
    cluster, trace = inline_cluster(tmp_path)

    async def run():
        await cluster.start()
        await run_loadtest(
            cluster, trace,
            LoadTestConfig(concurrency=4, passes=1, warmup_fraction=0.0),
        )
        pools = [cluster.frontend.pool] + [b.pool for b in cluster._inline]
        warm = [c for p in pools for conns in p._idle.values() for c in conns]
        assert cluster.frontend.pool._idle[cluster.backend_ports[0]]
        backends = list(cluster._inline)
        await asyncio.wait_for(cluster.stop(), timeout=5.0)
        return warm, pools, backends

    warm, pools, backends = asyncio.run(run())
    assert warm and all(c.transport.is_closing() for c in warm)
    assert all(not p._idle for p in pools)
    assert all(not b._connections for b in backends)


def test_link_down_severs_carried_connections(tmp_path):
    async def run():
        backend, fid = await started_backend(tmp_path)
        proxy = ChaosProxy(node_id=0, upstream_port=backend.port)
        port = await proxy.start()
        pool = http11.ConnectionPool(HOST)
        try:
            assert (await pool.request(port, get(f"/f/{fid}"))).status == 200
            assert len(pool._idle[port]) == 1
            proxy.link_down = True
            await asyncio.sleep(0.05)
            with pytest.raises((ConnectionError, http11.HTTPError)):
                await pool.request(port, get(f"/f/{fid}"))
            proxy.link_down = False
            after = await pool.request(port, get(f"/f/{fid}"))
        finally:
            pool.close()
            await proxy.stop()
            await backend.stop()
        return after, proxy

    after, proxy = asyncio.run(run())
    assert after.status == 200
    # The severed idle connection was dropped, the request on a fresh
    # one refused, and the link's return served on a third.
    assert proxy.connections == 3
    assert proxy.refused == 1


def test_loss_is_judged_per_request_over_pooled_connections(tmp_path):
    requests = 80

    async def run():
        backend, fid = await started_backend(tmp_path)
        proxy = ChaosProxy(
            node_id=0, upstream_port=backend.port, seed=5, loss=0.5
        )
        port = await proxy.start()
        pool = http11.ConnectionPool(HOST)
        failed = 0
        try:
            for _ in range(requests):
                try:
                    await pool.request(port, get(f"/f/{fid}"))
                except (ConnectionError, http11.HTTPError):
                    failed += 1
        finally:
            pool.close()
            await proxy.stop()
            await backend.stop()
        return failed, proxy

    failed, proxy = asyncio.run(run())
    assert proxy.requests == requests
    assert proxy.dropped == failed
    assert 0.3 * requests <= failed <= 0.7 * requests
