"""One back-end worker: LRU-cached file service + TCP hand-off relay.

Each back-end mirrors one simulated node: it serves files from the
materialized file set through the *same*
:class:`~repro.cluster.cache.LRUFileCache` class the simulator's nodes
use (sized identically), so the live cache-hit ratio is directly
comparable with the sim's.  Cache hits serve bytes from memory; misses
read the file from disk in an executor thread (the paper's servers
likewise only block on disk for misses) and insert it, evicting LRU
files' bytes.

Hand-off: when a request arrives with an ``X-Forward-Port`` header, this
node is the *initial* node of a handed-off request — it fetches the file
from the target back-end over a pooled keep-alive connection
(:class:`~repro.live.http11.ConnectionPool`) and relays the response,
tagging it ``X-Handoff: 1``.  That is the live twin of the simulator's
hand-off accounting: the forwarding work and the extra network
round-trip happen on the initial node, the cache work on the target.

Run standalone as a process with ``python -m repro.live.backend``; the
parent reads the ``REPRO-LIVE-BACKEND node=<id> port=<port>`` handshake
line from stdout.  :class:`LiveCluster` also supports in-process mode
for hermetic tests.

Connections: a back-end is an :class:`~repro.live.http11.Server`.  A
request carrying ``Connection: keep-alive`` (the front-end's and other
back-ends' pooled hops) is answered in kind and the connection stays
open for the next request, until EOF or a request without keep-alive.
Admin calls, probes and clients get one response and a close.  A cache
hit is answered straight from ``data_received``, with no task; a miss
(a disk read) or a relay finishes in a task.  Responses go out with
``transport.write`` and no ``drain()``: each connection runs
request/response in lockstep, so at most one response is buffered.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import sys
from pathlib import Path
from typing import Awaitable, Dict, Optional, Union

from ..cluster.cache import LRUFileCache
from . import http11
from .fileset import file_name, load_manifest

__all__ = ["BackendServer", "main"]

_JSON = {"Content-Type": "application/json"}


class BackendServer(http11.Server):
    """Serves ``GET /f/<fid>`` from an LRU byte cache over disk."""

    def __init__(
        self,
        node_id: int,
        root: Path,
        cache_bytes: int,
        host: str = "127.0.0.1",
        incarnation: int = 0,
    ) -> None:
        self.node_id = node_id
        self.root = Path(root)
        self.host = host
        #: Bumped by the cluster on every respawn; surfaced via /health
        #: so the front-end's probes detect a silent kill-and-restart
        #: (the live twin of the sim nodes' incarnation counter).
        self.incarnation = incarnation
        self.cache = LRUFileCache(cache_bytes)
        #: Bytes of currently-cached files; evictions drop entries so
        #: resident bytes always equal ``cache.used_bytes``.
        self._content: Dict[int, bytes] = {}
        self.sizes = load_manifest(self.root)
        self.served = 0
        self.relayed = 0
        self.errors = 0
        #: Connections accepted (a pooled hop is one connection for
        #: many requests).
        self.connections = 0
        #: Keep-alive hops to other back-ends (hand-off relays).
        self.pool = http11.ConnectionPool(host)
        self._closing = asyncio.Event()
        #: Open connections (a dict for its deterministic order).
        self._connections: Dict[http11.ServerConnection, None] = {}

    async def serve_until_shutdown(self) -> None:
        assert self._server is not None
        await self._closing.wait()
        await self.stop()

    async def stop(self) -> None:
        """Stop accepting, close the relay pool and idle connections.

        ``Server.wait_closed`` waits for open connections on Python
        3.12+, so idle keep-alive connections are closed here; a
        connection busy with a request closes after the response.
        """
        self._closing.set()
        self.pool.close()
        self.close_idle()
        await self._stop_listening()

    def close_idle(self) -> None:
        """Close every connection waiting for its next request."""
        for connection in self._connections:
            if not connection.busy:
                connection.transport.close()

    # -- request handling --------------------------------------------------

    def opened(self, connection: http11.ServerConnection) -> None:
        self.connections += 1
        self._connections[connection] = None

    def closed(self, connection: http11.ServerConnection) -> None:
        del self._connections[connection]
        if connection.failed:
            self.errors += 1

    def received(
        self, connection: http11.ServerConnection, request: http11.Request
    ) -> None:
        keep_alive = request.keep_alive and not self._closing.is_set()
        answer = self._dispatch(request)
        if isinstance(answer, http11.Response):
            connection.reply(_render(answer, keep_alive), keep_alive)
        else:
            connection.spawn(self._finish(connection, answer, keep_alive))

    async def _finish(
        self,
        connection: http11.ServerConnection,
        answer: Awaitable[http11.Response],
        keep_alive: bool,
    ) -> None:
        try:
            response = await answer
        except (http11.HTTPError, OSError):
            # A failed relay closes the connection with no response, so
            # the caller sees a transport failure, not a status.
            connection.fail()
            return
        connection.reply(_render(response, keep_alive), keep_alive)

    def _dispatch(
        self, request: http11.Request
    ) -> Union[http11.Response, Awaitable[http11.Response]]:
        """The response, or an awaitable of it for a miss or a relay."""
        path = request.path
        if request.method == "GET" and path.startswith("/f/"):
            return self._serve_file(request)
        if request.method == "GET" and path == "/health":
            body = json.dumps(
                {"node": self.node_id, "incarnation": self.incarnation}
            ).encode()
            return http11.Response(200, _JSON, body)
        if request.method == "GET" and path == "/stats":
            return http11.Response(200, _JSON, json.dumps(self.stats()).encode())
        if request.method == "POST" and path == "/warm":
            self._warm(json.loads(request.body))
            return http11.Response(200, body=b"ok")
        if request.method == "POST" and path == "/reset":
            self.reset_meters()
            return http11.Response(200, body=b"ok")
        if request.method == "POST" and path == "/shutdown":
            # Arrange the event after the response is written.
            asyncio.get_running_loop().call_soon(self._closing.set)
            return http11.Response(200, body=b"bye")
        return http11.Response(404, body=b"not found")

    def _serve_file(
        self, request: http11.Request
    ) -> Union[http11.Response, Awaitable[http11.Response]]:
        try:
            fid = int(request.path[len("/f/"):])
        except ValueError:
            return http11.Response(400, body=b"bad file id")
        forward_port = request.headers.get("x-forward-port")
        if forward_port is not None:
            return self._relay(fid, int(forward_port))
        size = self.sizes.get(fid)
        if size is None:
            return http11.Response(404, body=b"no such file")
        if self.cache.lookup(fid):
            return self._served(self._content[fid], "HIT")
        return self._miss(fid, size)

    async def _miss(self, fid: int, size: int) -> http11.Response:
        body = await self._read_from_disk(fid, size)
        for evicted in self.cache.insert(fid, max(1, size)):
            self._content.pop(evicted, None)
        if fid in self.cache:
            self._content[fid] = body
        return self._served(body, "MISS")

    def _served(self, body: bytes, cached: str) -> http11.Response:
        self.served += 1
        return http11.Response(
            200, {"X-Cache": cached, "X-Node": str(self.node_id)}, body
        )

    def _warm(self, fids: list) -> None:
        """Zero-time cache warm: replay a fid sequence into the LRU.

        The live twin of the simulator's ``_prewarm`` for strictly-local
        policies (each node's cache replays the whole trace once).  No
        hit/miss accounting; content is zero bytes, identical to what a
        disk read of the sparse files returns.
        """
        for fid in fids:
            fid = int(fid)
            size = self.sizes.get(fid)
            if size is None:
                continue
            if self.cache.touch(fid):
                continue
            for evicted in self.cache.insert(fid, max(1, size)):
                self._content.pop(evicted, None)
            if fid in self.cache:
                self._content[fid] = b"\x00" * size

    async def _read_from_disk(self, fid: int, size: int) -> bytes:
        path = self.root / file_name(fid)
        loop = asyncio.get_running_loop()
        return await loop.run_in_executor(None, path.read_bytes)

    async def _relay(self, fid: int, target_port: int) -> http11.Response:
        """Hand-off: fetch ``fid`` from the target node and relay it.

        The initial node does NOT cache relayed content (the simulator's
        handed-off requests likewise only touch the target's cache).
        """
        response = await self.pool.request(
            target_port, http11.render_request("GET", f"/f/{fid}", keep_alive=True)
        )
        self.relayed += 1
        headers = {
            "X-Cache": response.headers.get("x-cache", "MISS"),
            "X-Node": response.headers.get("x-node", "?"),
            "X-Handoff": "1",
        }
        return http11.Response(response.status, headers, response.body)

    # -- meters ------------------------------------------------------------

    def stats(self) -> Dict[str, int]:
        return {
            "node": self.node_id,
            "served": self.served,
            "relayed": self.relayed,
            "errors": self.errors,
            "connections": self.connections,
            "cache_hits": self.cache.hits,
            "cache_misses": self.cache.misses,
            "cache_insertions": self.cache.insertions,
            "cache_evictions": self.cache.evictions,
            "cache_used_bytes": self.cache.used_bytes,
            "cache_files": len(self.cache),
        }

    def reset_meters(self) -> None:
        """Zero counters at the warmup boundary; cache content survives."""
        self.served = 0
        self.relayed = 0
        self.errors = 0
        self.connections = 0
        self.cache.reset_stats()


def _render(response: http11.Response, keep_alive: bool) -> bytes:
    return http11.render_response(
        response.status, response.body, response.headers, keep_alive=keep_alive
    )


async def _run(args: argparse.Namespace) -> None:
    server = BackendServer(
        node_id=args.node,
        root=Path(args.root),
        cache_bytes=args.cache_bytes,
        host=args.host,
        incarnation=args.incarnation,
    )
    port = await server.start(args.port)
    # Handshake line the parent process waits for.
    print(f"REPRO-LIVE-BACKEND node={args.node} port={port}", flush=True)
    await server.serve_until_shutdown()


def main(argv: Optional[list] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.live.backend",
        description="One repro.live back-end worker process.",
    )
    parser.add_argument("--node", type=int, required=True, help="node id")
    parser.add_argument("--root", required=True, help="materialized fileset dir")
    parser.add_argument(
        "--cache-bytes", type=int, required=True, help="LRU cache capacity"
    )
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=0, help="0 = ephemeral")
    parser.add_argument(
        "--incarnation", type=int, default=0,
        help="respawn generation, reported by /health",
    )
    args = parser.parse_args(argv)
    try:
        asyncio.run(_run(args))
    except KeyboardInterrupt:
        pass
    return 0


if __name__ == "__main__":  # pragma: no cover - subprocess entry
    sys.exit(main())
