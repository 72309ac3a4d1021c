"""Boot and tear down a complete localhost cluster.

:class:`LiveCluster` owns the whole stack: it materializes the trace's
file set, starts one back-end per node (real subprocesses by default,
all booting at once; in-process servers for hermetic tests), builds the
:class:`~repro.live.engine.PolicyEngine` around the chosen policy, and
wires the front-end.  Back-end caches are sized from the same
``cache_bytes`` knob as the simulated nodes' caches
(:class:`repro.cluster.config.ClusterConfig` defaults to 32 MB), which
is what makes live and simulated hit ratios comparable.  A worker runs
``python -m repro.live.backend``, whose import graph is the stdlib plus
the cache, ``http11`` and ``fileset`` (the package exports are lazy), so
a boot or a respawn costs one lean interpreter start per worker.  A
boot that fails part way reaps every worker it spawned before it
re-raises.

Chaos mode (:meth:`LiveCluster.enable_chaos`, process back-ends only)
interposes one :class:`~repro.live.faultproxy.ChaosProxy` per node and
starts a :class:`~repro.live.faultproxy.HealthMonitor`: the front-end
and the probes address the stable proxy ports, the cluster keeps the
real worker ports for admin traffic (``/stats``, ``/reset``, ``/warm``),
and :meth:`kill_backend`/:meth:`respawn_backend`/
:meth:`suspend_backend`/:meth:`resume_backend` give the
:class:`~repro.live.faultproxy.LiveFaultInjector` its verbs.  A respawn
spawns a fresh worker with a bumped ``--incarnation`` and repoints the
proxy, so node *addresses* survive crash-reboot exactly like sim node
ids do.
"""

from __future__ import annotations

import asyncio
import json
import os
import signal
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional

from ..servers import DistributionPolicy
from ..workload.traces import Trace
from . import http11
from .backend import BackendServer
from .clock import Deadline
from .engine import PolicyEngine
from .faultproxy import ChaosProxy, HealthMonitor, ResilienceConfig
from .fileset import materialize_fileset
from .frontend import FrontEnd

__all__ = ["LiveCluster", "LiveClusterConfig"]

MB = 1024 * 1024

#: Seconds to wait for a backend subprocess to print its handshake.
BACKEND_BOOT_TIMEOUT_S = 20.0

#: Seconds to wait for a backend to answer a /shutdown POST.  A
#: SIGSTOPped or wedged worker never answers; shutdown then falls
#: through to the SIGKILL escalation below instead of hanging forever.
SHUTDOWN_POST_TIMEOUT_S = 2.0

#: Seconds to wait for a worker to exit after /shutdown before SIGKILL.
SHUTDOWN_WAIT_TIMEOUT_S = 5.0

#: Seconds to wait for an admin scrape (/stats, /reset, /warm).
ADMIN_TIMEOUT_S = 5.0


@dataclass
class LiveClusterConfig:
    """Shape of the live cluster (the live twin of ``ClusterConfig``)."""

    nodes: int = 4
    #: Per-node LRU capacity; default matches the sim's 32 MB nodes.
    cache_bytes: int = 32 * MB
    host: str = "127.0.0.1"
    #: "process" = one subprocess per back-end (the real deployment
    #: shape); "inline" = back-ends in this event loop (hermetic tests).
    backend_mode: str = "process"
    #: Directory for the materialized file set (required).
    root: Path = field(default_factory=lambda: Path("live-fileset"))

    def __post_init__(self) -> None:
        if self.nodes < 1:
            raise ValueError(f"nodes must be >= 1, got {self.nodes}")
        if self.cache_bytes <= 0:
            raise ValueError("cache_bytes must be positive")
        if self.backend_mode not in ("process", "inline"):
            raise ValueError(f"unknown backend_mode {self.backend_mode!r}")
        self.root = Path(self.root)


class LiveCluster:
    """A running (front-end, back-ends, engine) triple."""

    def __init__(
        self,
        policy: DistributionPolicy,
        trace: Trace,
        config: Optional[LiveClusterConfig] = None,
    ) -> None:
        self.config = config or LiveClusterConfig()
        self.trace = trace
        self.engine = PolicyEngine(policy, self.config.nodes)
        self.frontend: Optional[FrontEnd] = None
        #: Ports the front-end and probes address: real worker ports, or
        #: the stable proxy ports in chaos mode.
        self.backend_ports: List[int] = []
        #: Real worker ports (admin traffic always goes direct).
        self.real_ports: List[int] = []
        self._procs: List[asyncio.subprocess.Process] = []
        self._proc_by_node: Dict[int, asyncio.subprocess.Process] = {}
        self._inline: List[BackendServer] = []
        self._suspended: set = set()
        self.incarnations: List[int] = [0] * self.config.nodes
        self.proxies: List[ChaosProxy] = []
        self.monitor: Optional[HealthMonitor] = None
        self.resilience: Optional[ResilienceConfig] = None
        #: :class:`~repro.overload.OverloadControl` handed to the
        #: front-end; set before :meth:`start` (like ``resilience``).
        self.overload = None
        self._chaos: Optional[Dict[str, Any]] = None
        self.kills = 0
        self.respawns = 0

    @property
    def frontend_port(self) -> int:
        assert self.frontend is not None, "cluster not started"
        return self.frontend.port

    def enable_chaos(
        self,
        seed: int = 0,
        loss: float = 0.0,
        delay_s: float = 0.0,
        jitter_s: float = 0.0,
        resilience: Optional[ResilienceConfig] = None,
    ) -> None:
        """Arm chaos mode; must be called before :meth:`start`.

        Faults need real processes to kill/suspend, so chaos requires
        ``backend_mode="process"``.
        """
        if self.config.backend_mode != "process":
            raise RuntimeError(
                "chaos mode needs process back-ends "
                f"(backend_mode={self.config.backend_mode!r})"
            )
        if self.backend_ports:
            raise RuntimeError("enable_chaos must precede start()")
        self._chaos = {
            "seed": seed, "loss": loss, "delay_s": delay_s,
            "jitter_s": jitter_s,
        }
        self.resilience = resilience or ResilienceConfig()

    # -- lifecycle ---------------------------------------------------------

    async def start(self) -> int:
        """Materialize files, boot back-ends, start the front-end.

        Returns the front-end's listening port.  A boot that fails part
        way (a bad handshake, the boot timeout, a front-end bind error)
        kills every worker it spawned and :meth:`stop`s whatever else it
        started before re-raising, so no caller has to clean up after a
        ``start()`` that raised.
        """
        try:
            return await self._boot()
        except BaseException:
            for proc in self._procs:
                if proc.returncode is None:
                    try:
                        proc.kill()
                    except ProcessLookupError:
                        pass
            await self.stop()
            raise

    async def _boot(self) -> int:
        # File materialization is blocking disk I/O (open/truncate per
        # touched file); run it off-loop so a large population doesn't
        # stall the event loop during boot (simlint REP105).
        loop = asyncio.get_running_loop()
        await loop.run_in_executor(
            None, materialize_fileset, self.trace, self.config.root
        )
        if self.config.backend_mode == "process":
            await self._start_backend_processes()
        else:
            await self._start_inline_backends()
        if self._chaos is not None:
            await self._start_proxies()
            self.monitor = HealthMonitor(
                self.engine,
                self.backend_ports,
                host=self.config.host,
                config=self.resilience,
            )
        self.frontend = FrontEnd(
            self.engine,
            self.backend_ports,
            host=self.config.host,
            monitor=self.monitor,
            resilience=self.resilience,
            overload=self.overload,
        )
        port = await self.frontend.start()
        if self.monitor is not None:
            self.monitor.start()
        return port

    async def stop(self) -> None:
        """Clean shutdown: front-end first, then every back-end.

        Robust against faulted workers: suspended processes are resumed
        first, the /shutdown POST is bounded (a wedged worker cannot
        stall teardown), and any process still alive after the grace
        window is SIGKILLed and reaped — including killed-and-respawned
        incarnations, so no orphan ever outlives the cluster.
        """
        # SIGCONT anything still suspended so it can serve /shutdown
        # (SIGKILL would also work — it terminates stopped processes —
        # but a resumable worker deserves the graceful path first).
        for node in sorted(self._suspended):
            proc = self._proc_by_node.get(node)
            if proc is not None and proc.returncode is None:
                try:
                    proc.send_signal(signal.SIGCONT)
                except ProcessLookupError:
                    pass
        self._suspended.clear()
        if self.monitor is not None:
            await self.monitor.stop()
        if self.frontend is not None:
            await self.frontend.stop()
        for port in self.real_ports:
            await self._admin(port, "POST", "/shutdown", SHUTDOWN_POST_TIMEOUT_S)
        for proxy in self.proxies:
            await proxy.stop()
        for server in self._inline:
            await server.stop()
        for proc in self._procs:
            if proc.returncode is not None:
                continue
            try:
                await asyncio.wait_for(
                    proc.wait(), timeout=SHUTDOWN_WAIT_TIMEOUT_S
                )
            except asyncio.TimeoutError:
                try:
                    proc.kill()
                except ProcessLookupError:
                    pass
                await proc.wait()
        self._procs.clear()
        self._proc_by_node.clear()
        self._inline.clear()
        self.proxies.clear()

    async def _start_inline_backends(self) -> None:
        for node_id in range(self.config.nodes):
            server = BackendServer(
                node_id=node_id,
                root=self.config.root,
                cache_bytes=self.config.cache_bytes,
                host=self.config.host,
            )
            port = await server.start()
            self._inline.append(server)
            self.real_ports.append(port)
            self.backend_ports.append(port)

    async def _start_backend_processes(self) -> None:
        # Every worker boots at once, each under its own handshake bound.
        # All spawns are awaited even when one fails, so that start()
        # sees every process that came up and can kill it.
        results = await asyncio.gather(
            *(self._spawn_backend(node_id, incarnation=0)
              for node_id in range(self.config.nodes)),
            return_exceptions=True,
        )
        for result in results:
            if isinstance(result, BaseException):
                raise result
        for _, port in results:
            self.real_ports.append(port)
            self.backend_ports.append(port)

    async def _start_proxies(self) -> None:
        assert self._chaos is not None
        # The front-end/probe address list now points at the proxies;
        # real_ports keeps the direct worker addresses for admin calls.
        self.backend_ports = []
        for node_id in range(self.config.nodes):
            proxy = ChaosProxy(
                node_id=node_id,
                upstream_port=self.real_ports[node_id],
                host=self.config.host,
                seed=self._chaos["seed"],
                loss=self._chaos["loss"],
                delay_s=self._chaos["delay_s"],
                jitter_s=self._chaos["jitter_s"],
            )
            port = await proxy.start()
            self.proxies.append(proxy)
            self.backend_ports.append(port)

    async def _spawn_backend(self, node_id: int, incarnation: int):
        # The workers import repro; make sure they resolve the same
        # source tree this process runs from, regardless of the parent's
        # installation style.
        import repro

        src_dir = str(Path(repro.__file__).resolve().parent.parent)
        env = dict(os.environ)
        env["PYTHONPATH"] = src_dir + os.pathsep + env.get("PYTHONPATH", "")
        proc = await asyncio.create_subprocess_exec(
            sys.executable,
            "-m",
            "repro.live.backend",
            "--node",
            str(node_id),
            "--root",
            str(self.config.root),
            "--cache-bytes",
            str(self.config.cache_bytes),
            "--host",
            self.config.host,
            "--incarnation",
            str(incarnation),
            stdout=asyncio.subprocess.PIPE,
            stderr=asyncio.subprocess.DEVNULL,
            env=env,
        )
        self._procs.append(proc)
        self._proc_by_node[node_id] = proc
        # A deadline, not ``wait_for``, so that cancelling a respawn (the
        # injector's ``stop()``) is never dropped as the handshake lands.
        with Deadline(BACKEND_BOOT_TIMEOUT_S):
            port = await self._read_handshake(proc, node_id)
        return proc, port

    @staticmethod
    async def _read_handshake(proc: asyncio.subprocess.Process, node_id: int) -> int:
        assert proc.stdout is not None
        line = (await proc.stdout.readline()).decode().strip()
        prefix = f"REPRO-LIVE-BACKEND node={node_id} port="
        if not line.startswith(prefix):
            raise RuntimeError(f"backend {node_id} bad handshake: {line!r}")
        return int(line[len(prefix):])

    # -- fault verbs (LiveFaultInjector calls these) ------------------------

    def _live_proc(self, node_id: int) -> asyncio.subprocess.Process:
        if self.config.backend_mode != "process":
            raise RuntimeError("fault verbs need process back-ends")
        proc = self._proc_by_node.get(node_id)
        if proc is None:
            raise RuntimeError(f"node {node_id} has no live process")
        return proc

    async def kill_backend(self, node_id: int) -> None:
        """SIGKILL node ``node_id``'s worker and reap it."""
        proc = self._live_proc(node_id)
        try:
            proc.kill()
        except ProcessLookupError:
            pass
        await proc.wait()
        self._suspended.discard(node_id)
        self.kills += 1

    async def respawn_backend(self, node_id: int) -> None:
        """Boot a fresh worker for ``node_id`` with a bumped incarnation.

        The new worker starts cold (empty cache) on a new ephemeral
        port; in chaos mode the node's proxy is repointed so the rest of
        the system keeps its stable address.
        """
        self.incarnations[node_id] += 1
        _, port = await self._spawn_backend(
            node_id, incarnation=self.incarnations[node_id]
        )
        self.real_ports[node_id] = port
        if self.proxies:
            self.proxies[node_id].set_upstream(port)
        else:
            self.backend_ports[node_id] = port
        self.respawns += 1

    def suspend_backend(self, node_id: int) -> None:
        """SIGSTOP node ``node_id``'s worker (the live fail-slow analog)."""
        proc = self._live_proc(node_id)
        try:
            proc.send_signal(signal.SIGSTOP)
        except ProcessLookupError:
            return
        self._suspended.add(node_id)

    def resume_backend(self, node_id: int) -> None:
        """SIGCONT a suspended worker."""
        proc = self._live_proc(node_id)
        try:
            proc.send_signal(signal.SIGCONT)
        except ProcessLookupError:
            pass
        self._suspended.discard(node_id)

    # -- meters ------------------------------------------------------------

    async def backend_stats(self) -> List[Dict[str, Any]]:
        """Scrape every back-end's ``/stats`` endpoint.

        A node that is down (killed mid-run, not yet respawned)
        contributes a zeroed placeholder instead of failing the scrape:
        whatever it served before dying is unrecoverable, and the
        client-side loadtest accounting is what conservation rests on.
        """
        stats = []
        for node_id, port in enumerate(self.real_ports):
            response = await self._admin(port, "GET", "/stats")
            if response is not None:
                stats.append(json.loads(response.body))
            else:
                stats.append({
                    "node": node_id, "served": 0, "relayed": 0, "errors": 0,
                    "cache_hits": 0, "cache_misses": 0, "cache_insertions": 0,
                    "connections": 0, "cache_evictions": 0,
                    "cache_used_bytes": 0, "cache_files": 0, "unreachable": 1,
                })
        return stats

    async def reset_meters(self) -> None:
        """Warmup boundary: zero all counters, keep cache content."""
        self.engine.reset_meters()
        if self.frontend is not None:
            self.frontend.reset_meters()
        for port in self.real_ports:
            await self._admin(port, "POST", "/reset")

    async def prewarm(self, file_ids) -> None:
        """Replay a fid sequence into *every* back-end's cache.

        The live twin of the simulator's zero-time ``_prewarm`` for
        strictly-local policies, where each node's cache sees the whole
        request stream.
        """
        body = json.dumps([int(fid) for fid in file_ids]).encode()
        for port in self.real_ports:
            await self._admin(port, "POST", "/warm", body=body)

    def live_summary(self) -> Dict[str, Any]:
        """Run-wide fault/resilience bookkeeping for the ``SimResult``."""
        out: Dict[str, Any] = {
            "kills": self.kills,
            "respawns": self.respawns,
            "incarnations": list(self.incarnations),
        }
        if self.frontend is not None:
            out["frontend_retries"] = self.frontend.retried
            out["frontend_shed"] = self.frontend.shed
            out["frontend_timeouts"] = self.frontend.timeouts
        if self.monitor is not None:
            out["health"] = self.monitor.stats()
        if self.proxies:
            out["proxies"] = [p.stats() for p in self.proxies]
        return out

    async def _admin(
        self,
        port: int,
        method: str,
        path: str,
        timeout_s: float = ADMIN_TIMEOUT_S,
        body: bytes = b"",
    ) -> Optional[http11.Response]:
        """One admin call straight to a worker; ``None`` if it failed."""
        try:
            with Deadline(timeout_s):
                return await http11.roundtrip(
                    self.config.host, port, method, path, body
                )
        except (OSError, http11.HTTPError, asyncio.TimeoutError):
            return None
