"""Live workload: one latency point of a 4-node LARD cluster on loopback.

``liveserver.py`` runs the cluster in a child process; this module is the
load generator.  It is a closed loop of ``CONCURRENCY`` clients (one per
back-end), each sending its next ``GET /f/<fid>`` as soon as the previous
reply arrives, over a fresh connection each time, as the cluster's
HTTP/1.0-style hand-off model expects.  File ids follow the calgary
trace for the run's seed.  One untimed pass over the trace warms caches
and LARD's server sets; then every meter is reset and the clients run
for the measured time, cycling through the trace.

Every reply is checked: status 200, a body of the file's exact size, a
cache verdict and a valid node id.  At the end the cluster's own books
must agree with the clients': the engine routed and the back-ends served
exactly the requests the clients completed, and the policy's invariants
hold.

The host is also calibrated with no cluster up, before the cluster
process starts and after it has exited.  A run whose calibrations with
the (paused) cluster up are slower than both is flagged: the cluster is
then doing background work that the normalization partly hides.
"""

from __future__ import annotations

import asyncio
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import List, Tuple

import liveserver
from calibrate import calibrate, normalize

HOST = "127.0.0.1"
CONCURRENCY = 4
#: Calibrations taken with no cluster up, before and after the run.
IDLE_PROBES = 9
#: Flag a run whose calibrations with the cluster up are slower than
#: the idle ones by more than this factor.
BUSY_FACTOR = 1.15
#: Seconds allowed for the child to boot all its clusters, and to exit.
BOOT_TIMEOUT_S = 120.0
EXIT_TIMEOUT_S = 30.0
#: Per-request client timeout; a request slower than this fails.
REQUEST_TIMEOUT_S = 10.0
#: Equal time slices the measured time is cut into; the host is
#: calibrated between slices (see ``calibrate.py``).
SLICES = 40


class Load:
    """Closed-loop clients and their books."""

    def __init__(self, port: int, ids: List[int], sizes) -> None:
        self.port = port
        self.ids = ids
        self.sizes = sizes
        self.next = 0
        self.completed = 0
        self.failed = 0
        self.hits = 0
        self.handoffs = 0
        #: Latency, in seconds, of every checked reply.
        self.latencies: List[float] = []
        self.problems: List[str] = []

    def note(self, fid: int, problem: str) -> None:
        if len(self.problems) < 10:
            self.problems.append(f"/f/{fid}: {problem}")

    async def fetch(self, fid: int) -> bytes:
        reader, writer = await asyncio.open_connection(HOST, self.port)
        try:
            writer.write(
                b"GET /f/%d HTTP/1.1\r\nHost: bench\r\nConnection: close\r\n\r\n"
                % fid
            )
            return await reader.read()
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    def check(self, fid: int, reply: bytes) -> bool:
        head, _, body = reply.partition(b"\r\n\r\n")
        lines = head.decode("latin-1").split("\r\n")
        status = lines[0].split()[1] if len(lines[0].split()) > 1 else "?"
        headers = {}
        for line in lines[1:]:
            name, _, value = line.partition(":")
            headers[name.strip().lower()] = value.strip()
        problem = None
        if status != "200":
            problem = f"status {status}"
        elif len(body) != int(self.sizes[fid]):
            problem = f"{len(body)} bytes, expected {int(self.sizes[fid])}"
        elif headers.get("x-cache") not in ("HIT", "MISS"):
            problem = f"cache verdict {headers.get('x-cache')!r}"
        elif headers.get("x-node") not in {str(n) for n in range(liveserver.NODES)}:
            problem = f"node {headers.get('x-node')!r}"
        if problem is not None:
            self.note(fid, problem)
            return False
        self.hits += headers["x-cache"] == "HIT"
        self.handoffs += headers.get("x-handoff") == "1"
        return True

    async def client(self, more) -> None:
        while more():
            fid = self.ids[self.next % len(self.ids)]
            self.next += 1
            start = time.perf_counter()
            try:
                reply = await asyncio.wait_for(self.fetch(fid), REQUEST_TIMEOUT_S)
            except (asyncio.TimeoutError, ConnectionError, OSError) as exc:
                self.failed += 1
                self.note(fid, repr(exc))
                continue
            latency = time.perf_counter() - start
            if self.check(fid, reply):
                self.completed += 1
                self.latencies.append(latency)
            else:
                self.failed += 1

    async def run(self, more) -> None:
        """Run every client until ``more()`` is false and all have replied."""
        await asyncio.gather(*(self.client(more) for _ in range(CONCURRENCY)))


class Server:
    """The child process running the cluster, and its line protocol."""

    def __init__(self, process: asyncio.subprocess.Process) -> None:
        self.process = process
        #: Raw seconds of this process's calibrations with the cluster up.
        self.busy: List[float] = []

    async def ask(self, command: bytes) -> bytes:
        self.process.stdin.write(command + b"\n")
        await self.process.stdin.drain()
        return await self.reply()

    async def reply(self, timeout: float = 30.0) -> bytes:
        line = await asyncio.wait_for(self.process.stdout.readline(), timeout)
        if not line:
            raise RuntimeError("live cluster process exited early")
        return line.strip()

    async def calibrate(self) -> float:
        """Calibrate both cores at once: here and in the child.

        The cluster's processes run on every core, and a busy neighbour
        may slow only one of them.
        """
        self.process.stdin.write(b"cal\n")
        await self.process.stdin.drain()
        mine = calibrate()
        self.busy.append(mine)
        return (mine + float(await self.reply())) / 2


async def measure_slices(load: Load, server: Server, seconds: float) -> List[Tuple]:
    """(replies, seconds, p50 ms, p90 ms) of each of ``SLICES`` slices.

    Times are normalized (see ``calibrate.py``); the run reports the
    replies per second over all slices and the median slice percentiles.

    The load pauses while the host is calibrated between slices, so the
    calibration sees the host, not the cluster.
    """
    out = []
    before = await server.calibrate()
    for _ in range(SLICES):
        first = len(load.latencies)
        t0 = time.perf_counter()
        await load.run(lambda: time.perf_counter() < t0 + seconds / SLICES)
        elapsed = time.perf_counter() - t0
        after = await server.calibrate()
        scale = normalize(1.0, before, after)
        before = after
        lat_ms = sorted(1000.0 * scale * s for s in load.latencies[first:])
        if len(lat_ms) < 2:
            raise RuntimeError("a measured slice saw fewer than two replies")
        out.append((
            len(lat_ms),
            scale * elapsed,
            statistics.median(lat_ms),
            statistics.quantiles(lat_ms, n=10, method="inclusive")[-1],
        ))
    return out


async def drive(seed: int, seconds: float, trace: bool, workdir: Path) -> dict:
    from repro.workload import synthesize

    trace_ = synthesize(liveserver.TRACE, num_requests=liveserver.REQUESTS, seed=seed)
    ids = [int(fid) for fid in trace_.file_ids]
    idle_before = statistics.median(calibrate() for _ in range(IDLE_PROBES))
    process = await asyncio.create_subprocess_exec(
        sys.executable,
        str(Path(liveserver.__file__)),
        "--seed", str(seed),
        "--root", str(workdir),
        "--profile", "1" if trace else "0",
        stdin=subprocess.PIPE,
        stdout=subprocess.PIPE,
        start_new_session=True,
    )
    server = Server(process)
    try:
        hello = json.loads(await server.reply(BOOT_TIMEOUT_S))
        load = Load(hello["port"], ids, trace_.fileset.sizes)

        await load.run(lambda: load.next < len(ids))
        warm_failed = load.failed
        if await server.ask(b"reset") != b"ok":
            raise RuntimeError("live cluster did not reset its meters")
        load.completed = load.failed = load.hits = load.handoffs = 0
        load.latencies.clear()

        slices = await measure_slices(load, server, seconds)

        process.stdin.close()
        books = json.loads(await server.reply(EXIT_TIMEOUT_S))
        await asyncio.wait_for(process.wait(), EXIT_TIMEOUT_S)
    finally:
        # The child and its back-end workers share one process group;
        # after a clean exit this finds nothing left to kill.
        try:
            os.killpg(process.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        await process.wait()
    idle_after = statistics.median(calibrate() for _ in range(IDLE_PROBES))

    problems = list(load.problems)
    if warm_failed:
        problems.append(f"{warm_failed} warm-up requests failed")
    problems += books["invariants"]
    served = sum(b["served"] for b in books["backends"])
    for name, value in (
        ("engine routed", books["engine"]["routed"]),
        ("engine completed", books["engine"]["completed"]),
        ("back-ends served", served),
    ):
        if value != load.completed + load.failed:
            problems.append(
                f"{name} {value} requests, clients finished "
                f"{load.completed + load.failed}"
            )
    for problem in problems[:10]:
        print(f"live-lard: {problem}")
    print(
        f"live-lard: {CONCURRENCY} clients, {load.completed} replies; per "
        f"slice req/s {', '.join(f'{n / t:.0f}' for n, t, _, _ in slices)}; boots "
        f"{', '.join(f'{s:.2f}' for s in hello['boot_s'])} s"
    )
    busy = statistics.median(server.busy)
    print(
        f"live-lard: raw calibration {1e3 * idle_before:.2f} ms before and "
        f"{1e3 * idle_after:.2f} ms after the cluster, {1e3 * busy:.2f} ms "
        f"with it up"
    )
    if busy > BUSY_FACTOR * max(idle_before, idle_after):
        print(
            "live-lard: FLAG calibrations with the cluster up are slower than "
            "with none; the cluster works in the background, and normalized "
            "times understate it"
        )
    attempted = load.completed + load.failed
    if trace:
        metrics = {k: tuple(v) for k, v in books["layers"].items()}
        metrics["messages_per_request"] = (
            (books["engine"]["control_messages"] + books["frontend"]["handoffs"])
            / attempted,
            "count",
        )
        metrics["cache_hit_pct"] = (100.0 * load.hits / load.completed, "%")
        metrics["handoff_pct"] = (100.0 * load.handoffs / load.completed, "%")
    else:
        requests, busy_s, p50, p90 = zip(*slices)
        metrics = {
            "requests_per_s": (sum(requests) / sum(busy_s), "1/s"),
            "latency_p50_ms": (statistics.median(p50), "ms"),
            "latency_p90_ms": (statistics.median(p90), "ms"),
            "setup_s": (statistics.median(hello["boot_s"]), "s"),
        }
    return {
        "correct": not problems,
        "attempted": attempted,
        "failed": load.failed,
        "metrics": metrics,
    }


def run(seed: int, seconds: float, trace: bool, workdir: Path) -> dict:
    try:
        return asyncio.run(drive(seed, seconds, trace, workdir))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
