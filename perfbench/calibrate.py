"""Host-speed calibration.

The machines this benchmark runs on are shared: a run can land on a
host whose cores are also busy with other tenants' work, and then all
Python code runs up to ~1.6x slower for seconds at a time.  Those phases
are longer than a run, so no statistic over one run removes them.  The
benchmark therefore times a fixed probe next to every measurement (a
job, a set-up, a live time slice) and scales the measured wall time to
a host on which that probe takes its reference time::

    normalized = measured * reference / probe

A probe is only useful if the host slows it the way it slows the work
it calibrates, so each kind of work has a probe of its own kind:

``calibrate``
    A pure-Python loop doing what the simulator's hot paths do (heap
    pushes and pops, small-object attribute access, dict updates and
    method calls).  Scales simulator jobs and live time slices.
``calibrate_mixed``
    That loop plus a numpy sort, for trace synthesis, which is partly
    interpreted Python and partly numpy sorting and sampling.
``calibrate_spawn``
    Starting a Python interpreter that imports asyncio, json and numpy,
    for booting a live cluster, which is mostly starting back-end
    worker processes and importing their modules.

No probe runs any of the repository's code.  For the simulator, which
runs in one process, no change to the repository can therefore move a
probe.  The live workload is different: its probes run while the
cluster's back-end workers are up on the same cores, so a change that
gives the idle cluster background CPU work slows the probe with the
cluster and partly hides itself.  The live workload therefore also
calibrates the host while no cluster is up, and flags a run whose
calibrations with the cluster up are consistently slower
(``livebench.py``).  Every probe's raw time is kept in ``SAMPLES`` so a
run can report them next to its result.
"""

from __future__ import annotations

import gc
import heapq
import subprocess
import sys
import time

import numpy as np

#: Reference-host duration, seconds, of ``calibrate``.
REFERENCE_S = 0.010
#: Reference-host duration, seconds, of ``calibrate_mixed``, whose sort
#: takes about as long as the Python loop.
MIXED_REFERENCE_S = 2 * REFERENCE_S
#: Reference-host duration, seconds, of ``calibrate_spawn``.
SPAWN_REFERENCE_S = 0.200

_EVENTS = 7_000
_KEYS = np.random.default_rng(0).random(150_000)
_SPAWN = (sys.executable, "-c", "import asyncio, json, numpy")

#: Raw seconds of every probe this process ran, by probe name.
SAMPLES = {"python": [], "mixed": [], "spawn": []}


class _Event:
    __slots__ = ("when", "node", "size")

    def __init__(self, when: float, node: int, size: int) -> None:
        self.when = when
        self.node = node
        self.size = size

    def next_time(self, gap: float) -> float:
        return self.when + gap * (1 + (self.size & 7))


def _loop() -> int:
    heap = []
    busy = {}
    for i in range(256):
        heapq.heappush(heap, (i * 1e-3, i, _Event(i * 1e-3, i & 15, i * 37)))
    serial = 256
    for _ in range(_EVENTS):
        when, _, event = heapq.heappop(heap)
        busy[event.node] = busy.get(event.node, 0) + event.size
        event.when = event.next_time(1e-4)
        event.node = (event.node + 1) & 15
        heapq.heappush(heap, (event.when, serial, event))
        serial += 1
    return len(busy)


def _sort() -> None:
    _KEYS.argsort()
    _KEYS.argsort()


def _timed(fn) -> float:
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        fn()
        return time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


def calibrate() -> float:
    """Seconds the Python loop takes on this host right now."""
    elapsed = _timed(_loop)
    SAMPLES["python"].append(elapsed)
    return elapsed


def calibrate_mixed() -> float:
    """Seconds the Python loop plus the numpy sort take right now."""
    elapsed = _timed(_loop) + _timed(_sort)
    SAMPLES["mixed"].append(elapsed)
    return elapsed


def calibrate_spawn() -> float:
    """Seconds starting the probe interpreter takes right now."""
    elapsed = _timed(lambda: subprocess.run(_SPAWN, check=True))
    SAMPLES["spawn"].append(elapsed)
    return elapsed


def normalize(
    seconds: float, before: float, after: float, reference: float = REFERENCE_S
) -> float:
    """``seconds`` of wall time, scaled by the probes around it."""
    return seconds * 2 * reference / (before + after)


def measure(fn, probe=calibrate, reference: float = REFERENCE_S):
    """Run ``fn()``; return its result and its normalized wall time.

    The host is probed just before and just after, so a change of host
    speed during ``fn`` is half corrected, and one between measurements
    fully.
    """
    before = probe()
    t0 = time.perf_counter()
    result = fn()
    elapsed = time.perf_counter() - t0
    return result, normalize(elapsed, before, probe(), reference)
