"""``repro.live`` — a real asyncio cluster driven by the simulator's policies.

The simulator's distribution policies (:mod:`repro.servers`) are pure
logic behind the :class:`~repro.servers.Clock` / cluster-surface
interface.  This package is the second execution substrate for that
logic: an HTTP/1.1 front-end (hand-rolled over ``asyncio.Protocol``,
like the paper's event-driven servers) that admits real TCP requests and
consults the *same policy objects* the DES runs, dispatching to back-end
worker processes that serve a materialized file set from disk through
the *same* :class:`~repro.cluster.cache.LRUFileCache` the simulated
nodes use.

Everything is stdlib ``asyncio`` — no new runtime dependencies.

Layers
------
:mod:`repro.live.engine`
    :class:`PolicyEngine` — binds a ``DistributionPolicy`` to a live
    membership view (open-connection counts, failure marks) and a
    zero-latency local control plane, with a wall clock as the injected
    time source.
:mod:`repro.live.backend`
    One back-end worker: LRU-cached file service plus the TCP hand-off
    relay (``python -m repro.live.backend`` runs it as a process).
:mod:`repro.live.frontend`
    The front-end: parses HTTP/1.1, routes through the PolicyEngine,
    hands forwarded requests to the *initial* node which relays them to
    the target over a second TCP connection — mirroring the simulator's
    hand-off accounting with real sockets.
:mod:`repro.live.cluster`
    :class:`LiveCluster` — materializes the file set, boots the
    back-ends (subprocesses by default), wires the front-end.
:mod:`repro.live.loadtest`
    Replays the *identical* arrival sequence the sim driver injects
    (``Trace.replay_ids``) and emits a ``SimResult``-compatible object.
:mod:`repro.live.compare`
    Runs sim and live on the same (trace, policy, node-count) point and
    reports structural divergence against thresholds.
:mod:`repro.live.faultproxy`
    Live fault injection: per-node TCP chaos proxies (loss/delay/jitter/
    link_out), health probes with mark-down/mark-up, and the
    :class:`LiveFaultInjector` that executes a chaos
    :class:`~repro.chaos.spec.Scenario`'s plan with real signals
    (SIGKILL/SIGSTOP/SIGCONT + incarnation-bumped respawn).
:mod:`repro.live.timeline`
    :class:`LiveAvailabilityTimeline` — the sim's availability
    instrument sampled from an asyncio task, same rows/CSV/render.
:mod:`repro.live.chaos`
    ``repro live chaos``: one scenario file, both substrates, one
    availability/hit-ratio/hand-off scorecard.

The names below are exported lazily (PEP 562): importing
:mod:`repro.live.backend` loads only that worker's own modules, so each
worker process the cluster boots starts without numpy, the simulator or
the chaos runner.

See ``docs/LIVE.md`` for the architecture, the resilience layer, and
the known sim-vs-live gaps.
"""

import importlib
from typing import TYPE_CHECKING, Any

if TYPE_CHECKING:
    from .chaos import LiveChaosOutcome, run_live_scenario
    from .clock import WallClock
    from .compare import CompareReport, run_compare
    from .cluster import LiveCluster, LiveClusterConfig
    from .engine import LiveUnsupported, PolicyEngine, RouteOutcome
    from .faultproxy import (
        ChaosProxy,
        HealthMonitor,
        LiveFaultInjector,
        ResilienceConfig,
    )
    from .loadtest import LoadTestConfig, Replay, run_loadtest
    from .timeline import LiveAvailabilityTimeline

__all__ = [
    "WallClock",
    "PolicyEngine",
    "RouteOutcome",
    "LiveUnsupported",
    "LiveCluster",
    "LiveClusterConfig",
    "LoadTestConfig",
    "Replay",
    "run_loadtest",
    "CompareReport",
    "run_compare",
    "ChaosProxy",
    "HealthMonitor",
    "LiveFaultInjector",
    "ResilienceConfig",
    "LiveAvailabilityTimeline",
    "LiveChaosOutcome",
    "run_live_scenario",
]

#: Defining submodule -> the public names it supplies.
_SOURCES = {
    ".chaos": ("LiveChaosOutcome", "run_live_scenario"),
    ".clock": ("WallClock",),
    ".compare": ("CompareReport", "run_compare"),
    ".cluster": ("LiveCluster", "LiveClusterConfig"),
    ".engine": ("LiveUnsupported", "PolicyEngine", "RouteOutcome"),
    ".faultproxy": (
        "ChaosProxy", "HealthMonitor", "LiveFaultInjector", "ResilienceConfig",
    ),
    ".loadtest": ("LoadTestConfig", "Replay", "run_loadtest"),
    ".timeline": ("LiveAvailabilityTimeline",),
}
_LAZY = {name: module for module, names in _SOURCES.items() for name in names}


def __getattr__(name: str) -> Any:
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(module, __name__), name)
    globals()[name] = value
    return value
