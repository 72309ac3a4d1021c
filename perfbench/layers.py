"""Attribute a cProfile run to the system's layers.

Every profiled function is assigned to one layer by the file that defines
it.  A built-in function (``heapq.heappush``, ``socket.send``, ...) has no
file of its own, so its time is split over its callers, edge by edge, and
lands in each caller's layer.  The result is, per layer, the share of the
profiled busy time and the number of calls into the layer's Python
functions.  Time the event loop spends blocked waiting for sockets is
idle, not busy, and is reported on its own.  Self times carry cProfile's
per-call overhead, so compare shares between commits, not against
unprofiled wall time; call counts are exact and, for the simulator,
which profiles one fixed cycle of jobs, repeat run to run.
"""

from __future__ import annotations

import pstats
from typing import Dict, Tuple

#: Layer names, in report order.  The first seven are the simulator's
#: layers, the next four the live front-end's; ``other`` takes the rest
#: (numpy, the benchmark's own code, the interpreter's library).
LAYERS = (
    "kernel",        # repro.des: event heap, dispatch, timeouts, processes
    "resources",     # repro.des.resources: request/grant/release
    "lifecycle",     # repro.sim: request lifecycle and closed-loop injection
    "policy",        # repro.servers: initial_node / decide / hooks
    "cache",         # repro.cluster cache classes
    "interconnect",  # repro.cluster.network and repro.netfaults
    "node",          # repro.cluster node, cluster and DFS models
    "http",          # repro.live.http11: parse and render
    "route",         # repro.live.engine: policy engine and membership
    "relay",         # repro.live.frontend: dispatch, fetch, relay
    "eventloop",     # asyncio, selectors and sockets
    "other",
)

# (path fragment, layer); the first fragment found in a file name wins.
_BY_FILE = (
    ("/repro/des/resources.py", "resources"),
    ("/repro/des/", "kernel"),
    ("/repro/sim/", "lifecycle"),
    ("/repro/servers/", "policy"),
    ("/repro/cluster/cache.py", "cache"),
    ("/repro/cluster/policies.py", "cache"),
    ("/repro/cluster/network.py", "interconnect"),
    ("/repro/netfaults/", "interconnect"),
    ("/repro/cluster/", "node"),
    ("/repro/live/http11.py", "http"),
    ("/repro/live/engine.py", "route"),
    ("/repro/live/clock.py", "route"),
    ("/repro/live/frontend.py", "relay"),
    ("/asyncio/", "eventloop"),
    ("/selectors.py", "eventloop"),
    ("/socket.py", "eventloop"),
)

#: Built-ins in which the event loop blocks waiting for I/O.
_WAITS = ("select.epoll", "select.poll", "select.select")


def layer_of(filename: str) -> str:
    """The layer of the code defined in ``filename``."""
    path = filename.replace("\\", "/")
    for fragment, layer in _BY_FILE:
        if fragment in path:
            return layer
    return "other"


def _is_builtin(func: Tuple[str, int, str]) -> bool:
    return func[0] == "~"


def attribute(profile) -> Tuple[Dict[str, float], Dict[str, int], float]:
    """Split a finished ``cProfile.Profile`` into per-layer self time.

    Returns ``(seconds, calls, idle)``: each layer's busy self time in
    seconds, the calls made into the layer's Python functions, and the
    seconds spent blocked in the event loop's I/O wait.
    """
    stats = pstats.Stats(profile).stats
    idle = 0.0
    seconds = dict.fromkeys(LAYERS, 0.0)
    calls = dict.fromkeys(LAYERS, 0)
    for func, (_, ncalls, tottime, _, callers) in stats.items():
        if not _is_builtin(func):
            layer = layer_of(func[0])
            seconds[layer] += tottime
            calls[layer] += ncalls
            continue
        if any(wait in func[2] for wait in _WAITS):
            idle += tottime
            continue
        attributed = 0.0
        for caller, edge in callers.items():
            if _is_builtin(caller):
                continue
            seconds[layer_of(caller[0])] += edge[2]
            attributed += edge[2]
        seconds["other"] += max(0.0, tottime - attributed)
    return seconds, calls, idle


def callbacks(profile) -> int:
    """Callbacks the asyncio event loop ran: calls of ``Handle._run``."""
    return sum(
        ncalls
        for func, (_, ncalls, _, _, _) in pstats.Stats(profile).stats.items()
        if func[2] == "_run" and func[0].replace("\\", "/").endswith("/asyncio/events.py")
    )


def layer_metrics(profile, requests: int) -> Dict[str, Tuple[float, str]]:
    """Per-layer metrics of one profiled run over ``requests`` requests.

    ``<layer>_pct`` is the layer's share of profiled busy time,
    ``<layer>_calls`` the calls into it per request,
    ``profiled_us_per_request`` the profiled busy time per request, and
    ``idle_pct`` the share of profiled time spent waiting for I/O.
    """
    seconds, calls, idle = attribute(profile)
    total = sum(seconds.values())
    out: Dict[str, Tuple[float, str]] = {}
    for layer in LAYERS:
        out[f"{layer}_pct"] = (100.0 * seconds[layer] / total if total else 0.0, "%")
    for layer in LAYERS[:-1]:
        out[f"{layer}_calls"] = (calls[layer] / requests if requests else 0.0, "count")
    out["profiled_us_per_request"] = (
        1e6 * total / requests if requests else 0.0, "us"
    )
    out["idle_pct"] = (100.0 * idle / (total + idle) if total + idle else 0.0, "%")
    return out
