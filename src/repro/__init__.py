"""repro — reproduction of *Evaluating Cluster-Based Network Servers*
(Carrera & Bianchini, HPDC 2000).

The package provides both instruments of the paper:

* :mod:`repro.model` — the analytic open M/M/1 queuing-network model
  bounding locality-oblivious and locality-conscious server throughput
  (figures 3–6 and the "model" curves of figures 7–10);
* :mod:`repro.sim` + :mod:`repro.cluster` + :mod:`repro.servers` — the
  detailed trace-driven simulator of the traditional, LARD, and L2S
  servers (figures 7–10 and the Section 5.2 analyses);
* :mod:`repro.workload` — Zipf workloads and Table-2 trace synthesis;
* :mod:`repro.des` — the discrete-event kernel underneath it all;
* :mod:`repro.experiments` — one entry point per paper table/figure.

Quickstart::

    from repro import run_simulation, model_bound_for_trace
    result = run_simulation("calgary", "l2s", nodes=16, num_requests=20_000)
    bound = model_bound_for_trace("calgary", nodes=16)
    print(result.throughput_rps, bound.throughput)

The names below are exported lazily (PEP 562): ``import repro`` loads
no subpackage, and each name imports its defining module on first
access.  A live back-end worker (``python -m repro.live.backend``)
therefore starts without numpy or the simulator.  The imports under
``TYPE_CHECKING`` are the same names for type checkers and simlint.
"""

import importlib
from typing import TYPE_CHECKING, Any

if TYPE_CHECKING:
    from .cluster import Cluster, ClusterConfig
    from .faults import AvailabilityTimeline, FaultSchedule, RetryPolicy
    from .model import ModelParameters, compute_surfaces, throughput_increase
    from .servers import (
        ConsistentHashPolicy,
        L2SPolicy,
        LARDPolicy,
        RoundRobinPolicy,
        TraditionalPolicy,
        make_policy,
    )
    from .sim import SimResult, Simulation, model_bound_for_trace, run_simulation
    from .workload import Trace, synthesize

__version__ = "1.0.0"

__all__ = [
    "__version__",
    "ClusterConfig",
    "Cluster",
    "ModelParameters",
    "compute_surfaces",
    "throughput_increase",
    "TraditionalPolicy",
    "RoundRobinPolicy",
    "LARDPolicy",
    "L2SPolicy",
    "ConsistentHashPolicy",
    "make_policy",
    "FaultSchedule",
    "RetryPolicy",
    "AvailabilityTimeline",
    "Simulation",
    "SimResult",
    "run_simulation",
    "model_bound_for_trace",
    "Trace",
    "synthesize",
]

#: Defining submodule -> the public names it supplies.
_SOURCES = {
    ".cluster": ("Cluster", "ClusterConfig"),
    ".faults": ("AvailabilityTimeline", "FaultSchedule", "RetryPolicy"),
    ".model": ("ModelParameters", "compute_surfaces", "throughput_increase"),
    ".servers": (
        "ConsistentHashPolicy", "L2SPolicy", "LARDPolicy",
        "RoundRobinPolicy", "TraditionalPolicy", "make_policy",
    ),
    ".sim": ("SimResult", "Simulation", "model_bound_for_trace", "run_simulation"),
    ".workload": ("Trace", "synthesize"),
}
_LAZY = {name: module for module, names in _SOURCES.items() for name in names}


def __getattr__(name: str) -> Any:
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(module, __name__), name)
    globals()[name] = value
    return value
