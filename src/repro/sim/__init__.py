"""``repro.sim`` — trace-driven simulation of cluster-based servers.

Ties the substrates together: a :class:`~repro.workload.Trace` (HTTP/1.0)
or a :class:`~repro.workload.SessionTrace` (persistent connections)
drives closed-loop saturation injection (:class:`Simulation`) of
connections whose one request lifecycle (:mod:`repro.sim.lifecycle`)
exercises the simulated hardware (:mod:`repro.cluster`) under a
distribution policy (:mod:`repro.servers`), yielding a
:class:`SimResult`.
"""

from .driver import Simulation
from .results import SimResult
from .runner import (
    DEFAULT_SIM_CACHE_BYTES,
    model_bound_for_trace,
    run_simulation,
)

__all__ = [
    "Simulation",
    "SimResult",
    "run_simulation",
    "model_bound_for_trace",
    "DEFAULT_SIM_CACHE_BYTES",
]
