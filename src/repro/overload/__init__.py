"""Transport-neutral overload control: degrade gracefully, not collapse.

The paper's evaluation stops at the saturation knee; this package is
what the cluster does *past* it.  Three cooperating components, all
substrate-neutral the same way :class:`~repro.servers.DistributionPolicy`
is — the identical objects plug into the DES driver and the live
asyncio front-end:

* :class:`AdmissionController` — the front door.  A bounded accept
  queue on top of a concurrency cap, with deadline-aware drop (reject
  a request whose *estimated* queue wait already exceeds its deadline).
* :class:`CircuitBreaker` / :class:`BreakerBoard` — per-back-end
  closed/open/half-open breakers with seeded probe timing, consulted by
  the routing redispatch so traffic flows around a node that keeps
  failing instead of piling onto it.
* :class:`AdaptiveConcurrencyLimit` — AIMD backpressure:
  the concurrency cap the admission controller enforces follows the
  observed service latency, so the front-end's appetite shrinks when
  the back-ends slow down.

Substrate neutrality is enforced structurally: no component stores a
clock or reads wall time — every method that needs "now" takes it as an
argument (simulated seconds from the DES, ``clock.now`` wall seconds in
:mod:`repro.live`).  simlint's REP108 rule guards this: any
wall-clock read inside this package is a lint error.
"""

from .admission import AdmissionConfig, AdmissionController, AdmissionDecision
from .breaker import BreakerBoard, BreakerConfig, CircuitBreaker
from .control import OverloadControl
from .limiter import AdaptiveConcurrencyLimit, LimitConfig

__all__ = [
    "AdmissionConfig",
    "AdmissionController",
    "AdmissionDecision",
    "AdaptiveConcurrencyLimit",
    "BreakerBoard",
    "BreakerConfig",
    "CircuitBreaker",
    "LimitConfig",
    "OverloadControl",
]
