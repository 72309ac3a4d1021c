"""``repro.faults`` — fault injection, recovery, and availability timelines.

The paper's central argument for L2S is robustness: LARD's dedicated
front-end "represents both a single point of failure and a potential
bottleneck", while L2S "has no single point of failure" (Section 4).
This package makes that claim measurable beyond a single static crash:

* :class:`FaultSchedule` / :class:`FaultEvent` — deterministic timed
  events (``crash``, ``recover``, ``slow``) plus a seeded stochastic
  MTBF/MTTR generator;
* :class:`FaultInjector` — the ``call_later`` chain that executes a
  schedule (timed events) and fires count-triggered events from the
  driver's completion hook;
* :class:`RetryPolicy` — client-side timeout and capped exponential
  backoff for aborted requests;
* :class:`AvailabilityTimeline` / :class:`TimelineSample` — sampled
  goodput, failure/retry counts, per-window miss rate (the cache-reheat
  transient), and per-node state over simulated time.

Recovery semantics (wired through :mod:`repro.sim` and the policies):
a recovering node rejoins with a **cold cache** and zero connections;
in-flight requests on a crashed node abort and, under a retry policy,
are re-issued after backoff; each policy repairs its own distributed
state on death *and* rejoin (see ``docs/FAULTS.md``).
"""

from .injector import FaultInjector
from .schedule import FaultEvent, FaultSchedule, RetryPolicy
from .timeline import AvailabilityTimeline, TimelineSample

__all__ = [
    "FaultEvent",
    "FaultSchedule",
    "FaultInjector",
    "RetryPolicy",
    "AvailabilityTimeline",
    "TimelineSample",
]
