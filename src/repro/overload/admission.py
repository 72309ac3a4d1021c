"""The front door: bounded accept queue and deadline drop.

The controller models the front-end's accept queue without owning a
queue data structure (neither substrate actually parks requests — the
DES dispatches admitted requests immediately and queueing shows up as
service latency; the live front-end does the same with coroutines).
What it tracks is the *admitted in-flight population*:

* requests up to the concurrency ``limit`` are considered in service;
* requests beyond it are the backlog — the virtual accept queue, whose
  depth is bounded by ``min(queue_slots, limit)``.  Tying the queue to
  the limit matters when an adaptive limiter is attached: with a fixed
  allowance, a collapsed limit still admits ``queue_slots`` of backlog,
  those requests queue behind the bottleneck, their latencies keep the
  limiter's signal above target, and the limit never recovers — the
  controller itself becomes the metastable failure it exists to
  prevent;
* a request whose **estimated** queue wait (backlog position times the
  EWMA service latency over the limit's drain rate) already exceeds its
  deadline is rejected immediately — failing in microseconds instead of
  after ``deadline_s`` of futile queueing is precisely what keeps
  goodput up through a flash crowd.

The concurrency limit is either the static ``max_inflight`` or, when an
:class:`~repro.overload.limiter.AdaptiveConcurrencyLimit` is attached,
that limiter's current value — which is how observed back-end latency
backpressures the front door.

Substrate-neutral: every method takes ``now`` as an argument; the
controller never reads a clock (simlint REP108).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from .limiter import AdaptiveConcurrencyLimit

__all__ = ["AdmissionConfig", "AdmissionDecision", "AdmissionController"]

#: EWMA weight for the observed service latency feeding the queue-wait
#: estimate.
_LATENCY_ALPHA = 0.2


@dataclass(frozen=True)
class AdmissionConfig:
    """Knobs for one admission controller."""

    #: Static concurrency cap.  ``None`` requires an attached limiter.
    max_inflight: Optional[int] = None
    #: Bounded accept-queue depth beyond the concurrency cap; the
    #: effective bound is ``min(queue_slots, limit)`` (module docstring).
    queue_slots: int = 64
    #: Client deadline; a request whose estimated queue wait exceeds it
    #: is dropped at the door.  ``None`` disables the deadline check.
    deadline_s: Optional[float] = None

    def __post_init__(self) -> None:
        if self.max_inflight is not None and self.max_inflight < 1:
            raise ValueError(
                f"max_inflight must be >= 1, got {self.max_inflight}"
            )
        if self.queue_slots < 0:
            raise ValueError(f"queue_slots must be >= 0, got {self.queue_slots}")
        if self.deadline_s is not None and self.deadline_s <= 0:
            raise ValueError(f"deadline_s must be positive, got {self.deadline_s}")


@dataclass(frozen=True)
class AdmissionDecision:
    """Outcome of one :meth:`AdmissionController.try_admit` call."""

    admitted: bool
    #: Shed reason when rejected: "queue_full", "deadline", "unhealthy".
    reason: Optional[str] = None


_ADMITTED = AdmissionDecision(True)


class AdmissionController:
    """Shared front-door admission state (see module docstring)."""

    def __init__(
        self,
        config: Optional[AdmissionConfig] = None,
        limiter: Optional[AdaptiveConcurrencyLimit] = None,
    ):
        self.config = config or AdmissionConfig()
        self.limiter = limiter
        if self.config.max_inflight is None and limiter is None:
            raise ValueError(
                "AdmissionController needs max_inflight or an attached limiter"
            )
        #: Currently admitted, not yet released.
        self.inflight = 0
        #: Admitted grand total (run-wide).
        self.admitted = 0
        #: Shed totals by reason (run-wide).
        self.shed_by_reason: Dict[str, int] = {}
        self._ewma_latency: Optional[float] = None

    @property
    def limit(self) -> int:
        """The concurrency cap in force right now."""
        if self.limiter is not None:
            return self.limiter.limit
        assert self.config.max_inflight is not None
        return self.config.max_inflight

    @property
    def shed_total(self) -> int:
        return sum(self.shed_by_reason.values())

    def _shed(self, reason: str) -> AdmissionDecision:
        self.shed_by_reason[reason] = self.shed_by_reason.get(reason, 0) + 1
        return AdmissionDecision(False, reason)

    def try_admit(self, now: float, capacity_ok: bool = True) -> AdmissionDecision:
        """Admit or shed one arriving request.

        ``capacity_ok=False`` is the substrate saying the cluster cannot
        serve anything useful right now (the live front-end passes its
        ``MIN_HEALTHY`` health check here) — the request is shed with
        reason "unhealthy" so all shedding flows through one set of
        books on both substrates.
        """
        if not capacity_ok:
            return self._shed("unhealthy")
        limit = self.limit
        if self.inflight < limit:
            self.inflight += 1
            self.admitted += 1
            return _ADMITTED
        backlog = self.inflight - limit
        cfg = self.config
        if backlog >= min(cfg.queue_slots, limit):
            return self._shed("queue_full")
        if cfg.deadline_s is not None and self._ewma_latency is not None:
            est_wait = (backlog + 1) * self._ewma_latency / max(1, limit)
            if est_wait > cfg.deadline_s:
                return self._shed("deadline")
        self.inflight += 1
        self.admitted += 1
        return _ADMITTED

    def release(self, now: float, latency_s: Optional[float] = None) -> None:
        """An admitted request finished (completed *or* failed).

        ``latency_s`` — the observed service latency for completed
        requests — feeds the queue-wait EWMA and the attached limiter;
        pass ``None`` for failures (a fault's latency says nothing about
        the service rate).
        """
        if self.inflight > 0:
            self.inflight -= 1
        if latency_s is not None and latency_s >= 0:
            if self._ewma_latency is None:
                self._ewma_latency = latency_s
            else:
                self._ewma_latency += _LATENCY_ALPHA * (
                    latency_s - self._ewma_latency
                )
            if self.limiter is not None:
                self.limiter.observe(latency_s, now)

    def snapshot(self) -> dict:
        out = {
            "limit": self.limit,
            "inflight": self.inflight,
            "admitted": self.admitted,
            "shed": dict(sorted(self.shed_by_reason.items())),
        }
        if self.limiter is not None:
            out["limiter"] = self.limiter.snapshot()
        return out
