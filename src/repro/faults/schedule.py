"""Fault schedules: *what* goes wrong, *when*, and how clients cope.

A :class:`FaultSchedule` is an ordered set of :class:`FaultEvent`\\ s:

* ``crash(node, t)`` — the node dies: its cache contents, connection
  state, and policy soft state are lost; in-flight requests there abort;
* ``recover(node, t)`` — the node reboots and rejoins with a **cold
  (flushed) cache** and a zeroed connection count;
* ``slow(node, t, factor)`` — the node's CPU runs at ``factor`` times
  its base speed until changed again (``factor=1.0`` restores it) —
  a fail-slow / brown-out model.

Events trigger either at a simulated **time** (``at`` seconds) or after
a **finished-request count** (``after_requests``), the latter mostly for
reproducible tests that pin a crash to a point in the request stream.

:meth:`FaultSchedule.stochastic` draws a seeded MTBF/MTTR crash/recover
sequence per node (exponential inter-failure and repair times), so long
availability runs can be generated reproducibly from a single seed.

:class:`RetryPolicy` describes the client side of a fault: an aborted
(or timed-out) request is retried after a capped exponential backoff,
up to ``max_retries`` attempts.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Iterable, Iterator, List, Optional, Sequence, Tuple

__all__ = ["FaultEvent", "FaultSchedule", "RetryPolicy"]

#: Recognized fault kinds.
KINDS = ("crash", "recover", "slow")


@dataclass(frozen=True)
class FaultEvent:
    """One timed (or count-triggered) fault on one node."""

    #: "crash", "recover", or "slow".
    kind: str
    #: Target node id.
    node: int
    #: Simulated time (seconds) at which the event fires.
    at: Optional[float] = None
    #: Alternative trigger: fire when this many requests have finished
    #: (completed + permanently failed).  Exactly one of ``at`` /
    #: ``after_requests`` must be set.
    after_requests: Optional[int] = None
    #: CPU speed multiplier for ``slow`` events (0.5 = half speed,
    #: 1.0 = restore).  Ignored for crash/recover.
    factor: float = 1.0

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise ValueError(f"unknown fault kind {self.kind!r}; expected {KINDS}")
        if self.node < 0:
            raise ValueError(f"node must be non-negative, got {self.node}")
        if (self.at is None) == (self.after_requests is None):
            raise ValueError("exactly one of at / after_requests must be set")
        if self.at is not None and self.at < 0:
            raise ValueError(f"at must be non-negative, got {self.at}")
        if self.after_requests is not None and self.after_requests < 0:
            raise ValueError("after_requests must be non-negative")
        if self.kind == "slow" and self.factor <= 0:
            raise ValueError(f"slow factor must be positive, got {self.factor}")

    @property
    def timed(self) -> bool:
        return self.at is not None

    @classmethod
    def parse(cls, token: str) -> "FaultEvent":
        """Parse a CLI token: ``crash:2@0.5``, ``recover:2@1.5``,
        ``slow:3@1.0x0.25`` (node 3 at t=1.0 s runs at quarter speed)."""
        try:
            kind, rest = token.strip().split(":", 1)
            node_s, when = rest.split("@", 1)
            factor = 1.0
            if "x" in when:
                when, factor_s = when.split("x", 1)
                factor = float(factor_s)
            return cls(kind=kind, node=int(node_s), at=float(when), factor=factor)
        except (ValueError, TypeError) as exc:
            if isinstance(exc, ValueError) and "fault kind" in str(exc):
                raise
            raise ValueError(
                f"cannot parse fault event {token!r}; expected "
                f"kind:NODE@TIME or slow:NODE@TIMExFACTOR"
            ) from None

    def describe(self) -> str:
        when = f"t={self.at:g}s" if self.timed else f"n={self.after_requests}"
        extra = f" x{self.factor:g}" if self.kind == "slow" else ""
        return f"{self.kind}({self.node}) @ {when}{extra}"


class FaultSchedule:
    """An ordered collection of fault events for one simulation run."""

    def __init__(self, events: Iterable[FaultEvent] = ()):
        self.events: List[FaultEvent] = list(events)
        #: Timed events sorted by time (stable for equal times).
        self.timed: List[FaultEvent] = sorted(
            (e for e in self.events if e.timed), key=lambda e: e.at
        )
        #: Count-triggered events sorted by trigger count.
        self.counted: List[FaultEvent] = sorted(
            (e for e in self.events if not e.timed), key=lambda e: e.after_requests
        )

    def __len__(self) -> int:
        return len(self.events)

    def __bool__(self) -> bool:
        return bool(self.events)

    def __iter__(self) -> Iterator[FaultEvent]:
        return iter(self.events)

    def validate(self, nodes: int) -> None:
        """Check every event targets a node inside the cluster."""
        for e in self.events:
            if not 0 <= e.node < nodes:
                raise ValueError(
                    f"fault event {e.describe()} targets node {e.node}, "
                    f"outside the {nodes}-node cluster"
                )

    def describe(self) -> str:
        return ", ".join(e.describe() for e in self.timed + self.counted) or "(empty)"

    # -- constructors -------------------------------------------------------

    @classmethod
    def parse(cls, spec: str) -> "FaultSchedule":
        """Parse a comma-separated CLI spec, e.g.
        ``"crash:2@0.5,recover:2@1.5,slow:1@0.8x0.5"``."""
        tokens = [t for t in spec.replace(";", ",").split(",") if t.strip()]
        return cls(FaultEvent.parse(t) for t in tokens)

    @classmethod
    def single_crash(
        cls,
        node: int,
        at: Optional[float] = None,
        after_requests: Optional[int] = None,
    ) -> "FaultSchedule":
        """A single crash with no recovery (the legacy experiment shape)."""
        return cls([FaultEvent("crash", node, at=at, after_requests=after_requests)])

    @classmethod
    def crash_and_recover(
        cls, node: int, crash_at: float, recover_at: float
    ) -> "FaultSchedule":
        """Crash at ``crash_at`` and reboot (cold) at ``recover_at``."""
        if recover_at <= crash_at:
            raise ValueError(
                f"recover_at ({recover_at}) must be after crash_at ({crash_at})"
            )
        return cls(
            [
                FaultEvent("crash", node, at=crash_at),
                FaultEvent("recover", node, at=recover_at),
            ]
        )

    @classmethod
    def stochastic(
        cls,
        nodes: int,
        horizon_s: float,
        mtbf_s: float,
        mttr_s: float,
        seed: int = 0,
        exclude: Sequence[int] = (),
    ) -> "FaultSchedule":
        """Seeded MTBF/MTTR crash/recover sequence over ``horizon_s``.

        Each node (except ``exclude``) alternates exponential up-times
        (mean ``mtbf_s``) and repair times (mean ``mttr_s``); identical
        seeds give identical schedules.  A crash whose repair would land
        beyond the horizon still gets its recover event (so no node is
        left permanently dead by truncation artifacts).
        """
        if horizon_s <= 0:
            raise ValueError("horizon_s must be positive")
        if mtbf_s <= 0 or mttr_s <= 0:
            raise ValueError("mtbf_s and mttr_s must be positive")
        excluded = set(exclude)
        events: List[FaultEvent] = []
        for node in range(nodes):
            if node in excluded:
                continue
            rng = random.Random((seed << 20) ^ (node * 0x9E3779B1))
            t = rng.expovariate(1.0 / mtbf_s)
            while t < horizon_s:
                events.append(FaultEvent("crash", node, at=t))
                t += rng.expovariate(1.0 / mttr_s)
                events.append(FaultEvent("recover", node, at=t))
                t += rng.expovariate(1.0 / mtbf_s)
        return cls(events)


@dataclass(frozen=True)
class RetryPolicy:
    """Client-side reaction to an aborted request.

    An aborted request is re-issued after ``backoff(attempt)`` seconds —
    capped exponential backoff — up to ``max_retries`` times, after which
    it counts as permanently failed.  ``timeout_s``, when set, bounds how
    long a client waits for a response before giving up and retrying
    (the request is cancelled wherever it is).

    The same class carries the netfault ARQ's per-message parameters
    (:data:`repro.netfaults.model.ARQ_RETRY`): there ``timeout_s`` is the
    ack deadline of one transmission and ``backoff`` the pause before a
    retransmission.
    """

    #: Maximum re-issues per request (0 = fail immediately, the legacy
    #: behaviour).  Must be finite: unbounded retries against a permanent
    #: outage would never let the simulation terminate.
    max_retries: int = 4
    #: First backoff delay (seconds).
    base_backoff_s: float = 0.05
    #: Backoff growth per attempt.
    multiplier: float = 2.0
    #: Backoff ceiling (seconds).
    cap_s: float = 1.0
    #: Client-side response timeout (seconds); None disables the timer.
    timeout_s: Optional[float] = None

    def __post_init__(self) -> None:
        if self.max_retries < 0:
            raise ValueError("max_retries must be non-negative")
        if not 0.0 <= self.base_backoff_s <= self.cap_s:
            raise ValueError("backoff needs 0 <= base_backoff_s <= cap_s")
        if self.multiplier < 1.0:
            raise ValueError("multiplier must be >= 1")
        if self.timeout_s is not None and self.timeout_s <= 0:
            raise ValueError("timeout_s must be positive")

    def backoff(self, attempt: int) -> float:
        """Delay before re-issue number ``attempt`` (1-based)."""
        if attempt < 1:
            raise ValueError("attempt is 1-based")
        return min(self.cap_s, self.base_backoff_s * self.multiplier ** (attempt - 1))
