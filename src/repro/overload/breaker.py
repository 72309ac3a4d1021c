"""Per-back-end circuit breakers: stop hammering a node that keeps dying.

Classic three-state machine, one breaker per back-end node:

* **closed** — traffic flows; ``failure_threshold`` *consecutive*
  crash-type failures trip it open (load shedding is deliberately not a
  failure signal — that is the admission controller's regime, and
  counting sheds here would let an overloaded-but-healthy node get
  blackholed).
* **open** — traffic is refused until a seeded-jittered cooldown
  expires.  The jitter matters on both substrates: breakers tripped by
  the same event would otherwise probe in lockstep and re-trip in
  lockstep (a thundering herd of probes); the per-node seeded draw
  decorrelates them *deterministically*, so a sim run replays
  byte-identically.
* **half-open** — one request at a time is let through as a probe.  A
  probe success closes the breaker; a probe failure trips it open again
  with a fresh jittered cooldown.

Routing consults :meth:`BreakerBoard.routable` (pure, no state change)
so redispatch steers around open breakers without consuming probe
slots; the lifecycle's service-entry check calls :meth:`BreakerBoard.
allow` (mutating — this is where a half-open probe slot is claimed).

Substrate-neutral: time is an argument everywhere, randomness is a
per-node ``random.Random`` seeded at construction (simlint REP108).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List

__all__ = ["BreakerConfig", "CircuitBreaker", "BreakerBoard"]

CLOSED = "closed"
OPEN = "open"
HALF_OPEN = "half_open"

#: Concurrent probe requests allowed in the half-open state.
_HALF_OPEN_PROBES = 1


@dataclass(frozen=True)
class BreakerConfig:
    """Knobs shared by every breaker on a board."""

    #: Consecutive crash-type failures that trip a closed breaker.
    failure_threshold: int = 5
    #: Base open duration before a probe is allowed.
    cooldown_s: float = 0.5
    #: Cooldown jitter as a fraction (each trip draws uniformly from
    #: ``cooldown_s * [1 - jitter, 1 + jitter]``), seeded per node.
    jitter: float = 0.2
    #: Board seed; each node derives its own RNG stream from it.
    seed: int = 0

    def __post_init__(self) -> None:
        if self.failure_threshold < 1:
            raise ValueError(
                f"failure_threshold must be >= 1, got {self.failure_threshold}"
            )
        if self.cooldown_s <= 0:
            raise ValueError(f"cooldown_s must be positive, got {self.cooldown_s}")
        if not 0.0 <= self.jitter < 1.0:
            raise ValueError(f"jitter must be in [0, 1), got {self.jitter}")


class CircuitBreaker:
    """One back-end's breaker (see module docstring for the states)."""

    def __init__(self, config: BreakerConfig, node_id: int = 0):
        self.config = config
        self.node_id = node_id
        self.state = CLOSED
        self._failures = 0
        self._probe_at = 0.0
        self._probes = 0
        self._rng = random.Random((config.seed << 16) ^ (node_id * 0x9E3779B1))
        #: Times this breaker tripped open (run-wide).
        self.trips = 0

    def _trip(self, now: float) -> None:
        self.state = OPEN
        self.trips += 1
        self._failures = 0
        self._probes = 0
        j = self.config.jitter
        factor = 1.0 + self._rng.uniform(-j, j) if j > 0 else 1.0
        self._probe_at = now + self.config.cooldown_s * factor

    def routable(self, now: float) -> bool:
        """Pure check: would a request sent now be allowed through?"""
        if self.state == CLOSED:
            return True
        if self.state == OPEN:
            return now >= self._probe_at
        return (
            self._probes < _HALF_OPEN_PROBES
            or now >= self._probe_at + self.config.cooldown_s
        )

    def allow(self, now: float) -> bool:
        """Service-entry check; claims a probe slot when half-open.

        While half-open, ``_probe_at`` is the instant the last probe
        slot was claimed.  A probe that never reports back (its client
        timed out, say) must not wedge the breaker half-open forever:
        after a full cooldown the stale slot is forfeited and re-offered.
        """
        if self.state == CLOSED:
            return True
        if self.state == OPEN:
            if now < self._probe_at:
                return False
            self.state = HALF_OPEN
            self._probes = 0
        if self._probes >= _HALF_OPEN_PROBES:
            if now < self._probe_at + self.config.cooldown_s:
                return False
            self._probes = 0
        self._probes += 1
        self._probe_at = now
        return True

    def record_success(self, now: float) -> None:
        if self.state == HALF_OPEN:
            # The probe came back: the node is serving again.
            self.state = CLOSED
            self._failures = 0
            self._probes = 0
        elif self.state == CLOSED:
            self._failures = 0

    def record_failure(self, now: float) -> None:
        if self.state == HALF_OPEN:
            self._trip(now)
        elif self.state == CLOSED:
            self._failures += 1
            if self._failures >= self.config.failure_threshold:
                self._trip(now)
        # OPEN: stragglers from before the trip add no information.


class BreakerBoard:
    """One breaker per node, addressed by node id."""

    def __init__(self, num_nodes: int, config: BreakerConfig | None = None):
        if num_nodes < 1:
            raise ValueError(f"num_nodes must be >= 1, got {num_nodes}")
        self.config = config or BreakerConfig()
        self.breakers: List[CircuitBreaker] = [
            CircuitBreaker(self.config, node_id=i) for i in range(num_nodes)
        ]
        #: Requests refused at service entry (run-wide).
        self.rejections = 0

    def routable(self, node_id: int, now: float) -> bool:
        return self.breakers[node_id].routable(now)

    def allow(self, node_id: int, now: float) -> bool:
        ok = self.breakers[node_id].allow(now)
        if not ok:
            self.rejections += 1
        return ok

    def record_success(self, node_id: int, now: float) -> None:
        self.breakers[node_id].record_success(now)

    def record_failure(self, node_id: int, now: float) -> None:
        self.breakers[node_id].record_failure(now)

    def state(self, node_id: int) -> str:
        return self.breakers[node_id].state

    def states(self) -> str:
        """Compact per-node state string ("CCOH..."), for reports."""
        return "".join(b.state[0].upper() for b in self.breakers)

    @property
    def trips(self) -> int:
        return sum(b.trips for b in self.breakers)

    def snapshot(self) -> Dict[str, object]:
        return {
            "states": self.states(),
            "trips": self.trips,
            "rejections": self.rejections,
        }
