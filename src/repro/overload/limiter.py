"""Adaptive concurrency limiting: latency-driven backpressure.

The limit is the front door's concurrency cap (how many admitted
requests may be in flight at once), driven by TCP-style
additive-increase/multiplicative-decrease on a short-term EWMA of the
service latency: while the smoothed latency sits at or under the
target, every observation grows the limit by ``1 / limit`` (one full
step per limit's worth of good requests); when it rises over the target
the limit is cut by ``decrease`` — **at most once per congestion
window**.  Two details both matter for stability.  The signal is the
EWMA, not the raw sample: real service-time distributions have fat
tails (a locality policy serializes its hot files), so a fixed fraction
of individual samples exceed any sane target even with no overload at
all, and an AIMD fed raw samples equilibrates far below capacity.  And
after a cut, further decreases are suppressed until ``now`` passes the
latency horizon of the cut: the requests already in flight when the
limit dropped will finish slow regardless, and punishing the new limit
for them drives it to the floor and holds it there — exactly TCP's
rationale for one halving per window.

No clock, no RNG: ``observe`` takes the latency and the caller's
``now`` as arguments, and the state is a pure fold over the observation
stream — the same inputs always produce the same limit trajectory on
either substrate.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["LimitConfig", "AdaptiveConcurrencyLimit"]

#: Additive step credited per limit's worth of good requests.
_INCREASE = 1.0


@dataclass(frozen=True)
class LimitConfig:
    """Knobs for one adaptive limit instance."""

    #: Hard floor — the limit never starves the cluster entirely.
    min_limit: int = 4
    #: Hard ceiling — bounds the accept queue the limit can imply.
    max_limit: int = 4096
    #: Starting limit before any latency has been observed.
    initial: int = 64
    #: Smoothed latency at or under this grows the limit, over it
    #: shrinks.
    target_latency_s: float = 0.05
    #: Multiplicative backoff factor on a slow request.
    decrease: float = 0.7
    #: EWMA weight of the short-term latency estimate.
    short_alpha: float = 0.3

    def __post_init__(self) -> None:
        if self.min_limit < 1:
            raise ValueError(f"min_limit must be >= 1, got {self.min_limit}")
        if self.max_limit < self.min_limit:
            raise ValueError("max_limit must be >= min_limit")
        if not self.min_limit <= self.initial <= self.max_limit:
            raise ValueError(
                f"initial {self.initial} outside "
                f"[{self.min_limit}, {self.max_limit}]"
            )
        if self.target_latency_s <= 0:
            raise ValueError("target_latency_s must be positive")
        if not 0.0 < self.decrease < 1.0:
            raise ValueError("decrease must be in (0, 1)")
        if not 0.0 < self.short_alpha <= 1.0:
            raise ValueError(
                f"short_alpha must be in (0, 1], got {self.short_alpha!r}"
            )


class AdaptiveConcurrencyLimit:
    """Latency-fed AIMD concurrency cap (see module docstring)."""

    def __init__(self, config: LimitConfig | None = None):
        self.config = config or LimitConfig()
        self._limit = float(self.config.initial)
        self._short: float | None = None
        #: No further multiplicative decrease before this time.
        self._hold_until = float("-inf")
        #: Observation count (reporting).
        self.observations = 0

    @property
    def limit(self) -> int:
        """The current concurrency cap (integer, always >= min_limit)."""
        return int(self._limit)

    def observe(self, latency_s: float, now: float) -> None:
        """Feed one completed request's service latency."""
        if latency_s < 0:
            return
        self.observations += 1
        cfg = self.config
        if self._short is None:
            self._short = latency_s
        else:
            self._short += cfg.short_alpha * (latency_s - self._short)
        if self._short <= cfg.target_latency_s:
            self._limit += _INCREASE / max(1.0, self._limit)
        elif now >= self._hold_until:
            self._limit *= cfg.decrease
            # One decrease per congestion window: requests admitted
            # before the cut drain over roughly the latency that
            # triggered it; their slowness is stale evidence.
            self._hold_until = now + max(latency_s, self._short)
        self._limit = min(float(cfg.max_limit),
                          max(float(cfg.min_limit), self._limit))

    def snapshot(self) -> dict:
        return {
            "limit": self.limit,
            "observations": self.observations,
        }
