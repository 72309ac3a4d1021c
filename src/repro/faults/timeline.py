"""Availability timeline: goodput, failures, and node state over time.

The whole-window averages the scaling experiments report hide exactly
what a fault run is about: the outage dip, the retry storm, and the
cache-reheat transient after a cold restart.  This instrument samples
the run at a fixed interval and keeps a row per window:

* **goodput** — completed requests per second in the window;
* **failures / retries / shed** — terminal aborts, client re-issues,
  and admission-control rejections;
* **window miss rate** — the fraction of the window's completions that
  missed the service node's cache (the reheat transient after a
  recovery shows up here as a spike that decays back to steady state);
* **node states** — one character per node: ``U`` up, ``S`` slowed,
  ``D`` down.

Fault events executed by the injector are annotated onto the timeline
(:attr:`TimelineBase.events`) so renders and reports can mark the
crash/recover instants against the goodput curve.

The instrument is split in two: :class:`TimelineBase` holds the
substrate-neutral core — window counters, the sample rows, the
analysis helpers, CSV and ASCII rendering — and knows nothing about
*whose* seconds it is sampling.  :class:`AvailabilityTimeline` is the
DES instrument (a ``call_later`` chain samples simulated time); :class:`repro.live.timeline.LiveAvailabilityTimeline`
drives the same core from an asyncio task against a wall clock, which
is what makes sim and live availability curves directly comparable.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import inf
from typing import Callable, List, Optional, Tuple

from ..des import Environment
from ..des.core import URGENT

__all__ = ["TimelineSample", "TimelineBase", "AvailabilityTimeline"]


@dataclass(frozen=True)
class TimelineSample:
    """One sampling window of the availability timeline."""

    #: Window end time (simulated or wall seconds, per substrate).
    t: float
    #: Completed requests per second inside the window.
    goodput_rps: float
    #: Requests completed inside the window.
    completions: int
    #: Requests that permanently failed inside the window.
    failures: int
    #: Client retries issued inside the window.
    retries: int
    #: Cache miss fraction of the window's completions.
    miss_rate: float
    #: Open connections across the cluster at sample time.
    open_connections: int
    #: One char per node: U=up, S=slow, D=down.
    node_states: str
    #: Requests rejected by admission shedding inside the window.
    shed: int = 0


class TimelineBase:
    """Substrate-neutral core of the availability instrument.

    Subclasses supply the sampling loop and the cluster view; this base
    owns the window counters, the recorded rows, the fault-event
    annotations, and every analysis/rendering helper.
    """

    def __init__(self) -> None:
        self.samples: List[TimelineSample] = []
        #: Injector events executed during the run: (time, kind, node).
        self.events: List[Tuple[float, str, int]] = []
        self._last_t = 0.0
        self._completions = 0
        self._misses = 0
        self._failures = 0
        self._retries = 0
        self._shed = 0

    # -- driver hooks -------------------------------------------------------

    def record_completion(self, was_miss: bool) -> None:
        self._completions += 1
        if was_miss:
            self._misses += 1

    def record_failure(self) -> None:
        self._failures += 1

    def record_retry(self) -> None:
        self._retries += 1

    def record_shed(self) -> None:
        self._shed += 1

    # -- sampling core ------------------------------------------------------

    def _close_window(
        self, now: float, open_connections: int, node_states: str
    ) -> TimelineSample:
        """Close the current window at time ``now`` and append its row."""
        elapsed = now - self._last_t
        done = self._completions
        sample = TimelineSample(
            t=now,
            goodput_rps=done / elapsed if elapsed > 0 else 0.0,
            completions=done,
            failures=self._failures,
            retries=self._retries,
            miss_rate=self._misses / done if done else 0.0,
            open_connections=open_connections,
            node_states=node_states,
            shed=self._shed,
        )
        self.samples.append(sample)
        self._last_t = now
        self._completions = self._misses = self._failures = 0
        self._retries = self._shed = 0
        return sample

    # -- analysis -----------------------------------------------------------

    def goodput_between(self, t0: float, t1: float) -> float:
        """Mean goodput over samples whose window end falls in (t0, t1]."""
        rows = [s for s in self.samples if t0 < s.t <= t1]
        if not rows:
            return 0.0
        return sum(s.goodput_rps for s in rows) / len(rows)

    def miss_rate_between(self, t0: float, t1: float) -> float:
        """Completion-weighted miss rate over (t0, t1]."""
        rows = [s for s in self.samples if t0 < s.t <= t1]
        done = sum(s.completions for s in rows)
        if not done:
            return 0.0
        return sum(s.miss_rate * s.completions for s in rows) / done

    def time_to_recover(
        self, recover_at: float, target_rps: float
    ) -> Optional[float]:
        """Seconds from ``recover_at`` until goodput first reaches
        ``target_rps`` again (None if it never does)."""
        for s in self.samples:
            if s.t >= recover_at and s.goodput_rps >= target_rps:
                return max(0.0, s.t - recover_at)
        return None

    # -- rendering ----------------------------------------------------------

    def to_csv(self) -> str:
        lines = [
            "t,goodput_rps,completions,failures,retries,miss_rate,"
            "open_connections,node_states,shed"
        ]
        for s in self.samples:
            lines.append(
                f"{s.t:.6g},{s.goodput_rps:.6g},{s.completions},{s.failures},"
                f"{s.retries},{s.miss_rate:.6g},{s.open_connections},"
                f"{s.node_states},{s.shed}"
            )
        return "\n".join(lines) + "\n"

    def render(self, width: int = 30, max_rows: int = 60) -> str:
        """ASCII timeline: one row per window, goodput as a bar."""
        if not self.samples:
            return "(no samples)"
        stride = max(1, (len(self.samples) + max_rows - 1) // max_rows)
        shown = list(range(0, len(self.samples), stride))
        peak = max(s.goodput_rps for s in self.samples) or 1.0
        marks = {}
        for t, kind, node in self.events:
            # Snap each event to the nearest *displayed* row so stride
            # subsampling can't drop its annotation.
            i = self._sample_index(t)
            disp = min(shown, key=lambda j: abs(j - i))
            marks.setdefault(disp, []).append(f"{kind}({node})")
        lines = [
            f"{'t (s)':>9} {'goodput':>9} {'miss':>6} {'fail':>5} "
            f"{'retry':>5} {'nodes':<{len(self.samples[0].node_states)}} goodput bar"
        ]
        for i in shown:
            s = self.samples[i]
            bar = "#" * int(round(width * s.goodput_rps / peak))
            note = " ".join(marks.get(i, []))
            note = f"  <- {note}" if note else ""
            lines.append(
                f"{s.t:>9.3f} {s.goodput_rps:>9,.0f} {s.miss_rate:>6.1%} "
                f"{s.failures:>5} {s.retries:>5} {s.node_states} "
                f"|{bar:<{width}}|{note}"
            )
        return "\n".join(lines)

    def _sample_index(self, t: float) -> int:
        """Index of the sample window containing time ``t``."""
        for i, s in enumerate(self.samples):
            if t <= s.t:
                return i
        return len(self.samples) - 1


class AvailabilityTimeline(TimelineBase):
    """Sampled availability instrument for one simulation run."""

    def __init__(self, env: Environment, cluster, interval_s: float):
        if interval_s <= 0:
            raise ValueError(f"interval_s must be positive, got {interval_s}")
        super().__init__()
        self.env = env
        self.cluster = cluster
        self.interval_s = interval_s
        self._last_t = env.now

    # -- driver hooks -------------------------------------------------------

    def mark_event(self, kind: str, node: int) -> None:
        """Annotate an executed fault event at the current time."""
        self.events.append((self.env.now, kind, node))

    # -- sampling -----------------------------------------------------------

    def start(self, stop: Callable[[], bool]) -> None:
        """Start the sampler chain; it ends once ``stop()`` is true.

        The sampler checks ``stop`` *after* each window so the final
        partial window of a run is still recorded.  It also ends when
        nothing else is queued: no entry is left that could finish a
        request, so sampling on would only spin the clock forever.
        """
        self._stop = stop
        self.env.call_later(0.0, self._sleep, URGENT)

    def _sleep(self) -> None:
        self.env.call_later(self.interval_s, self._sample)

    def _sample(self) -> None:
        self.take_sample()
        if not self._stop() and self.env.peek() != inf:
            self._sleep()

    def take_sample(self) -> TimelineSample:
        """Close the current window and append its row."""
        return self._close_window(
            self.env.now,
            open_connections=sum(
                n.open_connections for n in self.cluster.nodes
            ),
            node_states="".join(
                {"up": "U", "slow": "S", "down": "D"}[n.state]
                for n in self.cluster.nodes
            ),
        )
