"""Invariant oracles: what must hold on *every* run, whatever the plan.

Two layers share one catalog:

**Mid-run sampler** (cheap, every ``horizon/64`` simulated seconds):

* monotonic simulated time — ``env.now`` never decreases between
  samples;
* injection bounds — requests finished never exceed requests
  generated, generated never exceed the trace total;
* cache-capacity bound — no node's LRU cache holds more bytes than its
  memory;
* connection-count sanity — no node reports negative open connections;
* policy structural invariants — :meth:`DistributionPolicy.
  check_invariants` (L2S/LARD server-set and load-view bounds).

**Post-run checks** (exact, on the closed books):

* request conservation — every generated request is served or failed,
  none stranded in flight; delegated to
  :meth:`repro.sim.results.SimResult.verify`, whose other findings are
  reported as ``result_verify``;
* per-kind message reconciliation — ``sent == delivered + dropped +
  in-flight`` for every message kind, computed straight from the
  interconnect counters so it covers runs with *and* without a netfault
  layer;
* availability floor — the served fraction never drops below the
  analytic floor implied by the fault plan
  (:func:`availability_floor`); with a plan containing nothing
  disruptive the floor is exactly 1 and a single failed request is a
  violation;
* metastable-failure detection — after a workload perturbation window
  (flash/ramp/churn) ends, the completion rate over the trace's tail
  must re-converge to at least ``metastable_ratio`` of a yardstick
  rate: the rate a *counterfactual baseline* run (same seed, faults,
  and trace — minus the workload perturbations) achieves over the
  identical tail window, or the run's own pre-window rate (which
  exonerates bounded cache re-warm still in progress).  A healthy
  cluster recovers when the trigger is removed; one stuck in a bad
  equilibrium (thrashed caches, queues full of doomed work) sits
  10-100x below both yardsticks — the signature of metastable failure,
  and exactly what admission control exists to prevent.  Comparing the
  same window of the same trace across the two runs cancels the
  trace's intrinsic segment-to-segment variance (size and popularity
  mix swing raw short-window rates ~2x with no perturbation at all),
  and the tail is measured *before* the closed-loop drain (the last
  ~MPL completions finish with falling concurrency as the trace runs
  out, so their rate says nothing about the cluster's equilibrium);
* the mid-run checks once more, on final state.

The floor is deliberately generous for disruptive plans (a SPOF policy
under a front-end crash may legitimately fail most of a window); its
sharp edge is the clean case, where the arithmetic is exact.  Strict
mode (``OracleConfig(strict=True)``) upgrades *any* failed or shed
request to a violation — the knob the planted-failure fixture and the
shrinker demo use to turn expected degradation into a checkable
property.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import inf
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence

from ..des.core import URGENT
from .spec import Scenario

if TYPE_CHECKING:  # pragma: no cover
    from ..sim.driver import Simulation
    from ..sim.results import SimResult

__all__ = ["Violation", "OracleConfig", "ChaosOracle", "availability_floor"]

#: Mid-run sample count across the estimated horizon.
_MIDRUN_SAMPLES = 64
#: Absolute slack subtracted from the availability floor of disruptive
#: plans, on top of the closed-loop in-flight allowance.
_SLACK = 0.05
#: Width, as a fraction of the trace, of the tail comparison window for
#: the metastable check.
_METASTABLE_WINDOW = 0.15


@dataclass(frozen=True)
class Violation:
    """One invariant breach."""

    #: Which oracle fired ("request_conservation", "message_books",
    #: "availability_floor", "cache_bound", "policy_invariant",
    #: "monotonic_time", "strict_service", ...).
    check: str
    #: Human-readable specifics.
    detail: str

    def render(self) -> str:
        return f"[{self.check}] {self.detail}"


@dataclass(frozen=True)
class OracleConfig:
    """Oracle knobs for one run."""

    #: Treat any failed or shed request as a violation, regardless of the
    #: fault plan (planted-failure fixtures and shrinking demos).
    strict: bool = False
    #: Post-perturbation completion rate must reach this fraction of the
    #: no-perturbation baseline's rate over the same tail window, or of
    #: the run's own pre-window rate (0 disables the metastable check).
    metastable_ratio: float = 0.7


def availability_floor(scenario: Scenario) -> float:
    """Lower bound on the served fraction the fault plan permits.

    Returns exactly 1.0 when the plan contains nothing that can cause a
    request failure (no crash/partition/outage, no loss) — the sharp
    case.  Otherwise subtracts a *generous* penalty per disruptive item:
    SPOF policies (lard, lard-ng) may blackout for a whole crash or
    partition window; distributed policies lose at most the in-flight
    work plus a window share.  The closed-loop multiprogramming level
    bounds how many requests are exposed to any instantaneous event,
    and enters as an absolute allowance.
    """
    spof = scenario.policy in ("lard", "lard-ng")
    horizon = scenario.horizon_s
    penalty = 0.0
    disruptive = False
    for item in scenario.plan:
        if item.kind in ("crash", "partition", "link_out"):
            disruptive = True
            dur = (item.end - item.start) if item.end is not None else horizon
            share = min(1.0, max(0.0, dur) / horizon)
            if item.kind == "crash":
                weight = 1.5 if spof else 0.5
            elif item.kind == "partition":
                weight = 1.5 if spof else 1.0
            else:  # link_out: two endpoints lose one path, not service
                weight = 1.0 if spof else 0.4
            penalty += share * weight + 0.02
        elif item.kind == "loss" and item.rate > 0.0:
            disruptive = True
            # Four-attempt ARQ pushes residual loss to ~rate**4; the
            # give-up path (redispatch, aborted hand-offs) is what
            # actually costs requests.  10x the raw rate is generous.
            penalty += 10.0 * item.rate + 0.01
    if not disruptive:
        return 1.0
    mpl_allowance = (16.0 * scenario.nodes) / max(1, scenario.requests)
    return max(0.0, 1.0 - penalty - _SLACK - mpl_allowance)


class ChaosOracle:
    """Attachable invariant monitor for one simulation run."""

    def __init__(
        self, scenario: Scenario, config: Optional[OracleConfig] = None
    ):
        self.scenario = scenario
        self.config = config or OracleConfig()
        self.violations: List[Violation] = []
        self._seen: set = set()
        self._sim: Optional["Simulation"] = None
        self._last_now = 0.0
        self.samples_taken = 0

    # -- wiring ------------------------------------------------------------

    def attach(self, sim: "Simulation") -> None:
        """Bind to a driver and start the mid-run sampler chain."""
        self._sim = sim
        self._interval = max(self.scenario.horizon_s / _MIDRUN_SAMPLES, 1e-9)
        sim.env.call_later(0.0, self._sleep, URGENT)

    def _sleep(self) -> None:
        """Wait one interval for the next sample, while requests remain.

        Sampling also stops when nothing else is queued: no entry is left
        that could finish a request, so the run must end (and the
        stranded requests surface as a conservation violation) instead
        of the sampler spinning the clock forever.
        """
        sim = self._sim
        if sim.requests_finished < sim.requests_total and sim.env.peek() != inf:
            sim.env.call_later(self._interval, self._sample)

    def _sample(self) -> None:
        self.samples_taken += 1
        self._check_now(self._sim)
        self._sleep()

    def _record(self, check: str, detail: str) -> None:
        """Deduplicated: the sampler seeing the same breach 60 times is
        one finding, not 60."""
        key = (check, detail)
        if key in self._seen:
            return
        self._seen.add(key)
        self.violations.append(Violation(check, detail))

    # -- the catalog -------------------------------------------------------

    def _check_now(self, sim: "Simulation") -> None:
        """The cheap mid-run subset, on current driver state."""
        now = sim.env.now
        if now < self._last_now:
            self._record(
                "monotonic_time",
                f"simulated time went backwards: {now!r} after "
                f"{self._last_now!r}",
            )
        self._last_now = now
        finished = sim.requests_finished
        generated = sim.requests_generated
        if finished > generated:
            self._record(
                "request_conservation",
                f"finished {finished} requests but only {generated} "
                "were ever generated",
            )
        if generated > sim.requests_total:
            self._record(
                "request_conservation",
                f"generated {generated} requests from a "
                f"{sim.requests_total}-request trace",
            )
        for node in sim.cluster.nodes:
            cache = node.cache
            if cache.used_bytes > cache.capacity:
                self._record(
                    "cache_bound",
                    f"node {node.id} cache holds {cache.used_bytes} "
                    f"bytes in a {cache.capacity}-byte memory",
                )
            if node.open_connections < 0:
                self._record(
                    "connection_count",
                    f"node {node.id} reports "
                    f"{node.open_connections} open connections",
                )
        for problem in sim.policy.check_invariants():
            self._record("policy_invariant", problem)

    def finish(
        self,
        result: "SimResult",
        baseline_times: Optional[Sequence[float]] = None,
    ) -> List[Violation]:
        """Run the post-run checks on the attached run's ``result``;
        returns all violations collected.

        ``baseline_times`` are the measured-window completion timestamps
        of the counterfactual no-perturbation run (same scenario minus
        workload items) that the metastable check scores against; the
        check is skipped when they are absent.
        """
        sim = self._sim
        if sim is None:
            raise RuntimeError("oracle was never attached to a simulation")
        self._check_now(sim)

        # Request conservation (and the rest of the result's books).
        for problem in result.verify():
            check = (
                "request_conservation"
                if problem.startswith("request conservation")
                else "result_verify"
            )
            self._record(check, problem)

        # Message books close for every kind, netfault layer or not.
        for kind, residual in sorted(self._reconcile(sim).items()):
            if residual != 0:
                self._record(
                    "message_books",
                    f"kind {kind!r}: sent - delivered - dropped - "
                    f"in_flight = {residual}",
                )

        # Availability floor.
        generated = result.requests_generated
        failed = result.requests_failed
        if generated > 0:
            served = result.requests_completed / generated
            floor = availability_floor(self.scenario)
            if floor >= 1.0:
                if failed > 0:
                    self._record(
                        "availability_floor",
                        f"plan has no disruptive faults yet {failed} "
                        "requests failed",
                    )
            elif served < floor:
                self._record(
                    "availability_floor",
                    f"served fraction {served:.4f} below the analytic "
                    f"floor {floor:.4f} for this fault plan",
                )
        if result.requests_stranded == 0:
            self._metastable(sim, result, baseline_times)
        if self.config.strict:
            shed = result.requests_shed
            if failed > 0 or shed > 0:
                self._record(
                    "strict_service",
                    f"strict mode: {failed} failed and {shed} shed "
                    "requests (expected zero)",
                )
        return list(self.violations)

    def _metastable(
        self,
        sim: "Simulation",
        result: "SimResult",
        baseline_times: Optional[Sequence[float]],
    ) -> None:
        """Post-perturbation goodput must re-converge (see module doc).

        Works on ``sim.completion_times`` (measured-window completion
        timestamps, recorded when the scenario carries workload items):
        a trace fraction ``f`` maps to completion index
        ``(f - warmup) / (1 - warmup) * M`` of each series, the rate
        over a fraction window is completions divided by the
        simulated-time span, and the perturbed run's tail rate is
        scored against the counterfactual baseline's rate over the
        *same* tail window — the only difference between the two runs
        is the perturbation, so any rate gap in the tail is damage that
        outlived its trigger.
        """
        if self.config.metastable_ratio <= 0.0:
            return
        times = sim.completion_times
        items = self.scenario.workload_items()
        if not items or len(times) < 32:
            return
        if baseline_times is None or len(baseline_times) < 32:
            return
        warmup = result.requests_warmup / max(1, sim.requests_total)
        span = max(1e-9, 1.0 - warmup)

        def rate(series: Sequence[float], f_lo: float, f_hi: float
                 ) -> Optional[float]:
            m = len(series)
            i = max(0, min(m, int((f_lo - warmup) / span * m)))
            j = max(0, min(m, int((f_hi - warmup) / span * m)))
            if j - i < 8:
                return None  # too few completions to estimate a rate
            dt = series[j - 1] - series[i]
            return (j - i) / dt if dt > 0 else None

        # The closed loop drains at the end of the trace: once nothing
        # is left to spawn, the final ~MPL in-flight requests complete
        # with falling concurrency, and their rate measures the drain,
        # not the cluster's equilibrium.  End the tail window where the
        # drain begins (capped so tiny runs keep a measurable tail).
        mpl = sim.config.multiprogramming_per_node * sim.config.nodes
        m = len(times)
        f_tail_hi = 1.0 - min(mpl, m // 4) / m * span
        window = _METASTABLE_WINDOW
        ratio = self.config.metastable_ratio
        for item in items:
            if item.end is None or item.end >= f_tail_hi - 1e-9:
                continue  # no tail to measure re-convergence in
            f_tail_lo = max(item.end, f_tail_hi - window)
            post = rate(times, f_tail_lo, f_tail_hi)
            base = rate(baseline_times, f_tail_lo, f_tail_hi)
            if post is None or base is None:
                continue
            # Recovered = the tail reached ratio x of either yardstick.
            # The run's own pre-window rate exonerates bounded cache
            # re-warm (a run still mid-warmup can be back above its
            # pre-crowd rate yet trail the baseline, whose warming was
            # never set back); a metastable collapse sits 10-100x below
            # both.
            if post >= ratio * base:
                continue
            pre = rate(times, max(warmup, item.start - window), item.start)
            if pre is not None and post >= ratio * pre:
                continue
            self._record(
                "metastable_failure",
                f"goodput never re-converged after the {item.kind} "
                f"window [{item.start:g}, {item.end:g}): "
                f"{post:.1f} req/s in the pre-drain tail vs "
                f"{base:.1f} req/s in the no-perturbation baseline "
                f"(floor {ratio:.2f}x)",
            )

    @staticmethod
    def _reconcile(sim: "Simulation") -> Dict[str, int]:
        """Per-kind ``sent - delivered - dropped - in_flight`` residuals
        over the measured window, from the raw interconnect counters.

        Unlike :meth:`SimResult.message_reconciliation` this does not
        require a netfault layer: the interconnect maintains the counters
        on every path.  ``in_flight`` is a level, so the window delta is
        taken against the warmup-boundary snapshot.
        """
        net = sim.cluster.net
        base = sim.inflight_at_measure
        kinds = set(net.message_counts)
        kinds.update(net.delivered_counts, net.dropped_counts)
        kinds.update(net.in_flight_counts, base)
        return {
            kind: net.message_counts.get(kind, 0)
            - net.delivered_counts.get(kind, 0)
            - net.dropped_counts.get(kind, 0)
            - (net.in_flight_counts.get(kind, 0) - base.get(kind, 0))
            for kind in sorted(kinds)
        }
