"""Scenario execution: spec -> simulation -> verdict.

:func:`run_scenario` is the single execution path shared by ``repro
chaos run``/``soak`` (fresh scenarios, through :func:`run_trial`),
``repro chaos replay`` (a scenario file), and the shrinker's predicate
(candidate scenarios).  Everything the run does derives from the
:class:`~repro.chaos.spec.Scenario` alone, so the same spec always
produces the same :class:`~repro.sim.results.SimResult` and the same
violations — byte-identical replay reports are what the CI chaos-smoke
job diffs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Dict, List, Optional, Tuple

from ..cluster import ClusterConfig
from ..experiments.flashcrowd import flash_crowd_trace
from ..faults import RetryPolicy
from ..model import MB
from ..overload import OverloadControl
from ..servers import make_policy
from ..sim import SimResult, Simulation
from ..workload import Trace, synthesize
from ..workload.tracegen import flash_ramp_trace, popularity_churn_trace
from .oracle import ChaosOracle, OracleConfig, Violation
from .spec import Scenario

if TYPE_CHECKING:
    from .generator import ScenarioGenerator

__all__ = [
    "ChaosOutcome",
    "run_scenario",
    "run_trial",
    "build_trace",
    "build_policy",
    "build_overload",
    "build_simulation",
    "render_report",
]


@dataclass(frozen=True)
class ChaosOutcome:
    """One scenario's run: its result and the oracle verdicts."""

    scenario: Scenario
    #: The run's result; stranded requests show as
    #: ``result.requests_stranded`` and a conservation violation.
    result: SimResult
    violations: List[Violation]

    @property
    def passed(self) -> bool:
        return not self.violations


def build_trace(scenario: Scenario) -> Trace:
    """The workload for a scenario: preset synthesis, then every
    workload-perturbation item (flash/ramp/churn) applied in plan order.

    The flash rewrite keeps ``scenario.seed`` (stored scenarios from
    before ramp/churn existed must replay byte-identically); ramp and
    churn derive per-item seeds from the plan position so two items of
    the same kind would not share randomness.
    """
    trace = synthesize(
        scenario.trace, num_requests=scenario.requests, seed=scenario.seed
    )
    for position, item in enumerate(scenario.workload_items()):
        if item.kind == "flash":
            trace = flash_crowd_trace(
                trace,
                spike_start=item.start,
                spike_length=item.end - item.start,
                hot_share=item.share,
                hot_rank=item.rank,
                seed=scenario.seed,
            )
        elif item.kind == "ramp":
            trace = flash_ramp_trace(
                trace,
                ramp_start=item.start,
                ramp_end=item.end,
                peak_share=item.share,
                hot_rank=item.rank,
                seed=scenario.seed + position + 1,
            )
        elif item.kind == "churn":
            trace = popularity_churn_trace(
                trace,
                churn_start=item.start,
                churn_end=item.end,
                intensity=item.share,
                seed=scenario.seed + position + 1,
            )
    return trace


def build_policy(scenario: Scenario):
    """The scenario's policy instance, with per-policy knobs applied.

    Shared with the live chaos bridge so sim and live runs of the same
    spec configure the policy identically.
    """
    kwargs: Dict[str, Any] = {}
    if scenario.policy == "l2s" and scenario.view_max_age_s is not None:
        kwargs["view_max_age_s"] = scenario.view_max_age_s
    if scenario.policy == "lard-ng" and scenario.failover_s is not None:
        kwargs["failover_s"] = scenario.failover_s
    return make_policy(scenario.policy, **kwargs)


def build_overload(scenario: Scenario) -> Optional[OverloadControl]:
    """The scenario's overload control, or ``None`` when unconfigured.

    Shared with the live chaos bridge, like :func:`build_policy`, so
    both substrates gate the same spec with the same controller: an
    ``admission_limit`` gives a static in-flight cap, a ``deadline_s``
    alone engages the AIMD adaptive limit, and either one arms
    deadline-aware queue shedding.
    """
    if scenario.admission_limit is None and scenario.deadline_s is None:
        return None
    return OverloadControl.default(
        scenario.nodes,
        max_inflight=scenario.admission_limit,
        deadline_s=scenario.deadline_s,
        seed=scenario.seed,
    )


def build_simulation(
    scenario: Scenario,
    trace: Trace,
    multiprogramming_per_node: Optional[int] = None,
) -> Simulation:
    """The scenario's simulation over ``trace``: one pass, 10% warmup,
    and the scenario's cluster, policy, faults, retries and overload
    control.

    Shared by :func:`run_scenario` and live chaos's sim side, which
    passes the multiprogramming level matching its loadtest
    concurrency.  Completion timestamps, which feed the metastable
    oracle, are recorded when the scenario carries workload items.
    """
    config = ClusterConfig(
        nodes=scenario.nodes,
        cache_bytes=scenario.cache_mb * MB,
        net_faults=scenario.netfault_config(),
    )
    if multiprogramming_per_node is not None:
        config = config.with_(multiprogramming_per_node=multiprogramming_per_node)
    return Simulation(
        trace,
        build_policy(scenario),
        config,
        warmup_fraction=0.1,
        passes=1,
        seed=scenario.seed,
        faults=scenario.fault_schedule(),
        retry=RetryPolicy(max_retries=scenario.retries),
        overload=build_overload(scenario),
        record_timeline=bool(scenario.workload_items()),
    )


def _baseline_times(
    scenario: Scenario, oracle: ChaosOracle
) -> Optional[List[float]]:
    """Completion timestamps of the counterfactual no-perturbation run.

    The metastable oracle scores the perturbed run's tail against the
    *same scenario minus its workload items*: identical seed, trace
    base, faults, and retries, so the only tail-rate difference the two
    runs can show is damage the perturbation left behind.  Skipped (and
    the metastable check with it) when the scenario carries no workload
    items or the check is disabled.
    """
    if not scenario.workload_items():
        return None
    if oracle.config.metastable_ratio <= 0.0:
        return None
    trace = synthesize(
        scenario.trace, num_requests=scenario.requests, seed=scenario.seed
    )
    sim = build_simulation(scenario, trace)
    if sim.run().requests_stranded:
        return None  # no healthy baseline to compare against
    return sim.completion_times


def run_scenario(
    scenario: Scenario, oracle_config: Optional[OracleConfig] = None
) -> ChaosOutcome:
    """Execute one scenario under the full oracle catalog."""
    sim = build_simulation(scenario, build_trace(scenario))
    oracle = ChaosOracle(scenario, oracle_config)
    oracle.attach(sim)
    result = sim.run()
    violations = oracle.finish(
        result, baseline_times=_baseline_times(scenario, oracle)
    )
    return ChaosOutcome(scenario=scenario, result=result, violations=violations)


def run_trial(
    task: Tuple[ScenarioGenerator, int, OracleConfig],
) -> Tuple[bool, str, Scenario]:
    """One seeded sweep trial: ``(passed, report, scenario)``.

    The scenario is rebuilt from the generator's seed and the trial
    index, so a farm worker computes exactly what a serial sweep does.
    Module-level (picklable) and free of side effects: the caller
    prints the report and saves a failing scenario.
    """
    gen, trial, config = task
    outcome = run_scenario(gen.generate(trial), config)
    return outcome.passed, render_report(outcome), outcome.scenario


def render_report(outcome: ChaosOutcome) -> str:
    """Deterministic text report for one outcome (replay diffs this)."""
    s = outcome.scenario
    lines = [
        s.describe(),
        f"  plan events: {s.event_count()}  "
        f"retries/request: {s.retries}  horizon est: {s.horizon_s:g}s",
    ]
    r = outcome.result
    lines.append(
        f"  served {r.requests_measured + r.requests_warmup}"
        f"/{r.requests_generated} "
        f"(fraction {r.requests_completed / max(1, r.requests_generated):.4f}), "
        f"failed {r.requests_failed}, "
        f"retried {r.requests_retried}, "
        f"shed {r.requests_shed}"
    )
    lines.append(
        f"  measured {r.requests_measured} requests at "
        f"{r.throughput_rps:.1f} req/s over {r.sim_seconds:.4f}s, "
        f"miss {r.miss_rate:.4f}, forwarded {r.forwarded_fraction:.4f}"
    )
    if outcome.violations:
        lines.append(f"  VIOLATIONS ({len(outcome.violations)}):")
        for v in outcome.violations:
            lines.append(f"    {v.render()}")
    else:
        lines.append("  oracles: all passed")
    return "\n".join(lines)
