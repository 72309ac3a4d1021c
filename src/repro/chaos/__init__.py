"""repro.chaos — randomized fault-scenario fuzzing for the simulator.

The curated A2 (node crashes) and A3 (unreliable fabric) experiments
check hand-picked scenarios; this package *generates* them.  A seeded
:class:`~repro.chaos.spec.Scenario` combines node faults, fabric faults,
and workload spikes into one JSON document that round-trips
byte-identically; :mod:`~repro.chaos.oracle` proves cluster-wide
invariants on every run (request conservation, message reconciliation,
availability floors, cache/server-set bounds, monotonic time); and
:mod:`~repro.chaos.shrink` delta-debugs any failing scenario down to a
minimal reproducer.  Drive it with ``repro chaos`` (see docs/CHAOS.md).
"""

from .generator import ScenarioGenerator, generate_scenario
from .oracle import ChaosOracle, OracleConfig, Violation, availability_floor
from .runner import ChaosOutcome, render_report, run_scenario, run_trial
from .shrink import ShrinkResult, shrink_scenario
from .spec import ChaosSpecError, PlanItem, Scenario

__all__ = [
    "ChaosOracle",
    "ChaosOutcome",
    "ChaosSpecError",
    "OracleConfig",
    "PlanItem",
    "Scenario",
    "ScenarioGenerator",
    "ShrinkResult",
    "Violation",
    "availability_floor",
    "generate_scenario",
    "render_report",
    "run_scenario",
    "run_trial",
    "shrink_scenario",
]
