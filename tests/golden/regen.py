"""Golden SimResult corpus: the behaviour pin for kernel refactors.

Every scenario below is a small, fully seeded simulation whose
:class:`~repro.sim.SimResult` is stored as canonical JSON next to this
file.  ``test_golden.py`` re-simulates the grid and diffs the bytes, so
any change that moves a single event shows up as a reviewed golden
diff instead of silent drift.

The grid is policy x mode x seed on a 600-request trace (calgary unless
the mode says otherwise), four nodes, two passes:

* ``plain`` — the fault-free request chain;
* ``crash`` — node 2 crashes at 0.3 s and recovers at 0.6 s, with
  client retries;
* ``netloss`` — 2% interconnect message loss (the ack/retry protocol
  and hand-off re-dispatch);
* ``admission`` — open-loop arrivals against a static front-door cap;
* ``timeout`` — client timeouts (0.2 s) with retries, so requests are
  cancelled mid-stage.  On the traditional server the timeout fires on
  seed 1 only (9 retries; none on seeds 2–5), so seed 1 alone pins the
  traditional timeout path and ``traditional-timeout-s2`` is
  byte-identical to ``traditional-plain-s2``;
* ``dfs`` / ``dfs-netloss`` — partitioned disks (remote DFS reads),
  fault-free and with 2% message loss;
* ``persistent`` — HTTP/1.1 connections of mean length 4
  (``sessionize(trace, 4.0, seed=seed)``); ``persistent-crash`` and
  ``persistent-netloss`` run them under the ``crash`` and ``netloss``
  faults (l2s and lard respectively, seed 1);
* ``clarknet`` / ``nasa`` / ``rutgers`` — a fault-free run on that
  trace (l2s, lard and l2s respectively; ``nasa`` and ``rutgers`` on
  seed 1 only);
* ``outage`` — a timed link outage and a partition, the ``crash`` fault
  schedule and an availability timeline sampled every 0.02 s.  The
  stored JSON holds the SimResult, the timeline CSV and both injector
  logs, so the background loops (fault and netfault injectors,
  timeline sampler) are pinned event for event;
* ``slow`` — fail-slow: node 1's CPU drops to quarter speed at 0.3 s
  and is restored at 1.2 s, so CPU holds queued across either change
  run at the speed in force when they are granted.

``lard-ng`` (the dispatcher round-trip) runs ``plain`` and ``netloss``;
``round-robin``, ``consistent-hash`` and ``dns-cached`` run ``plain``.

``canonical`` is the simulator's speed-scenario shape, kept as a
correctness canary: traditional, lard and l2s on an 8,000-request
calgary trace (seed 0), sixteen nodes, two passes, default
``Simulation`` settings.

The chaos corpus pins the chaos-oracle sampler: one text file per trial
of ``ScenarioGenerator(42)`` holding ``render_report`` and the number of
mid-run samples the oracle took.

Regenerate (only for an intended behaviour change, explained in the
same commit)::

    PYTHONPATH=src python tests/golden/regen.py
"""

from __future__ import annotations

import dataclasses
import json
import os
import sys
from typing import List, Tuple
from unittest import mock

from repro.chaos import runner as chaos_runner
from repro.chaos.generator import ScenarioGenerator
from repro.chaos.oracle import ChaosOracle
from repro.cluster import ClusterConfig
from repro.faults import FaultSchedule, RetryPolicy
from repro.netfaults import NetFaultConfig, NetFaultSchedule
from repro.overload import OverloadControl
from repro.servers import make_policy
from repro.sim import SimResult, Simulation
from repro.workload import sessionize, synthesize

GOLDEN_DIR = os.path.dirname(os.path.abspath(__file__))

POLICIES = ("traditional", "lard", "l2s")
MODES = ("plain", "crash", "netloss", "admission")
SEEDS = (1, 2)
NODES = 4
REQUESTS = 600

#: Modes beyond the base grid, each with the policies and seeds it runs.
EXTRA_MODES: Tuple[Tuple[Tuple[str, ...], str, Tuple[int, ...]], ...] = (
    (POLICIES, "timeout", SEEDS),
    (("lard-ng",), "plain", SEEDS),
    (("lard-ng",), "netloss", SEEDS),
    (("lard", "l2s"), "dfs", SEEDS),
    (("lard", "l2s"), "dfs-netloss", SEEDS),
    (POLICIES, "persistent", SEEDS),
    (("l2s",), "persistent-crash", (1,)),
    (("lard",), "persistent-netloss", (1,)),
    (("l2s",), "clarknet", SEEDS),
    (POLICIES, "outage", SEEDS),
    (POLICIES, "slow", SEEDS),
    (("round-robin", "consistent-hash", "dns-cached"), "plain", SEEDS),
    (("lard",), "nasa", (1,)),
    (("l2s",), "rutgers", (1,)),
    (POLICIES, "canonical", (0,)),
)

#: Modes that run on a trace other than calgary, named after it.
TRACE_MODES = ("clarknet", "nasa", "rutgers")

#: Every (policy, mode, seed) cell.
SCENARIOS: List[Tuple[str, str, int]] = [
    (policy, mode, seed) for policy in POLICIES for mode in MODES for seed in SEEDS
] + [
    (policy, mode, seed)
    for policies, mode, seeds in EXTRA_MODES
    for policy in policies
    for seed in seeds
]


#: Trials of ``ScenarioGenerator(CHAOS_SEED)`` in the chaos corpus.
CHAOS_SEED = 42
CHAOS_TRIALS = tuple(range(8))

CRASH_SCHEDULE = "crash:2@0.3,recover:2@0.6"
OUTAGE_NETFAULTS = "link:0-1@0.05..0.15,partition:2+3@0.2..0.3"
SLOW_SCHEDULE = "slow:1@0.3x0.25,slow:1@1.2x1"


def path_for(policy: str, mode: str, seed: int) -> str:
    return os.path.join(GOLDEN_DIR, f"{policy}-{mode}-s{seed}.json")


def chaos_path_for(trial: int) -> str:
    return os.path.join(GOLDEN_DIR, f"chaos-s{CHAOS_SEED}-t{trial}.txt")


def render(policy: str, mode: str, seed: int) -> str:
    """The stored form of one golden scenario, simulated from scratch."""
    if mode != "outage":
        return canonical(simulate(policy, mode, seed))
    trace = synthesize("calgary", REQUESTS, seed=seed)
    config = ClusterConfig(
        nodes=NODES,
        net_faults=NetFaultConfig(
            schedule=NetFaultSchedule.parse(OUTAGE_NETFAULTS), seed=seed
        ),
    )
    sim = Simulation(
        trace,
        make_policy(policy),
        config,
        passes=2,
        seed=seed,
        faults=FaultSchedule.parse(CRASH_SCHEDULE),
        retry=RetryPolicy(),
        timeline_interval_s=0.02,
    )
    result = sim.run()
    stored = {
        "result": dataclasses.asdict(result),
        "timeline_csv": sim.timeline.to_csv(),
        "fault_log": sim._injector.log,
        "netfault_log": sim._net_injector.log,
    }
    return json.dumps(stored, sort_keys=True, indent=2) + "\n"


def render_chaos(trial: int) -> str:
    """``render_report`` of one chaos trial plus the oracle's sample count."""
    oracles: List[ChaosOracle] = []

    class RecordingOracle(ChaosOracle):
        def attach(self, sim) -> None:
            oracles.append(self)
            super().attach(sim)

    scenario = ScenarioGenerator(CHAOS_SEED).generate(trial)
    with mock.patch.object(chaos_runner, "ChaosOracle", RecordingOracle):
        report = chaos_runner.render_report(chaos_runner.run_scenario(scenario))
    (oracle,) = oracles
    return f"{report}\nsamples_taken: {oracle.samples_taken}\n"


def simulate(policy: str, mode: str, seed: int) -> SimResult:
    """Run one SimResult-only golden scenario from scratch."""
    if mode == "canonical":
        trace = synthesize("calgary", 8_000, seed=seed)
        return Simulation(
            trace, make_policy(policy), ClusterConfig(nodes=16), passes=2
        ).run()
    trace = synthesize(
        mode if mode in TRACE_MODES else "calgary", REQUESTS, seed=seed
    )
    if mode.startswith("persistent"):
        trace = sessionize(trace, 4.0, seed=seed)
        mode = mode.partition("-")[2] or "plain"
    config = ClusterConfig(nodes=NODES)
    kwargs = {}
    if mode == "crash":
        kwargs["faults"] = FaultSchedule.parse(CRASH_SCHEDULE)
        kwargs["retry"] = RetryPolicy()
    elif mode == "slow":
        kwargs["faults"] = FaultSchedule.parse(SLOW_SCHEDULE)
    elif mode in ("netloss", "dfs-netloss"):
        config = ClusterConfig(
            nodes=NODES,
            net_faults=NetFaultConfig(loss_rate=0.02, seed=seed),
            replicated_disks=mode == "netloss",
        )
    elif mode == "dfs":
        config = ClusterConfig(nodes=NODES, replicated_disks=False)
    elif mode == "timeout":
        kwargs["retry"] = RetryPolicy(timeout_s=0.2)
    elif mode == "admission":
        kwargs["arrival_rate"] = 3000.0
        kwargs["overload"] = OverloadControl.default(
            NODES, max_inflight=8, deadline_s=0.05, seed=seed
        )
    elif mode != "plain" and mode not in TRACE_MODES:
        raise ValueError(f"unknown golden mode {mode!r}")
    sim = Simulation(
        trace, make_policy(policy), config, passes=2, seed=seed, **kwargs
    )
    return sim.run()


def canonical(result: SimResult) -> str:
    """The stored form: sorted-key JSON, as ``FarmResult.to_json`` writes."""
    return json.dumps(dataclasses.asdict(result), sort_keys=True, indent=2) + "\n"


def main() -> int:
    for policy, mode, seed in SCENARIOS:
        path = path_for(policy, mode, seed)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(render(policy, mode, seed))
        print(path)
    for trial in CHAOS_TRIALS:
        path = chaos_path_for(trial)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(render_chaos(trial))
        print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
