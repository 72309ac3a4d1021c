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
  cancelled mid-stage;
* ``dfs`` / ``dfs-netloss`` — partitioned disks (remote DFS reads),
  fault-free and with 2% message loss;
* ``persistent`` — HTTP/1.1 connections of mean length 4;
* ``clarknet`` — the fault-free l2s run on a clarknet trace;
* ``outage`` — a timed link outage and a partition, the ``crash`` fault
  schedule and an availability timeline sampled every 0.02 s.  The
  stored JSON holds the SimResult, the timeline CSV and both injector
  logs, so the background loops (fault and netfault injectors,
  timeline sampler) are pinned event for event.

``lard-ng`` (the dispatcher round-trip) runs ``plain`` and ``netloss``.

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
from repro.sim.persistent import run_persistent_simulation
from repro.workload import synthesize

GOLDEN_DIR = os.path.dirname(os.path.abspath(__file__))

POLICIES = ("traditional", "lard", "l2s")
MODES = ("plain", "crash", "netloss", "admission")
SEEDS = (1, 2)
NODES = 4
REQUESTS = 600

#: Modes beyond the base grid, each with the policies it runs.
EXTRA_MODES: Tuple[Tuple[Tuple[str, ...], str], ...] = (
    (POLICIES, "timeout"),
    (("lard-ng",), "plain"),
    (("lard-ng",), "netloss"),
    (("lard", "l2s"), "dfs"),
    (("lard", "l2s"), "dfs-netloss"),
    (("lard", "l2s"), "persistent"),
    (("l2s",), "clarknet"),
    (POLICIES, "outage"),
)

#: Every (policy, mode, seed) cell.
SCENARIOS: List[Tuple[str, str, int]] = [
    (policy, mode, seed) for policy in POLICIES for mode in MODES for seed in SEEDS
] + [
    (policy, mode, seed)
    for policies, mode in EXTRA_MODES
    for policy in policies
    for seed in SEEDS
]


#: Trials of ``ScenarioGenerator(CHAOS_SEED)`` in the chaos corpus.
CHAOS_SEED = 42
CHAOS_TRIALS = tuple(range(8))

CRASH_SCHEDULE = "crash:2@0.3,recover:2@0.6"
OUTAGE_NETFAULTS = "link:0-1@0.05..0.15,partition:2+3@0.2..0.3"


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
    trace = synthesize(
        "clarknet" if mode == "clarknet" else "calgary", REQUESTS, seed=seed
    )
    config = ClusterConfig(nodes=NODES)
    if mode == "persistent":
        return run_persistent_simulation(
            trace,
            make_policy(policy),
            mean_requests_per_connection=4.0,
            config=config,
            passes=2,
            seed=seed,
        )
    kwargs = {}
    if mode == "crash":
        kwargs["faults"] = FaultSchedule.parse(CRASH_SCHEDULE)
        kwargs["retry"] = RetryPolicy()
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
            NODES, max_inflight=8, limiter_mode=None, deadline_s=0.05, seed=seed
        )
    elif mode not in ("plain", "clarknet"):
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
