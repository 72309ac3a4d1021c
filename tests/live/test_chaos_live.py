"""Marked ``live``: a back-end is SIGKILLed mid-loadtest and the run
survives.

The satellite acceptance contract: with the front-end's resilience layer
on (probes, retries, redispatch), killing and respawning a worker while
the client replays the trace must leave zero unaccounted requests
(``SimResult.verify()`` passes), land the retried requests on surviving
nodes, and keep measured availability within the sim's prediction.  Also
pins the shutdown-escalation fix: ``stop()`` reaps suspended and killed
workers instead of orphaning them.
"""

import asyncio
import dataclasses
import os
from pathlib import Path

import pytest

from repro.chaos.spec import Scenario
from repro.live import (
    LiveCluster,
    LiveClusterConfig,
    LoadTestConfig,
    run_live_scenario,
    run_loadtest,
)
from repro.live.chaos import run_live_side
from repro.live.cli import main as live_main
from repro.servers import make_policy
from repro.workload import synthesize

pytestmark = pytest.mark.live

FIXTURE = Path(__file__).parent / "data" / "kill_recover.json"
RAMP_FIXTURE = Path(__file__).parent / "data" / "ramp.json"


def test_kill_recover_scenario_survives_and_conserves(tmp_path):
    scenario = dataclasses.replace(
        Scenario.load(FIXTURE), requests=1200
    )
    outcome = run_live_scenario(scenario, root=tmp_path, concurrency=16)

    # The faults really fired mid-run, in plan order, on the plan's node.
    assert [(a, n) for _, a, n in outcome.executed] == [
        ("kill", 1), ("respawn", 1),
    ]
    live = outcome.live
    summary = live.netfault_summary["live"]
    assert summary["kills"] == 1
    assert summary["respawns"] == 1
    assert summary["incarnations"][1] == 1  # node 1 is on its 2nd life

    # Zero unaccounted requests despite the mid-run SIGKILL.
    assert live.verify() == []
    assert live.requests_generated == scenario.requests
    assert live.requests_measured > 0

    # Retries landed on survivors: the requests that hit the dead node
    # were re-routed and completed, not failed.
    assert live.requests_retried >= 1
    assert live.requests_failed <= live.requests_generated * 0.15

    # Measured availability within the sim's prediction (the ISSUE's
    # +/- 0.15 acceptance band), and the whole scorecard passes.
    assert abs(outcome.report.availability_delta) <= 0.15
    assert outcome.passed
    # The render must not blow up (CI prints it on failure).
    assert "live actions executed" in outcome.render()


def test_respawn_at_the_end_of_the_load_is_counted(tmp_path):
    """A respawn still due when the load ends runs in the injector's
    ``finish()``; the live summary must be built after it, so the
    respawn it lists as executed is also counted."""
    base = Scenario.load(FIXTURE)
    crash = dataclasses.replace(base.plan[0], start=0.5, end=base.horizon_s)
    scenario = dataclasses.replace(base, requests=400, plan=(crash,))
    assert scenario.live_schedule()[-1] == (1.0, "respawn", {"node": 1})

    live, _, executed = asyncio.run(
        run_live_side(scenario, tmp_path, concurrency=8)
    )
    assert [(a, n) for _, a, n in executed] == [("kill", 1), ("respawn", 1)]
    summary = live.netfault_summary["live"]
    assert summary["kills"] == 1
    assert summary["respawns"] == 1
    assert summary["incarnations"][1] == 1
    assert live.verify() == []


def test_ramp_scenario_scores_shed_and_goodput(tmp_path):
    """The overload acceptance: a flash-ramp scenario runs on both
    substrates with the same AdmissionController spec, and the live
    shed fraction and goodput (availability) land within +/- 0.15 of
    the sim's prediction."""
    scenario = dataclasses.replace(Scenario.load(RAMP_FIXTURE), requests=1200)
    assert scenario.admission_limit is not None  # overload really armed
    outcome = run_live_scenario(scenario, root=tmp_path, concurrency=16)

    live, report = outcome.live, outcome.report
    assert live.verify() == []
    assert live.requests_generated == scenario.requests
    # Both substrates ran the identical ramp-rewritten arrival sequence.
    assert outcome.sim.trace.endswith("+ramp")
    assert live.trace.endswith("+ramp")
    # The scored acceptance bands.
    assert report.shed_threshold is not None
    assert abs(report.shed_delta) <= 0.15
    assert abs(report.availability_delta) <= 0.15
    assert outcome.passed
    rendered = report.render()
    assert "shed fraction" in rendered


def test_chaos_cli_exits_zero_on_the_committed_fixture(tmp_path, capsys):
    rc = live_main([
        "chaos", "--spec", str(FIXTURE),
        "--root", str(tmp_path),
        "--csv", str(tmp_path / "timeline.csv"),
    ])
    out = capsys.readouterr().out
    assert rc == 0, out
    assert "WITHIN THRESHOLDS" in out
    csv = (tmp_path / "timeline.csv").read_text()
    assert csv.splitlines()[0].startswith("t,goodput_rps,")


def chaos_cluster(tmp_path, nodes=2, requests=200, resilience=None):
    trace = synthesize("calgary", num_requests=requests, seed=1)
    cluster = LiveCluster(
        make_policy("round-robin"),
        trace,
        LiveClusterConfig(nodes=nodes, backend_mode="process", root=tmp_path),
    )
    cluster.enable_chaos(seed=1, resilience=resilience)
    return cluster, trace


def test_stop_reaps_suspended_and_killed_workers(tmp_path):
    cluster, _ = chaos_cluster(tmp_path)

    async def run():
        await cluster.start()
        procs = list(cluster._procs)
        cluster.suspend_backend(0)  # SIGSTOP: ignores /shutdown until CONT
        await cluster.kill_backend(1)  # SIGKILL, never respawned
        # The escalation path must finish bounded: SIGCONT the stopped
        # worker, time-boxed /shutdown, then reap everything.
        await asyncio.wait_for(cluster.stop(), timeout=20.0)
        return procs

    procs = asyncio.run(run())
    assert all(p.returncode is not None for p in procs), "orphaned worker"
    # No zombies: the pids are really gone.
    for p in procs:
        with pytest.raises(ProcessLookupError):
            os.kill(p.pid, 0)


def test_loadtest_counts_client_timeouts_as_failed(tmp_path):
    # Probes too slow to matter: passive suspicion (a timed-out request)
    # must be the discovery path, so at least one request really fails.
    from repro.live import ResilienceConfig

    cluster, trace = chaos_cluster(
        tmp_path, requests=120,
        resilience=ResilienceConfig(
            probe_interval_s=60.0, fail_threshold=1000,
            request_timeout_s=0.3,
        ),
    )

    async def run():
        await cluster.start()
        try:
            # Suspend a worker and give the front-end no retry headroom:
            # requests routed to it must time out, be counted failed,
            # and still satisfy the conservation identity.
            cluster.frontend.resilience.retry = dataclasses.replace(
                cluster.frontend.resilience.retry, max_retries=0
            )
            cluster.suspend_backend(1)
            return await run_loadtest(
                cluster, trace,
                LoadTestConfig(
                    concurrency=4, passes=1, warmup_fraction=0.0,
                    request_timeout_s=2.0, prewarm=False,
                ),
            )
        finally:
            await asyncio.wait_for(cluster.stop(), timeout=20.0)

    result = asyncio.run(run())
    assert result.verify() == []  # conservation holds under faults
    assert result.requests_failed >= 1
    live = result.netfault_summary["live"]
    assert live["frontend_timeouts"] >= 1 or live["client_timeouts"] >= 1
