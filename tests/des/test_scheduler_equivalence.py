"""Cross-variant equivalence: every kernel configuration must agree.

The kernel has one event loop, entered three ways: ``run()`` drains it,
``step()`` runs it for exactly one event, and a sanitized environment
routes every pop through the sanitizer's checks.  On top sit an event
free-list pool and a callback-chain request fast path.  None of these
may change behaviour: for a fixed seed, every combination must produce
the *same simulation* — identical event orderings on randomized storms,
identical SimResults, and byte-identical ``repro reproduce`` reports.
"""

from __future__ import annotations

import itertools
import random

import pytest

from repro.cluster import ClusterConfig
from repro.des import EmptySchedule, Environment, Interrupt, Resource
from repro.servers import make_policy
from repro.sim.driver import Simulation
from repro.workload import build_fileset, generate_trace

#: (driver, pooling, sanitize) kernel variants; the first is the
#: production configuration every other one is compared against.
KERNEL_VARIANTS = list(
    itertools.product(["run", "step"], [True, False], [False, True])
)


#: Storms pause once at this time, so the ``run(until=...)`` horizon is
#: exercised too: events at exactly this time must wait for the resume.
HORIZON = 4


def _step_all(env):
    while True:
        try:
            env.step()
        except EmptySchedule:
            return


def _drive(env, driver, log):
    """Drain ``env`` with ``run()`` or with repeated ``step()``, logging
    the pause at :data:`HORIZON`."""
    if driver == "run":
        env.run(until=HORIZON)
        log.append(("horizon",))
        env.run()
        return
    while env.peek() < HORIZON:
        env.step()
    log.append(("horizon",))
    _step_all(env)


_ENV_RUN = Environment.run


def _run_by_steps(self, until=None):
    """``Environment.run`` stand-in that drains the loop by ``step()``."""
    assert until is None, "simulations drain the schedule"
    _step_all(self)


# -- randomized event storms -------------------------------------------------


def _storm(driver: str, pooling: bool, sanitize: bool, seed: int):
    """A seeded blizzard of timeouts, ties, priorities, resource contention,
    interrupts and failures; returns the processed-event log."""
    rng = random.Random(seed)
    env = Environment(pool_events=pooling, sanitize=sanitize)
    res = Resource(env, capacity=2)
    log = []

    def worker(wid):
        for step in range(rng.randint(3, 12)):
            # Integer delays force heavy (time, priority) ties.
            delay = rng.choice([0, 0, 1, 1, 2, 5])
            try:
                yield env.timeout(delay, value=(wid, step))
            except Interrupt as i:
                log.append((env.now, "interrupted", wid, step, str(i.cause)))
                continue
            log.append((env.now, "tick", wid, step))
            if rng.random() < 0.4:
                try:
                    with res.request() as req:
                        yield req
                        log.append((env.now, "hold", wid, step))
                        yield env.timeout(rng.choice([0, 1, 3]))
                    log.append((env.now, "release", wid, step))
                except Interrupt as i:
                    log.append((env.now, "interrupted-res", wid, step, str(i.cause)))

    def chaos(procs):
        for _ in range(10):
            yield env.timeout(rng.choice([1, 2, 3]))
            victim = rng.choice(procs)
            if victim.is_alive and victim is not env.active_process:
                victim.interrupt(cause=f"chaos@{env.now}")
                log.append((env.now, "interrupt-sent"))

    def late_caller():
        for i in range(8):
            env.call_later(
                rng.choice([0.0, 1.0, 2.5]),
                lambda _e, i=i: log.append((env.now, "call_later", i)),
                priority=rng.choice([0, 1]),
            )
            yield env.timeout(1)

    def failer():
        yield env.timeout(7)
        ev = env.event()
        ev.callbacks.append(lambda e: log.append((env.now, "failed-seen")))
        ev.defused()
        ev.fail(RuntimeError("storm failure"))
        yield env.timeout(1)

    procs = [env.process(worker(w)) for w in range(6)]
    env.process(chaos(procs))
    env.process(late_caller())
    env.process(failer())
    _drive(env, driver, log)
    return log


@pytest.mark.parametrize("seed", [0, 1, 2, 3, 17])
def test_storm_identical_across_variants(seed):
    reference = _storm(*KERNEL_VARIANTS[0], seed)
    assert reference, "storm produced no events"
    for driver, pooling, sanitize in KERNEL_VARIANTS[1:]:
        assert _storm(driver, pooling, sanitize, seed) == reference, (
            f"driver={driver} pooling={pooling} sanitize={sanitize} "
            "diverged from run()+pool on the same seed"
        )


def test_storm_final_state_identical():
    """Beyond ordering: clocks and event counts agree too."""
    for seed in (5, 6):
        finals = set()
        for driver, pooling, sanitize in KERNEL_VARIANTS:
            env = Environment(pool_events=pooling, sanitize=sanitize)
            rng = random.Random(seed)

            def burst():
                for _ in range(200):
                    yield env.timeout(rng.choice([0, 1, 1, 2, 7]))

            env.process(burst())
            _drive(env, driver, [])
            finals.add((env.now, env.event_count))
        assert len(finals) == 1, f"final states diverged: {finals}"


# -- full simulations --------------------------------------------------------


def _sim_result(monkeypatch, driver, pooling, sanitize, failures=None):
    monkeypatch.setattr(
        Environment, "run", _run_by_steps if driver == "step" else _ENV_RUN
    )
    monkeypatch.setenv("REPRO_DES_POOL", "1" if pooling else "0")
    monkeypatch.setenv("REPRO_DES_SANITIZE", "1" if sanitize else "0")
    fs = build_fileset(120, 15 * 1024, 12 * 1024, 0.9, seed=3, name="eq")
    trace = generate_trace(fs, 1200, seed=4, name="eq")
    sim = Simulation(
        trace,
        make_policy("l2s"),
        ClusterConfig(nodes=4),
        passes=2,
        failures=failures,
    )
    return sim.run()


@pytest.mark.parametrize("failures", [None, [(1, 300)]], ids=["healthy", "crash"])
def test_simulation_identical_across_all_variants(monkeypatch, failures):
    """SimResult equality across driver x pooling x sanitize (8 ways),
    healthy and with a mid-run node crash."""
    reference = None
    for driver, pooling, sanitize in KERNEL_VARIANTS:
        r = _sim_result(monkeypatch, driver, pooling, sanitize, failures)
        if reference is None:
            reference = r
        else:
            assert r == reference, (
                f"driver={driver} pooling={pooling} sanitize={sanitize} "
                "changed the simulation"
            )


# -- end-to-end report bytes -------------------------------------------------


@pytest.mark.slow
def test_reproduce_report_byte_identical_across_kernels(monkeypatch, tmp_path):
    """`repro reproduce --workers 2` output must not depend on event
    pooling (workers inherit the setting through the environment)."""
    from repro.experiments.reproduce import write_report

    texts = {}
    for pool in ("1", "0"):
        monkeypatch.setenv("REPRO_DES_POOL", pool)
        out = tmp_path / f"report-pool{pool}.md"
        write_report(
            str(out),
            num_requests=800,
            traces=("calgary",),
            node_counts=(2, 4),
            workers=2,
            timing_footer=False,
        )
        texts[pool] = out.read_bytes()
    assert texts["1"] == texts["0"]
