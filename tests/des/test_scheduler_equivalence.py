"""Cross-variant equivalence: every kernel configuration must agree.

The kernel has one event loop, entered three ways: ``run()`` drains it,
``step()`` runs it for exactly one event, and a sanitized environment
routes every schedule and pop through the sanitizer's checks.  None of
these may change behaviour: for a fixed seed, every combination must
produce the *same simulation* — identical event orderings on randomized
storms, identical SimResults, and byte-identical ``repro reproduce``
reports.
"""

from __future__ import annotations

import itertools
import random

import pytest

from repro.cluster import ClusterConfig
from repro.des import EmptySchedule, Environment, Resource
from repro.des.core import URGENT
from repro.faults import FaultSchedule
from repro.servers import make_policy
from repro.sim.driver import Simulation
from repro.workload import build_fileset, generate_trace

#: (driver, sanitize) kernel variants; the first is the production
#: configuration every other one is compared against.
KERNEL_VARIANTS = list(itertools.product(["run", "step"], [False, True]))


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


def _noop():
    pass


def _storm(driver: str, sanitize: bool, seed: int):
    """A seeded blizzard of delays, ties, priorities, resource contention
    and cancellations; returns the processed-event log.

    A "chaos" chain interrupts random workers: a pending tick's entry is
    blanked, a queued visit is withdrawn from the station's queue, and a
    held visit's completion entry is blanked while its slot frees.  The
    victim resumes at an URGENT zero-delay entry.
    """
    rng = random.Random(seed)
    env = Environment(sanitize=sanitize)
    res = Resource(env, capacity=2)
    log = []

    class Worker:
        def __init__(self, wid):
            self.wid = wid
            self.steps = rng.randint(3, 12)
            self.step = -1
            #: What the worker waits on: ("tick", entry), ("visit",
            #: entry) — queued or held — ("resuming", entry) or None.
            self.waiting = None
            self.next_step()

        def next_step(self):
            self.step += 1
            self.waiting = None
            if self.step < self.steps:
                # Integer delays force heavy (time, priority) ties.
                delay = rng.choice([0, 0, 1, 1, 2, 5])
                self.waiting = ("tick", env.call_later(delay, self.tick))

        def tick(self):
            log.append((env.now, "tick", self.wid, self.step))
            if rng.random() < 0.4:
                hold = rng.choice([0, 1, 3])
                self.waiting = ("visit", res.visit(hold, self.done))
            else:
                self.next_step()

        def done(self):
            res.release()
            # The visit's eid records when it was granted.
            eid = self.waiting[1][2]
            log.append((env.now, "release", self.wid, self.step, eid))
            self.next_step()

        def interrupt(self, cause):
            kind, what = self.waiting
            if kind == "tick":
                what[3] = _noop
                log.append((env.now, "interrupted", self.wid, self.step, cause))
            else:
                # Held: blank the completion and free the slot; still
                # queued: leave the queue.
                res.withdraw(what)
                log.append(
                    (env.now, "interrupted-res", self.wid, self.step, cause)
                )
            self.waiting = ("resuming", env.call_later(0, self.next_step, URGENT))

    workers = [Worker(w) for w in range(6)]

    def chaos(left):
        def strike():
            victim = rng.choice(workers)
            if victim.waiting is not None and victim.waiting[0] != "resuming":
                victim.interrupt(f"chaos@{env.now}")
                log.append((env.now, "interrupt-sent"))
            if left > 1:
                chaos(left - 1)

        env.call_later(rng.choice([1, 2, 3]), strike)

    def late_caller(i):
        env.call_later(
            rng.choice([0.0, 1.0, 2.5]),
            lambda: log.append((env.now, "call_later", i)),
            priority=rng.choice([0, 1]),
        )
        if i < 7:
            env.call_later(1, lambda: late_caller(i + 1))

    chaos(10)
    late_caller(0)
    _drive(env, driver, log)
    return log


@pytest.mark.parametrize("seed", [0, 1, 2, 3, 17])
def test_storm_identical_across_variants(seed):
    reference = _storm(*KERNEL_VARIANTS[0], seed)
    assert reference, "storm produced no events"
    for driver, sanitize in KERNEL_VARIANTS[1:]:
        assert _storm(driver, sanitize, seed) == reference, (
            f"driver={driver} sanitize={sanitize} "
            "diverged from run() on the same seed"
        )


def test_storm_final_state_identical():
    """Beyond ordering: clocks and event counts agree too."""
    for seed in (5, 6):
        finals = set()
        for driver, sanitize in KERNEL_VARIANTS:
            env = Environment(sanitize=sanitize)
            rng = random.Random(seed)

            def burst(left):
                if left:
                    env.call_later(
                        rng.choice([0, 1, 1, 2, 7]), lambda: burst(left - 1)
                    )

            burst(200)
            _drive(env, driver, [])
            finals.add((env.now, env.event_count))
        assert len(finals) == 1, f"final states diverged: {finals}"


# -- full simulations --------------------------------------------------------


def _sim_result(monkeypatch, driver, sanitize, faults=None):
    monkeypatch.setattr(
        Environment, "run", _run_by_steps if driver == "step" else _ENV_RUN
    )
    monkeypatch.setenv("REPRO_DES_SANITIZE", "1" if sanitize else "0")
    fs = build_fileset(120, 15 * 1024, 12 * 1024, 0.9, seed=3, name="eq")
    trace = generate_trace(fs, 1200, seed=4, name="eq")
    sim = Simulation(
        trace,
        make_policy("l2s"),
        ClusterConfig(nodes=4),
        passes=2,
        faults=faults,
    )
    return sim.run()


@pytest.mark.parametrize(
    "faults",
    [None, FaultSchedule.single_crash(1, after_requests=300)],
    ids=["healthy", "crash"],
)
def test_simulation_identical_across_all_variants(monkeypatch, faults):
    """SimResult equality across driver x sanitize (4 ways), healthy
    and with a mid-run node crash."""
    reference = None
    for driver, sanitize in KERNEL_VARIANTS:
        r = _sim_result(monkeypatch, driver, sanitize, faults)
        if reference is None:
            reference = r
        else:
            assert r == reference, (
                f"driver={driver} sanitize={sanitize} changed the simulation"
            )


# -- end-to-end report bytes -------------------------------------------------


@pytest.mark.slow
def test_reproduce_report_byte_identical_across_kernels(monkeypatch, tmp_path):
    """`repro reproduce --workers 2` output must not depend on the
    sanitizer (workers inherit the setting through the environment)."""
    from repro.experiments.reproduce import write_report

    texts = {}
    for sanitize in ("0", "1"):
        monkeypatch.setenv("REPRO_DES_SANITIZE", sanitize)
        out = tmp_path / f"report-sanitize{sanitize}.md"
        write_report(
            str(out),
            num_requests=800,
            traces=("calgary",),
            node_counts=(2, 4),
            workers=2,
            timing_footer=False,
        )
        texts[sanitize] = out.read_bytes()
    assert texts["1"] == texts["0"]
