"""Property test: the DES kernel is fully deterministic.

Random callback graphs (delays, resource visits, cancelled entries) must
produce byte-identical event traces across repeated runs — the
foundation of the simulator's reproducibility guarantees.
"""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.des import Environment, Resource


def _noop():
    pass


def build_and_run(seed: int):
    """A randomized mini-simulation; returns its event log."""
    rng = random.Random(seed)
    env = Environment()
    log = []
    res = Resource(env, capacity=rng.randint(1, 3))
    pending = []

    def worker(name, steps):
        if not steps:
            return
        choice = rng.random()
        rest = steps - 1
        if choice < 0.4:
            def granted():
                log.append(("res", name, env.now))
                env.call_later(rng.uniform(0, 2), done)

            def done():
                res.release()
                worker(name, rest)

            res.acquire(granted)
        elif choice < 0.7:
            def tick():
                log.append(("tick", name, env.now))
                worker(name, rest)

            pending.append(env.call_later(rng.uniform(0, 1), tick))
        else:
            # Cancel a random earlier tick: its entry still pops, its
            # continuation never runs.
            if pending:
                pending.pop(rng.randrange(len(pending)))[3] = _noop
                log.append(("cancel", name, env.now))
            env.call_later(0, lambda: worker(name, rest))

    for i in range(rng.randint(2, 6)):
        worker(f"w{i}", rng.randint(1, 4))
    env.run(until=50)
    log.append(("events", env.event_count))
    return log


@given(seed=st.integers(min_value=0, max_value=10_000))
@settings(max_examples=30, deadline=None)
def test_property_identical_runs(seed):
    assert build_and_run(seed) == build_and_run(seed)
