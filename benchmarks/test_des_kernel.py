"""K1 — kernel micro-benchmark: DES event throughput.

Not a paper artifact; a performance-regression guard for the substrate
every simulation stands on.  Measures events/second through the two
hot paths: a bare ``call_later`` chain and station visits with
handoffs.

Under ``--benchmark-disable`` the fixture calls the function once and
keeps no stats, so that one call is timed directly.
"""

import time

import pytest

from repro.des import Environment, Resource


def run_timeout_chain(n: int) -> int:
    env = Environment()
    count = [0]

    def tick():
        count[0] += 1
        if count[0] < n:
            env.call_later(1.0, tick)

    env.call_later(1.0, tick)
    env.run()
    return count[0]


def run_resource_contention(n: int, workers: int = 8) -> int:
    env = Environment()
    res = Resource(env, capacity=2)
    done = [0]

    def worker(left):
        # Each worker's visits run back to back as one visit chain.
        def visited():
            res.release()
            done[0] += 1
            if left > 1:
                worker(left - 1)

        res.visit(0.5, visited)

    for _ in range(workers):
        worker(n // workers)
    env.run()
    return done[0]


@pytest.mark.parametrize(
    "name,fn,n",
    [
        ("timeouts", run_timeout_chain, 50_000),
        ("resource", run_resource_contention, 40_000),
    ],
)
def test_des_kernel_throughput(benchmark, name, fn, n):
    start = time.perf_counter()
    result = benchmark.pedantic(fn, args=(n,), rounds=3, iterations=1)
    elapsed = time.perf_counter() - start
    assert result == n or result == (n // 8) * 8
    # Regression floor: the kernel must stay well above 10k events/s
    # even on slow CI machines (typical: several hundred k/s).
    mean = elapsed if benchmark.stats is None else benchmark.stats.stats.mean
    events_per_sec = n / mean
    print(f"\n{name}: {events_per_sec:,.0f} ops/s")
    assert events_per_sec > 10_000
