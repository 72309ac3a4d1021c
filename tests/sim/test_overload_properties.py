"""Property tests: request conservation under admission shedding and
circuit breakers, with the kernel's runtime sanitizer off and on.

The conservation identity is the overload layer's hardest contract:
every generated request resolves exactly once — completed, failed, or
shed at the front door — no matter how the admission controller, the
adaptive limit, and the breakers interleave with the request lifecycle.
Hypothesis drives the shape (rate, cap, deadline, trace seed); the
sanitizer (which checks every schedule and pop the lifecycle makes) is
exercised explicitly so a failure names its cell.
"""

import os

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.cluster import ClusterConfig
from repro.model import MB
from repro.overload import OverloadControl
from repro.servers import make_policy
from repro.sim import Simulation
from repro.workload import build_fileset, generate_trace

#: REPRO_DES_SANITIZE values: sanitizer off, on.
SANITIZE = ["0", "1"]


def make_trace(seed):
    fs = build_fileset(120, 12 * 1024, 10 * 1024, 0.9, seed=seed, name="ovp")
    return generate_trace(fs, 400, seed=seed + 1, name="ovp")


def run_variant(sanitize, trace, rate, overload, policy):
    before = os.environ.get("REPRO_DES_SANITIZE")
    os.environ["REPRO_DES_SANITIZE"] = sanitize
    try:
        sim = Simulation(
            trace,
            make_policy(policy),
            ClusterConfig(
                nodes=3, cache_bytes=2 * MB, multiprogramming_per_node=8
            ),
            passes=2,
            arrival_rate=rate,
            overload=overload,
            seed=3,
        )
        result = sim.run()
        return sim, result
    finally:
        if before is None:
            os.environ.pop("REPRO_DES_SANITIZE", None)
        else:
            os.environ["REPRO_DES_SANITIZE"] = before


def check_conservation(sim, result, trace):
    total = 2 * len(trace)
    assert result.requests_generated == total
    # Every request resolved exactly once; front-door sheds are a
    # subset of the failures and never go negative or exceed them.
    resolved = sim._completed + sim._failed
    assert resolved == total
    assert 0 <= sim._shed_front <= sim._failed
    assert result.requests_shed >= sim._shed_front
    # The admission books close: inflight drained, every admitted
    # request released its slot.
    admission = sim.overload.admission
    assert admission.inflight == 0
    assert not sim._admitted_idx
    assert admission.admitted + admission.shed_total >= admission.shed_total


@pytest.mark.parametrize("sanitize", SANITIZE)
@settings(
    max_examples=10,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    seed=st.integers(min_value=0, max_value=40),
    cap=st.integers(min_value=2, max_value=24),
    rate_x=st.floats(min_value=0.5, max_value=4.0),
)
def test_conservation_under_static_admission(sanitize, seed, cap, rate_x):
    trace = make_trace(seed)
    overload = OverloadControl.default(
        3, max_inflight=cap, deadline_s=0.05, seed=seed
    )
    sim, result = run_variant(
        sanitize, trace, 800.0 * rate_x, overload, "round-robin"
    )
    check_conservation(sim, result, trace)


@pytest.mark.parametrize("sanitize", SANITIZE)
@settings(
    max_examples=8,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    seed=st.integers(min_value=0, max_value=40),
    target_ms=st.floats(min_value=1.0, max_value=100.0),
)
def test_conservation_under_adaptive_limit_and_breakers(
    sanitize, seed, target_ms
):
    trace = make_trace(seed)
    overload = OverloadControl.default(
        3,
        target_latency_s=target_ms / 1000.0,
        deadline_s=0.1,
        seed=seed,
    )
    sim, result = run_variant(
        sanitize, trace, 2500.0, overload, "lard"
    )
    check_conservation(sim, result, trace)
    # Sheds never feed the breakers: an overloaded-but-healthy cluster
    # must not trip a single breaker.
    assert sim.overload.breakers.trips == 0


@pytest.mark.parametrize("sanitize", SANITIZE)
def test_variants_agree_on_the_books(sanitize):
    """Same scenario, sanitizer off and on: identical shed/complete
    totals (the kernel variant must be invisible to the books)."""
    trace = make_trace(9)
    overload = OverloadControl.default(
        3, max_inflight=8, deadline_s=0.05, seed=9
    )
    sim, result = run_variant(
        sanitize, trace, 3000.0, overload, "round-robin"
    )
    check_conservation(sim, result, trace)
    books = (result.requests_shed, sim._completed, sim._failed)
    baseline = getattr(test_variants_agree_on_the_books, "_books", None)
    if baseline is None:
        test_variants_agree_on_the_books._books = books
    else:
        assert books == baseline, sanitize
