"""Property tests: Resource semantics against a reference model.

Random workloads of visit/hold/release visits are checked against an
oracle: at no instant do more than ``capacity`` holders exist, grants
are FIFO among waiting visits, and total busy time matches the union
of holding intervals.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.des import Environment, Resource


@given(
    capacity=st.integers(min_value=1, max_value=4),
    jobs=st.lists(
        st.tuples(
            st.floats(min_value=0.0, max_value=20.0),  # arrival
            st.floats(min_value=0.01, max_value=5.0),  # hold
        ),
        min_size=1,
        max_size=25,
    ),
)
@settings(max_examples=60, deadline=None)
def test_property_capacity_never_exceeded(capacity, jobs):
    env = Environment()
    res = Resource(env, capacity=capacity)
    visits = []  # (entry, hold, completed) per job, in arrival order
    max_holding = [0]
    ends = []

    def observe():
        # Holders are the granted (scheduled) entries not yet completed.
        holding = sum(1 for e, _, c in visits if e[2] is not None and not c[0])
        assert holding == res.count
        max_holding[0] = max(max_holding[0], holding)

    def job(hold):
        completed = [False]

        def done():
            completed[0] = True
            ends.append((entry[2], env.now - hold))
            res.release()
            observe()

        entry = res.visit(hold, done)
        visits.append((entry, hold, completed))
        observe()

    for arrival, hold in jobs:
        env.call_later(arrival, lambda hold=hold: job(hold))
    env.run()

    assert max_holding[0] <= capacity
    assert len(ends) == len(jobs)
    assert res.count == 0 and res.queue_length == 0
    # Grant times never decrease in grant (eid) order.
    times = [t for _, t in sorted(ends)]
    assert all(b >= a - 1e-9 for a, b in zip(times, times[1:]))


@given(
    holds=st.lists(
        st.floats(min_value=0.01, max_value=3.0), min_size=2, max_size=12
    )
)
@settings(max_examples=40, deadline=None)
def test_property_fifo_grant_order_same_arrival(holds):
    """Visits queued in order at the same instant are granted in order."""
    env = Environment()
    res = Resource(env, capacity=1)
    order = []

    for jid, hold in enumerate(holds):
        res.hold(hold, lambda jid=jid: order.append(jid))
    env.run()
    assert order == list(range(len(holds)))


@given(
    jobs=st.lists(
        st.tuples(
            st.floats(min_value=0.0, max_value=10.0),
            st.floats(min_value=0.05, max_value=2.0),
        ),
        min_size=1,
        max_size=15,
    )
)
@settings(max_examples=40, deadline=None)
def test_property_busy_time_matches_interval_union(jobs):
    """For capacity 1, busy time equals the sum of actual holds."""
    env = Environment()
    res = Resource(env, capacity=1)
    total_hold = [0.0]

    last_end = [0.0]

    def job(hold):
        arrival = env.now

        def done():
            # FIFO on one slot: a visit starts when it arrives or when
            # the visit before it ends, whichever is later.
            total_hold[0] += env.now - max(arrival, last_end[0])
            last_end[0] = env.now
            res.release()

        res.visit(hold, done)

    for arrival, hold in jobs:
        env.call_later(arrival, lambda hold=hold: job(hold))
    env.run()
    assert abs(res.busy_time() - total_hold[0]) < 1e-9
