"""DES sanitizer mutation tests.

Each test seeds the exact buggy kernel state a real defect would create
— scheduling into the past, corrupting the queue directly, re-queueing
an entry that already fired — and asserts the kernel refuses it or the
sanitizer reports it, with the offending entry's provenance (this
file's name, since the entries are scheduled here).
"""

from heapq import heappush

import pytest

from repro.des import Environment, SanitizerError
from repro.des.core import NORMAL, URGENT

HERE = "test_sanitizer.py"


def make_env(**kw):
    return Environment(sanitize=True, **kw)


def _noop():
    pass


def test_environment_flags():
    env = make_env()
    assert env.sanitized
    assert env.sanitizer is not None
    assert not Environment().sanitized


def test_env_var_enables_sanitizer(monkeypatch):
    monkeypatch.setenv("REPRO_DES_SANITIZE", "1")
    assert Environment().sanitized
    monkeypatch.setenv("REPRO_DES_SANITIZE", "0")
    assert not Environment().sanitized


# -- mutation: scheduling into the past -----------------------------------


def test_negative_delay_schedule_is_caught():
    """call_later refuses the past at the source: nothing is queued."""
    env = make_env()
    env.call_later(5, _noop)
    env.run()
    assert env.now == 5
    with pytest.raises(ValueError, match="negative delay"):
        env.call_later(-3.0, _noop)
    assert env.peek() == float("inf")
    assert (env.event_count, env.sanitizer.events_tracked) == (1, 1)


def test_queue_injection_behind_the_clock_is_caught_at_pop():
    env = make_env()
    env.call_later(5, _noop)
    env.run()
    # Bypass every scheduling entry point: raw heap surgery.
    heappush(env._queue, [1.0, NORMAL, env._eid + 1, _noop])
    with pytest.raises(SanitizerError) as exc:
        env.step()
    assert exc.value.violation.kind == "time-travel"


# -- mutation: re-queueing an entry that already fired ---------------------


def test_repop_of_a_processed_event_is_caught():
    """A fired ``call_later`` handle pushed back onto the heap pops with
    a key no greater than the last pop: an order violation at the same
    time, time travel once the clock has moved on."""
    for later, expected in ((False, "order-violation"), (True, "time-travel")):
        env = make_env()
        hits = []

        def fired():
            hits.append(env.now)

        handle = env.call_later(1.0, fired)
        if later:
            env.call_later(2.0, _noop)
        env.run()
        heappush(env._queue, handle)
        with pytest.raises(SanitizerError) as exc:
            env.step()
        assert exc.value.violation.kind == expected
        assert "fired" in exc.value.violation.provenance
        assert hits == [1.0]


# -- mutation: tie-break order --------------------------------------------


def test_out_of_order_pop_is_caught():
    env = make_env()
    env.call_later(5, _noop)
    env.run()
    # An entry that pretends to have been queued *before* the last pop
    # (eid 0) with a lexically smaller key: a broken scheduler's output.
    heappush(env._queue, [5.0, URGENT, 0, _noop])
    with pytest.raises(SanitizerError) as exc:
        env.step()
    assert exc.value.violation.kind == "order-violation"


def test_urgent_same_time_schedule_is_not_a_false_positive():
    """An URGENT zero-delay event scheduled while processing a same-time
    event legally pops with a smaller (priority, eid) key than earlier
    pops at that time — the sanitizer must accept it (regression test
    for the coexistence exemption)."""
    env = make_env()
    order = []

    def second():
        order.append("urgent")

    def first():
        order.append("first")
        env.call_later(0.0, second, priority=URGENT)

    env.call_later(1.0, first)
    env.call_later(1.0, lambda: order.append("normal"))
    env.run()
    # The urgent event overtakes the queued same-time normal event; its
    # pop key is lexically *smaller* than the pop that created it.
    assert order == ["first", "urgent", "normal"]
    assert env.sanitizer.violations == []


# -- leak report ------------------------------------------------------------


def test_leak_report_stranded_call_later_entry():
    env = make_env()

    def late():
        pass

    env.call_later(5.0, late)
    env.run(until=1.0)  # stops before the continuation runs
    report = env.sanitizer.finish()
    assert len(report.stranded) == 1
    assert "late" in report.stranded[0] and HERE in report.stranded[0]


def test_leak_report_clean_run():
    env = make_env()
    done = []
    env.call_later(1, lambda: done.append(env.now))
    env.run()
    report = env.sanitizer.finish()
    assert done == [1]
    assert report.clean
    assert "no leaks" in report.render()


def test_leak_report_stalled_operation():
    env = make_env()
    san = env.sanitizer
    tok = san.op_begin("fast-request", "request #7, file 3")
    done_tok = san.op_begin("fast-request", "request #8, file 4")
    san.op_end(done_tok)
    report = san.finish()
    assert len(report.stalled_ops) == 1
    assert "request #7" in report.stalled_ops[0]
    assert tok != done_tok


def test_leak_report_separates_undelivered_messages():
    env = make_env()
    san = env.sanitizer
    san.op_begin("interconnect-message", "handoff")
    san.op_begin("fast-request", "request #9, file 1")
    report = san.finish()
    assert not report.clean
    assert len(report.undelivered_messages) == 1
    assert "handoff" in report.undelivered_messages[0]
    # The message leak is not double-reported as a stalled operation.
    assert len(report.stalled_ops) == 1
    assert "request #9" in report.stalled_ops[0]
    assert "undelivered interconnect messages" in report.render()


def test_sanitized_interconnect_tracks_message_delivery():
    from repro.cluster import Cluster, ClusterConfig
    from repro.model import MB

    env = make_env()
    cluster = Cluster(env, ClusterConfig(nodes=2, cache_bytes=1 * MB))
    cluster.net.send_message_cb(0, 1, 64.0, "bulk")
    env.run(until=1e-6)  # stop mid-flight
    report = env.sanitizer.finish()
    assert len(report.undelivered_messages) == 1
    assert "bulk" in report.undelivered_messages[0]


def test_sanitized_interconnect_clean_after_delivery_and_after_drop():
    from repro.cluster import Cluster, ClusterConfig
    from repro.model import MB

    env = make_env()
    cluster = Cluster(env, ClusterConfig(nodes=3, cache_bytes=1 * MB))
    cluster.net.send_message_cb(0, 1, 1.0, "ok")
    cluster.net.send_message_cb(0, 2, 1.0, "doomed")
    cluster.node(2).crash()  # the drop still closes the message's op
    env.run()
    report = env.sanitizer.finish()
    assert report.clean
    assert report.undelivered_messages == []


# -- a clean sanitized run -------------------------------------------------


def test_sanitized_run_is_ordered_and_clean():
    env = make_env()
    log = []

    def clock(name, period, beats):
        def beat():
            log.append((name, env.now))
            if len([e for e in log if e[0] == name]) < beats:
                env.call_later(period, beat)

        env.call_later(period, beat)

    clock("a", 1.0, 5)
    clock("b", 2.5, 2)
    env.run()
    assert log == [
        ("a", 1.0), ("a", 2.0), ("b", 2.5), ("a", 3.0), ("a", 4.0),
        ("b", 5.0), ("a", 5.0),
    ]
    assert env.sanitizer.finish().clean
