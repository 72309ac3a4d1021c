"""DES sanitizer mutation tests.

Each test seeds the exact buggy kernel state a real defect would create
— scheduling into the past, double-succeeding an event, corrupting the
queue directly — and asserts the sanitizer reports it with the offending
event's provenance (this file's name, since the events are created
here).
"""

from heapq import heappush

import pytest

from repro.des import Environment, SanitizerError
from repro.des.core import NORMAL, PENDING, URGENT, Event

HERE = "test_sanitizer.py"


def make_env(**kw):
    return Environment(sanitize=True, **kw)


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
    env = make_env()
    env.timeout(5)
    env.run()
    assert env.now == 5
    ev = Event(env)
    ev._ok = True
    ev._value = None
    with pytest.raises(SanitizerError) as exc:
        env._schedule(ev, NORMAL, delay=-3.0)
    v = exc.value.violation
    assert v.kind == "time-travel"
    assert HERE in v.provenance


def test_queue_injection_behind_the_clock_is_caught_at_pop():
    env = make_env()
    env.timeout(5)
    env.run()
    intruder = Event(env)
    intruder._ok = True
    intruder._value = None
    # Bypass every scheduling entry point: raw heap surgery.
    heappush(env._queue, [1.0, NORMAL, env._eid + 1, intruder._fire])
    with pytest.raises(SanitizerError) as exc:
        env.step()
    assert exc.value.violation.kind == "time-travel"


# -- mutation: double-succeed / double-fail -------------------------------


def test_double_succeed_is_caught():
    env = make_env()
    ev = Event(env)
    ev.succeed(1)
    # The bug: a pool-reset-style direct write re-arms the trigger guard.
    ev._value = PENDING
    with pytest.raises(SanitizerError) as exc:
        ev.succeed(2)
    v = exc.value.violation
    assert v.kind == "double-trigger"
    assert HERE in v.provenance


def test_double_fail_is_caught():
    env = make_env()
    ev = Event(env)
    ev.defused()
    ev.fail(RuntimeError("boom"))
    ev._value = PENDING
    with pytest.raises(SanitizerError) as exc:
        ev.fail(RuntimeError("boom again"))
    assert exc.value.violation.kind == "double-trigger"


def test_repop_of_a_processed_event_is_caught():
    env = make_env()
    ev = Event(env)
    ev.succeed()
    env.run()
    assert ev.callbacks is None  # processed
    heappush(env._queue, [env.now, NORMAL, env._eid + 1, ev._fire])
    with pytest.raises(SanitizerError) as exc:
        env.step()
    assert exc.value.violation.kind == "double-trigger"


# -- mutation: tie-break order --------------------------------------------


def test_out_of_order_pop_is_caught():
    env = make_env()
    env.timeout(5)
    env.run()
    # An event that pretends to have been queued *before* the last pop
    # (eid 0) with a lexically smaller key: a broken scheduler's output.
    intruder = Event(env)
    intruder._ok = True
    intruder._value = None
    heappush(env._queue, [5.0, URGENT, 0, intruder._fire])
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


def test_leak_report_never_triggered_event():
    env = make_env()
    leaked = Event(env)  # noqa: F841 - intentionally abandoned
    env.timeout(1)
    env.run()
    report = env.sanitizer.finish()
    assert not report.clean
    assert len(report.never_triggered) == 1
    assert HERE in report.never_triggered[0]
    assert "LEAKS DETECTED" in report.render()


def test_leak_report_stranded_triggered_event():
    env = make_env()
    ev = Event(env)
    ev.succeed()
    # Run stops before the event is processed.
    report = env.sanitizer.finish()
    assert len(report.stranded) == 1
    assert ev is not None


def test_leak_report_stranded_call_later_entry():
    env = make_env()

    def late():
        pass

    env.call_later(5.0, late)
    env.run(until=1.0)  # stops before the continuation runs
    report = env.sanitizer.finish()
    assert len(report.stranded) == 1
    assert "late" in report.stranded[0] and HERE in report.stranded[0]


def test_leak_report_orphaned_process():
    env = make_env()

    def stuck(env):
        yield Event(env)  # never triggered: the generator never resumes

    env.process(stuck(env))
    env.run()
    report = env.sanitizer.finish()
    assert len(report.orphaned_processes) == 1
    # The abandoned wait event is also never triggered.
    assert len(report.never_triggered) == 1


def test_leak_report_clean_run():
    env = make_env()
    done = []

    def worker(env):
        yield env.timeout(1)
        done.append(env.now)

    env.process(worker(env))
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

    def clock(env, name, period, beats):
        for _ in range(beats):
            yield env.timeout(period)
            log.append((name, env.now))

    env.process(clock(env, "a", 1.0, 5))
    env.process(clock(env, "b", 2.5, 2))
    env.run()
    assert log == [
        ("a", 1.0), ("a", 2.0), ("b", 2.5), ("a", 3.0), ("a", 4.0),
        ("b", 5.0), ("a", 5.0),
    ]
    assert env.sanitizer.finish().clean
