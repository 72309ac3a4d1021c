"""The front-end's per-attempt deadline and the loadtest's client timeout.

Both bound a fetch with :class:`repro.live.clock.Deadline` (one
``loop.call_at`` timer that cancels the task) instead of
``asyncio.wait_for``.  No sockets: the pooled connection runs over a
fake transport, so these tests run in tier-1 on every Python the
package supports.
"""

import asyncio

import pytest

from repro.live import http11
from repro.live.engine import RouteOutcome
from repro.live.faultproxy import ResilienceConfig
from repro.live.frontend import FrontEnd
from repro.live.loadtest import LoadTestConfig, Replay
from repro.workload import synthesize

from .fakes import FakeTransport

TIMEOUT_S = 0.05
OK = http11.render_response(200, b"body", {"X-Node": "1"}, keep_alive=True)


class RecordingEngine:
    """The engine hooks ``FrontEnd._attempt`` calls, recorded in order."""

    num_nodes = 2

    def __init__(self):
        self.calls = []

    def connection_opened(self, target):
        self.calls.append("connection_opened")

    def handoff_failed(self, initial, target):
        self.calls.append("handoff_failed")

    def request_aborted(self, initial, opened, target):
        self.calls.append("request_aborted")

    def request_completed(self, target):
        self.calls.append("request_completed")


@pytest.fixture
def transports(monkeypatch):
    """Route the pool's dials to fake transports; the list fills as the
    pool connects.  Set ``transports.reply`` before the fetch."""

    class Dialed(list):
        reply = None

    dialed = Dialed()

    async def connect(host, port):
        connection = http11.ClientConnection()
        dialed.append(FakeTransport(connection, dialed.reply))
        return connection

    monkeypatch.setattr(http11, "connect", connect)
    return dialed


def frontend():
    engine = RecordingEngine()
    front = FrontEnd(
        engine, [9001, 9002],
        resilience=ResilienceConfig(request_timeout_s=TIMEOUT_S),
    )
    return front, engine


HANDOFF = RouteOutcome(
    index=0, file_id=7, initial=0, target=1, forwarded=True, replicated=False
)


def live_timers(loop):
    return [h for h in loop._scheduled if not h.cancelled()]


class TaskWithoutUncancel(asyncio.tasks._PyTask):
    """A task as on 3.10: no ``cancelling()``/``uncancel()``."""

    def __getattribute__(self, name):
        if name in ("cancelling", "uncancel"):
            raise AttributeError(name)
        return super().__getattribute__(name)


def in_task(coro, old_task):
    """Run ``coro`` in its own task, a 3.10-style one if ``old_task``."""
    loop = asyncio.get_running_loop()
    if old_task:
        return TaskWithoutUncancel(coro, loop=loop)
    return loop.create_task(coro)


old_task = pytest.mark.parametrize(
    "old_task", [False, True], ids=["task", "task-without-uncancel"]
)


@old_task
def test_expired_deadline_aborts_in_hook_order_and_closes_the_connection(
    transports, old_task
):
    front, engine = frontend()

    async def run():
        return await in_task(front._attempt(HANDOFF), old_task)

    assert asyncio.run(run()) is None
    assert front.timeouts == 1
    assert engine.calls == [
        "connection_opened", "handoff_failed", "request_aborted",
    ]
    (transport,) = transports
    assert transport.closing
    assert not any(front.pool._idle.values())


@old_task
def test_outside_cancellation_propagates_and_is_not_a_timeout(
    transports, old_task
):
    front, engine = frontend()

    async def run():
        task = in_task(front._attempt(HANDOFF), old_task)
        await asyncio.sleep(TIMEOUT_S / 5)  # the fetch is waiting
        task.cancel()  # as stop() would
        with pytest.raises(asyncio.CancelledError):
            await task
        return live_timers(asyncio.get_running_loop())

    assert asyncio.run(run()) == []
    assert front.timeouts == 0
    assert engine.calls == ["connection_opened"]
    (transport,) = transports
    assert transport.closing
    assert not any(front.pool._idle.values())


@old_task
def test_fetch_that_completes_first_leaves_no_timer(transports, old_task):
    front, engine = frontend()
    transports.reply = OK

    async def attempt_then_outlive_the_deadline():
        result = await front._attempt(HANDOFF)
        left = live_timers(asyncio.get_running_loop())
        # Past the deadline, nothing cancels this task.
        await asyncio.sleep(2 * TIMEOUT_S)
        return result, left

    async def run():
        return await in_task(attempt_then_outlive_the_deadline(), old_task)

    (ok, raw), left = asyncio.run(run())
    assert ok and raw.startswith(b"HTTP/1.1 200 OK\r\n")
    assert left == []
    assert front.timeouts == 0
    assert engine.calls == ["connection_opened", "request_completed"]
    (transport,) = transports
    assert not transport.closing
    assert front.pool._idle[9001]  # the keep-alive connection is reused


def test_loadtest_client_timeout_counts_failed_and_timed_out(monkeypatch):
    async def never(*args, **kwargs):
        await asyncio.Event().wait()

    monkeypatch.setattr(http11, "roundtrip", never)
    replay = Replay(
        None,
        synthesize("calgary", num_requests=20, seed=1),
        LoadTestConfig(passes=1, request_timeout_s=TIMEOUT_S),
    )

    async def run():
        await replay._one_request("127.0.0.1", 1, 0)
        return live_timers(asyncio.get_running_loop())

    assert asyncio.run(run()) == []
    assert (replay.timed_out, replay.failed, replay.completed) == (1, 1, 0)
