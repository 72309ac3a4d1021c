"""The two HTTP protocols over a fake transport (no sockets).

``ServerConnection`` hands one request at a time to its server and
answers it; ``ClientConnection`` completes one future per response.
A back-end answers a cache hit from ``data_received`` itself, with no
task; a miss finishes in one.
"""

import asyncio

import pytest

from repro.live import http11
from repro.live.backend import BackendServer
from repro.live.fileset import materialize_fileset
from repro.workload import synthesize

from .fakes import FakeTransport


class Recorder(http11.Server):
    """Keeps every request; answers nothing by itself."""

    def __init__(self):
        self.requests = []
        self.closed_connections = []

    def received(self, connection, request):
        self.requests.append(request)

    def closed(self, connection):
        self.closed_connections.append(connection)


def get(path, keep_alive=True):
    return http11.render_request("GET", path, keep_alive=keep_alive)


def test_server_connection_answers_in_lockstep():
    async def run():
        server = Recorder()
        connection = http11.ServerConnection(server)
        transport = FakeTransport(connection)
        connection.data_received(get("/f/1"))
        assert connection.busy and [r.path for r in server.requests] == ["/f/1"]
        connection.reply(b"one", keep_alive=True)
        connection.data_received(get("/f/2"))
        connection.reply(b"two", keep_alive=False)
        await asyncio.sleep(0)
        return server, connection, transport

    server, connection, transport = asyncio.run(run())
    assert [r.path for r in server.requests] == ["/f/1", "/f/2"]
    assert transport.written == [b"one", b"two"]
    assert transport.closing and server.closed_connections == [connection]
    assert not connection.failed


@pytest.mark.parametrize("pipelined", [
    pytest.param(lambda: [get("/f/1") + get("/f/2")], id="two-in-one-chunk"),
    pytest.param(lambda: [get("/f/1"), get("/f/2")], id="second-before-reply"),
])
def test_request_before_the_previous_response_closes_the_connection(pipelined):
    async def run():
        server = Recorder()
        connection = http11.ServerConnection(server)
        transport = FakeTransport(connection)
        for chunk in pipelined():
            connection.data_received(chunk)
        await asyncio.sleep(0)
        return server, connection, transport

    server, connection, transport = asyncio.run(run())
    assert len(server.requests) <= 1
    assert transport.closing and connection.failed


def test_bad_frame_and_truncated_request_mark_the_connection_failed():
    async def run():
        out = []
        cases = ((b"NONSENSE\r\n\r\n", False), (b"GET /f/1 HTTP/1.1\r\n", True))
        for data, eof in cases:
            connection = http11.ServerConnection(Recorder())
            transport = FakeTransport(connection)
            connection.data_received(data)
            if eof and not connection.eof_received():
                transport.close()
            await asyncio.sleep(0)
            out.append((connection.failed, transport.closing))
        return out

    assert asyncio.run(run()) == [(True, True), (True, True)]


def test_client_connection_settles_one_future_per_response():
    async def run():
        connection = http11.ClientConnection()
        transport = FakeTransport(connection)
        first = connection.request(get("/f/1"))
        raw = http11.render_response(200, b"abc", keep_alive=True)
        connection.data_received(raw[:7])
        assert not first.done()
        connection.data_received(raw[7:])
        second = connection.request(get("/f/2"))
        connection.data_received(b"HTTP/1.1 200 OK\r\nContent-Length: 9\r\n\r\nshort")
        transport.close()
        await asyncio.sleep(0)
        with pytest.raises(http11.HTTPError, match="mid-body"):
            second.result()
        with pytest.raises(ConnectionError):
            connection.request(get("/f/3"))
        return first.result(), transport.written

    response, written = asyncio.run(run())
    assert (response.status, response.body) == (200, b"abc")
    assert written == [get("/f/1"), get("/f/2")]


def test_client_connection_peer_closed_before_responding():
    async def run():
        connection = http11.ClientConnection()
        transport = FakeTransport(connection)
        waiter = connection.request(get("/f/1"))
        transport.close()
        await asyncio.sleep(0)
        return waiter

    with pytest.raises(http11.HTTPError, match="before responding"):
        asyncio.run(run()).result()


def test_backend_answers_a_hit_in_data_received_and_a_miss_from_a_task(
    tmp_path,
):
    trace = synthesize("calgary", num_requests=50, seed=3)
    materialize_fileset(trace, tmp_path)
    fid = int(trace.file_ids[0])

    async def run():
        backend = BackendServer(node_id=0, root=tmp_path, cache_bytes=1 << 20)
        connection = http11.ServerConnection(backend)
        transport = FakeTransport(connection)
        connection.data_received(get(f"/f/{fid}"))  # miss: read from disk
        assert connection.task is not None and not transport.written
        await connection.task
        connection.data_received(get(f"/f/{fid}"))  # hit
        assert connection.task is None
        return backend, transport.written

    backend, written = asyncio.run(run())
    miss, hit = (http11.Parser(http11.Response).feed(raw)[0] for raw in written)
    assert (miss.headers["x-cache"], hit.headers["x-cache"]) == ("MISS", "HIT")
    assert hit.keep_alive and hit.body == miss.body
    assert backend.served == 2 and backend.errors == 0
