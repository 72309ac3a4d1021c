"""Minimal hand-rolled HTTP/1.1 over ``asyncio.Protocol``.

The paper's servers (and the systems they model — Flash, LARD's
front-end) speak hand-written HTTP over non-blocking sockets; the live
cluster does the same rather than pulling in an HTTP framework.  Only
the slice of HTTP/1.1 the cluster needs is implemented: request line +
headers and ``Content-Length``-framed bodies.

One incremental :class:`Parser` frames every byte the cluster reads,
fed from ``data_received`` by two protocols: :class:`ServerConnection`,
the accept side of every :class:`Server` (front-end, back-ends, chaos
proxies), and :class:`ClientConnection`, the dialing side, which
completes one future per response.  Two connection disciplines share
the framing:

* **one-shot** (``Connection: close``) — clients, admin calls and
  health probes: :func:`roundtrip` opens a connection, sends one
  request, reads one response and closes.  Client-facing connections
  keep the simulator's HTTP/1.0-style connection-per-request hand-off
  model.
* **keep-alive** (``Connection: keep-alive``) — the cluster's internal
  hops, front-end → back-end and back-end → back-end: a
  :class:`ConnectionPool` keeps idle connections open per port, like
  the paper's M-VIA messages over already-open connections.  A server
  answers keep-alive with keep-alive and keeps reading the connection.

Every connection runs request/response in lockstep, so at most one
message is buffered on it: ``transport.write`` needs no ``drain()``.
A malformed frame, or a request sent before the previous response,
closes the connection, so a bad frame never desyncs the next request.
"""

from __future__ import annotations

import asyncio
import functools
from dataclasses import dataclass, field
from typing import Dict, List, Optional

__all__ = [
    "ClientConnection",
    "ConnectionPool",
    "HTTPError",
    "Parser",
    "Request",
    "Response",
    "Server",
    "ServerConnection",
    "connect",
    "render_request",
    "render_response",
    "roundtrip",
]

#: Upper bound on request-line + header bytes (hostile-input guard).
MAX_HEAD_BYTES = 32 * 1024

_REASONS = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    500: "Internal Server Error",
    502: "Bad Gateway",
    503: "Service Unavailable",
}


_CONNECTION = {False: "Connection: close", True: "Connection: keep-alive"}


class HTTPError(Exception):
    """Malformed or oversized HTTP traffic."""


@dataclass
class Request:
    """One parsed HTTP request (headers lower-cased)."""

    method: str
    path: str
    version: str = "HTTP/1.1"
    headers: Dict[str, str] = field(default_factory=dict)
    body: bytes = b""

    @property
    def keep_alive(self) -> bool:
        return _keep_alive(self.headers)

    def encode(self) -> bytes:
        """The request as read, headers verbatim (for forwarding)."""
        head = [f"{self.method} {self.path} {self.version}"]
        head.extend(f"{name}: {value}" for name, value in self.headers.items())
        return _frame(head, self.body)

    @classmethod
    def parse_head(cls, head: bytes) -> "Request":
        """The request whose head (terminator excluded) is ``head``."""
        lines = head.decode("latin-1").split("\r\n")
        parts = lines[0].split()
        if len(parts) != 3:
            raise HTTPError(f"malformed request line {lines[0]!r}")
        method, path, version = parts
        if not version.startswith("HTTP/1."):
            raise HTTPError(f"unsupported protocol {version!r}")
        return cls(method.upper(), path, version, _parse_headers(lines))


@dataclass
class Response:
    """One parsed HTTP response."""

    status: int
    headers: Dict[str, str] = field(default_factory=dict)
    body: bytes = b""

    @property
    def keep_alive(self) -> bool:
        return _keep_alive(self.headers)

    def encode(self) -> bytes:
        """The response as read, headers verbatim (for forwarding)."""
        head = [f"HTTP/1.1 {self.status} {_REASONS.get(self.status, 'Unknown')}"]
        head.extend(f"{name}: {value}" for name, value in self.headers.items())
        return _frame(head, self.body)

    @classmethod
    def parse_head(cls, head: bytes) -> "Response":
        """The response whose head (terminator excluded) is ``head``."""
        lines = head.decode("latin-1").split("\r\n")
        parts = lines[0].split(None, 2)
        if len(parts) < 2 or not parts[0].startswith("HTTP/1."):
            raise HTTPError(f"malformed status line {lines[0]!r}")
        try:
            status = int(parts[1])
        except ValueError:
            raise HTTPError(f"malformed status code {parts[1]!r}") from None
        return cls(status, _parse_headers(lines))


def _keep_alive(headers: Dict[str, str]) -> bool:
    return headers.get("connection", "").lower() == "keep-alive"


def _frame(head: List[str], body: bytes) -> bytes:
    return "\r\n".join(head + ["", ""]).encode("latin-1") + body


def _parse_headers(lines: List[str]) -> Dict[str, str]:
    """Headers of a head split into lines; the start line is skipped."""
    headers: Dict[str, str] = {}
    for line in lines[1:]:
        if not line:
            continue
        name, sep, value = line.partition(":")
        if not sep:
            raise HTTPError(f"malformed header line {line!r}")
        headers[name.strip().lower()] = value.strip()
    return headers


def _content_length(headers: Dict[str, str]) -> int:
    value = headers.get("content-length", "0")
    if not (value.isascii() and value.isdigit()):
        raise HTTPError(f"malformed Content-Length {value!r}")
    return int(value)


class Parser:
    """Incremental framing of a byte stream of requests or of responses.

    ``Parser(Request)`` frames requests, ``Parser(Response)`` responses.
    :meth:`feed` takes bytes as they arrive, in chunks of any size, and
    returns the frames they complete.  A head longer than
    :data:`MAX_HEAD_BYTES` is rejected as soon as the buffer passes the
    limit, so a peer cannot make it grow without bound.
    """

    __slots__ = ("_kind", "_buffer", "_scanned", "_frame", "_length")

    def __init__(self, kind) -> None:
        self._kind = kind
        #: Bytes of an incomplete frame.
        self._buffer = bytearray()
        #: Leading bytes of the buffer already searched for a terminator.
        self._scanned = 0
        #: The parsed head whose body is still arriving, and its length.
        self._frame = None
        self._length = 0

    def feed(self, data: bytes) -> list:
        """Consume ``data``; return the frames it completes, in order."""
        buffer = self._buffer
        if buffer:
            buffer += data
            data = buffer
        frames = []
        start = 0
        size = len(data)
        while start < size:
            frame = self._frame
            if frame is None:
                end = data.find(b"\r\n\r\n", start + self._scanned)
                if end < 0:
                    if size - start > MAX_HEAD_BYTES:
                        raise HTTPError("head too large")
                    self._scanned = max(0, size - start - 3)
                    break
                if end + 4 - start > MAX_HEAD_BYTES:
                    raise HTTPError("head too large")
                frame = self._kind.parse_head(bytes(data[start:end]))
                self._length = _content_length(frame.headers)
                self._frame = frame
                self._scanned = 0
                start = end + 4
            end = start + self._length
            if end > size:
                break
            if end > start:
                frame.body = bytes(data[start:end])
            frames.append(frame)
            self._frame = None
            start = end
        if data is buffer:
            del buffer[:start]
        elif start < size:
            buffer += data[start:]
        return frames

    def eof(self) -> None:
        """The peer closed: an error unless it fell between frames."""
        if self._frame is not None:
            raise HTTPError("connection closed mid-body")
        if self._buffer:
            raise HTTPError("connection closed mid-head")


def render_request(
    method: str,
    path: str,
    headers: Optional[Dict[str, str]] = None,
    body: bytes = b"",
    keep_alive: bool = False,
) -> bytes:
    """Serialize a request; bodies are ``Content-Length``-framed."""
    out = [f"{method} {path} HTTP/1.1"]
    for name, value in (headers or {}).items():
        out.append(f"{name}: {value}")
    if body:
        out.append(f"Content-Length: {len(body)}")
    out.append(_CONNECTION[keep_alive])
    return _frame(out, body)


def render_response(
    status: int,
    body: bytes = b"",
    headers: Optional[Dict[str, str]] = None,
    keep_alive: bool = False,
) -> bytes:
    """Serialize a response with an exact ``Content-Length`` frame."""
    reason = _REASONS.get(status, "Unknown")
    out = [f"HTTP/1.1 {status} {reason}"]
    for name, value in (headers or {}).items():
        out.append(f"{name}: {value}")
    out.append(f"Content-Length: {len(body)}")
    out.append(_CONNECTION[keep_alive])
    return _frame(out, body)


# -- servers -----------------------------------------------------------------


class Server:
    """A listening socket whose connections are :class:`ServerConnection`.

    Subclasses answer requests in :meth:`received` and may track their
    connections in :meth:`opened` and :meth:`closed`.
    """

    host: str
    _server: Optional[asyncio.base_events.Server] = None

    @property
    def port(self) -> int:
        assert self._server is not None, f"{type(self).__name__} not started"
        return self._server.sockets[0].getsockname()[1]

    async def start(self, port: int = 0) -> int:
        self._server = await asyncio.get_running_loop().create_server(
            functools.partial(ServerConnection, self), self.host, port
        )
        return self.port

    async def _stop_listening(self) -> None:
        """Close the socket; on 3.12+ also wait for open connections."""
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()

    def opened(self, connection: "ServerConnection") -> None:
        """A client connected."""

    def received(self, connection: "ServerConnection", request: Request) -> None:
        """Answer ``request`` with :meth:`ServerConnection.reply`, now or
        from a task started with :meth:`ServerConnection.spawn`."""
        raise NotImplementedError

    def closed(self, connection: "ServerConnection") -> None:
        """The connection is gone."""


class ServerConnection(asyncio.Protocol):
    """The accept side of one connection: a request in, its response out."""

    __slots__ = ("server", "transport", "busy", "failed", "task", "_parser", "_eof")

    def __init__(self, server: Server) -> None:
        self.server = server
        self.transport: Optional[asyncio.Transport] = None
        #: True from :meth:`Server.received` until :meth:`reply`.
        self.busy = False
        #: The connection ended on a bad frame, a transport error or
        #: with a response still owed.
        self.failed = False
        #: The task answering the request (the loop holds tasks weakly).
        self.task: Optional[asyncio.Task] = None
        self._parser = Parser(Request)
        self._eof = False

    def connection_made(self, transport) -> None:
        self.transport = transport
        self.server.opened(self)

    def data_received(self, data: bytes) -> None:
        try:
            frames = self._parser.feed(data)
            if frames and (self.busy or len(frames) > 1):
                raise HTTPError("request sent before the previous response")
        except HTTPError:
            self.fail()
            return
        if frames:
            self.busy = True
            self.server.received(self, frames[0])

    def eof_received(self) -> bool:
        self._eof = True
        try:
            self._parser.eof()
        except HTTPError:
            self.failed = True
        # Keep the write side open for a response still owed.
        return self.busy

    def connection_lost(self, exc: Optional[Exception]) -> None:
        self.failed = self.failed or exc is not None or self.busy
        self.server.closed(self)

    def spawn(self, coro) -> None:
        """Answer the request from a task running ``coro``."""
        self.task = asyncio.get_running_loop().create_task(coro)

    def reply(self, raw: bytes, keep_alive: bool) -> None:
        """Send the rendered response; close after it unless ``keep_alive``."""
        self.busy = False
        self.task = None
        if not self.transport.is_closing():
            self.transport.write(raw)
            if not keep_alive or self._eof:
                self.transport.close()

    def fail(self) -> None:
        """Close the connection with no (further) response."""
        self.failed = True
        self.transport.close()


# -- clients -----------------------------------------------------------------


class ClientConnection(asyncio.Protocol):
    """The dialing side of one connection: one future per response."""

    __slots__ = ("transport", "_parser", "_waiter")

    def __init__(self) -> None:
        self.transport: Optional[asyncio.Transport] = None
        self._parser = Parser(Response)
        self._waiter: Optional[asyncio.Future] = None

    def connection_made(self, transport) -> None:
        self.transport = transport

    def request(self, raw: bytes) -> "asyncio.Future[Response]":
        """Send a rendered request; the future gets its response."""
        if self.transport.is_closing():
            raise ConnectionResetError("connection closed")
        self._waiter = asyncio.get_running_loop().create_future()
        self.transport.write(raw)
        return self._waiter

    def data_received(self, data: bytes) -> None:
        try:
            frames = self._parser.feed(data)
            if frames and (self._waiter is None or len(frames) > 1):
                raise HTTPError("response to no request")
        except HTTPError as exc:
            self._settle(exc)
            self.transport.close()
            return
        if frames:
            self._settle(frames[0])

    def connection_lost(self, exc: Optional[Exception]) -> None:
        if self._waiter is not None:
            try:
                self._parser.eof()
            except HTTPError as error:
                exc = exc or error
            self._settle(exc or HTTPError("peer closed before responding"))

    def _settle(self, outcome) -> None:
        waiter, self._waiter = self._waiter, None
        if waiter is None or waiter.done():
            return
        if isinstance(outcome, BaseException):
            waiter.set_exception(outcome)
        else:
            waiter.set_result(outcome)


async def connect(host: str, port: int) -> ClientConnection:
    """Open a connection to ``host:port``."""
    _, connection = await asyncio.get_running_loop().create_connection(
        ClientConnection, host, port
    )
    return connection


async def roundtrip(
    host: str,
    port: int,
    method: str,
    path: str,
    body: bytes = b"",
) -> Response:
    """One request on a fresh connection, closed after the response."""
    connection = await connect(host, port)
    try:
        return await connection.request(render_request(method, path, body=body))
    finally:
        connection.transport.close()


class ConnectionPool:
    """Idle keep-alive connections per port, for the cluster's own hops.

    :meth:`request` takes an idle connection to the port, or opens one,
    and puts it back only after a complete keep-alive response.  Any
    error, cancellation (a deadline) or bad frame closes the connection
    instead, and the failure reaches the caller unchanged: nothing is
    re-sent.  An idle connection the peer has closed is dropped before
    reuse.  The pool has no size limit; it grows to the peak number of
    concurrent requests per port.
    """

    def __init__(self, host: str) -> None:
        self.host = host
        self._idle: Dict[int, List[ClientConnection]] = {}
        self._closed = False

    async def request(self, port: int, raw: bytes) -> Response:
        """Send the rendered request ``raw`` to ``port``; its response."""
        connection = self._take(port)
        if connection is None:
            connection = await connect(self.host, port)
        reusable = False
        try:
            response = await connection.request(raw)
            reusable = response.keep_alive
            return response
        finally:
            if reusable and not self._closed:
                self._idle.setdefault(port, []).append(connection)
            else:
                connection.transport.close()

    def _take(self, port: int) -> Optional[ClientConnection]:
        idle = self._idle.get(port)
        while idle:
            connection = idle.pop()
            if not connection.transport.is_closing():
                return connection
        return None

    def close(self) -> None:
        """Close every idle connection; later returns are closed too."""
        self._closed = True
        for idle in self._idle.values():
            for connection in idle:
                connection.transport.close()
        self._idle.clear()
