"""Minimal hand-rolled HTTP/1.1 over asyncio streams.

The paper's servers (and the systems they model — Flash, LARD's
front-end) speak hand-written HTTP over non-blocking sockets; the live
cluster does the same rather than pulling in an HTTP framework.  Only
the slice of HTTP/1.1 the cluster needs is implemented: request line +
headers and ``Content-Length``-framed bodies.

Two connection disciplines share the framing:

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

A malformed frame raises :class:`HTTPError`; on a keep-alive connection
the caller then closes the connection, so a bad frame never desyncs the
next request.
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

__all__ = [
    "ConnectionPool",
    "HTTPError",
    "Request",
    "Response",
    "close_quietly",
    "read_request",
    "read_response",
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


def _keep_alive(headers: Dict[str, str]) -> bool:
    return headers.get("connection", "").lower() == "keep-alive"


def _frame(head: List[str], body: bytes) -> bytes:
    return "\r\n".join(head + ["", ""]).encode("latin-1") + body


async def _read_head(reader: asyncio.StreamReader) -> Optional[bytes]:
    """Read up to the blank line ending the head; ``None`` on clean EOF."""
    try:
        head = await reader.readuntil(b"\r\n\r\n")
    except asyncio.IncompleteReadError as exc:
        if not exc.partial:
            return None
        raise HTTPError("connection closed mid-head") from None
    except asyncio.LimitOverrunError:
        raise HTTPError("head exceeds stream limit") from None
    if len(head) > MAX_HEAD_BYTES:
        raise HTTPError("head too large")
    return head


def _parse_headers(lines: list) -> Dict[str, str]:
    headers: Dict[str, str] = {}
    for line in lines:
        if not line:
            continue
        name, sep, value = line.partition(":")
        if not sep:
            raise HTTPError(f"malformed header line {line!r}")
        headers[name.strip().lower()] = value.strip()
    return headers


async def _read_body(reader: asyncio.StreamReader, headers: Dict[str, str]) -> bytes:
    value = headers.get("content-length", "0")
    if not (value.isascii() and value.isdigit()):
        raise HTTPError(f"malformed Content-Length {value!r}")
    length = int(value)
    try:
        return await reader.readexactly(length) if length else b""
    except asyncio.IncompleteReadError:
        raise HTTPError("connection closed mid-body") from None


async def read_request(reader: asyncio.StreamReader) -> Optional[Request]:
    """Parse one request; ``None`` when the peer closed before sending."""
    head = await _read_head(reader)
    if head is None:
        return None
    lines = head.decode("latin-1").split("\r\n")
    parts = lines[0].split()
    if len(parts) != 3:
        raise HTTPError(f"malformed request line {lines[0]!r}")
    method, path, version = parts
    if not version.startswith("HTTP/1."):
        raise HTTPError(f"unsupported protocol {version!r}")
    headers = _parse_headers(lines[1:])
    return Request(
        method=method.upper(),
        path=path,
        version=version,
        headers=headers,
        body=await _read_body(reader, headers),
    )


async def read_response(reader: asyncio.StreamReader) -> Response:
    """Parse one response, reading its ``Content-Length`` body fully."""
    head = await _read_head(reader)
    if head is None:
        raise HTTPError("peer closed before responding")
    lines = head.decode("latin-1").split("\r\n")
    parts = lines[0].split(None, 2)
    if len(parts) < 2 or not parts[0].startswith("HTTP/1."):
        raise HTTPError(f"malformed status line {lines[0]!r}")
    try:
        status = int(parts[1])
    except ValueError:
        raise HTTPError(f"malformed status code {parts[1]!r}") from None
    headers = _parse_headers(lines[1:])
    return Response(
        status=status, headers=headers, body=await _read_body(reader, headers)
    )


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


# -- clients -----------------------------------------------------------------

_Connection = Tuple[asyncio.StreamReader, asyncio.StreamWriter]


async def close_quietly(writer: asyncio.StreamWriter) -> None:
    """Close ``writer`` and wait for it, ignoring a peer already gone."""
    writer.close()
    try:
        await writer.wait_closed()
    except (ConnectionError, OSError):
        pass


async def _exchange(connection: _Connection, request: bytes) -> Response:
    reader, writer = connection
    writer.write(request)
    await writer.drain()
    return await read_response(reader)


async def roundtrip(
    host: str,
    port: int,
    method: str,
    path: str,
    body: bytes = b"",
) -> Response:
    """One request on a fresh connection, closed after the response."""
    connection = await asyncio.open_connection(host, port)
    try:
        return await _exchange(connection, render_request(method, path, body=body))
    finally:
        await close_quietly(connection[1])


class ConnectionPool:
    """Idle keep-alive connections per port, for the cluster's own hops.

    :meth:`request` takes an idle connection to the port, or opens one,
    and puts it back only after a complete keep-alive response.  Any
    error, cancellation (a ``wait_for`` timeout) or bad frame closes the
    connection instead, and the failure reaches the caller unchanged:
    nothing is re-sent.  An idle connection the peer has closed is
    dropped before reuse.  The pool has no size limit; it grows to the
    peak number of concurrent requests per port.
    """

    def __init__(self, host: str) -> None:
        self.host = host
        self._idle: Dict[int, List[_Connection]] = {}
        self._closed = False

    async def request(
        self,
        port: int,
        method: str,
        path: str,
        headers: Optional[Dict[str, str]] = None,
    ) -> Response:
        """One keep-alive request to ``port`` on a pooled connection."""
        raw = render_request(method, path, headers, keep_alive=True)
        connection = self._take(port)
        if connection is None:
            connection = await asyncio.open_connection(self.host, port)
        reusable = False
        try:
            response = await _exchange(connection, raw)
            reusable = response.keep_alive
            return response
        finally:
            if reusable and not self._closed:
                self._idle.setdefault(port, []).append(connection)
            else:
                connection[1].close()

    def _take(self, port: int) -> Optional[_Connection]:
        idle = self._idle.get(port)
        while idle:
            reader, writer = idle.pop()
            if not (reader.at_eof() or writer.is_closing()):
                return reader, writer
            writer.close()
        return None

    def close(self) -> None:
        """Close every idle connection; later returns are closed too."""
        self._closed = True
        for idle in self._idle.values():
            for _, writer in idle:
                writer.close()
        self._idle.clear()
