"""Persistent-connection (HTTP/1.1) structure over a trace.

The paper's algorithms target non-persistent HTTP/1.0 ("each client
request represents a different connection") and note that persistent
connections need slight modifications, per Aron et al.  To evaluate that
regime, :func:`sessionize` groups a trace's consecutive requests into
connections with geometrically distributed lengths.  The simulator takes
a :class:`SessionTrace` wherever it takes a trace
(``run_simulation(sessionize(trace, k, seed=...), ...)``) and runs each
connection's requests through the one request lifecycle; mean length 1
is the paper's HTTP/1.0 run, byte for byte.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, List, Optional, Tuple

import numpy as np

from .traces import Trace

__all__ = ["SessionTrace", "sessionize"]


@dataclass(frozen=True)
class SessionTrace:
    """A trace plus its grouping into persistent connections.

    ``starts[k]`` is the index of connection ``k``'s first request; the
    connection spans ``[starts[k], starts[k+1])`` (the last connection
    runs to the end of the trace).
    """

    trace: Trace
    starts: np.ndarray

    def __post_init__(self) -> None:
        starts = np.ascontiguousarray(self.starts, dtype=np.int64)
        if starts.ndim != 1 or starts.size == 0:
            raise ValueError("starts must be a non-empty 1-D array")
        if starts[0] != 0:
            raise ValueError("the first connection must start at index 0")
        if (np.diff(starts) <= 0).any():
            raise ValueError("starts must be strictly increasing")
        if starts[-1] >= len(self.trace):
            raise ValueError("a connection starts past the end of the trace")
        object.__setattr__(self, "starts", starts)

    @property
    def num_connections(self) -> int:
        return int(self.starts.size)

    @property
    def num_requests(self) -> int:
        return len(self.trace)

    def connection_span(self, k: int) -> Tuple[int, int]:
        """[first, last) request indices of connection ``k``."""
        if not 0 <= k < self.num_connections:
            raise IndexError(f"connection {k} out of range")
        first = int(self.starts[k])
        last = (
            int(self.starts[k + 1])
            if k + 1 < self.num_connections
            else len(self.trace)
        )
        return first, last

    def connection_lengths(self) -> np.ndarray:
        ends = np.append(self.starts[1:], len(self.trace))
        return ends - self.starts

    def mean_connection_length(self) -> float:
        return len(self.trace) / self.num_connections

    def iter_connections(self) -> Iterator[Tuple[int, int, int]]:
        """Yield (connection_index, first_request, last_request_excl)."""
        for k in range(self.num_connections):
            first, last = self.connection_span(k)
            yield k, first, last


def sessionize(
    trace: Trace,
    mean_requests_per_connection: float = 4.0,
    seed: int = 0,
) -> SessionTrace:
    """Group a trace into persistent connections.

    Connection lengths are geometric with the given mean (HTTP/1.1
    keep-alive closes after an idle timeout or a max-requests cap, which
    field studies found roughly geometric).  ``mean = 1`` produces one
    request per connection — the HTTP/1.0 regime.
    """
    if len(trace) == 0:
        raise ValueError("trace is empty")
    if mean_requests_per_connection < 1.0:
        raise ValueError("mean_requests_per_connection must be >= 1")
    if mean_requests_per_connection == 1.0:
        return SessionTrace(trace, np.arange(len(trace), dtype=np.int64))
    rng = np.random.default_rng(seed)
    p = 1.0 / mean_requests_per_connection
    # Draw generously, then cut at the trace length.
    est = int(len(trace) / mean_requests_per_connection * 2) + 16
    lengths = rng.geometric(p, size=est)
    ends = np.cumsum(lengths)
    starts = np.concatenate([[0], ends[ends < len(trace)]])
    while ends[-1] < len(trace):  # pragma: no cover - astronomically rare
        lengths = rng.geometric(p, size=est)
        more = ends[-1] + np.cumsum(lengths)
        starts = np.concatenate([starts, more[more < len(trace)]])
        ends = more
    return SessionTrace(trace, starts.astype(np.int64))
