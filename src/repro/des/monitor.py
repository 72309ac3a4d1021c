"""Measurement helpers for simulations.

:class:`Tally` accumulates plain observations (latencies, sizes) and
supports ``reset()`` so a warmup phase can be discarded.
"""

from __future__ import annotations

import math

__all__ = ["Tally"]


class Tally:
    """Streaming mean/variance/min/max of plain observations (Welford)."""

    __slots__ = ("_n", "_mean", "_m2", "_min", "_max", "_sum")

    def __init__(self):
        self._n = 0
        self._mean = 0.0
        self._m2 = 0.0
        self._min = math.inf
        self._max = -math.inf
        self._sum = 0.0

    def record(self, x: float) -> None:
        self._n += 1
        self._sum += x
        delta = x - self._mean
        self._mean += delta / self._n
        self._m2 += delta * (x - self._mean)
        if x < self._min:
            self._min = x
        if x > self._max:
            self._max = x

    @property
    def count(self) -> int:
        return self._n

    @property
    def total(self) -> float:
        return self._sum

    @property
    def mean(self) -> float:
        return self._mean if self._n else 0.0

    @property
    def variance(self) -> float:
        return self._m2 / (self._n - 1) if self._n > 1 else 0.0

    @property
    def stdev(self) -> float:
        return math.sqrt(self.variance)

    @property
    def minimum(self) -> float:
        return self._min if self._n else 0.0

    @property
    def maximum(self) -> float:
        return self._max if self._n else 0.0

    def reset(self) -> None:
        """Discard history at a warmup boundary: every accumulator
        returns to its initial state (explicit field reinit — calling
        ``self.__init__()`` for this is fragile under subclassing and
        hides the reset semantics from readers)."""
        self._n = 0
        self._mean = 0.0
        self._m2 = 0.0
        self._min = math.inf
        self._max = -math.inf
        self._sum = 0.0
