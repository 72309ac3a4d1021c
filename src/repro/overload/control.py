"""The bundle one substrate run wires in: admission + breakers.

:class:`OverloadControl` is what the DES :class:`~repro.sim.driver.
Simulation` and the live :class:`~repro.live.frontend.FrontEnd` accept —
a fresh instance per run (like policy objects, binding is one-shot).
Either half may be ``None``: admission-only runs study shedding,
breaker-only runs study redispatch, and the default factory builds the
full stack: a static or AIMD-limited admission cap plus one breaker per
node.
"""

from __future__ import annotations

from typing import Optional

from .admission import AdmissionConfig, AdmissionController
from .breaker import BreakerBoard, BreakerConfig
from .limiter import AdaptiveConcurrencyLimit, LimitConfig

__all__ = ["OverloadControl"]


class OverloadControl:
    """Overload-control components for one run (see module docstring)."""

    def __init__(
        self,
        admission: Optional[AdmissionController] = None,
        breakers: Optional[BreakerBoard] = None,
    ):
        if admission is None and breakers is None:
            raise ValueError(
                "OverloadControl needs an admission controller, a breaker "
                "board, or both"
            )
        self.admission = admission
        self.breakers = breakers

    @classmethod
    def default(
        cls,
        nodes: int,
        max_inflight: Optional[int] = None,
        queue_slots: int = 64,
        deadline_s: Optional[float] = None,
        target_latency_s: float = 0.05,
        seed: int = 0,
    ) -> "OverloadControl":
        """The full stack: admission (+ limiter) and one breaker per node.

        A given ``max_inflight`` pins the cap statically; without one the
        cap is an AIMD limit that starts at 64 and adapts from observed
        latency toward ``target_latency_s``.
        """
        limiter = None
        if max_inflight is None:
            limiter = AdaptiveConcurrencyLimit(
                LimitConfig(target_latency_s=target_latency_s)
            )
        admission = AdmissionController(
            AdmissionConfig(
                max_inflight=max_inflight,
                queue_slots=queue_slots,
                deadline_s=deadline_s,
            ),
            limiter=limiter,
        )
        breakers = BreakerBoard(nodes, BreakerConfig(seed=seed))
        return cls(admission=admission, breakers=breakers)

    def snapshot(self) -> dict:
        out: dict = {}
        if self.admission is not None:
            out["admission"] = self.admission.snapshot()
        if self.breakers is not None:
            out["breakers"] = self.breakers.snapshot()
        return out
