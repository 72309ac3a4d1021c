"""Message reliability on top of the unreliable fabric.

A stop-and-wait ARQ per message: the receiver acknowledges every copy it
sees (the ack is itself a lossy control message), the sender retransmits
on an ack timeout with capped exponential backoff, and per-send sequence
numbers give at-most-once effect semantics — a retransmission arriving
after the original is counted as a dedup and its effect is suppressed.

Two forms, both callback chains over the interconnect's one delivery
path:

* :meth:`ReliableMessenger.request_cb` — the sender waits: ``done(ok)``
  fires once a transmission has been acknowledged, or after retries
  exhaust.  Used for hand-offs, the LARD-NG query/reply pair, and DFS
  fetch legs.
* :meth:`ReliableMessenger.send_cb` — fire-and-forget form for control
  messages whose sender never blocks (LARD completion notices, L2S
  server-set updates).  The ``deliver`` effect fires at the first
  delivery only.

Which message kinds opt in is the policy's choice, expressed through
``NetFaultConfig.reliable_kinds``; everything else keeps the bare
best-effort send.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional, TYPE_CHECKING

from .model import NetFaultConfig, RetrySpec

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..cluster.network import Interconnect

__all__ = ["ReliableMessenger"]


class ReliableMessenger:
    """Ack/retry/dedup protocol engine bound to one interconnect."""

    def __init__(self, net: "Interconnect", config: NetFaultConfig):
        self.net = net
        self.env = net.env
        self.config = config
        self._reliable = frozenset(config.reliable_kinds)
        self._seq = 0
        #: Retransmissions per kind.
        self.retries: Dict[str, int] = {}
        #: Acks sent per (data-message) kind.
        self.acks: Dict[str, int] = {}
        #: Duplicate deliveries suppressed per kind.
        self.dedups: Dict[str, int] = {}
        #: Sends abandoned after exhausting retries, per kind.
        self.failures: Dict[str, int] = {}
        #: Hand-offs re-dispatched by the lifecycle after such a failure.
        self.redispatches = 0

    def covers(self, kind: str) -> bool:
        return kind in self._reliable

    def spec_for(self, kind: str) -> RetrySpec:
        return self.config.spec_for(kind)

    def _bump(self, counter: Dict[str, int], kind: str) -> None:
        counter[kind] = counter.get(kind, 0) + 1

    def reset_accounting(self) -> None:
        self.retries.clear()
        self.acks.clear()
        self.dedups.clear()
        self.failures.clear()
        self.redispatches = 0

    def stats(self) -> Dict[str, Dict[str, int]]:
        return {
            "retries": dict(self.retries),
            "acks": dict(self.acks),
            "dedups": dict(self.dedups),
            "failures": dict(self.failures),
        }

    # -- awaited form --------------------------------------------------------

    def request_cb(
        self,
        src: int,
        dst: int,
        size_kb: float,
        kind: str,
        done: Callable[[bool], None],
        ni_time_s: Optional[float] = None,
    ) -> None:
        """Send reliably; ``done(True)`` at ack, ``done(False)`` at give-up.

        Stop-and-wait: each attempt transmits the payload, then — on
        delivery — waits for the receiver's ack to cross back.  An
        undelivered attempt (or a lost ack) charges the remainder of the
        kind's timeout before the backoff pause and the retransmission.
        With ``src == dst`` nothing crosses the fabric and ``done(True)``
        fires at once.
        """
        if src == dst:
            done(True)
            return
        net = self.net
        env = self.env
        cfg = net.config
        spec = self.spec_for(kind)
        attempt = 0
        started = 0.0
        delivered_once = False

        def transmit(_e=None) -> None:
            nonlocal started
            started = env.now
            if attempt:
                self._bump(self.retries, kind)
            net.send_message_inline(
                src, dst, size_kb, kind, ni_time_s, delivered, lost
            )

        def delivered() -> None:
            nonlocal delivered_once
            if delivered_once:
                self._bump(self.dedups, kind)
            delivered_once = True
            # The receiver acks every copy it sees; the ack itself can
            # be lost, forcing a (deduped) retransmission.
            self._bump(self.acks, kind)
            net.send_message_inline(
                dst, src, cfg.control_kb, kind + "_ack",
                cfg.ni_control_time(), lambda: done(True), lost,
            )

        def lost() -> None:
            remaining = spec.timeout_s - (env.now - started)
            if remaining > 0:
                env.call_later(remaining, timed_out)
            else:
                timed_out(None)

        def timed_out(_e) -> None:
            nonlocal attempt
            if attempt >= spec.max_retries:
                self._bump(self.failures, kind)
                done(False)
                return
            attempt += 1
            backoff = spec.backoff(attempt)
            if backoff > 0:
                env.call_later(backoff, transmit)
            else:
                transmit()

        transmit()

    # -- fire-and-forget (callback) form -----------------------------------

    def send_cb(
        self,
        src: int,
        dst: int,
        size_kb: float,
        kind: str,
        deliver: Optional[Callable[[], None]] = None,
        failed: Optional[Callable[[], None]] = None,
        ni_time_s: Optional[float] = None,
    ) -> None:
        """Reliable fire-and-forget send.

        ``deliver()`` fires at the *first* delivery (at-most-once);
        ``failed()`` fires if retries exhaust without any delivery.
        """
        if src == dst:
            self.net.send_message_cb(src, dst, size_kb, kind, ni_time_s, done=deliver)
            return
        _ReliableSend(self, src, dst, size_kb, kind, deliver, failed, ni_time_s)

    def send_control_cb(
        self,
        src: int,
        dst: int,
        kind: str,
        deliver: Optional[Callable[[], None]] = None,
        failed: Optional[Callable[[], None]] = None,
    ) -> None:
        cfg = self.net.config
        self.send_cb(
            src,
            dst,
            cfg.control_kb,
            kind,
            deliver=deliver,
            failed=failed,
            ni_time_s=cfg.ni_control_time(),
        )


class _ReliableSend:
    """State machine for one :meth:`ReliableMessenger.send_cb` call."""

    __slots__ = (
        "messenger",
        "net",
        "env",
        "src",
        "dst",
        "size_kb",
        "ni_time_s",
        "kind",
        "deliver",
        "failed",
        "spec",
        "seq",
        "attempt",
        "delivered",
        "finished",
    )

    def __init__(
        self,
        messenger: ReliableMessenger,
        src: int,
        dst: int,
        size_kb: float,
        kind: str,
        deliver: Optional[Callable[[], None]],
        failed: Optional[Callable[[], None]],
        ni_time_s: Optional[float],
    ):
        self.messenger = messenger
        self.net = messenger.net
        self.env = messenger.env
        self.src = src
        self.dst = dst
        self.size_kb = size_kb
        self.ni_time_s = ni_time_s
        self.kind = kind
        self.deliver = deliver
        self.failed = failed
        self.spec = messenger.spec_for(kind)
        messenger._seq += 1
        self.seq = messenger._seq
        self.attempt = 0
        self.delivered = False
        self.finished = False
        self._transmit()

    def _transmit(self) -> None:
        self.net.send_message_cb(
            self.src,
            self.dst,
            self.size_kb,
            self.kind,
            self.ni_time_s,
            done=self._on_delivered,
        )
        self.env.schedule_callback(self.spec.timeout_s, self._on_timeout)

    def _on_delivered(self) -> None:
        m = self.messenger
        if self.delivered or self.finished:
            # The receiver has seen this sequence number already: a
            # retransmission (or late original) is deduped — the effect
            # does not fire again — but it is still re-acked.
            m._bump(m.dedups, self.kind)
        else:
            self.delivered = True
            if self.deliver is not None:
                self.deliver()
        if self.finished:
            return
        m._bump(m.acks, self.kind)
        cfg = self.net.config
        self.net.send_message_cb(
            self.dst,
            self.src,
            cfg.control_kb,
            self.kind + "_ack",
            ni_time_s=cfg.ni_control_time(),
            done=self._on_ack,
        )

    def _on_ack(self) -> None:
        self.finished = True

    def _on_timeout(self) -> None:
        if self.finished:
            return
        m = self.messenger
        if self.attempt >= self.spec.max_retries:
            self.finished = True
            m._bump(m.failures, self.kind)
            if not self.delivered and self.failed is not None:
                self.failed()
            return
        self.attempt += 1
        m._bump(m.retries, self.kind)
        backoff = self.spec.backoff(self.attempt)
        if backoff > 0:
            self.env.schedule_callback(backoff, self._retransmit)
        else:
            self._retransmit()

    def _retransmit(self) -> None:
        if self.finished:
            return
        self._transmit()
