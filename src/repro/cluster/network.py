"""Cluster interconnect: router to the Internet, switch, VIA messaging.

The router (the cluster's bridge to the Internet) is a single FIFO queue
whose occupancy is ``size / 500000 KB/s`` per transfer (Table 1's mu_r).
The switched network between nodes adds a fixed 1 microsecond latency and
is otherwise contention-free ("we are simulating a very fast switched
network"); contention appears at the NIs and CPUs instead.

:meth:`Interconnect.send_message_cb` models a user-level (M-VIA) message:
3 us CPU at the sender, NI-out occupancy, switch latency, NI-in occupancy
at the receiver, and 3 us CPU at the receiver — 19 us end to end for a
4-byte payload, matching the measurement the paper quotes.

Delivery is not guaranteed.  Two things can kill a message in flight:

* the receiver crashes (or crashes and recovers — a new incarnation must
  not see the old incarnation's bytes), checked at every receiver-side
  stage boundary; and
* an active :class:`~repro.netfaults.layer.NetFaultLayer`
  (``config.net_faults``) drops, delays, duplicates, or partitions it at
  the switch.

Every send therefore reports an outcome: ``done`` fires on delivery,
``on_drop`` on a drop (:meth:`Interconnect.transmit_cb` folds both into
one ``done(ok)`` and adds the ack/retry protocol for the kinds it
covers).  A message, once sent, runs to its delivery or drop even if
the request that sent it has given up.  Per-kind
sent/delivered/dropped/duplicate counters reconcile as
``sent == delivered + dropped + in_flight``.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional

from ..des import Environment, Resource
from ..des.core import URGENT
from .config import ClusterConfig
from .node import CPU_PROMPT, Node

__all__ = ["Interconnect"]


class _MessageChain:
    """Callback-chain delivery of one intra-cluster message.

    Charges, in order: sender CPU overhead, sender NI-out, switch,
    receiver NI-in, receiver CPU overhead — each a pooled hold driven by
    event callbacks, with no generator process.
    """

    __slots__ = (
        "net",
        "env",
        "sender",
        "receiver",
        "size_kb",
        "ni_time",
        "kind",
        "done",
        "on_drop",
        "_req",
        "_rinc",
        "_extra_delay",
        "_dup",
        "_tok",
    )

    def __init__(
        self,
        net: "Interconnect",
        sender: Node,
        receiver: Node,
        size_kb: float,
        ni_time: float,
        kind: str,
        done: Optional[Callable[[], None]],
        on_drop: Optional[Callable[[], None]] = None,
        tok: Optional[int] = None,
    ):
        self.net = net
        self.env = net.env
        self.sender = sender
        self.receiver = receiver
        self.size_kb = size_kb
        self.ni_time = ni_time
        self.kind = kind
        self.done = done
        self.on_drop = on_drop
        self._req = None
        self._rinc = receiver.incarnation
        self._extra_delay = 0.0
        self._dup = False
        self._tok = tok

    def _start(self, _e) -> None:  # simlint: hotpath
        req = self._req = self.sender.cpu.request(CPU_PROMPT)
        req.callbacks.append(self._cpu_out_held)

    def _cpu_out_held(self, _e) -> None:  # simlint: hotpath
        self.env.call_later(
            self.net.config.cpu_msg_overhead_s / self.sender.speed,
            self._cpu_out_done,
        )

    def _cpu_out_done(self, _e) -> None:  # simlint: hotpath
        self.sender.cpu.free(self._req)
        req = self._req = self.sender.ni_out.request()
        req.callbacks.append(self._ni_out_held)

    def _ni_out_held(self, _e) -> None:  # simlint: hotpath
        self.env.call_later(self.ni_time, self._ni_out_done)

    def _ni_out_done(self, _e) -> None:  # simlint: hotpath
        self.sender.ni_out.free(self._req)
        net = self.net
        cfg = net.config
        nf = net.netfaults
        if nf is not None:
            cause, delay, dup = nf.judge(self.sender.id, self.receiver.id, self.kind)
            if cause is not None:
                self._drop(cause)
                return
            self._extra_delay = delay
            self._dup = dup
        if net.switch_ports is not None:
            # Output-queued fabric: the destination port serializes
            # transfers headed to the same node.
            req = self._req = net.switch_ports[self.receiver.id].request()
            req.callbacks.append(self._port_held)
        else:
            self.env.call_later(cfg.switch_latency_s + self._extra_delay, self._switched)

    def _port_held(self, _e) -> None:  # simlint: hotpath
        cfg = self.net.config
        self.env.call_later(
            cfg.switch_latency_s
            + self.size_kb / cfg.hardware.ni_kb_per_s
            + self._extra_delay,
            self._port_done,
        )

    def _port_done(self, _e) -> None:  # simlint: hotpath
        self.net.switch_ports[self.receiver.id].free(self._req)
        self._switched(_e)

    def _switched(self, _e) -> None:  # simlint: hotpath
        receiver = self.receiver
        if receiver.failed or receiver.incarnation != self._rinc:
            self._drop("crash")
            return
        req = self._req = receiver.ni_in.request()
        req.callbacks.append(self._ni_in_held)

    def _ni_in_held(self, _e) -> None:  # simlint: hotpath
        self.env.call_later(self.ni_time, self._ni_in_done)

    def _ni_in_done(self, _e) -> None:  # simlint: hotpath
        receiver = self.receiver
        receiver.ni_in.free(self._req)
        if receiver.failed or receiver.incarnation != self._rinc:
            self._drop("crash")
            return
        req = self._req = receiver.cpu.request(CPU_PROMPT)
        req.callbacks.append(self._cpu_in_held)

    def _cpu_in_held(self, _e) -> None:  # simlint: hotpath
        self.env.call_later(
            self.net.config.cpu_msg_overhead_s / self.receiver.speed,
            self._cpu_in_done,
        )

    def _cpu_in_done(self, _e) -> None:  # simlint: hotpath
        receiver = self.receiver
        receiver.cpu.free(self._req)
        self._req = None
        if receiver.failed or receiver.incarnation != self._rinc:
            self._drop("crash")
            return
        net = self.net
        net._record_delivered(self.kind, self._tok)
        self._tok = None
        if self._dup:
            # A duplicate copy arrives right behind the original: it
            # charges the receiver's NI and CPU again but carries no
            # effect (and no counters beyond the dup tally).
            net._record_dup(self.kind)
            _DupDelivery(net, receiver, self.ni_time)
        if self.done is not None:
            self.done()

    def _drop(self, cause: str) -> None:
        self._req = None
        self.net._record_dropped(self.kind, cause, self._tok)
        self._tok = None
        if self.on_drop is not None:
            self.on_drop()


class _DupDelivery:
    """Receiver-side charges of one duplicated message copy.

    The copy occupies the receiver's NI-in and CPU like the original but
    fires no completion and moves no counters (the dup tally was
    recorded when it was spawned).
    """

    __slots__ = ("net", "env", "receiver", "ni_time", "_req")

    def __init__(self, net: "Interconnect", receiver: Node, ni_time: float):
        self.net = net
        self.env = net.env
        self.receiver = receiver
        self.ni_time = ni_time
        self._req = None
        if not receiver.failed:
            req = self._req = receiver.ni_in.request()
            req.callbacks.append(self._ni_held)

    def _ni_held(self, _e) -> None:
        self.env.call_later(self.ni_time, self._ni_done)

    def _ni_done(self, _e) -> None:
        self.receiver.ni_in.free(self._req)
        req = self._req = self.receiver.cpu.request(CPU_PROMPT)
        req.callbacks.append(self._cpu_held)

    def _cpu_held(self, _e) -> None:
        self.env.call_later(
            self.net.config.cpu_msg_overhead_s / self.receiver.speed,
            self._cpu_done,
        )

    def _cpu_done(self, _e) -> None:
        self.receiver.cpu.free(self._req)
        self._req = None


class Interconnect:
    """Router plus switched intra-cluster network."""

    def __init__(self, env: Environment, config: ClusterConfig, nodes: List[Node]):
        self.env = env
        self.config = config
        self.nodes = nodes
        self.router = Resource(env, capacity=1, name="router")
        #: Count of intra-cluster messages sent (for overhead accounting).
        self.messages_sent = 0
        #: Message counts by kind: sent, delivered, dropped, duplicated.
        #: ``in_flight_counts`` is a level, not a meter: it survives
        #: :meth:`reset_accounting` so the reconciliation
        #: ``sent == delivered + dropped + in_flight-delta`` holds across
        #: the warmup boundary.
        self.message_counts: dict = {}
        self.delivered_counts: Dict[str, int] = {}
        self.dropped_counts: Dict[str, int] = {}
        self.drop_causes: Dict[str, int] = {}
        self.dup_counts: Dict[str, int] = {}
        self.in_flight_counts: Dict[str, int] = {}
        #: Output-queued switch ports (one per destination node), present
        #: only when the config asks for fabric contention.
        self.switch_ports: Optional[List[Resource]] = None
        if config.model_switch_contention:
            self.switch_ports = [
                Resource(env, capacity=1, name=f"swport{n.id}") for n in nodes
            ]
        #: Unreliable-fabric layer; None when ``config.net_faults`` is
        #: absent or inert, in which case delivery is perfect (crash
        #: drops excepted).
        self.netfaults = None
        #: Ack/retry protocol engine; present only with an active layer.
        self.protocol = None
        if config.net_faults is not None and config.net_faults.active:
            from ..netfaults.layer import NetFaultLayer
            from ..netfaults.protocol import ReliableMessenger

            self.netfaults = NetFaultLayer(env, config.net_faults, len(nodes))
            self.protocol = ReliableMessenger(self, config.net_faults)

    # -- message accounting ---------------------------------------------------

    def _record_send(self, kind: str) -> Optional[int]:
        """Count one message at send time; returns a sanitizer token.

        Called synchronously from the send call itself — *before* any
        event is scheduled — so the counters never straddle a
        same-timestep :meth:`reset_accounting`.
        """
        self.messages_sent += 1
        counts = self.message_counts
        counts[kind] = counts.get(kind, 0) + 1
        inflight = self.in_flight_counts
        inflight[kind] = inflight.get(kind, 0) + 1
        san = self.env._san
        if san is None:
            return None
        return san.op_begin("interconnect-message", kind)

    def _record_delivered(self, kind: str, tok: Optional[int]) -> None:
        counts = self.delivered_counts
        counts[kind] = counts.get(kind, 0) + 1
        self.in_flight_counts[kind] -= 1
        if tok is not None:
            self.env._san.op_end(tok)

    def _record_dropped(self, kind: str, cause: str, tok: Optional[int]) -> None:
        counts = self.dropped_counts
        counts[kind] = counts.get(kind, 0) + 1
        causes = self.drop_causes
        causes[cause] = causes.get(cause, 0) + 1
        self.in_flight_counts[kind] -= 1
        if tok is not None:
            self.env._san.op_end(tok)

    def _record_dup(self, kind: str) -> None:
        counts = self.dup_counts
        counts[kind] = counts.get(kind, 0) + 1

    # -- intra-cluster messaging ----------------------------------------------

    def _message(
        self,
        src: int,
        dst: int,
        size_kb: float,
        kind: str,
        ni_time_s: Optional[float],
        done: Optional[Callable[[], None]],
        on_drop: Optional[Callable[[], None]],
    ) -> Optional[_MessageChain]:
        """Validate and count one message; None for the local shortcut."""
        if not (0 <= src < len(self.nodes) and 0 <= dst < len(self.nodes)):
            raise ValueError(f"message endpoints out of range: {src} -> {dst}")
        if size_kb <= 0:
            raise ValueError(f"size_kb must be positive, got {size_kb}")
        if src == dst:
            return None
        tok = self._record_send(kind)
        ni_time = (
            ni_time_s
            if ni_time_s is not None
            else self.config.hardware.ni_message_time(size_kb)
        )
        return _MessageChain(
            self,
            self.nodes[src],
            self.nodes[dst],
            size_kb,
            ni_time,
            kind,
            done,
            on_drop,
            tok,
        )

    def send_message_cb(
        self,
        src: int,
        dst: int,
        size_kb: float,
        kind: str = "msg",
        ni_time_s: Optional[float] = None,
        done: Optional[Callable[[], None]] = None,
        on_drop: Optional[Callable[[], None]] = None,
    ) -> None:
        """Deliver one message from node ``src`` to node ``dst``.

        ``done()`` fires when the receiver's CPU overhead completes;
        ``on_drop()`` fires instead if the message is dropped (receiver
        crash, fabric loss, downed link, partition); a dropped message
        still costs the sender side.  ``ni_time_s`` overrides the
        per-side NI occupancy (used for control messages).  With
        ``src == dst`` the message never touches the network and is not
        counted; ``done`` fires after the urgent kick.

        The send counters move synchronously here, before any event is
        scheduled; the charges start at an urgent zero-delay event, so
        they run before any ordinary event at this instant but after
        the rest of the sender's current work.
        """
        chain = self._message(src, dst, size_kb, kind, ni_time_s, done, on_drop)
        if chain is not None:
            self.env.call_later(0.0, chain._start, priority=URGENT)
        elif done is not None:
            self.env.call_later(0.0, lambda _e: done(), priority=URGENT)

    def send_message_inline(
        self,
        src: int,
        dst: int,
        size_kb: float,
        kind: str,
        ni_time_s: Optional[float],
        done: Callable[[], None],
        on_drop: Callable[[], None],
    ) -> None:
        """:meth:`send_message_cb` for a sender that waits on the message.

        The sender's first charge is requested now, ahead of anything
        else its current event goes on to schedule (an L2S load
        broadcast, say).  With ``src == dst``, ``done()`` fires at once.
        """
        chain = self._message(src, dst, size_kb, kind, ni_time_s, done, on_drop)
        if chain is None:
            done()
        else:
            chain._start(None)

    def send_control_cb(
        self,
        src: int,
        dst: int,
        kind: str = "control",
        done: Optional[Callable[[], None]] = None,
        on_drop: Optional[Callable[[], None]] = None,
    ) -> None:
        """A small (4-byte payload) control message: 19 us one-way."""
        self.send_message_cb(
            src,
            dst,
            self.config.control_kb,
            kind,
            ni_time_s=self.config.ni_control_time(),
            done=done,
            on_drop=on_drop,
        )

    def transmit_cb(
        self,
        src: int,
        dst: int,
        size_kb: float,
        kind: str,
        done: Callable[[bool], None],
        ni_time_s: Optional[float] = None,
    ) -> None:
        """Send one message the sender waits on; ``done(ok)`` reports it.

        Kinds the ack/retry protocol covers go through
        :meth:`~repro.netfaults.protocol.ReliableMessenger.request_cb`
        (``ok`` means acknowledged); everything else is one bare
        :meth:`send_message_inline` (``ok`` means delivered).  With
        ``src == dst`` nothing crosses the fabric and ``done(True)``
        fires at once.
        """
        proto = self.protocol
        if proto is not None and proto.covers(kind):
            proto.request_cb(src, dst, size_kb, kind, done, ni_time_s)
            return
        self.send_message_inline(
            src,
            dst,
            size_kb,
            kind,
            ni_time_s,
            lambda: done(True),
            lambda: done(False),
        )

    def broadcast_control(
        self,
        src: int,
        kind: str = "broadcast",
        exclude: Optional[int] = None,
    ) -> None:
        """Fire-and-forget control messages from ``src`` to all other nodes.

        The paper implements broadcast as multiple point-to-point M-VIA
        messages; the sender does not wait on their delivery.
        """
        for node in self.nodes:
            if node.id == src or node.id == exclude:
                continue
            self.send_control_cb(src, node.id, kind)

    def in_flight_total(self) -> int:
        """Messages sent but not yet delivered or dropped."""
        return sum(self.in_flight_counts.values())

    def reset_accounting(self) -> None:
        self.router.reset_accounting()
        self.messages_sent = 0
        self.message_counts.clear()
        self.delivered_counts.clear()
        self.dropped_counts.clear()
        self.drop_causes.clear()
        self.dup_counts.clear()
        # in_flight_counts is intentionally NOT cleared: it tracks live
        # messages, and clearing it mid-flight would corrupt the
        # sent/delivered/dropped reconciliation.
        if self.protocol is not None:
            self.protocol.reset_accounting()
