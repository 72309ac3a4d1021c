"""The LARD server (Pai et al., ASPLOS-8) as simulated in the paper.

One cluster node (id 0) is the dedicated **front-end**: it accepts and
parses every client request, runs the LARD/R distribution algorithm over
its view of the back-end loads, and hands the connection off to a
back-end, which replies to the client directly.  The front-end neither
caches nor services content — the cache-space waste and the single
choke point the paper criticizes.

Algorithm (LARD with replication, 'LARD/R'):

* an unknown target goes to the least-loaded back-end, which becomes its
  server set;
* otherwise the request goes to the least-loaded member of the target's
  server set, unless that member is loaded above ``t_high`` while some
  back-end sits below ``t_low`` (or it exceeds ``2*t_high``), in which
  case the overall least-loaded back-end is added to the set and used;
* a multi-member set older than ``set_age_s`` since its last change
  drops its most-loaded member.

Defaults ``t_low=25``, ``t_high=65``, 20 s aging follow Pai et al., whose
settings this paper reuses ("they produce the best results for our
traces as well").

Load view: the front-end counts a back-end connection from hand-off
until the back-end's *completion notice* arrives.  Back-ends batch
notices: one control message per ``completion_batch`` finished requests
(4, the value the paper found best), so the view is stale exactly as in
the real system.

A single-node "cluster" degenerates to a sequential server (the node
serves everything locally); the paper's figures likewise start LARD's
curves at more than one node.
"""

from __future__ import annotations

from bisect import insort
from typing import Any, Dict, List

from .base import Decision, DistributionPolicy, ServiceUnavailable
from .base import least_loaded as _least_loaded

__all__ = ["LARDPolicy"]


class LARDPolicy(DistributionPolicy):
    """Front-end LARD/R request distribution."""

    name = "lard"

    def __init__(
        self,
        t_low: int = 25,
        t_high: int = 65,
        set_age_s: float = 20.0,
        completion_batch: int = 4,
        replication: bool = True,
    ):
        super().__init__()
        if t_low <= 0 or t_high <= 0:
            raise ValueError("thresholds must be positive")
        if t_low > t_high:
            raise ValueError("t_low must not exceed t_high")
        if completion_batch < 1:
            raise ValueError("completion_batch must be >= 1")
        if set_age_s < 0:
            raise ValueError("set_age_s must be non-negative")
        self.t_low = t_low
        self.t_high = t_high
        self.set_age_s = set_age_s
        self.completion_batch = completion_batch
        #: False gives plain LARD (single-node server sets, no replication).
        self.replication = replication
        self.replications = 0
        self.shrinks = 0
        self.completion_notices = 0
        self.front_end_restarts = 0
        #: Notice debits discarded because the table that held their
        #: charges was lost in a restart (dropped stale notices plus
        #: post-restart acknowledgements clamped at zero).
        self.stale_acks = 0

    @property
    def front_end(self) -> int:
        return 0

    def _setup(self) -> None:
        cluster = self._require_cluster()
        n = cluster.num_nodes
        self._single_node = n == 1
        #: Back-end node ids (everything but the front-end).
        self._back_ends: List[int] = list(range(1, n))
        #: Front-end's load view: handed-off minus acknowledged, per node.
        self._view: List[int] = [0] * n
        self._server_sets: Dict[int, List[int]] = {}
        self._set_modified: Dict[int, float] = {}
        #: Completions at each back-end not yet covered by a notice.
        self._pending_notice: List[int] = [0] * n
        #: Incremented whenever the view table restarts cold (front-end
        #: reboot, dispatcher re-election).  Completion notices delivered
        #: across a table restart must not debit the fresh table: the
        #: hand-offs they acknowledge were charged to the *old* table.
        self._table_gen = 0

    # -- arrival: everything lands on the front-end ------------------------------

    def initial_node(self, index: int, file_id: int) -> int:
        if self.front_end in self.failed_nodes:
            # The single point of failure the paper criticizes: no
            # front-end, no service.
            raise ServiceUnavailable("LARD front-end has failed")
        return self.front_end

    def on_node_failed(self, node_id: int) -> None:
        """A back-end death is survivable: the front-end drops it from
        its view and every server set.  A front-end death is not."""
        super().on_node_failed(node_id)
        if node_id == self.front_end or self._single_node:
            return
        if node_id in self._back_ends:
            self._back_ends.remove(node_id)
        for file_id in list(self._server_sets):
            sset = self._server_sets[file_id]
            if node_id in sset:
                sset.remove(node_id)
            if not sset:
                del self._server_sets[file_id]
                self._set_modified.pop(file_id, None)

    def on_node_recovered(self, node_id: int) -> None:
        """Rejoin semantics per role.

        A rebooted **back-end** re-enters the pool with an empty cache
        and no server-set membership — LARD re-replicates hot files onto
        it through the normal t_high/t_low path.  Its view entry is *not*
        forced to zero: the view is front-end memory, and every
        connection charged to the dead incarnation still closes through
        the normal abort path (possibly after the reboot) and sends its
        completion notice, so the entry drains to zero on its own — the
        same drain-through contract :meth:`Node.recover` keeps for the
        node's connection count.  Zeroing it here would double-credit
        those connections and drive the view negative.

        A rebooted **front-end** resumes service, but its LARD tables
        (views, server sets, pending notices) restart cold: the state
        lived in the front-end's memory, which is exactly why the paper
        calls it a single point of failure.
        """
        super().on_node_recovered(node_id)
        if self._single_node:
            return
        n = self._require_cluster().num_nodes
        if node_id == self.front_end:
            self._view = [0] * n
            self._server_sets.clear()
            self._set_modified.clear()
            self._pending_notice = [0] * n
            self._table_gen += 1
            self.front_end_restarts += 1
        else:
            if node_id not in self._back_ends:
                insort(self._back_ends, node_id)

    # -- LARD/R -------------------------------------------------------------------

    def decide(self, initial: int, file_id: int) -> Decision:
        cluster = self._require_cluster()
        if self._single_node:
            return Decision(target=0, forwarded=False)
        if not self._back_ends:
            raise ServiceUnavailable("no LARD back-ends remain")
        now = self.clock.now
        view = self._view

        sset = self._server_sets.get(file_id)
        replicated = False
        modified = False

        if not sset:
            target = _least_loaded(view, self.routable_nodes(self._back_ends))
            sset = [target]
            self._server_sets[file_id] = sset
            modified = True
        else:
            target = _least_loaded(view, self.routable_nodes(sset))
            if self.replication:
                cold = _least_loaded(view, self.routable_nodes(self._back_ends))
                if (
                    view[target] > self.t_high and view[cold] < self.t_low
                ) or view[target] > 2 * self.t_high:
                    if cold not in sset:
                        sset.append(cold)
                        replicated = True
                        modified = True
                        self.replications += 1
                    target = cold
            if (
                len(sset) > 1
                and now - self._set_modified.get(file_id, -float("inf"))
                >= self.set_age_s
            ):
                victim = max(sset, key=lambda i: (view[i], i))
                if victim != target:
                    sset.remove(victim)
                    modified = True
                    self.shrinks += 1

        if modified:
            self._set_modified[file_id] = now
        view[target] += 1
        # From the front-end (never a back-end) this is always a hand-off;
        # the dispatcher subclass can land on the initial node itself.
        return Decision(
            target=target, forwarded=target != initial, replicated=replicated
        )

    # -- completion notices ----------------------------------------------------------

    def on_connection_end(self, node_id: int) -> None:
        """Batch a completion notice towards the front-end.

        The front-end's view counts *connections* (one increment per
        decide), so the decrement must also be per connection — under
        persistent connections ``on_complete`` fires once per request
        and would drive the view negative.
        """
        if self._single_node:
            return
        self._pending_notice[node_id] += 1
        if self._pending_notice[node_id] < self.completion_batch:
            return
        batch = self._pending_notice[node_id]
        self._pending_notice[node_id] = 0
        self._deliver_notice(node_id, batch)

    def _deliver_notice(self, back_end: int, batch: int) -> None:
        """Back-end -> front-end message; the view updates on delivery.

        A fire-and-forget message chain (no per-notice process).  An
        elected lard-ng dispatcher also serves; its own notices are a
        local table update, not a network message — ``send_control_cb``'s
        ``src == dst`` shortcut applies the update synchronously.
        """
        cluster = self._require_cluster()
        gen = self._table_gen

        def apply() -> None:
            if self._table_gen != gen:
                # The table restarted cold (front-end reboot, dispatcher
                # election) while the notice was in flight; the charges
                # it acknowledges died with the old table, and debiting
                # the fresh one would drive the view negative.
                self.stale_acks += batch
                return
            view = self._view
            debit = batch
            if self._table_gen and debit > view[back_end]:
                # Post-restart notices can acknowledge hand-offs charged
                # to the lost table (connections that straddled the
                # restart).  A restarted front-end has no record of them:
                # it ignores the excess rather than going negative.
                self.stale_acks += debit - view[back_end]
                debit = view[back_end]
            view[back_end] -= debit
            self.completion_notices += 1

        proto = cluster.net.protocol
        if proto is not None and proto.covers("lard_done"):
            # A lost notice permanently inflates the front-end's view of
            # this back-end, so notices ride the ack/retry protocol on an
            # unreliable fabric (the view still updates at first delivery
            # only — at-most-once).
            proto.send_control_cb(
                back_end, self.front_end, "lard_done", deliver=apply
            )
        else:
            cluster.net.send_control_cb(
                back_end, self.front_end, kind="lard_done", done=apply
            )

    def on_handoff_failed(self, initial: int, target: int) -> None:
        """Roll back the view charge of a hand-off that never opened a
        connection — lost in the fabric, dead on arrival, or shed by
        admission control.

        Clamped at zero: if the table restarted cold between the charge
        and the failure, there is nothing left to roll back.
        """
        if self._single_node:
            return
        if self._view[target] > 0:
            self._view[target] -= 1
        else:
            self.stale_acks += 1

    # -- reporting ----------------------------------------------------------------------

    def server_set(self, file_id: int) -> List[int]:
        return list(self._server_sets.get(file_id, []))

    def reset_stats(self) -> None:
        self.replications = 0
        self.shrinks = 0
        self.completion_notices = 0

    def stats(self) -> Dict[str, Any]:
        return {
            "replications": self.replications,
            "shrinks": self.shrinks,
            "completion_notices": self.completion_notices,
            "front_end_restarts": self.front_end_restarts,
            "stale_acks": self.stale_acks,
            "front_end_view": list(self._view),
            "files_with_server_sets": len(self._server_sets),
        }

    def check_invariants(self) -> List[str]:
        problems: List[str] = []
        if self._single_node:
            return problems
        for i, load in enumerate(self._view):
            if load < 0:
                problems.append(
                    f"lard: front-end view of node {i} is negative ({load})"
                )
        alive = set(self._back_ends)
        for file_id, sset in self._server_sets.items():
            if not sset:
                problems.append(
                    f"lard: file {file_id} has an empty server set"
                )
            if len(set(sset)) != len(sset):
                problems.append(
                    f"lard: file {file_id} server set has duplicates: {sset}"
                )
            for member in sset:
                if member not in alive:
                    problems.append(
                        f"lard: file {file_id} server set names node "
                        f"{member}, which is not an alive back-end"
                    )
        for i, pending in enumerate(self._pending_notice):
            if not 0 <= pending < self.completion_batch:
                problems.append(
                    f"lard: node {i} pending-notice count {pending} "
                    f"outside [0, {self.completion_batch})"
                )
        return problems
