"""L2S — the Locality and Load balancing Server (Section 4).

Fully distributed locality-conscious request distribution:

* Client connections reach nodes by **round-robin DNS**.
* Every file has a **server set** — the nodes allowed to cache it.  The
  initial node services a request itself if it is not overloaded (open
  connections ≤ ``T``) and either already serves the file or the file was
  never requested; otherwise the request goes to the least-loaded member
  of the file's server set; a node outside the set is chosen (and added
  to the set, replicating the file) only when both the initial node and
  the least-loaded member are overloaded.
* Server sets **shrink** when the chosen node is underloaded (< ``t``),
  the set has more than one member, and the set has not been modified for
  ``set_age_s`` — bounding replication.
* **Load dissemination**: every node keeps its own estimate of everyone's
  open-connection counts; a node broadcasts its count when it drifts by
  ``broadcast_delta`` (default 4) from the last broadcast value.  The
  broadcasts are real simulated messages — estimates at other nodes
  update only when the message is delivered, so decisions run on stale
  data exactly as in the real system.
* **Server-set changes** are likewise broadcast (rare in steady state).

Fidelity note: the server-set *table* is applied globally at decision
time while its dissemination cost is charged; per-node load views are
fully per-node and message-delayed.  Set changes are orders of magnitude
rarer than load changes, so the staleness that matters (load) is modeled
faithfully.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

from .base import Decision, DistributionPolicy, ShuffledRoundRobin
from .base import least_loaded as _least_loaded

__all__ = ["L2SPolicy"]


class L2SPolicy(DistributionPolicy):
    """The paper's distributed locality + load-balancing algorithm."""

    name = "l2s"

    def __init__(
        self,
        overload_threshold: int = 20,
        underload_threshold: int = 10,
        broadcast_delta: int = 4,
        set_age_s: float = 20.0,
        eager_local_replication: bool = True,
        view_max_age_s: Optional[float] = None,
    ):
        super().__init__()
        if overload_threshold <= 0 or underload_threshold <= 0:
            raise ValueError("thresholds must be positive")
        if underload_threshold > overload_threshold:
            raise ValueError("underload threshold must not exceed overload threshold")
        if broadcast_delta < 1:
            raise ValueError("broadcast_delta must be >= 1")
        if set_age_s < 0:
            raise ValueError("set_age_s must be non-negative")
        #: T — a node with more open connections than this is overloaded.
        self.overload_threshold = overload_threshold
        #: t — below this the service node is underloaded (sets may shrink).
        self.underload_threshold = underload_threshold
        #: Broadcast load when it drifts this far from the last broadcast.
        self.broadcast_delta = broadcast_delta
        #: Minimum age of a server set before it may be shrunk.
        self.set_age_s = set_age_s
        #: When the file's whole server set is overloaded but the initial
        #: node is not, serve locally and join the set (replicate) instead
        #: of queueing on an overloaded member.  The paper's prose only
        #: covers the both-overloaded case explicitly; without this
        #: extension a round-robin arrival stream almost never sees an
        #: overloaded *initial* node and hot files never replicate,
        #: contradicting the measured L2S behaviour (see DESIGN.md).
        self.eager_local_replication = eager_local_replication
        if view_max_age_s is not None and view_max_age_s <= 0:
            raise ValueError("view_max_age_s must be positive (or None)")
        #: Staleness bound on remote load-view entries (unreliable-fabric
        #: hardening): an entry not refreshed within this many seconds is
        #: distrusted — excluded from least-loaded selection — and when a
        #: file's entire server set has gone stale the request is served
        #: locally instead of handed off on fossil data.  None (default)
        #: trusts every entry forever, the paper's behaviour.
        self.view_max_age_s = view_max_age_s
        # Statistics.
        self.replications = 0
        self.shrinks = 0
        self.load_broadcasts = 0
        self.set_broadcasts = 0
        self.rejoins = 0
        self.stale_local_dispatches = 0
        self.heal_reannounces = 0

    def _setup(self) -> None:
        cluster = self._require_cluster()
        n = cluster.num_nodes
        self._rr = ShuffledRoundRobin(n)
        #: server_sets[file_id] -> list of node ids serving that file.
        self._server_sets: Dict[int, List[int]] = {}
        #: Last time each file's server set changed.
        self._set_modified: Dict[int, float] = {}
        #: views[i][j] — node i's estimate of node j's open connections.
        self._views: List[List[int]] = [[0] * n for _ in range(n)]
        #: view_age[i][j] — when node i's estimate of j last updated.
        self._view_age: List[List[float]] = [[0.0] * n for _ in range(n)]
        #: Connection count each node last broadcast.
        self._last_broadcast: List[int] = [0] * n

    # -- arrival ---------------------------------------------------------------

    def initial_node(self, index: int, file_id: int) -> int:
        """Round-robin DNS (block-shuffled — see ShuffledRoundRobin).

        Dead nodes' turns pass to the next alive node, modeling DNS
        failover / client retry.
        """
        return self._next_alive(self._rr.node_for(index))

    # -- the distribution algorithm ---------------------------------------------

    def decide(self, initial: int, file_id: int) -> Decision:
        cluster = self._require_cluster()
        now = self.clock.now
        view = self._views[initial]
        failed = self.failed_nodes
        # A node always knows its own load exactly (unless it is the one
        # that died, in which case keep it poisoned).
        if initial not in failed:
            view[initial] = cluster.node(initial).open_connections
        t_high = self.overload_threshold
        max_age = self.view_max_age_s
        ages = self._view_age[initial] if max_age is not None else None

        def fresh(node: int) -> bool:
            # A node's estimate of itself is always current; with no
            # staleness bound configured everything counts as fresh.
            return ages is None or node == initial or now - ages[node] <= max_age

        def overloaded(node: int) -> bool:
            return node in failed or view[node] > t_high

        def least_loaded_globally() -> int:
            alive = [i for i in range(len(view)) if i not in failed]
            if ages is not None:
                usable = [i for i in alive if fresh(i)]
                if usable:
                    alive = usable
                elif initial not in failed:
                    # Every remote estimate is fossil data: serve locally
                    # rather than hand off on it.
                    self.stale_local_dispatches += 1
                    return initial
            return _least_loaded(view, self.routable_nodes(alive))

        sset = self._server_sets.get(file_id)
        replicated = False
        modified = False
        target: Optional[int] = None

        if not sset:
            # First request for this file.
            target = initial if not overloaded(initial) else least_loaded_globally()
            sset = [target]
            self._server_sets[file_id] = sset
            modified = True
        elif initial in sset and not overloaded(initial):
            target = initial
        else:
            members = sset
            if ages is not None:
                usable = [i for i in sset if i not in failed and fresh(i)]
                if usable:
                    members = usable
                elif initial not in failed:
                    # The whole server set is stale (or dead): fall back
                    # to local dispatch, joining the set so the file's
                    # bytes are actually here next time.
                    self.stale_local_dispatches += 1
                    target = initial
                    if initial not in sset:
                        sset.append(initial)
                        replicated = True
                        modified = True
                        self.replications += 1
            if target is None:
                least_in_set = _least_loaded(view, self.routable_nodes(members))
                if not overloaded(least_in_set):
                    target = least_in_set
                else:
                    # The file's whole server set is overloaded: replicate.
                    if self.eager_local_replication and not overloaded(initial):
                        target = initial
                    elif overloaded(initial) or self.eager_local_replication:
                        target = least_loaded_globally()
                    else:
                        # Strict reading: replication needs the initial node
                        # overloaded too; queue on the set's least member.
                        target = least_in_set
                    if target not in sset:
                        sset.append(target)
                        replicated = True
                        modified = True
                        self.replications += 1

        # Replication control: shrink old, multi-member sets whose chosen
        # node is underloaded.  A set modified by this very decision is by
        # definition not "old".
        if (
            not modified
            and len(sset) > 1
            and view[target] < self.underload_threshold
            and now - self._set_modified.get(file_id, -float("inf")) >= self.set_age_s
        ):
            victim = max((n for n in sset if n != target), key=lambda i: (view[i], i))
            sset.remove(victim)
            modified = True
            self.shrinks += 1

        if modified:
            self._set_modified[file_id] = now
            self._broadcast_set_change(initial)

        # Optimistic local update: the initial node knows it just sent
        # this connection to `target`.
        view[target] += 1
        return Decision(
            target=target, forwarded=target != initial, replicated=replicated
        )

    # -- dissemination -----------------------------------------------------------

    def on_node_failed(self, node_id: int) -> None:
        """Repair distributed state after a crash.

        The survivors drop the dead node from every server set (files it
        alone served fall back to first-request handling) and from their
        load views.  Fully decentralized — no coordinator involved —
        which is exactly the availability property the paper claims
        for L2S.
        """
        super().on_node_failed(node_id)
        empty = [f for f, s in self._server_sets.items() if s == [node_id]]
        for f in empty:
            del self._server_sets[f]
            self._set_modified.pop(f, None)
        for sset in self._server_sets.values():
            if node_id in sset:
                sset.remove(node_id)
        # Nobody should ever pick it again.
        for view in self._views:
            view[node_id] = 1 << 30

    def on_node_recovered(self, node_id: int) -> None:
        """Rejoin after a cold reboot — again fully decentralized.

        The restarted node lost all soft state: it starts with a fresh
        (all-zero) view of everyone's load and belongs to no server set
        (its cache is empty; files replicate back onto it through the
        normal overload path, which is the reheat transient the
        availability timeline shows).  It announces itself by
        broadcasting its (zero) load; each survivor un-poisons its view
        entry only when that message is delivered, so rejoin — like
        every other L2S view change — propagates at message speed.
        """
        super().on_node_recovered(node_id)
        cluster = self._require_cluster()
        n = cluster.num_nodes
        self._views[node_id] = [0] * n
        self._view_age[node_id] = [self.clock.now] * n
        self._last_broadcast[node_id] = 0
        self.rejoins += 1
        self.load_broadcasts += 1
        for other in range(n):
            if other == node_id or other in self.failed_nodes:
                continue
            self._deliver_load(node_id, other, 0, kind="l2s_load")

    def on_connection_change(self, node_id: int) -> None:
        """Broadcast a node's load when it drifts past the delta."""
        if node_id in self.failed_nodes:
            return
        cluster = self._require_cluster()
        actual = cluster.node(node_id).open_connections
        if abs(actual - self._last_broadcast[node_id]) < self.broadcast_delta:
            return
        self._last_broadcast[node_id] = actual
        self.load_broadcasts += 1
        for other in range(cluster.num_nodes):
            if other == node_id:
                continue
            self._deliver_load(node_id, other, actual)

    def _deliver_load(
        self, src: int, dst: int, value: int, kind: str = "l2s_load"
    ) -> None:
        """Fire-and-forget load message; the estimate updates on delivery.

        A fire-and-forget message chain — the dominant
        message source in an L2S run (one broadcast per connection-count
        drift), so not paying a process per message matters.
        """
        cluster = self._require_cluster()
        clock = self.clock
        views = self._views
        ages = self._view_age

        def apply() -> None:
            views[dst][src] = value
            ages[dst][src] = clock.now

        cluster.net.send_control_cb(src, dst, kind, done=apply)

    def _broadcast_set_change(self, src: int) -> None:
        """Charge the (rare) server-set modification broadcast.

        Set updates are hard state compared to load samples, so they opt
        into the ack/retry protocol when one is active; load broadcasts
        never do — staleness detection (``view_max_age_s``) is the
        defense there.
        """
        self.set_broadcasts += 1
        cluster = self._require_cluster()
        net = cluster.net
        proto = net.protocol
        if proto is not None and proto.covers("l2s_set"):
            for other in range(cluster.num_nodes):
                if other != src:
                    proto.send_control_cb(src, other, "l2s_set")
        else:
            net.broadcast_control(src, kind="l2s_set")

    def on_handoff_failed(self, initial: int, target: int) -> None:
        """Roll back the optimistic view charge of an abandoned hand-off."""
        self._views[initial][target] -= 1

    def on_partition_healed(self) -> None:
        """Re-announce soft state once the partition heals.

        Each side kept gossiping internally while cross-partition
        messages died, so the survivors' views of the far side are
        fossils.  Every alive node re-broadcasts its server-set table
        and its current load — all charged as real messages.
        """
        cluster = self._require_cluster()
        n = cluster.num_nodes
        self.heal_reannounces += 1
        for node in range(n):
            if node in self.failed_nodes:
                continue
            self._broadcast_set_change(node)
            actual = cluster.node(node).open_connections
            self._last_broadcast[node] = actual
            self.load_broadcasts += 1
            for other in range(n):
                if other == node or other in self.failed_nodes:
                    continue
                self._deliver_load(node, other, actual)

    # -- reporting ----------------------------------------------------------------

    def server_set(self, file_id: int) -> List[int]:
        """Current server set of a file (empty if never requested)."""
        return list(self._server_sets.get(file_id, []))

    def mean_server_set_size(self) -> float:
        if not self._server_sets:
            return 0.0
        return sum(len(s) for s in self._server_sets.values()) / len(self._server_sets)

    def reset_stats(self) -> None:
        self.replications = 0
        self.shrinks = 0
        self.load_broadcasts = 0
        self.set_broadcasts = 0
        self.rejoins = 0
        self.stale_local_dispatches = 0
        self.heal_reannounces = 0

    def stats(self) -> Dict[str, Any]:
        return {
            "replications": self.replications,
            "shrinks": self.shrinks,
            "load_broadcasts": self.load_broadcasts,
            "set_broadcasts": self.set_broadcasts,
            "rejoins": self.rejoins,
            "stale_local_dispatches": self.stale_local_dispatches,
            "heal_reannounces": self.heal_reannounces,
            "mean_server_set_size": self.mean_server_set_size(),
            "files_with_server_sets": len(self._server_sets),
        }

    def check_invariants(self) -> List[str]:
        """Structural bounds on L2S's distributed state.

        Checked: thresholds ordered (t <= T), every server set non-empty
        and duplicate-free with members that are in-range alive nodes,
        and each alive node's view of *itself* non-negative.  Remote
        view entries are deliberately unchecked: the optimistic
        charge/rollback protocol can legitimately push a remote estimate
        transiently negative when a broadcast overwrite races a
        hand-off rollback — staleness, not corruption.
        """
        problems: List[str] = []
        n = self._require_cluster().num_nodes
        if self.underload_threshold > self.overload_threshold:
            problems.append(
                f"l2s: underload threshold {self.underload_threshold} "
                f"exceeds overload threshold {self.overload_threshold}"
            )
        for file_id, sset in self._server_sets.items():
            if not sset:
                problems.append(
                    f"l2s: file {file_id} has an empty server set"
                )
            if len(set(sset)) != len(sset):
                problems.append(
                    f"l2s: file {file_id} server set has duplicates: {sset}"
                )
            for member in sset:
                if not 0 <= member < n:
                    problems.append(
                        f"l2s: file {file_id} server set names node "
                        f"{member}, outside the {n}-node cluster"
                    )
                elif member in self.failed_nodes:
                    problems.append(
                        f"l2s: file {file_id} server set names failed "
                        f"node {member}"
                    )
        for i in range(n):
            if i not in self.failed_nodes and self._views[i][i] < 0:
                problems.append(
                    f"l2s: node {i} sees its own load as {self._views[i][i]}"
                )
        return problems
