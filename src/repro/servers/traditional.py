"""The traditional, locality-oblivious server.

Requests are assigned to the node with the fewest open connections (all
nodes equally powerful) by an idealized dispatcher — e.g. a L4 switch —
and every node services its own requests independently.  The memories
behave as N independent caches of the same hot content, which is exactly
the pathology the paper sets out to quantify.

The dispatcher's view counts a connection from *assignment* (not from the
moment the node starts parsing), mirroring a real connection-counting
switch and avoiding herding at simulation start.
"""

from __future__ import annotations

from typing import Any, Dict, List

from .base import Decision, DistributionPolicy, least_loaded

__all__ = ["TraditionalPolicy"]


class TraditionalPolicy(DistributionPolicy):
    """Fewest-connections dispatch, strictly local service."""

    name = "traditional"
    local_prewarm = True

    def _setup(self) -> None:
        n = self._require_cluster().num_nodes
        #: Connections as seen by the dispatcher: assigned minus completed.
        self._assigned: List[int] = [0] * n

    def initial_node(self, index: int, file_id: int) -> int:
        self._require_cluster()
        view = self._assigned
        failed = self.failed_nodes
        if failed or self.breakers is not None:
            from .base import ServiceUnavailable

            alive = [i for i in range(len(view)) if i not in failed]
            if not alive:
                raise ServiceUnavailable("every node has failed")
            node = least_loaded(view, self.routable_nodes(alive))
        else:
            # Hot path (no failures): scan in place, no node list, no
            # key tuples.  Strict ``<`` keeps min()'s tie-break — the
            # lowest-id node among the minima.
            node = 0
            best = view[0]
            for i in range(1, len(view)):
                load = view[i]
                if load < best:
                    best = load
                    node = i
        view[node] += 1
        return node

    def decide(self, initial: int, file_id: int) -> Decision:
        return Decision(target=initial, forwarded=False)

    def on_connection_end(self, node_id: int) -> None:
        self._assigned[node_id] -= 1

    def on_request_aborted(self, node_id: int, opened: bool) -> None:
        """Balance the dispatcher view for requests that died between
        assignment and connection open (the open path decrements through
        ``on_connection_end`` as usual)."""
        if not opened and node_id >= 0:
            self._assigned[node_id] -= 1

    def stats(self) -> Dict[str, Any]:
        return {"dispatcher_view": list(self._assigned)}

    def check_invariants(self) -> List[str]:
        """The dispatcher view must never drift negative: every decrement
        (connection end, unopened abort) pairs with exactly one earlier
        assignment, so a negative count means double-accounting — the
        same bug class chaos fuzzing caught in LARD's front-end view."""
        problems: List[str] = []
        if self.cluster is None:
            return problems
        if len(self._assigned) != self.cluster.num_nodes:
            problems.append(
                f"traditional: dispatcher view has {len(self._assigned)} "
                f"entries for {self.cluster.num_nodes} nodes"
            )
        for i, count in enumerate(self._assigned):
            if count < 0:
                problems.append(
                    f"traditional: dispatcher view of node {i} is "
                    f"negative ({count})"
                )
        return problems
