"""Round-robin locality-oblivious server (DNS-style baseline).

The simplest external distribution scheme the paper discusses: round-
robin DNS hands connections to nodes cyclically with no load or locality
information.  Useful as a floor baseline and as the arrival mechanism
other policies (L2S) reuse.
"""

from __future__ import annotations

from typing import List

from .base import Decision, DistributionPolicy, ShuffledRoundRobin

__all__ = ["RoundRobinPolicy"]


class RoundRobinPolicy(DistributionPolicy):
    """Cyclic (block-shuffled) assignment, strictly local service."""

    name = "round-robin"
    local_prewarm = True

    def _setup(self) -> None:
        self._rr = ShuffledRoundRobin(self._require_cluster().num_nodes)

    def initial_node(self, index: int, file_id: int) -> int:
        # Failover LB semantics: a dead node's turn passes to the next
        # alive node.
        return self._next_alive(self._rr.node_for(index))

    def decide(self, initial: int, file_id: int) -> Decision:
        return Decision(target=initial, forwarded=False)

    def check_invariants(self) -> List[str]:
        """The dealer's current block must be a true permutation of the
        node ids — a corrupted shuffle would silently unbalance arrivals
        while every per-request answer still looks plausible."""
        problems: List[str] = []
        if self.cluster is None:
            return problems
        n = self.cluster.num_nodes
        if self._rr.nodes != n:
            problems.append(
                f"round-robin: dealer sized for {self._rr.nodes} nodes, "
                f"cluster has {n}"
            )
        if self._rr._perm and sorted(self._rr._perm) != list(range(n)):
            problems.append(
                f"round-robin: block permutation {self._rr._perm} is not "
                f"a permutation of 0..{n - 1}"
            )
        return problems
