"""Cluster assembly: nodes + interconnect + DFS as one object."""

from __future__ import annotations

from typing import List

from ..des import Environment
from .config import ClusterConfig
from .dfs import DistributedFS
from .network import Interconnect
from .node import Node

__all__ = ["Cluster"]


class Cluster:
    """An N-node cluster wired to a router (Figure 1)."""

    def __init__(self, env: Environment, config: ClusterConfig):
        self.env = env
        self.config = config
        self.nodes: List[Node] = [
            Node(env, i, config) for i in range(config.nodes)
        ]
        self.net = Interconnect(env, config, self.nodes)
        self.dfs = DistributedFS(env, config, self.nodes, self.net)
        #: :class:`~repro.overload.OverloadControl` for this run, or
        #: ``None``.  Set by the driver; the lifecycles consult its
        #: breaker board at service entry.
        self.overload = None
        #: Zero-arg callback fired on every node-level shed (the driver
        #: points this at the availability timeline's ``record_shed``).
        self.shed_listener = None

    def __len__(self) -> int:
        return len(self.nodes)

    def node(self, node_id: int) -> Node:
        return self.nodes[node_id]

    @property
    def num_nodes(self) -> int:
        return len(self.nodes)

    def note_shed(self, node: Node) -> None:
        """Count one admission/breaker shed at ``node`` and notify the
        timeline listener, if any."""
        node.shed += 1
        if self.shed_listener is not None:
            self.shed_listener()

    def least_loaded_node(self) -> int:
        """Node id with the fewest open connections (ties: lowest id)."""
        return min(range(len(self.nodes)), key=lambda i: (self.nodes[i].open_connections, i))

    def connection_counts(self) -> List[int]:
        return [n.open_connections for n in self.nodes]

    def total_cache_hits(self) -> int:
        return sum(n.cache.hits for n in self.nodes)

    def total_cache_misses(self) -> int:
        return sum(n.cache.misses for n in self.nodes)

    def overall_miss_rate(self) -> float:
        hits, misses = self.total_cache_hits(), self.total_cache_misses()
        total = hits + misses
        return misses / total if total else 0.0

    def reset_accounting(self) -> None:
        """Discard warmup statistics everywhere (cache contents survive)."""
        for node in self.nodes:
            node.reset_accounting()
        self.net.reset_accounting()
        self.dfs.reset_accounting()
