"""Distributed file system: how misses reach disk content.

The paper's cluster gives every node "access to data stored on any disk
via a distributed file system".  Two layouts are provided:

* **replicated** (default, and the analytic model's implicit assumption):
  every disk holds the full content, a miss is a local disk read; and
* **partitioned**: content is hash-partitioned across disks; a miss on a
  file homed elsewhere pays a request/response message pair around the
  remote node's disk read.  This is the DFS ablation — it quantifies how
  much the "local replica" assumption is worth.

Under an unreliable interconnect (``config.net_faults``) either leg of a
remote fetch can be lost; both ride the reliability protocol when it
covers their kinds (``dfs_req``/``dfs_data``), and an exhausted fetch
either falls back to a degraded local-disk replica
(``NetFaultConfig.dfs_local_fallback``, the default) or fails the
request.
"""

from __future__ import annotations

from typing import Callable, List

from ..des import Environment
from .config import ClusterConfig
from .network import Interconnect
from .node import Node

__all__ = ["DistributedFS", "RemoteFetchFailed"]


class RemoteFetchFailed(Exception):
    """A partitioned-DFS remote fetch exhausted its retries with local
    fallback disabled (raised where no request can fail instead)."""

    def __init__(self, node_id: int, home: int):
        super().__init__(f"remote fetch from node {home} failed at node {node_id}")
        self.node_id = node_id
        self.home = home


class DistributedFS:
    """Read path from the disks, under either content layout."""

    def __init__(
        self,
        env: Environment,
        config: ClusterConfig,
        nodes: List[Node],
        interconnect: Interconnect,
    ):
        self.env = env
        self.config = config
        self.nodes = nodes
        self.net = interconnect
        self.remote_reads = 0
        self.local_reads = 0
        #: Remote fetches whose messaging exhausted its retries.
        self.remote_failures = 0
        #: Of those, fetches served from the degraded local replica.
        self.local_fallbacks = 0

    def home_of(self, file_id: int) -> int:
        """The node whose disk holds ``file_id`` in partitioned layout."""
        return file_id % len(self.nodes)

    def read_cb(
        self,
        node_id: int,
        file_id: int,
        size_kb: float,
        read_local: Callable[[], None],
        done: Callable[[], None],
        failed: Callable[[], None],
    ) -> None:
        """Serve a cache miss on ``file_id`` at node ``node_id``.

        ``read_local()`` fires when the node must read its own disk (the
        caller charges that read): under the replicated layout, for a
        file homed there, or for the degraded local replica once a
        remote read gave up.  Otherwise the file's home serves it —
        request message out, the home's disk read, the bulk data back
        through the NIs — and ``done()`` fires on arrival.  ``failed()``
        fires when a remote read gave up with local fallback off.
        """
        home = node_id if self.config.replicated_disks else self.home_of(file_id)
        if home == node_id:
            self.local_reads += 1
            read_local()
            return
        self.remote_reads += 1
        cfg = self.config
        net = self.net

        def requested(ok: bool) -> None:
            if not ok:
                arrived(False)
                return
            # The home node reads from its disk, then streams the file
            # back.
            self.nodes[home].disk.hold(
                cfg.hardware.disk_time(size_kb),
                lambda: net.transmit_cb(home, node_id, size_kb, "dfs_data", arrived),
            )

        def arrived(ok: bool) -> None:
            if ok:
                done()
                return
            # The messaging (and its retries, if any) gave up: degrade.
            self.remote_failures += 1
            nf = net.netfaults
            if nf is not None and nf.config.dfs_local_fallback:
                self.local_fallbacks += 1
                read_local()
            else:
                failed()

        net.transmit_cb(
            node_id,
            home,
            cfg.control_kb,
            "dfs_req",
            requested,
            ni_time_s=cfg.ni_control_time(),
        )

    def reset_accounting(self) -> None:
        self.remote_reads = 0
        self.local_reads = 0
        self.remote_failures = 0
        self.local_fallbacks = 0

