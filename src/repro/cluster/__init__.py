"""``repro.cluster`` — the simulated hardware substrate.

Workstation nodes (CPU, duplex NI, disk, LRU file cache), the router that
bridges the cluster to the Internet, the switched intra-cluster network
with M-VIA-style message costs, and the distributed file system read
path.  Server policies (:mod:`repro.servers`) and the request lifecycle
(:mod:`repro.sim`) are built on top of these components.

The names below are exported lazily (PEP 562), like the top-level
package's: a live back-end worker imports :mod:`repro.cluster.cache`
without loading the DES kernel behind :class:`Cluster`.
"""

import importlib
from typing import TYPE_CHECKING, Any

if TYPE_CHECKING:
    from .cache import LRUFileCache
    from .cluster import Cluster
    from .config import ClusterConfig
    from .dfs import DistributedFS
    from .network import Interconnect
    from .node import Node
    from .policies import CACHE_POLICIES, GDSFileCache, LFUFileCache, make_cache

__all__ = [
    "ClusterConfig",
    "LRUFileCache",
    "GDSFileCache",
    "LFUFileCache",
    "make_cache",
    "CACHE_POLICIES",
    "Node",
    "Interconnect",
    "DistributedFS",
    "Cluster",
]

#: Defining submodule -> the public names it supplies.
_SOURCES = {
    ".cache": ("LRUFileCache",),
    ".cluster": ("Cluster",),
    ".config": ("ClusterConfig",),
    ".dfs": ("DistributedFS",),
    ".network": ("Interconnect",),
    ".node": ("Node",),
    ".policies": ("CACHE_POLICIES", "GDSFileCache", "LFUFileCache", "make_cache"),
}
_LAZY = {name: module for module, names in _SOURCES.items() for name in names}


def __getattr__(name: str) -> Any:
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(module, __name__), name)
    globals()[name] = value
    return value
