"""Multi-core sweep runner with deterministic shard merging.

``repro farm`` shards a sweep grid (trace x policy x node-count x seed)
across a process pool and merges the shard results back in grid order,
so the merged output is byte-identical to a serial run of the same spec
— parallelism is a pure wall-clock optimization, never a source of
nondeterminism (see docs/FARM.md).
"""

from .spec import FarmSpecError, Shard, SweepSpec, derive_shard_seed
from .runner import FarmResult, FarmWorkerError, pool_map, run_sweep

__all__ = [
    "FarmResult",
    "FarmSpecError",
    "FarmWorkerError",
    "Shard",
    "SweepSpec",
    "derive_shard_seed",
    "pool_map",
    "run_sweep",
]
