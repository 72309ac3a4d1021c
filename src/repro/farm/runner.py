"""Farm execution: shard a spec across processes, merge deterministically.

The execution contract (docs/FARM.md):

* every shard is a pure function of the spec — workers receive the shard
  description and rebuild trace/policy/cluster from it, never shared
  state, so a shard computes the same :class:`SimResult` in any process;
* results are collected *as they finish* but merged *in shard order* —
  worker count and completion order never reach the output;
* a worker process dying (OOM killer, signal) is retried a bounded
  number of times; a deterministic simulation error is not (it would
  fail identically on retry) and propagates.

``pool_map`` is the reusable core; the figure experiments
(:mod:`repro.experiments.figures`) and ``repro chaos run`` fan out
through it too.
"""

from __future__ import annotations

import dataclasses
import json
import os
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from typing import Any, Callable, List, Optional, Sequence, Tuple

from ..sim import SimResult
from .spec import Shard, SweepSpec

__all__ = [
    "FarmResult",
    "FarmWorkerError",
    "farm_workers",
    "pool_map",
    "run_sweep",
]

#: Times a shard is re-submitted after its worker process died.
DEFAULT_CRASH_RETRIES = 2


class FarmWorkerError(RuntimeError):
    """A shard's worker died repeatedly; the sweep cannot complete."""


def farm_workers(workers: Optional[int] = None) -> int:
    """Worker processes: ``workers``, else ``REPRO_FARM_WORKERS``, else 1.

    Clamped to at least 1.
    """
    if workers is None:
        value = os.environ.get("REPRO_FARM_WORKERS", "")
        workers = int(value) if value else 1
    return max(1, workers)


# ---------------------------------------------------------------------------
# Ordered process-pool map with worker-crash retry
# ---------------------------------------------------------------------------


def pool_map(
    fn: Callable[[Any], Any],
    items: Sequence[Any],
    workers: int = 1,
    crash_retries: int = DEFAULT_CRASH_RETRIES,
    progress: Optional[Callable[[int, Any], None]] = None,
) -> List[Any]:
    """``[fn(x) for x in items]`` across a process pool, in item order.

    ``fn`` and every item must be picklable (``fn`` module-level).  With
    ``workers <= 1`` (or one item) everything runs in-process — the
    serial path the parallel one must match byte-for-byte.

    Only a *worker death* (:class:`BrokenProcessPool` — the process was
    killed, not the function) is retried: the pool is rebuilt and every
    affected item resubmitted, with each breakage charged as one retry
    to the oldest affected item; once any item is charged more than
    ``crash_retries`` times :class:`FarmWorkerError` is raised.
    Exceptions raised *by* ``fn`` are deterministic and propagate
    immediately.  ``progress`` (if given) is called with
    ``(index, result)`` as each item finishes — completion order, not
    item order.
    """
    n = len(items)
    results: List[Any] = [None] * n
    if workers <= 1 or n <= 1:
        for i, item in enumerate(items):
            results[i] = fn(item)
            if progress is not None:
                progress(i, results[i])
        return results

    pending = list(range(n))
    attempts = [0] * n
    while pending:
        crashed: List[int] = []
        with ProcessPoolExecutor(max_workers=min(workers, len(pending))) as pool:
            futures = {pool.submit(fn, items[i]): i for i in pending}
            outstanding = set(futures)
            broken = False
            while outstanding and not broken:
                done, _ = wait(outstanding, return_when=FIRST_COMPLETED)
                # A worker death breaks the whole pool: every pending
                # future comes back "done" in the same batch, some with
                # a real result (finished before the crash), the rest
                # raising BrokenProcessPool.  Drain the entire batch so
                # no crashed sibling is lost, then rebuild the pool.
                for fut in done:
                    outstanding.discard(fut)
                    i = futures[fut]
                    try:
                        results[i] = fut.result()
                    except BrokenProcessPool:
                        crashed.append(i)
                        broken = True
                    else:
                        if progress is not None:
                            progress(i, results[i])
                if broken:
                    # futures is insertion-ordered (submission order),
                    # so this stays deterministic for a given crash.
                    crashed.extend(
                        i for f, i in futures.items() if f in outstanding
                    )
                    outstanding = set()
        pending = sorted(crashed)
        if pending:
            # One breakage = one retry, charged to the oldest affected
            # item.  The dying worker takes every sibling future down
            # with it, so charging all of them would let a single
            # repeat-crasher exhaust innocent shards' budgets; siblings
            # are resubmitted for free.
            first = pending[0]
            attempts[first] += 1
            if attempts[first] > crash_retries:
                raise FarmWorkerError(
                    f"shard {first} lost its worker process "
                    f"{attempts[first]} time(s); giving up"
                )
    return results


# ---------------------------------------------------------------------------
# Sweep farming
# ---------------------------------------------------------------------------


def _run_sweep_shard(args: Tuple[Shard, int, int, int]) -> SimResult:
    """Execute one grid cell — module-level for pickling.

    Everything is rebuilt from the shard description: the worker holds
    no state a second run (or a serial run) would not reconstruct
    identically.
    """
    shard, requests, cache_mb, passes = args
    from ..model import MB
    from ..sim import run_simulation

    return run_simulation(
        shard.trace,
        shard.policy,
        nodes=shard.nodes,
        cache_bytes=cache_mb * MB,
        num_requests=requests,
        passes=passes,
        seed=shard.seed,
    )


@dataclass(frozen=True)
class FarmResult:
    """A completed sweep: one SimResult per shard, in grid order."""

    spec: SweepSpec
    #: ``results[i]`` belongs to ``spec.shards()[i]``.
    results: Tuple[SimResult, ...]
    workers: int

    def rows(self) -> List[Tuple[Shard, SimResult]]:
        return list(zip(self.spec.shards(), self.results))

    def render(self) -> str:
        """Deterministic text table (the serial-vs-farm identity canary)."""
        lines = [
            "trace      policy        nodes  seed        req/s    miss"
            "    fwd     resp_ms",
        ]
        for shard, r in self.rows():
            lines.append(
                f"{shard.trace:<10s} {shard.policy:<12s} {shard.nodes:>5d}  "
                f"{shard.seed:<10d} {r.throughput_rps:>9,.2f} "
                f"{r.miss_rate:>7.4f} {r.forwarded_fraction:>6.3f} "
                f"{r.mean_response_s * 1e3:>10.4f}"
            )
        return "\n".join(lines)

    def to_json(self) -> str:
        """Canonical JSON of the merged sweep (byte-identical across
        worker counts: SimResult carries no wall-clock fields)."""
        payload = {
            "spec": json.loads(self.spec.to_json()),
            "results": [dataclasses.asdict(r) for r in self.results],
        }
        return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def run_sweep(
    spec: SweepSpec,
    workers: int = 1,
    progress: Optional[Callable[[Shard, SimResult], None]] = None,
) -> FarmResult:
    """Execute every shard of ``spec`` and merge in grid order."""
    shards = spec.shards()
    tasks = [(s, spec.requests, spec.cache_mb, spec.passes) for s in shards]
    hook = (
        (lambda i, r: progress(shards[i], r)) if progress is not None else None
    )
    results = pool_map(_run_sweep_shard, tasks, workers=workers, progress=hook)
    return FarmResult(spec=spec, results=tuple(results), workers=workers)
