"""Reproduction entry points for every figure of the paper.

Figures 3–6 come from the analytic model; figures 7–10 from the
trace-driven simulator (one :func:`scaling_experiment` per trace, which
also yields the Section 5.2 miss-rate / idle-time / forwarding analyses).
Every function returns plain data plus a ``render()``-style text form so
benchmarks and the CLI share one implementation.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..model import ModelParameters, ModelSurfaces, SurfaceGrid, compute_surfaces, side_view
from ..sim import SimResult, model_bound_for_trace, run_simulation
from ..workload import synthesize
from .report import render_series, render_surface

__all__ = [
    "model_figures",
    "ScalingExperiment",
    "scaling_experiment",
    "DEFAULT_NODE_COUNTS",
    "DEFAULT_SYSTEMS",
    "bench_requests",
]

#: Cluster sizes plotted in figures 7-10.
DEFAULT_NODE_COUNTS = (2, 4, 8, 16)
#: Simulated systems of figures 7-10 (the model bound is added separately).
DEFAULT_SYSTEMS = ("l2s", "lard", "traditional")


def bench_requests(default: int = 16_000) -> int:
    """Synthetic request count for benchmark runs.

    ``REPRO_BENCH_REQUESTS`` overrides (e.g. 60000 for tighter numbers,
    at proportionally higher runtime).
    """
    value = os.environ.get("REPRO_BENCH_REQUESTS", "")
    return int(value) if value else default


# ---------------------------------------------------------------------------
# Figures 3-6: the model surfaces
# ---------------------------------------------------------------------------


def model_figures(
    params: Optional[ModelParameters] = None,
    grid: Optional[SurfaceGrid] = None,
) -> ModelSurfaces:
    """Compute figures 3, 4, 5 and 6 in one sweep (they share the grid)."""
    return compute_surfaces(params, grid)


def render_figure3(surfaces: ModelSurfaces) -> str:
    return render_surface(
        [f"{h:.2f}" for h in surfaces.grid.hit_rates],
        [f"{s:.0f}" for s in surfaces.grid.sizes_kb],
        surfaces.oblivious,
        title="Figure 3: locality-oblivious throughput (req/s); rows=hit rate, cols=avg size KB",
    )


def render_figure4(surfaces: ModelSurfaces) -> str:
    return render_surface(
        [f"{h:.2f}" for h in surfaces.grid.hit_rates],
        [f"{s:.0f}" for s in surfaces.grid.sizes_kb],
        surfaces.conscious,
        title="Figure 4: locality-conscious throughput (req/s); rows=hit rate, cols=avg size KB",
    )


def render_figure5(surfaces: ModelSurfaces) -> str:
    return render_surface(
        [f"{h:.2f}" for h in surfaces.grid.hit_rates],
        [f"{s:.0f}" for s in surfaces.grid.sizes_kb],
        surfaces.increase,
        title="Figure 5: throughput increase due to locality (conscious / oblivious)",
    )


def render_figure6(surfaces: ModelSurfaces) -> str:
    env = side_view(surfaces)
    return render_series(
        "hit_rate",
        [f"{h:.2f}" for h in surfaces.grid.hit_rates],
        {
            "min_increase": [f"{v:.2f}" for v in env[:, 0]],
            "max_increase": [f"{v:.2f}" for v in env[:, 1]],
        },
    )


# ---------------------------------------------------------------------------
# Figures 7-10 (+ Section 5.2 analyses): simulated scaling per trace
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ScalingExperiment:
    """All measurements behind one of figures 7-10."""

    trace: str
    node_counts: Tuple[int, ...]
    #: results[system][node_count] -> SimResult
    results: Dict[str, Dict[int, SimResult]]
    #: Analytic bound (15% replication) per node count.
    model: Dict[int, float]

    def throughput_series(self) -> Dict[str, List[float]]:
        series: Dict[str, List[float]] = {
            "model": [self.model[n] for n in self.node_counts]
        }
        for system, by_n in self.results.items():
            series[system] = [by_n[n].throughput_rps for n in self.node_counts]
        return series

    def metric_series(self, metric: str) -> Dict[str, List[float]]:
        """Per-system series of a SimResult attribute (S1-S3 analyses)."""
        out: Dict[str, List[float]] = {}
        for system, by_n in self.results.items():
            out[system] = [getattr(by_n[n], metric) for n in self.node_counts]
        return out

    def render(self) -> str:
        series = {
            name: [f"{v:,.0f}" for v in vals]
            for name, vals in self.throughput_series().items()
        }
        return render_series("nodes", list(self.node_counts), series)

    def to_csv(self) -> str:
        """Long-format CSV with throughput plus the §5.2 metrics."""
        lines = ["trace,system,nodes,throughput_rps,miss_rate,forwarded,cpu_idle"]
        for n in self.node_counts:
            lines.append(f"{self.trace},model,{n},{self.model[n]:.6g},,,")
        for system, by_n in self.results.items():
            for n in self.node_counts:
                r = by_n[n]
                lines.append(
                    f"{self.trace},{system},{n},{r.throughput_rps:.6g},"
                    f"{r.miss_rate:.6g},{r.forwarded_fraction:.6g},"
                    f"{r.mean_cpu_idle:.6g}"
                )
        return "\n".join(lines) + "\n"


def _scaling_cell(args) -> tuple:
    """One (system, nodes) simulation — module-level for pickling."""
    trace, system, nodes, cache = args
    result = run_simulation(trace, system, nodes=nodes, cache_bytes=cache, passes=2)
    return system, nodes, result


def scaling_experiment(
    trace_name: str,
    systems: Sequence[str] = DEFAULT_SYSTEMS,
    node_counts: Sequence[int] = DEFAULT_NODE_COUNTS,
    num_requests: Optional[int] = None,
    cache_bytes: Optional[int] = None,
    seed: int = 0,
    workers: Optional[int] = None,
) -> ScalingExperiment:
    """Run one of figures 7-10: all systems across cluster sizes.

    The same synthesized trace instance drives every run, exactly as the
    paper drives every server with the same log.  Each (system, nodes)
    cell is an independent deterministic simulation; with ``workers > 1``
    (default: ``REPRO_FARM_WORKERS`` or 1) the cells fan out across
    processes — results are bit-identical to the serial run.
    """
    from ..sim import DEFAULT_SIM_CACHE_BYTES

    cache = cache_bytes if cache_bytes is not None else DEFAULT_SIM_CACHE_BYTES
    requests = num_requests if num_requests is not None else bench_requests()
    trace = synthesize(trace_name, num_requests=requests, seed=seed)
    results: Dict[str, Dict[int, SimResult]] = {s: {} for s in systems}
    model: Dict[int, float] = {}
    for n in node_counts:
        # The bound uses the synthesized trace (effective population), not
        # the preset name, so bound and simulation see the same workload.
        model[n] = model_bound_for_trace(trace, nodes=n, cache_bytes=cache).throughput

    cells = [(trace, s, n, cache) for n in node_counts for s in systems]
    # Fan out through the farm's ordered pool map: serial fallback,
    # worker-crash retry, and ordered collection in one place (results
    # are bit-identical to the serial run either way).
    from ..farm.runner import farm_workers, pool_map

    for system, n, result in pool_map(
        _scaling_cell, cells, workers=farm_workers(workers)
    ):
        results[system][n] = result
    return ScalingExperiment(
        trace=trace_name,
        node_counts=tuple(node_counts),
        results=results,
        model=model,
    )
