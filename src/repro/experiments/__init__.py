"""``repro.experiments`` — one entry point per paper table and figure.

See DESIGN.md's experiment index: T1/T2 map to :mod:`tables`, F3–F10 to
:mod:`figures`, and the in-text results (M1, M2, S1–S4) plus this repo's
own ablations to :mod:`extra`.  ``benchmarks/`` drives each of these with
one pytest-benchmark target.
"""

from .availability import (
    AvailabilityResult,
    CalibratedFaultRun,
    FaultRecoveryResult,
    availability_experiment,
    calibrate_then_inject,
    fault_recovery_experiment,
)
from .flashcrowd import (
    FlashCrowdResult,
    flash_crowd_experiment,
    flash_crowd_trace,
    pick_hot_rank,
)
from .latency import LoadPoint, latency_vs_load, model_latency_validation
from .netfault import (
    NetFaultCell,
    NetFaultReport,
    netfault_experiment,
    run_netfault_simulation,
)
from .sensitivity import (
    broadcast_frequency_sweep,
    message_overhead_sweep,
    network_bandwidth_sweep,
    relative_spread,
)
from .extra import (
    dfs_ablation,
    l2s_variant_ablation,
    model_memory_sensitivity,
    model_replication_sweep,
    mpl_ablation,
    sim_memory_sensitivity,
)
from .figures import (
    DEFAULT_NODE_COUNTS,
    DEFAULT_SYSTEMS,
    ScalingExperiment,
    bench_requests,
    model_figures,
    render_figure3,
    render_figure4,
    render_figure5,
    render_figure6,
    scaling_experiment,
)
from .overload import (
    OverloadFrontier,
    OverloadPoint,
    find_knee,
    overload_frontier,
)
from .report import render_series, render_surface, render_table
from .tables import render_table1, render_table2, table1_rows, table2_rows

__all__ = [
    "AvailabilityResult",
    "availability_experiment",
    "CalibratedFaultRun",
    "calibrate_then_inject",
    "FaultRecoveryResult",
    "fault_recovery_experiment",
    "LoadPoint",
    "latency_vs_load",
    "model_latency_validation",
    "NetFaultCell",
    "NetFaultReport",
    "netfault_experiment",
    "run_netfault_simulation",
    "FlashCrowdResult",
    "flash_crowd_experiment",
    "flash_crowd_trace",
    "pick_hot_rank",
    "OverloadFrontier",
    "OverloadPoint",
    "find_knee",
    "overload_frontier",
    "broadcast_frequency_sweep",
    "message_overhead_sweep",
    "network_bandwidth_sweep",
    "relative_spread",
    "model_figures",
    "render_figure3",
    "render_figure4",
    "render_figure5",
    "render_figure6",
    "ScalingExperiment",
    "scaling_experiment",
    "DEFAULT_NODE_COUNTS",
    "DEFAULT_SYSTEMS",
    "bench_requests",
    "table1_rows",
    "table2_rows",
    "render_table1",
    "render_table2",
    "model_memory_sensitivity",
    "model_replication_sweep",
    "sim_memory_sensitivity",
    "mpl_ablation",
    "dfs_ablation",
    "l2s_variant_ablation",
    "render_table",
    "render_series",
    "render_surface",
]
