"""One-call simulation entry points.

:func:`run_simulation` is the main public API: give it a trace (or a
preset name), a policy, and a cluster size, and get a
:class:`~repro.sim.results.SimResult` back.  :func:`model_bound_for_trace`
produces the matching analytic upper bound (the "model" curve of
figures 7–10).
"""

from __future__ import annotations

from typing import Optional, Union

from ..cluster import ClusterConfig
from ..model import MB, ModelParameters, ServerModelResult, bound_for_population
from ..servers import DistributionPolicy, make_policy
from ..workload import SessionTrace, Trace, synthesize
from .driver import Simulation
from .results import SimResult

__all__ = ["run_simulation", "model_bound_for_trace", "DEFAULT_SIM_CACHE_BYTES"]

#: The paper's simulations use 32 MB node memories (Section 5.1).
DEFAULT_SIM_CACHE_BYTES = 32 * MB


def run_simulation(
    trace: Union[Trace, SessionTrace, str],
    policy: Union[DistributionPolicy, str],
    nodes: int = 16,
    cache_bytes: int = DEFAULT_SIM_CACHE_BYTES,
    num_requests: Optional[int] = None,
    warmup_fraction: float = 0.3,
    passes: int = 2,
    config: Optional[ClusterConfig] = None,
    seed: int = 0,
    sanitize: Optional[bool] = None,
    record_latencies: bool = False,
    overload=None,
    **policy_kwargs,
) -> SimResult:
    """Simulate one server design on one workload at saturation.

    Parameters
    ----------
    trace:
        A :class:`~repro.workload.Trace` or a preset name
        ("calgary", "clarknet", "nasa", "rutgers"), or a
        :class:`~repro.workload.SessionTrace` for persistent connections
        (``sessionize(trace, k, seed=...)``).
    policy:
        A policy instance or registry name
        ("traditional", "round-robin", "lard", "l2s", "consistent-hash").
    nodes, cache_bytes:
        Cluster size and per-node memory (paper default: 16 x 32 MB).
    num_requests:
        Synthetic request count when ``trace`` is a preset name.
    passes:
        Trace replay count; the default 2 measures the second pass with
        the first as cache/state warmup — the paper's methodology.
    config:
        Full :class:`~repro.cluster.ClusterConfig` override; ``nodes`` and
        ``cache_bytes`` are ignored when given.
    sanitize:
        Run under the DES sanitizer (see :mod:`repro.des.sanitize`).
        ``None`` defers to the ``REPRO_DES_SANITIZE`` environment
        variable.  Results are identical either way; sanitized runs are
        a few times slower.
    record_latencies:
        Keep per-request latencies for the measured window so the
        result carries p50/p95/p99 (``SimResult.latency_percentiles``).
    overload:
        An :class:`~repro.overload.OverloadControl` to wire in front of
        the cluster (admission control + per-node circuit breakers).
        Fresh instance per run, like policy objects.
    """
    if isinstance(trace, str):
        trace = synthesize(trace, num_requests=num_requests, seed=seed)
    if isinstance(policy, str):
        policy = make_policy(policy, **policy_kwargs)
    elif policy_kwargs:
        raise ValueError("policy kwargs are only valid with a policy name")
    if config is None:
        config = ClusterConfig(nodes=nodes, cache_bytes=cache_bytes)
    sim = Simulation(
        trace,
        policy,
        config,
        warmup_fraction=warmup_fraction,
        passes=passes,
        sanitize=sanitize,
        record_latencies=record_latencies,
        overload=overload,
    )
    return sim.run()


def model_bound_for_trace(
    trace: Union[Trace, str],
    nodes: int = 16,
    cache_bytes: int = DEFAULT_SIM_CACHE_BYTES,
    replication: float = 0.15,
) -> ServerModelResult:
    """Analytic locality-conscious bound for a trace's characteristics.

    This is the "model" curve of figures 7–10: the paper plots the bound
    assuming 15% replication alongside the simulated servers.

    Given a preset *name*, the published Table-2 characteristics are
    used.  Given a :class:`~repro.workload.Trace` instance, the bound
    uses the trace's *effective* population (files actually touched) so
    that bounds for scaled-down synthetic traces stay comparable to what
    the simulator exercised.
    """
    if isinstance(trace, str):
        from ..workload import preset

        p = preset(trace)
        size_kb, num_files, alpha = p.avg_request_kb, p.num_files, p.alpha
    else:
        size_kb = trace.mean_request_bytes() / 1024.0
        num_files = trace.unique_files_touched()
        alpha = trace.fileset.alpha
    params = ModelParameters(
        nodes=nodes,
        replication=replication,
        alpha=alpha,
        cache_bytes=cache_bytes,
    )
    return bound_for_population("conscious", params, size_kb, num_files)
