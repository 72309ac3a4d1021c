"""Simulator workloads: three traffic mixes through the DES.

A *job* is what a user of ``repro simulate`` waits for: a fresh 8-node
cluster simulating one 1,000-request window of the mix's trace twice
(the first pass warms caches and policy state, the second is measured,
as in the paper).  A run simulates whole cycles of the trace's windows,
one job per window, so that every run on a seed times the same inputs
however fast the program is: ``--trace 0`` starts cycles until the time
is up, ``--trace 1`` profiles exactly one, and its call counts repeat
bit for bit.  Every job is checked (request conservation, policy
invariants, no failures) and the first window is simulated a second
time at the end to confirm the simulator repeats itself exactly.

Host-time metrics only: ``requests_per_s`` counts simulated requests of
both passes per wall-clock second, the latencies are wall-clock times of
whole jobs, and every job is timed between two host calibrations
(``calibrate.py``).  Simulated quantities (throughput, miss rate,
hand-offs) are used only as correctness checks and layer counts.
"""

from __future__ import annotations

import cProfile
import dataclasses
import gc
import statistics
import time
from typing import Dict, List, Tuple

from calibrate import MIXED_REFERENCE_S, SAMPLES, calibrate_mixed, measure
from layers import layer_metrics

#: Mix name -> (trace preset, server design), and why it is in the set.
MIXES: Dict[str, Tuple[str, str]] = {
    # Hot, small working set: after the warm pass nearly every request
    # hits, and LARD hands every one off from the front-end, so policy
    # decide and hand-off messaging dominate.
    "sim-calgary-lard": ("calgary", "lard"),
    # Flat popularity over many small files: ~30% misses reach the disk
    # and DFS, and L2S's distributed decide broadcasts load updates, so
    # the interconnect carries the most messages per request.
    "sim-clarknet-l2s": ("clarknet", "l2s"),
    # No hand-offs and pre-warmed caches: the interconnect and decide
    # are bypassed, leaving the kernel and per-node resources.
    "sim-nasa-traditional": ("nasa", "traditional"),
}

NODES = 8
WINDOW = 1_000
PASSES = 2
#: Distinct windows in one trace: one cycle of jobs.
WINDOWS = 24
#: Set-ups timed per run; ``setup_s`` is their median.
SETUPS = 15


def build_windows(trace_name: str, seed: int) -> list:
    """The mix's trace for ``seed``, cut into job windows."""
    from repro.workload import Trace, synthesize

    trace = synthesize(trace_name, num_requests=WINDOW * WINDOWS, seed=seed)
    return [
        Trace(trace.name, trace.fileset, trace.file_ids[k * WINDOW:(k + 1) * WINDOW])
        for k in range(WINDOWS)
    ]


def make_simulation(window, policy_name: str):
    from repro.cluster import ClusterConfig
    from repro.servers import make_policy
    from repro.sim import Simulation

    return Simulation(
        window, make_policy(policy_name), ClusterConfig(nodes=NODES), passes=PASSES
    )


def check_job(sim, result, policy_name: str) -> List[str]:
    """Correctness of one finished job (empty list = correct)."""
    problems = list(result.verify())
    problems += sim.policy.check_invariants()
    if result.requests_failed:
        problems.append(f"{result.requests_failed} requests failed")
    if result.requests_measured != WINDOW:
        problems.append(f"measured {result.requests_measured} of {WINDOW} requests")
    if not result.throughput_rps > 0:
        problems.append("no simulated throughput")
    if policy_name == "traditional" and result.forwarded_fraction != 0.0:
        problems.append("traditional server handed requests off")
    return problems


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    trace_name, policy_name = MIXES[workload]

    def set_up() -> list:
        windows = build_windows(trace_name, seed)
        make_simulation(windows[0], policy_name)
        return windows

    setups: List[float] = []
    for _ in range(SETUPS):
        gc.collect()
        windows, elapsed = measure(set_up, calibrate_mixed, MIXED_REFERENCE_S)
        setups.append(elapsed)

    # One untimed job finishes lazy set-up (first-call imports, numpy
    # dispatch caches) and is the reference for the repeat check.
    sim = make_simulation(windows[0], policy_name)
    reference = sim.run()
    problems = check_job(sim, reference, policy_name)

    profile = cProfile.Profile() if trace else None
    job_s: List[float] = []
    simulated = failed = events = cycles = 0
    forwarded = measured = 0
    hits = messages = 0.0
    deadline = time.perf_counter() + seconds
    while cycles == 0 or (profile is None and time.perf_counter() < deadline):
        cycles += 1
        for window in windows:
            gc.collect()
            sim = make_simulation(window, policy_name)
            if profile is None:
                result, elapsed = measure(sim.run)
                job_s.append(elapsed)
            else:
                result = profile.runcall(sim.run)
            problems += check_job(sim, result, policy_name)
            simulated += result.requests_generated
            failed += result.requests_failed
            events += sim.env.event_count
            measured += result.requests_measured
            forwarded += round(result.forwarded_fraction * result.requests_measured)
            messages += result.messages_per_request * result.requests_measured
            hits += (1.0 - result.miss_rate) * result.requests_measured

    again = make_simulation(windows[0], policy_name).run()
    if dataclasses.asdict(again) != dataclasses.asdict(reference):
        problems.append("simulating the same window twice gave different results")

    for problem in problems[:10]:
        print(f"{workload}: {problem}")
    print(
        f"{workload}: {cycles} cycles of {WINDOWS} jobs of {WINDOW}x{PASSES} "
        f"requests on {NODES} nodes, {simulated} simulated requests"
    )
    raw = SAMPLES["python"]
    if raw:
        print(
            f"{workload}: raw calibration {1e3 * statistics.median(raw):.2f} ms, "
            f"median of {len(raw)}"
        )
    if trace:
        metrics = layer_metrics(profile, simulated)
        metrics["events_per_request"] = (events / simulated, "count")
        metrics["messages_per_request"] = (messages / measured, "count")
        metrics["cache_hit_pct"] = (100.0 * hits / measured, "%")
        metrics["handoff_pct"] = (100.0 * forwarded / measured, "%")
    else:
        job_ms = sorted(1000.0 * s for s in job_s)
        tail = statistics.quantiles(job_ms, n=10, method="inclusive")
        metrics = {
            "requests_per_s": (WINDOW * PASSES * len(job_s) / sum(job_s), "1/s"),
            "latency_p50_ms": (statistics.median(job_ms), "ms"),
            "latency_p90_ms": (tail[-1], "ms"),
            "setup_s": (statistics.median(setups), "s"),
        }
    return {
        "correct": not problems,
        "attempted": simulated,
        "failed": failed,
        "metrics": metrics,
    }
