"""Command-line interface: ``repro <command>`` or ``python -m repro``.

Commands
--------
``repro tables``
    Print Table 1 (model parameters) and Table 2 (trace characteristics).
``repro surfaces``
    Print the model figures 3-6 as terminal heat maps.
``repro simulate TRACE POLICY [--nodes N] [--requests K] [--memory MB]``
    One simulation run with a summary line (``--verify`` additionally
    checks the result's request/message books and exits nonzero on any
    imbalance).
``repro figure {7,8,9,10} [--requests K] [--workers N]``
    Reproduce one of the scaling figures (model + all three systems).
``repro faults TRACE POLICY [--schedule SPEC | --mtbf S --mttr S | --crash-node I]``
    Fault-injection run: crash/recover/slow nodes on a schedule, retry
    aborted requests, and print the availability timeline.  Accepts a
    chaos scenario file via ``--spec`` (its node-fault half runs; the
    positional TRACE/POLICY then become optional overrides).
``repro netfaults TRACE [--policies P1,P2] [--loss R] [--schedule SPEC]``
    Unreliable-interconnect run: seeded message loss / duplication /
    delay and timed link-down or partition schedules, with the
    message-reliability protocol on, reported as a deterministic
    policy-comparison table (``--sweep`` runs the full A3 loss sweep).
    Accepts a chaos scenario file via ``--spec`` (its fabric half runs
    under the scenario's own policy).
``repro chaos {run,replay,shrink,soak}``
    Randomized fault-scenario fuzzing: seeded sweeps of combined fault
    plans under invariant oracles, byte-identical replay of stored
    scenarios, and delta-debugging shrinks of failures down to minimal
    reproducers (see docs/CHAOS.md and ``repro chaos --help``).
``repro bound TRACE [--nodes N] [--memory MB]``
    The analytic locality-conscious bound for a trace.
``repro analyze TRACE [--requests K] [--memories 8,32,128]``
    Workload analysis: working set, exact LRU miss-rate curve, and the
    model-vs-LRU hit-rate comparison.  TRACE may be a preset name or a
    ``.npz`` file saved with ``Trace.save``.
``repro ingest LOG -o TRACE.npz [--max-requests K]``
    Convert a (possibly gzipped) Common Log Format access log into a
    trace file for ``repro analyze`` / ``run_simulation``.
``repro reproduce [--out REPORT.md] [--requests K] [--model-only]``
    Run the whole suite and write a consolidated markdown report.
``repro bench [--quick] [--profile [N]] [--out FILE] [--check FILE]``
    DES kernel performance harness: events/s and wall-clock on the
    canonical 16-node scenarios, with an optional regression check
    against a committed baseline (see docs/KERNEL.md).
``repro lint [PATH ...] [--format {text,json}] [--select RULES]
[--explain REPxxx] [--sarif FILE] [--baseline FILE] [--write-baseline
FILE] [--no-project]``
    simlint, the determinism linter: file-local AST checks (unseeded
    RNGs, unordered-set iteration, wall-clock reads in the kernel) plus
    whole-program passes over a project call graph — nondeterminism
    taint into scheduling/results/scenarios, hot-path allocation,
    async safety, policy-contract conformance (see docs/ANALYSIS.md).
    Exits nonzero on findings (or, with --baseline, on *new* findings).
``repro farm {sweep,chaos}``
    Multi-core sweep runner: shard a trace x policy x nodes x seed grid
    (or a batch of chaos trials) across worker processes with
    deterministic shard merging — the merged output is byte-identical
    to a serial run (see docs/FARM.md and ``repro farm --help``).
``repro live {serve,loadtest,compare}``
    The live substrate: boot a real localhost asyncio cluster driven by
    the same distribution policies the simulator runs, replay traces
    against it, and compare live behaviour against the sim's prediction
    (see docs/LIVE.md and ``repro live --help``).
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

__all__ = ["main", "build_parser"]

#: Figure number -> trace name (the paper's assignment).
FIGURE_TRACES = {7: "calgary", 8: "clarknet", 9: "nasa", 10: "rutgers"}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Reproduction of 'Evaluating Cluster-Based Network Servers' "
            "(Carrera & Bianchini, HPDC 2000)"
        ),
        epilog=(
            "The same policies also run on a real localhost cluster: "
            "`repro live serve|loadtest|compare` boots an asyncio "
            "front-end plus back-end worker processes and replays the "
            "same traces the simulator uses (see docs/LIVE.md)."
        ),
    )
    from . import __version__

    parser.add_argument(
        "--version", action="version", version=f"repro {__version__}"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("tables", help="print Tables 1 and 2")

    sub.add_parser("surfaces", help="print the model figures 3-6")

    p_sim = sub.add_parser("simulate", help="run one simulation")
    p_sim.add_argument("trace", help="calgary|clarknet|nasa|rutgers")
    p_sim.add_argument(
        "policy", help="l2s|lard|traditional|round-robin|consistent-hash"
    )
    p_sim.add_argument("--nodes", type=int, default=16)
    p_sim.add_argument("--requests", type=int, default=None)
    p_sim.add_argument("--memory", type=int, default=32, help="MB per node")
    p_sim.add_argument("--seed", type=int, default=0)
    p_sim.add_argument(
        "--sanitize", action="store_true",
        help="run under the DES sanitizer and print its leak report",
    )
    p_sim.add_argument(
        "--verify", action="store_true",
        help="check the result's request/message books "
        "(SimResult.verify) and exit nonzero on any imbalance",
    )

    p_fig = sub.add_parser("figure", help="reproduce figure 7, 8, 9 or 10")
    p_fig.add_argument("number", type=int, choices=sorted(FIGURE_TRACES))
    p_fig.add_argument("--requests", type=int, default=None)
    p_fig.add_argument(
        "--workers", type=int, default=None,
        help="parallel worker processes (default: REPRO_BENCH_WORKERS or 1)",
    )

    p_flt = sub.add_parser(
        "faults", help="fault-injection run with an availability timeline"
    )
    p_flt.add_argument(
        "trace", nargs="?", default=None,
        help="calgary|clarknet|nasa|rutgers (optional with --spec)",
    )
    p_flt.add_argument(
        "policy", nargs="?", default=None,
        help="l2s|lard|lard-ng|traditional|round-robin|consistent-hash "
        "(optional with --spec)",
    )
    p_flt.add_argument(
        "--spec", default=None, metavar="SCENARIO.json",
        help="chaos scenario file: run its node-fault half with its "
        "trace/policy/nodes/seed/retries (positional TRACE/POLICY "
        "override when given)",
    )
    p_flt.add_argument("--nodes", type=int, default=8)
    p_flt.add_argument("--requests", type=int, default=None)
    p_flt.add_argument("--memory", type=int, default=32, help="MB per node")
    p_flt.add_argument("--seed", type=int, default=0)
    p_flt.add_argument(
        "--schedule", default=None, metavar="SPEC",
        help=(
            "explicit fault events, e.g. 'crash:2@0.5,recover:2@1.5,"
            "slow:1@0.8x0.5' (seconds of simulated time)"
        ),
    )
    p_flt.add_argument(
        "--mtbf", type=float, default=None, metavar="S",
        help="stochastic mode: mean time between failures per node (s)",
    )
    p_flt.add_argument(
        "--mttr", type=float, default=None, metavar="S",
        help="stochastic mode: mean time to repair (s)",
    )
    p_flt.add_argument(
        "--horizon", type=float, default=None, metavar="S",
        help="stochastic mode: schedule horizon (s); default: a healthy "
        "calibration run's duration",
    )
    p_flt.add_argument(
        "--crash-node", type=int, default=0, metavar="I",
        help="fraction mode: node to crash (default 0)",
    )
    p_flt.add_argument(
        "--crash-frac", type=float, default=0.55,
        help="fraction mode: crash at this fraction of the run (default 0.55)",
    )
    p_flt.add_argument(
        "--recover-frac", type=float, default=0.75,
        help="fraction mode: reboot at this fraction (default 0.75)",
    )
    p_flt.add_argument(
        "--no-recover", action="store_true",
        help="fraction mode: crash with no reboot",
    )
    p_flt.add_argument(
        "--retries", type=int, default=4,
        help="client retries per aborted request (default 4)",
    )
    p_flt.add_argument(
        "--timeout", type=float, default=None,
        help="client response timeout in simulated seconds",
    )
    p_flt.add_argument(
        "--failover", type=float, default=None, metavar="S",
        help="lard-ng only: elect a new dispatcher S seconds after a "
        "dispatcher crash",
    )
    p_flt.add_argument(
        "--csv", default=None, metavar="PATH",
        help="also write the raw timeline samples as CSV",
    )

    p_net = sub.add_parser(
        "netfaults",
        help="unreliable-interconnect run (loss/dup/delay/partition)",
    )
    p_net.add_argument(
        "trace", nargs="?", default=None,
        help="calgary|clarknet|nasa|rutgers (optional with --spec)",
    )
    p_net.add_argument(
        "--policies", default="traditional,lard,lard-ng,l2s",
        help="comma-separated policy names (default: the paper's four)",
    )
    p_net.add_argument("--nodes", type=int, default=16)
    p_net.add_argument("--requests", type=int, default=None)
    p_net.add_argument("--memory", type=int, default=32, help="MB per node")
    p_net.add_argument("--seed", type=int, default=0)
    p_net.add_argument(
        "--loss", type=float, default=0.01,
        help="global message-loss probability (default 0.01)",
    )
    p_net.add_argument(
        "--dup", type=float, default=0.0,
        help="message duplication probability",
    )
    p_net.add_argument(
        "--delay", type=float, default=0.0, metavar="S",
        help="fixed extra switch delay per message (s)",
    )
    p_net.add_argument(
        "--jitter", type=float, default=0.0, metavar="S",
        help="uniform random extra delay in [0, S) per message",
    )
    p_net.add_argument(
        "--schedule", default=None, metavar="SPEC",
        help=(
            "timed fabric events, e.g. 'link:0-3@0.5..1.5' or "
            "'partition:0+1@0.8..1.2' (seconds of simulated time; "
            "omit ..END for an event that never heals)"
        ),
    )
    p_net.add_argument(
        "--view-max-age", type=float, default=0.5, metavar="S",
        help="l2s only: ignore load-view entries older than S seconds "
        "(0 disables staleness detection)",
    )
    p_net.add_argument(
        "--sweep", action="store_true",
        help="run the full A3 experiment (loss sweep + timed partition) "
        "instead of the single scenario",
    )
    p_net.add_argument(
        "--spec", default=None, metavar="SCENARIO.json",
        help="chaos scenario file: run its fabric half (loss/dup/delay/"
        "jitter rates, link outages, partitions) under the scenario's "
        "own trace, policy, cluster size, and seed",
    )
    p_net.add_argument(
        "--out", default=None, metavar="PATH",
        help="also write the report to PATH (byte-identical across runs "
        "with the same seed)",
    )

    p_ov = sub.add_parser(
        "overload",
        help="goodput frontier at 1x-4x the saturation knee, with and "
        "without admission control",
    )
    p_ov.add_argument(
        "--trace", default="calgary", help="calgary|clarknet|nasa|rutgers"
    )
    p_ov.add_argument(
        "--policies", default="lard",
        help="comma-separated policy names, or 'all' for the registry",
    )
    p_ov.add_argument("--nodes", type=int, default=8)
    p_ov.add_argument("--requests", type=int, default=None)
    p_ov.add_argument(
        "--deadline", type=float, default=0.25, metavar="S",
        help="client deadline defining goodput (default 0.25 s)",
    )
    p_ov.add_argument(
        "--multipliers", default="1,2,3,4",
        help="comma-separated offered-load multiples of the knee",
    )
    p_ov.add_argument("--seed", type=int, default=0)
    p_ov.add_argument(
        "--no-ramp", action="store_true",
        help="plain trace instead of the seeded flash ramp",
    )
    p_ov.add_argument(
        "--assert-dominates", action="store_true",
        help="exit 1 unless admission goodput strictly dominates beyond "
        "the knee for every policy (the CI smoke contract)",
    )

    p_bound = sub.add_parser("bound", help="analytic bound for a trace")
    p_bound.add_argument("trace")
    p_bound.add_argument("--nodes", type=int, default=16)
    p_bound.add_argument("--memory", type=int, default=32, help="MB per node")

    p_an = sub.add_parser(
        "analyze", help="workload analysis: working set, LRU miss-rate curve"
    )
    p_an.add_argument(
        "trace", help="preset name or a .npz trace saved with Trace.save"
    )
    p_an.add_argument("--requests", type=int, default=None)
    p_an.add_argument(
        "--memories",
        type=str,
        default="8,32,128",
        help="comma-separated cache sizes in MB for the miss-rate curve",
    )

    p_ing = sub.add_parser(
        "ingest", help="convert a Common Log Format access log to a trace"
    )
    p_ing.add_argument("log", help="access log path (plain or .gz)")
    p_ing.add_argument("-o", "--out", required=True, help="output .npz path")
    p_ing.add_argument("--name", default=None)
    p_ing.add_argument("--max-requests", type=int, default=None)

    p_rep = sub.add_parser(
        "reproduce", help="run the whole suite and write a markdown report"
    )
    p_rep.add_argument("--out", default="REPORT.md")
    p_rep.add_argument("--requests", type=int, default=16_000)
    p_rep.add_argument(
        "--traces", default="calgary,clarknet,nasa,rutgers",
        help="comma-separated trace presets",
    )
    p_rep.add_argument(
        "--nodes", default="2,4,8,16", help="comma-separated cluster sizes"
    )
    p_rep.add_argument(
        "--model-only", action="store_true",
        help="skip the simulations (tables + model figures only)",
    )
    p_rep.add_argument(
        "--workers", type=int, default=None,
        help="parallel worker processes (default: REPRO_BENCH_WORKERS or 1)",
    )

    # `repro bench` and `repro lint` own their own argparse (both are
    # also runnable as `python -m repro.<module>`); declared here so
    # they show in --help.
    sub.add_parser(
        "bench",
        help="DES kernel performance harness (see `repro bench --help`)",
        add_help=False,
    )
    sub.add_parser(
        "lint",
        help="determinism linter (see `repro lint --help`)",
        add_help=False,
    )
    sub.add_parser(
        "chaos",
        help="fault-scenario fuzzing: run/replay/shrink/soak "
        "(see `repro chaos --help`)",
        add_help=False,
    )
    sub.add_parser(
        "live",
        help="real asyncio cluster: serve/loadtest/compare "
        "(see `repro live --help`)",
        add_help=False,
    )
    sub.add_parser(
        "farm",
        help="multi-core sweep runner with deterministic merging "
        "(see `repro farm --help`)",
        add_help=False,
    )
    return parser


def _cmd_tables() -> int:
    from .experiments import render_table1, render_table2

    print("Table 1: model parameters and default values\n")
    print(render_table1())
    print("\nTable 2: trace characteristics (paper vs synthesized)\n")
    print(render_table2())
    return 0


def _cmd_surfaces() -> int:
    from .experiments import model_figures
    from .experiments.figures import (
        render_figure3,
        render_figure4,
        render_figure5,
        render_figure6,
    )

    surfaces = model_figures()
    for render in (render_figure3, render_figure4, render_figure5):
        print(render(surfaces))
        print()
    print("Figure 6: side view (min/max increase per hit rate)\n")
    print(render_figure6(surfaces))
    print(
        f"\npeak increase: {surfaces.peak_increase():.2f}x at "
        f"(hit rate, size KB) = {surfaces.peak_location()}"
    )
    return 0


def _cmd_simulate(args: argparse.Namespace) -> int:
    from .model import MB
    from .sim import model_bound_for_trace, run_simulation
    from .workload import synthesize

    trace = synthesize(args.trace, num_requests=args.requests, seed=args.seed)
    bound = model_bound_for_trace(
        trace, nodes=args.nodes, cache_bytes=args.memory * MB
    )
    if args.sanitize:
        from .cluster import ClusterConfig
        from .servers import make_policy
        from .sim.driver import Simulation

        config = ClusterConfig(
            nodes=args.nodes, cache_bytes=args.memory * MB
        )
        sim = Simulation(
            trace, make_policy(args.policy), config, passes=2, sanitize=True,
            record_latencies=True,
        )
        result = sim.run()
        print(result.summary_row())
        report = sim.env.sanitizer.finish()
        print(report.render())
        status = 0 if report.clean else 1
    else:
        result = run_simulation(
            trace, args.policy, nodes=args.nodes, cache_bytes=args.memory * MB,
            record_latencies=True,
        )
        print(result.summary_row())
        status = 0
    pct = result.latency_percentiles
    if pct:
        print(
            "latency percentiles: "
            + "  ".join(f"{k} {pct[k] * 1000:.2f} ms" for k in sorted(pct))
        )
    print(
        f"model bound: {bound.throughput:,.0f} req/s "
        f"({result.throughput_rps / bound.throughput:.0%} achieved; "
        f"bottleneck {bound.bottleneck})"
    )
    if args.verify:
        problems = result.verify()
        if problems:
            for problem in problems:
                print(f"verify: {problem}", file=sys.stderr)
            return 1
        print(
            f"verify: books balance ({result.requests_generated:,} "
            "requests conserved)"
        )
    # A sanitized run whose leak report is not clean fails the command.
    return status


def _cmd_overload(args: argparse.Namespace) -> int:
    from .experiments import overload_frontier
    from .servers import POLICIES

    if args.policies.strip() == "all":
        policies = list(POLICIES)
    else:
        policies = [p.strip() for p in args.policies.split(",") if p.strip()]
    try:
        multipliers = tuple(
            float(m) for m in args.multipliers.split(",") if m.strip()
        )
    except ValueError:
        print(f"bad --multipliers {args.multipliers!r}", file=sys.stderr)
        return 2
    failed = []
    for name in policies:
        frontier = overload_frontier(
            policy_name=name,
            trace_name=args.trace,
            nodes=args.nodes,
            multipliers=multipliers,
            deadline_s=args.deadline,
            num_requests=args.requests,
            seed=args.seed,
            ramp=not args.no_ramp,
        )
        print(frontier.render())
        print()
        if not frontier.dominance_holds():
            failed.append(name)
    if args.assert_dominates and failed:
        print(
            "dominance FAILED for: " + ", ".join(failed), file=sys.stderr
        )
        return 1
    return 0


def _cmd_figure(args: argparse.Namespace) -> int:
    from .experiments import scaling_experiment

    trace = FIGURE_TRACES[args.number]
    exp = scaling_experiment(
        trace, num_requests=args.requests, workers=args.workers
    )
    print(f"Figure {args.number}: throughputs for the {trace} trace\n")
    print(exp.render())
    return 0


def _cmd_bound(args: argparse.Namespace) -> int:
    from .model import MB
    from .sim import model_bound_for_trace

    bound = model_bound_for_trace(
        args.trace, nodes=args.nodes, cache_bytes=args.memory * MB
    )
    print(
        f"{args.trace} x {args.nodes} nodes x {args.memory} MB: "
        f"{bound.throughput:,.0f} req/s (bottleneck {bound.bottleneck}, "
        f"Hlc {bound.hit_rate:.3f}, Q {bound.forward_fraction:.3f})"
    )
    return 0


def _cmd_analyze(args: argparse.Namespace) -> int:
    from pathlib import Path

    from .model import MB
    from .workload import (
        Trace,
        miss_rate_curve,
        model_vs_lru_hit_rate,
        synthesize,
        working_set_bytes,
    )

    if args.trace.endswith(".npz") or Path(args.trace).exists():
        trace = Trace.load(args.trace)
    else:
        trace = synthesize(args.trace, num_requests=args.requests)
    stats = trace.stats()
    print(
        f"{trace.name}: {stats.num_requests:,} requests over "
        f"{stats.num_files:,} files (alpha {stats.alpha:g})"
    )
    print(
        f"  mean file {stats.avg_file_kb:.1f} KB, mean request "
        f"{stats.avg_request_kb:.1f} KB"
    )
    print(
        f"  footprint {stats.total_footprint_mb:,.0f} MB, touched working "
        f"set {working_set_bytes(trace) / MB:,.0f} MB "
        f"({trace.unique_files_touched():,} files)"
    )
    memories = [int(m.strip()) for m in args.memories.split(",") if m.strip()]
    curve = miss_rate_curve(trace, [m * MB for m in memories], include_cold=False)
    print("  exact LRU capacity-miss rates:")
    for cache_bytes, miss in curve:
        print(f"    {cache_bytes // MB:>6d} MB: {miss:7.2%}")
    predicted, actual = model_vs_lru_hit_rate(trace, memories[0] * MB)
    print(
        f"  model z(C/S, F) vs exact LRU hit rate at {memories[0]} MB: "
        f"{predicted:.3f} vs {actual:.3f}"
    )
    return 0


def _cmd_netfaults(args: argparse.Namespace) -> int:
    from .cluster import ClusterConfig
    from .experiments.netfault import (
        NetFaultReport,
        summarize_run,
        netfault_experiment,
        run_netfault_simulation,
    )
    from .model import MB
    from .netfaults import NetFaultConfig, NetFaultSchedule
    from .workload import synthesize

    policies = [p.strip() for p in args.policies.split(",") if p.strip()]
    if not policies:
        print("--policies must name at least one policy", file=sys.stderr)
        return 2
    view_max_age = args.view_max_age if args.view_max_age > 0 else None
    if args.trace is None and args.spec is None:
        print(
            "netfaults: TRACE is required without --spec", file=sys.stderr
        )
        return 2
    if args.trace is not None:
        trace = synthesize(
            args.trace, num_requests=args.requests, seed=args.seed
        )

    if args.spec is not None:
        if args.sweep or args.schedule is not None:
            print(
                "--spec carries its own fabric plan; it is exclusive "
                "with --sweep and --schedule",
                file=sys.stderr,
            )
            return 2
        from .chaos.spec import ChaosSpecError, Scenario

        try:
            scenario = Scenario.load(args.spec)
        except ChaosSpecError as exc:
            print(f"netfaults: invalid scenario — {exc}", file=sys.stderr)
            return 2
        nf = scenario.netfault_config()
        if nf is None:
            # No fabric items: exercise the reliability protocol on a
            # clean fabric rather than silently doing nothing.
            print(
                f"note: {args.spec} has no fabric items; running with "
                "the reliability protocol on a clean fabric"
            )
            nf = NetFaultConfig(seed=scenario.seed, always_on=True)
        # The scenario supplies the workload; an explicit positional
        # TRACE still wins, mirroring `repro faults --spec`.
        trace = synthesize(
            args.trace or scenario.trace,
            num_requests=args.requests or scenario.requests,
            seed=scenario.seed,
        )
        config = ClusterConfig(
            nodes=scenario.nodes,
            cache_bytes=scenario.cache_mb * MB,
            net_faults=nf,
        )
        sim = run_netfault_simulation(
            trace,
            scenario.policy,
            config,
            view_max_age_s=scenario.view_max_age_s,
        )
        report = NetFaultReport(
            trace=trace.name,
            nodes=scenario.nodes,
            requests=len(trace),
            seed=scenario.seed,
            loss_rates=(nf.loss_rate,),
            partition=None,
            cells=[
                summarize_run(sim, scenario.policy, nf.loss_rate, "loss")
            ],
        )
    elif args.sweep:
        report = netfault_experiment(
            trace=trace,
            nodes=args.nodes,
            policies=policies,
            seed=args.seed,
            view_max_age_s=view_max_age,
            dup_rate=args.dup,
            extra_delay_s=args.delay,
            jitter_s=args.jitter,
        )
    else:
        schedule = (
            NetFaultSchedule.parse(args.schedule)
            if args.schedule is not None
            else None
        )
        nf = NetFaultConfig(
            loss_rate=args.loss,
            dup_rate=args.dup,
            extra_delay_s=args.delay,
            jitter_s=args.jitter,
            schedule=schedule,
            seed=args.seed,
        )
        if not nf.active:
            nf = NetFaultConfig(seed=args.seed, always_on=True)
        config = ClusterConfig(
            nodes=args.nodes,
            cache_bytes=args.memory * MB,
            net_faults=nf,
        )
        cells = []
        for policy_name in policies:
            sim = run_netfault_simulation(
                trace, policy_name, config, view_max_age_s=view_max_age
            )
            cells.append(summarize_run(sim, policy_name, args.loss, "loss"))
        report = NetFaultReport(
            trace=trace.name,
            nodes=args.nodes,
            requests=len(trace),
            seed=args.seed,
            loss_rates=(args.loss,),
            partition=None,
            cells=cells,
        )
    text = report.render()
    print(text)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
        print(f"\nwrote {args.out}")
    return 0


def _cmd_faults(args: argparse.Namespace) -> int:
    from .cluster import ClusterConfig
    from .experiments import fault_recovery_experiment, run_fault_simulation
    from .faults import FaultSchedule, RetryPolicy
    from .model import MB
    from .workload import synthesize

    if (args.mtbf is None) != (args.mttr is None):
        print("--mtbf and --mttr must be given together", file=sys.stderr)
        return 2
    if args.schedule is not None and args.mtbf is not None:
        print("--schedule and --mtbf/--mttr are exclusive", file=sys.stderr)
        return 2

    spec_schedule = None
    if args.spec is not None:
        if args.schedule is not None or args.mtbf is not None:
            print(
                "--spec carries its own schedule; it is exclusive with "
                "--schedule and --mtbf/--mttr",
                file=sys.stderr,
            )
            return 2
        from .chaos.spec import ChaosSpecError, Scenario

        try:
            scenario = Scenario.load(args.spec)
        except ChaosSpecError as exc:
            print(f"faults: invalid scenario — {exc}", file=sys.stderr)
            return 2
        # The scenario supplies the run shape; explicit positionals
        # still win so a stored scenario can be rerun elsewhere.
        args.trace = args.trace or scenario.trace
        args.policy = args.policy or scenario.policy
        args.nodes = scenario.nodes
        args.memory = scenario.cache_mb
        args.seed = scenario.seed
        args.requests = args.requests or scenario.requests
        args.retries = scenario.retries
        if args.failover is None:
            args.failover = scenario.failover_s
        spec_schedule = scenario.fault_schedule()
        if spec_schedule is None:
            print(
                f"note: {args.spec} has no node-fault items "
                "(fabric/workload items belong to `repro netfaults` and "
                "`repro chaos`); running the healthy baseline",
            )
    if args.trace is None or args.policy is None:
        print(
            "faults: TRACE and POLICY are required without --spec",
            file=sys.stderr,
        )
        return 2
    if args.failover is not None and args.policy != "lard-ng":
        print("--failover only applies to lard-ng", file=sys.stderr)
        return 2

    trace = synthesize(args.trace, num_requests=args.requests, seed=args.seed)
    config = ClusterConfig(nodes=args.nodes, cache_bytes=args.memory * MB)
    retry = RetryPolicy(
        max_retries=args.retries, timeout_s=args.timeout
    )

    if args.spec is None and args.schedule is None and args.mtbf is None:
        # Fraction mode: crash one node partway through, reboot it later.
        r = fault_recovery_experiment(
            args.policy,
            trace=trace,
            nodes=args.nodes,
            failed_node=args.crash_node,
            crash_frac=args.crash_frac,
            recover_frac=None if args.no_recover else args.recover_frac,
            retry=retry,
            failover_s=args.failover,
            cache_bytes=config.cache_bytes,
        )
        timeline = r.timeline
        print(
            f"{args.policy} x {args.nodes} nodes, {args.trace}: "
            f"crash({r.failed_node}) at t={r.crash_at:.3f}s"
            + (
                f", recover at t={r.recover_at:.3f}s"
                if r.recover_at is not None
                else ", no reboot"
            )
        )
        print(
            f"  healthy {r.healthy_throughput:,.0f} req/s | faulted "
            f"{r.faulted_throughput:,.0f} req/s | outage goodput "
            f"{r.outage_goodput:,.0f} req/s ({r.outage_fraction:.0%} of "
            f"healthy) | recovered {r.recovered_goodput:,.0f} req/s"
        )
        print(
            f"  failed {r.requests_failed:,} | retried {r.requests_retried:,}"
            f" | reheat miss {r.reheat_miss_rate:.1%} -> steady "
            f"{r.steady_miss_rate:.1%}"
        )
    else:
        # Calibrate the timescale with a healthy run, then inject.
        healthy = run_fault_simulation(
            trace, args.policy, config, faults=None, failover_s=args.failover
        )
        total_s = healthy._last_completion
        if spec_schedule is not None or args.spec is not None:
            schedule = spec_schedule
        elif args.schedule is not None:
            schedule = FaultSchedule.parse(args.schedule)
        else:
            schedule = FaultSchedule.stochastic(
                args.nodes,
                horizon_s=args.horizon if args.horizon else total_s,
                mtbf_s=args.mtbf,
                mttr_s=args.mttr,
                seed=args.seed,
            )
        if schedule is not None:
            print(f"schedule: {schedule.describe()}")
        sim = run_fault_simulation(
            trace,
            args.policy,
            config,
            faults=schedule,
            retry=retry,
            timeline_interval_s=max(total_s, 1e-9) / 160,
            failover_s=args.failover,
        )
        timeline = sim.timeline
        healthy_rps = healthy._completed / total_s if total_s > 0 else 0.0
        faulted_rps = (
            sim._completed / sim._last_completion
            if sim._last_completion > 0
            else 0.0
        )
        print(
            f"{args.policy} x {args.nodes} nodes, {args.trace}: healthy "
            f"{healthy_rps:,.0f} req/s | faulted {faulted_rps:,.0f} req/s | "
            f"failed {sim._failed:,} | retried {sim._retried:,}"
        )
    print()
    print(timeline.render())
    if args.csv:
        with open(args.csv, "w") as fh:
            fh.write(timeline.to_csv())
        print(f"\nwrote {args.csv}")
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    if argv and argv[0] == "bench":
        # Delegate everything after `bench` to the harness's own parser.
        from .bench import main as bench_main

        return bench_main(argv[1:])
    if argv and argv[0] == "lint":
        # Likewise for simlint.
        from .analysis.simlint import main as lint_main

        return lint_main(argv[1:])
    if argv and argv[0] == "chaos":
        # Likewise for the chaos harness.
        from .chaos.cli import main as chaos_main

        return chaos_main(argv[1:])
    if argv and argv[0] == "live":
        # Likewise for the live substrate.
        from .live.cli import main as live_main

        return live_main(argv[1:])
    if argv and argv[0] == "farm":
        # Likewise for the sweep farm.
        from .farm.cli import main as farm_main

        return farm_main(argv[1:])
    args = build_parser().parse_args(argv)
    if args.command == "tables":
        return _cmd_tables()
    if args.command == "surfaces":
        return _cmd_surfaces()
    if args.command == "simulate":
        return _cmd_simulate(args)
    if args.command == "figure":
        return _cmd_figure(args)
    if args.command == "overload":
        return _cmd_overload(args)
    if args.command == "faults":
        return _cmd_faults(args)
    if args.command == "netfaults":
        return _cmd_netfaults(args)
    if args.command == "bound":
        return _cmd_bound(args)
    if args.command == "analyze":
        return _cmd_analyze(args)
    if args.command == "ingest":
        from .workload import ingest_log

        trace = ingest_log(args.log, name=args.name, max_requests=args.max_requests)
        trace.save(args.out)
        s = trace.stats()
        print(
            f"wrote {args.out}: {s.num_requests:,} requests over "
            f"{s.num_files:,} files (alpha {s.alpha:.2f}, "
            f"mean request {s.avg_request_kb:.1f} KB)"
        )
        return 0
    if args.command == "reproduce":
        from .experiments.reproduce import write_report

        write_report(
            args.out,
            num_requests=args.requests,
            traces=tuple(t.strip() for t in args.traces.split(",") if t.strip()),
            node_counts=tuple(
                int(n) for n in args.nodes.split(",") if n.strip()
            ),
            include_sims=not args.model_only,
            workers=args.workers,
        )
        print(f"wrote {args.out}")
        return 0
    raise AssertionError(f"unhandled command {args.command!r}")


if __name__ == "__main__":
    sys.exit(main())
