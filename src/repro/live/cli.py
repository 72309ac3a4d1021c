"""``repro live`` — serve, loadtest, and compare on the live substrate.

Subcommands
-----------
``repro live serve TRACE [--policy P] [--nodes N] [--port PORT]``
    Boot a localhost cluster (front-end + back-end workers) and serve
    until interrupted.  Useful for poking the cluster with curl.
``repro live loadtest TRACE [--policy P] [--nodes N] [--passes K]``
    Boot a cluster, replay the trace through it (same arrival sequence
    as the simulator), print the ``SimResult`` summary, tear down.
``repro live compare --trace TRACE --policy P [--nodes N]``
    Run the simulator and the live cluster on the identical point and
    print the divergence report; exits nonzero when a structural metric
    (cache hit ratio, hand-off fraction) diverges beyond threshold.
``repro live chaos --spec SCENARIO.json``
    Execute a chaos scenario file on BOTH substrates: the sim runs it
    exactly as ``repro chaos replay`` would, the live cluster runs it
    with real SIGKILL/SIGSTOP faults and chaos proxies, and the report
    scores measured availability / hit ratio / hand-off against the sim
    prediction.  Exits nonzero on divergence or a conservation failure.

TRACE is a preset name (calgary|clarknet|nasa|rutgers) or a ``.npz``
file saved with ``Trace.save``.
"""

from __future__ import annotations

import argparse
import asyncio
import sys
from pathlib import Path
from typing import List, Optional

__all__ = ["main", "build_parser"]

MB = 1024 * 1024


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro live",
        description="Live asyncio cluster driven by the simulator's policies.",
    )
    sub = parser.add_subparsers(dest="live_command", required=True)

    def common(p: argparse.ArgumentParser, default_requests: int) -> None:
        p.add_argument(
            "--policy", default="lard",
            help="l2s|lard|traditional|round-robin|consistent-hash "
            "(default lard; lard-ng is sim-only)",
        )
        p.add_argument("--nodes", type=int, default=4)
        p.add_argument("--memory", type=int, default=32, help="MB per node")
        p.add_argument(
            "--requests", type=int, default=default_requests,
            help="synthesized trace length (ignored for .npz traces)",
        )
        p.add_argument("--seed", type=int, default=0)
        p.add_argument(
            "--root", default=None,
            help="directory for the materialized file set "
            "(default: a temporary directory)",
        )
        p.add_argument(
            "--backend-mode", choices=("process", "inline"), default="process",
            help="back-ends as subprocesses (default) or in-process",
        )

    p_serve = sub.add_parser("serve", help="boot a cluster and serve")
    p_serve.add_argument("trace", help="preset name or .npz trace")
    common(p_serve, default_requests=2000)
    p_serve.add_argument(
        "--port", type=int, default=0, help="front-end port (0 = ephemeral)"
    )

    p_load = sub.add_parser("loadtest", help="replay a trace against a cluster")
    p_load.add_argument("trace", help="preset name or .npz trace")
    common(p_load, default_requests=2000)
    p_load.add_argument("--concurrency", type=int, default=16)
    p_load.add_argument(
        "--passes", type=int, default=2,
        help="trace replays; first passes-1 warm caches (default 2)",
    )
    p_load.add_argument(
        "--rate", type=float, default=None,
        help="open-loop Poisson arrival rate (req/s); default closed loop",
    )

    p_cmp = sub.add_parser("compare", help="sim vs live on one point")
    p_cmp.add_argument(
        "--trace", required=True, help="preset name or .npz trace"
    )
    common(p_cmp, default_requests=2000)
    p_cmp.add_argument("--concurrency", type=int, default=16)
    p_cmp.add_argument("--passes", type=int, default=2)
    p_cmp.add_argument(
        "--hit-threshold", type=float, default=None,
        help="max |live - sim| cache hit ratio (default 0.12)",
    )
    p_cmp.add_argument(
        "--handoff-threshold", type=float, default=None,
        help="max |live - sim| hand-off fraction (default 0.15)",
    )

    p_chaos = sub.add_parser(
        "chaos", help="run a chaos Scenario live and score vs the sim"
    )
    p_chaos.add_argument(
        "--spec", required=True, help="scenario JSON file (repro chaos format)"
    )
    p_chaos.add_argument("--concurrency", type=int, default=16)
    p_chaos.add_argument(
        "--root", default=None,
        help="directory for the materialized file set "
        "(default: a temporary directory)",
    )
    p_chaos.add_argument(
        "--availability-threshold", type=float, default=None,
        help="max |live - sim| whole-run availability (default 0.15)",
    )
    p_chaos.add_argument(
        "--csv", default=None,
        help="write the live availability timeline to this CSV file",
    )
    return parser


def _load_trace(spec: str, requests: Optional[int], seed: int):
    from ..workload import Trace, synthesize

    if spec.endswith(".npz") or Path(spec).exists():
        return Trace.load(spec)
    return synthesize(spec, num_requests=requests, seed=seed)


def _build_cluster(args: argparse.Namespace, trace):
    from ..servers import make_policy
    from .cluster import LiveCluster, LiveClusterConfig

    import tempfile

    root = args.root
    cleanup = None
    if root is None:
        tmp = tempfile.TemporaryDirectory(prefix="repro-live-")
        root, cleanup = tmp.name, tmp
    cluster = LiveCluster(
        make_policy(args.policy),
        trace,
        LiveClusterConfig(
            nodes=args.nodes,
            cache_bytes=args.memory * MB,
            backend_mode=args.backend_mode,
            root=Path(root),
        ),
    )
    return cluster, cleanup


def _cmd_serve(args: argparse.Namespace) -> int:
    trace = _load_trace(args.trace, args.requests, args.seed)

    async def run() -> None:
        cluster, cleanup = _build_cluster(args, trace)
        port = await cluster.start()
        if args.port:
            # Re-home the front-end on the requested port.
            await cluster.frontend.stop()
            port = await cluster.frontend.start(args.port)
        print(
            f"repro live: {args.policy} x {args.nodes} nodes "
            f"({args.memory} MB cache each), trace {trace.name}"
        )
        print(f"  front-end http://{cluster.config.host}:{port}/f/<fid>")
        for node, bport in enumerate(cluster.backend_ports):
            print(f"  back-end {node} on port {bport}")
        print("Ctrl-C to stop.")
        try:
            await asyncio.Event().wait()
        finally:
            await cluster.stop()
            if cleanup is not None:
                cleanup.cleanup()

    try:
        asyncio.run(run())
    except KeyboardInterrupt:
        print("\nstopped.")
    return 0


def _cmd_loadtest(args: argparse.Namespace) -> int:
    from .loadtest import LoadTestConfig, run_loadtest

    trace = _load_trace(args.trace, args.requests, args.seed)

    async def run():
        cluster, cleanup = _build_cluster(args, trace)
        await cluster.start()
        try:
            return await run_loadtest(
                cluster,
                trace,
                LoadTestConfig(
                    concurrency=args.concurrency,
                    passes=args.passes,
                    arrival_rate=args.rate,
                ),
            )
        finally:
            await cluster.stop()
            if cleanup is not None:
                cleanup.cleanup()

    result = asyncio.run(run())
    print(result.summary_row())
    if result.latency_percentiles:
        p = result.latency_percentiles
        print(
            f"  latency p50={p['p50'] * 1000:.1f}ms p90={p['p90'] * 1000:.1f}ms "
            f"p99={p['p99'] * 1000:.1f}ms max={p['max'] * 1000:.1f}ms"
        )
    problems = result.verify()
    for problem in problems:
        print(f"verify: {problem}", file=sys.stderr)
    return 1 if problems else 0


def _cmd_compare(args: argparse.Namespace) -> int:
    from .compare import HANDOFF_THRESHOLD, HIT_RATIO_THRESHOLD, run_compare

    trace = _load_trace(args.trace, args.requests, args.seed)
    report = run_compare(
        trace,
        args.policy,
        nodes=args.nodes,
        cache_bytes=args.memory * MB,
        passes=args.passes,
        concurrency=args.concurrency,
        backend_mode=args.backend_mode,
        root=Path(args.root) if getattr(args, "root", None) else None,
        hit_ratio_threshold=(
            args.hit_threshold
            if args.hit_threshold is not None
            else HIT_RATIO_THRESHOLD
        ),
        handoff_threshold=(
            args.handoff_threshold
            if args.handoff_threshold is not None
            else HANDOFF_THRESHOLD
        ),
    )
    print(report.render())
    return 0 if report.within_thresholds() else 1


def _cmd_chaos(args: argparse.Namespace) -> int:
    from ..chaos.spec import Scenario
    from .chaos import AVAILABILITY_THRESHOLD, run_live_scenario
    from .engine import LiveUnsupported

    scenario = Scenario.load(args.spec)
    try:
        outcome = run_live_scenario(
            scenario,
            root=Path(args.root) if args.root else None,
            concurrency=args.concurrency,
            availability_threshold=(
                args.availability_threshold
                if args.availability_threshold is not None
                else AVAILABILITY_THRESHOLD
            ),
        )
    except LiveUnsupported as exc:
        print(f"repro live chaos: {exc}", file=sys.stderr)
        return 2
    print(outcome.render())
    if args.csv:
        Path(args.csv).write_text(outcome.timeline.to_csv(), encoding="utf-8")
        print(f"wrote timeline to {args.csv}")
    return 0 if outcome.passed else 1


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    if args.live_command == "serve":
        return _cmd_serve(args)
    if args.live_command == "loadtest":
        return _cmd_loadtest(args)
    if args.live_command == "compare":
        return _cmd_compare(args)
    if args.live_command == "chaos":
        return _cmd_chaos(args)
    raise AssertionError(f"unhandled command {args.live_command!r}")


if __name__ == "__main__":  # pragma: no cover - module entry
    sys.exit(main())
