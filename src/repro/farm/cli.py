"""``repro farm`` — shard sweeps across CPU cores.

Subcommands::

    repro farm sweep --traces calgary,clarknet --policies l2s,lard \\
        --nodes 16 --seeds 4 --requests 4000 --workers 4
    repro farm sweep --spec sweep.json --workers 8 --out merged.json
    repro farm sweep --quick --workers 2       # CI smoke grid

The merged output (table and ``--out`` JSON) is byte-identical for any
``--workers`` value, including 1 — see docs/FARM.md for the contract.
Progress lines go to stderr so stdout stays diffable.  Seeded chaos
trials fan out the same way through ``repro chaos run --workers``.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from .runner import FarmWorkerError, farm_workers, run_sweep
from .spec import FarmSpecError, SweepSpec

__all__ = ["main", "build_parser"]

#: The smoke grid behind ``repro farm sweep --quick``.
QUICK_REQUESTS = 1_000


def _int_list(text: str) -> List[int]:
    return [int(x) for x in text.split(",") if x.strip()]


def _str_list(text: str) -> List[str]:
    return [x.strip() for x in text.split(",") if x.strip()]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro farm",
        description="multi-core sweep runner with deterministic merging",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_sw = sub.add_parser(
        "sweep", help="farm a trace x policy x nodes x seed grid"
    )
    p_sw.add_argument(
        "--spec", default=None, metavar="SPEC.json",
        help="load the grid from a SweepSpec JSON file (exclusive with "
        "the grid flags)",
    )
    p_sw.add_argument(
        "--traces", default="calgary",
        help="comma-separated trace presets (default calgary)",
    )
    p_sw.add_argument(
        "--policies", default="traditional,lard,l2s",
        help="comma-separated policy names (default the paper's three)",
    )
    p_sw.add_argument(
        "--nodes", default="16", help="comma-separated cluster sizes"
    )
    p_sw.add_argument(
        "--seeds", default="0", metavar="S1,S2,...",
        help="explicit comma-separated seed list (default: 0); "
        "exclusive with --replicates",
    )
    p_sw.add_argument(
        "--replicates", type=int, default=None, metavar="N",
        help="instead of --seeds: derive N replicate seeds from "
        "--base-seed (deterministic per (base, index))",
    )
    p_sw.add_argument(
        "--base-seed", type=int, default=0,
        help="base for derived replicate seeds (default 0)",
    )
    p_sw.add_argument("--requests", type=int, default=4_000)
    p_sw.add_argument("--memory", type=int, default=32, help="MB per node")
    p_sw.add_argument("--passes", type=int, default=2)
    p_sw.add_argument(
        "--quick", action="store_true",
        help=f"CI smoke grid ({QUICK_REQUESTS} requests, calgary x three "
        "policies x 16 nodes x 2 seeds)",
    )
    p_sw.add_argument(
        "--workers", type=int, default=None,
        help="worker processes (default: REPRO_FARM_WORKERS or 1)",
    )
    p_sw.add_argument(
        "--save-spec", default=None, metavar="SPEC.json",
        help="write the (possibly derived) grid as a spec file and exit",
    )
    p_sw.add_argument(
        "--out", default=None, metavar="FILE.json",
        help="write the merged results as canonical JSON",
    )
    p_sw.add_argument(
        "--no-progress", action="store_true",
        help="suppress per-shard progress lines on stderr",
    )
    return parser


def _sweep_spec(ns: argparse.Namespace) -> SweepSpec:
    if ns.spec is not None:
        return SweepSpec.load(ns.spec)
    if ns.quick:
        return SweepSpec.derived(
            traces=("calgary",),
            policies=("traditional", "lard", "l2s"),
            node_counts=(16,),
            base_seed=ns.base_seed,
            replicates=2,
            requests=QUICK_REQUESTS,
            cache_mb=ns.memory,
            passes=ns.passes,
        )
    if ns.replicates is not None:
        return SweepSpec.derived(
            traces=_str_list(ns.traces),
            policies=_str_list(ns.policies),
            node_counts=_int_list(ns.nodes),
            base_seed=ns.base_seed,
            replicates=ns.replicates,
            requests=ns.requests,
            cache_mb=ns.memory,
            passes=ns.passes,
        )
    return SweepSpec(
        traces=tuple(_str_list(ns.traces)),
        policies=tuple(_str_list(ns.policies)),
        node_counts=tuple(_int_list(ns.nodes)),
        seeds=tuple(_int_list(ns.seeds)),
        requests=ns.requests,
        cache_mb=ns.memory,
        passes=ns.passes,
    )


def _cmd_sweep(ns: argparse.Namespace) -> int:
    try:
        spec = _sweep_spec(ns)
    except (FarmSpecError, ValueError) as exc:
        print(f"farm sweep: {exc}", file=sys.stderr)
        return 2
    if ns.save_spec is not None:
        spec.save(ns.save_spec)
        print(f"wrote {ns.save_spec}: {spec.describe()}")
        return 0
    workers = farm_workers(ns.workers)
    # Banner to stderr: stdout carries only the merged report, which is
    # byte-identical across worker counts.
    print(
        f"farm sweep: {spec.describe()}, {workers} worker(s)",
        file=sys.stderr,
    )
    done = [0]

    def progress(shard, result) -> None:
        done[0] += 1
        print(
            f"  [{done[0]}/{len(spec)}] {shard.label()}: "
            f"{result.throughput_rps:,.2f} req/s",
            file=sys.stderr,
        )

    try:
        farm = run_sweep(
            spec,
            workers=workers,
            progress=None if ns.no_progress else progress,
        )
    except FarmWorkerError as exc:
        print(f"farm sweep: {exc}", file=sys.stderr)
        return 1
    print(farm.render())
    if ns.out is not None:
        with open(ns.out, "w") as fh:
            fh.write(farm.to_json())
        print(f"wrote {ns.out}")
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    return _cmd_sweep(build_parser().parse_args(argv))


if __name__ == "__main__":
    sys.exit(main())
