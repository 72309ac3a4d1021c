"""``repro chaos`` — run, replay, shrink, and soak chaos scenarios.

Subcommands::

    repro chaos run --trials 200 --seed 42      # a seeded sweep
    repro chaos run --trials 200 --workers 4    # the same, on 4 cores
    repro chaos replay scenario.json            # one stored scenario
    repro chaos shrink scenario.json            # minimize a failure
    repro chaos soak --minutes 10 --seed 7      # bounded wall-clock soak

``run`` and ``replay`` print deterministic reports (CI diffs them
byte-for-byte; ``run`` prints the same for any ``--workers``);
``shrink`` writes the minimal reproducer next to the input with a
``.min.json`` suffix plus the exact replay line.  Exit status is 0 when
every oracle passed and 1 otherwise, so the commands gate in CI
directly.

Soak mode is the one place the chaos package may read the wall clock:
it budgets *real* minutes, not simulated ones.  The chaos package is
deliberately outside simlint's kernel scope for exactly this reason —
everything else here stays wall-clock-free so runs replay exactly.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from typing import List, Optional

from ..farm.runner import FarmWorkerError, farm_workers, pool_map
from .generator import DEFAULT_POLICIES, ScenarioGenerator
from .oracle import OracleConfig
from .runner import render_report, run_scenario, run_trial
from .shrink import render_shrink, shrink_scenario
from .spec import ChaosSpecError, Scenario

__all__ = ["main"]


def _oracle_config(ns: argparse.Namespace) -> OracleConfig:
    return OracleConfig(strict=ns.strict)


def _generator(ns: argparse.Namespace) -> ScenarioGenerator:
    return ScenarioGenerator(
        ns.seed,
        policies=tuple(ns.policies.split(",")) if ns.policies
        else DEFAULT_POLICIES,
        trace=ns.trace,
        requests=ns.requests,
        kinds=tuple(ns.kinds.split(",")) if ns.kinds else None,
    )


def _save(scenario: Scenario, out_dir: str) -> str:
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, f"{scenario.name}.json")
    scenario.save(path)
    print(f"  scenario saved: {path}")
    return path


def _cmd_run(ns: argparse.Namespace) -> int:
    gen = _generator(ns)
    config = _oracle_config(ns)
    print(
        f"chaos run: {ns.trials} trials, seed {ns.seed}, "
        f"policies {','.join(gen.policies)}, trace {gen.trace}"
    )
    # Trials run in any process and order; reports print in trial order
    # and only this process writes files, so stdout is the same for
    # every worker count.
    tasks = [(gen, trial, config) for trial in range(ns.trials)]
    failures = 0
    for passed, report, scenario in pool_map(
        run_trial, tasks, workers=farm_workers(ns.workers)
    ):
        if passed:
            if not ns.quiet:
                print(report)
            continue
        failures += 1
        print(report)
        if ns.out is not None:
            path = _save(scenario, ns.out)
            print(f"  replay: {scenario.replay_cli(path)}")
    print(
        f"chaos run: {ns.trials - failures}/{ns.trials} trials passed "
        f"all oracles"
    )
    return 1 if failures else 0


def _cmd_replay(ns: argparse.Namespace) -> int:
    scenario = Scenario.load(ns.scenario)
    outcome = run_scenario(scenario, _oracle_config(ns))
    print(render_report(outcome))
    return 0 if outcome.passed else 1


def _cmd_shrink(ns: argparse.Namespace) -> int:
    scenario = Scenario.load(ns.scenario)
    config = _oracle_config(ns)
    try:
        result = shrink_scenario(
            scenario, oracle_config=config, max_runs=ns.max_runs
        )
    except ValueError as exc:
        print(f"chaos shrink: {exc}", file=sys.stderr)
        return 2
    out_path = ns.out or _default_min_path(ns.scenario)
    result.scenario.save(out_path)
    print(render_shrink(result, out_path))
    return 0


def _default_min_path(path: str) -> str:
    base = path[:-5] if path.endswith(".json") else path
    return base + ".min.json"


def _cmd_soak(ns: argparse.Namespace) -> int:
    """Keep sweeping fresh trials until the wall-clock budget expires.

    Failing scenarios are saved (and shrunk, unless --no-shrink) so an
    unattended soak leaves minimal reproducers behind, not just logs.
    """
    gen = _generator(ns)
    config = _oracle_config(ns)
    out_dir = ns.out or "chaos-soak"
    deadline = time.monotonic() + ns.minutes * 60.0
    trial = 0
    failures = 0
    while time.monotonic() < deadline and trial < ns.max_trials:
        passed, report, scenario = run_trial((gen, trial, config))
        if not passed:
            failures += 1
            print(report)
            path = _save(scenario, out_dir)
            if not ns.no_shrink:
                result = shrink_scenario(
                    scenario, oracle_config=config, max_runs=ns.max_runs
                )
                min_path = _default_min_path(path)
                result.scenario.save(min_path)
                print(render_shrink(result, min_path))
        trial += 1
    print(
        f"chaos soak: {trial} trials in the budget, "
        f"{failures} oracle failure(s)"
    )
    return 1 if failures else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro chaos",
        description="Randomized fault-scenario fuzzing with invariant "
        "oracles, deterministic replay, and scenario shrinking.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--strict", action="store_true",
            help="treat any failed or shed request as a violation",
        )

    def add_gen(p: argparse.ArgumentParser) -> None:
        p.add_argument("--seed", type=int, default=42,
                       help="sweep seed (default 42)")
        p.add_argument("--policies", default="",
                       help="comma-separated policy list "
                       f"(default {','.join(DEFAULT_POLICIES)})")
        p.add_argument("--trace", default="calgary",
                       help="trace preset (default calgary)")
        p.add_argument("--requests", type=int, default=1200,
                       help="requests per trial (default 1200)")
        p.add_argument("--kinds", default="",
                       help="comma-separated plan-item kinds to sample "
                       "(e.g. ramp,churn; default: the full pool)")

    p_run = sub.add_parser("run", help="run a seeded sweep of trials")
    add_gen(p_run)
    add_common(p_run)
    p_run.add_argument("--trials", type=int, default=20,
                       help="number of trials (default 20)")
    p_run.add_argument("--out", default=None,
                       help="directory for failing scenario files")
    p_run.add_argument("--quiet", action="store_true",
                       help="print only failing trials and the summary")
    p_run.add_argument("--workers", type=int, default=None,
                       help="worker processes "
                       "(default: REPRO_FARM_WORKERS or 1)")
    p_run.set_defaults(func=_cmd_run)

    p_replay = sub.add_parser(
        "replay", help="re-run one stored scenario file"
    )
    p_replay.add_argument("scenario", help="scenario JSON file")
    add_common(p_replay)
    p_replay.set_defaults(func=_cmd_replay)

    p_shrink = sub.add_parser(
        "shrink", help="minimize a failing scenario file"
    )
    p_shrink.add_argument("scenario", help="failing scenario JSON file")
    add_common(p_shrink)
    p_shrink.add_argument("--max-runs", type=int, default=200,
                          help="shrink evaluation budget (default 200)")
    p_shrink.add_argument("--out", default=None,
                          help="minimal reproducer path "
                          "(default <scenario>.min.json)")
    p_shrink.set_defaults(func=_cmd_shrink)

    p_soak = sub.add_parser(
        "soak", help="sweep fresh trials until a wall-clock budget expires"
    )
    add_gen(p_soak)
    add_common(p_soak)
    p_soak.add_argument("--minutes", type=float, default=10.0,
                        help="wall-clock budget (default 10)")
    p_soak.add_argument("--max-trials", type=int, default=100000,
                        help="hard trial cap (default 100000)")
    p_soak.add_argument("--max-runs", type=int, default=200,
                        help="shrink evaluation budget per failure")
    p_soak.add_argument("--out", default=None,
                        help="directory for reproducers (default chaos-soak)")
    p_soak.add_argument("--no-shrink", action="store_true",
                        help="save failing scenarios without shrinking")
    p_soak.set_defaults(func=_cmd_soak)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    ns = build_parser().parse_args(argv)
    try:
        return ns.func(ns)
    except ChaosSpecError as exc:
        print(f"chaos: invalid scenario — {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"chaos: {exc}", file=sys.stderr)
        return 2
    except FileNotFoundError as exc:
        print(f"chaos: {exc}", file=sys.stderr)
        return 2
    except FarmWorkerError as exc:
        print(f"chaos: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
