"""The speed gate: fresh perfbench runs against the committed trajectory.

Run from anywhere, with no arguments::

    python3 tools/perfgate.py

For every workload in ``BENCHMARK.json`` it runs the benchmark's own
command (``perfbench/run.py --trace 0``) for ``run_seconds`` on each of
``SEEDS`` and compares the median ``requests_per_s`` with the newest
``BENCH_perf.json`` entry for that workload: the median of that entry's
``change`` values on the same seeds (``by_seed``).  Seeds are not alike
(sim-calgary-lard seed 1 runs several percent below seeds 2 and 3), so
comparing with the entry's 10-seed median would carry a fixed offset.

The gate fails when

* any run reports ``correct: false`` or ``failed > 0``, or exits without
  a result;
* a workload in ``GATED`` has a median more than ``THRESHOLD`` below its
  committed median;
* a workload in ``GATED`` has no committed entry, or its newest entry
  lacks a value for one of ``SEEDS``.

Every workload's median ``setup_s`` (trace synthesis and simulator
set-up) is printed and reported next to the committed one, computed the
same way, but no workload can fail on it: it is there so that a set-up
regression shows in the report.

Workloads outside ``GATED`` are measured and reported but cannot fail on
speed: the live cluster drifts between sessions by more than the
threshold on unchanged code (see CHANGES.md).  One live run on the first
seed is discarded before the measured ones, so a slow first run of a
session (a cold start, seen once) cannot count; its value is still
reported.

Results go to standard output and to ``perfgate-report.json`` in the
repository root.  Exit status 0 means pass, 1 means fail.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

ROOT = Path(__file__).resolve().parent.parent
REPORT = ROOT / "perfgate-report.json"

#: Seeds run per workload; the gate compares their median.
SEEDS = (1, 2, 3)
#: A gated median may fall at most this fraction below the committed one.
THRESHOLD = 0.06
#: Workloads whose speed is gated; the rest are report-only.
GATED = ("sim-calgary-lard", "sim-clarknet-l2s", "sim-nasa-traditional")
#: Workloads that get one discarded run before the measured ones.
WARM_UP = ("live-lard",)
METRIC = "requests_per_s"
#: Reported next to ``METRIC`` for every workload; never gated.
SETUP = "setup_s"


def committed_medians(
    entries: Sequence[Mapping], metric: str = METRIC
) -> Dict[str, float]:
    """The newest entry's change median of ``metric`` over ``SEEDS``.

    File order is age.  A workload whose newest entry lacks a value for
    one of ``SEEDS`` is left out, so the gate reports it uncommitted.
    """
    newest = {
        e["workload"]: e["change"].get(metric, {}).get("by_seed", {})
        for e in entries
    }
    return {
        workload: statistics.median(by_seed[str(seed)] for seed in SEEDS)
        for workload, by_seed in newest.items()
        if all(str(seed) in by_seed for seed in SEEDS)
    }


def verdict(
    committed: Mapping[str, float],
    runs: Mapping[str, Sequence[Mapping]],
    gated: Sequence[str] = GATED,
    threshold: float = THRESHOLD,
    committed_setup: Optional[Mapping[str, float]] = None,
) -> Tuple[bool, List[dict]]:
    """Judge ``runs`` (perfbench payloads per workload) against ``committed``.

    Returns ``(passed, rows)``, one row per workload in ``runs`` plus one
    per gated workload that was not run.  Each row also carries the
    ``SETUP`` median next to ``committed_setup``, for the report only.
    Pure: runs nothing.
    """
    rows = []
    for workload in list(runs) + [w for w in gated if w not in runs]:
        payloads = runs.get(workload, ())
        values = _values(payloads, METRIC)
        median = statistics.median(values) if values else None
        setups = _values(payloads, SETUP)
        base = committed.get(workload)
        problems = [
            f"seed {p.get('seed')}: {why}"
            for p in payloads
            for why in _run_problems(p)
        ]
        if workload in gated:
            if base is None:
                problems.append("no committed per-seed BENCH_perf.json values")
            elif median is None:
                problems.append("no measured run")
            elif median < base * (1 - threshold):
                problems.append(
                    f"median {median:.1f} is {1 - median / base:.1%} below "
                    f"the committed {base:.1f} (limit {threshold:.0%})"
                )
        rows.append(
            {
                "workload": workload,
                "gated": workload in gated,
                "committed": base,
                "median": median,
                "ratio": median / base if median is not None and base else None,
                "values": values,
                SETUP: {
                    "median": statistics.median(setups) if setups else None,
                    "committed": (committed_setup or {}).get(workload),
                    "values": setups,
                },
                "problems": problems,
            }
        )
    return all(not row["problems"] for row in rows), rows


def _values(payloads: Sequence[Mapping], metric: str) -> List[float]:
    return [
        p["metrics"][metric]["value"]
        for p in payloads
        if metric in p.get("metrics", {})
    ]


def _run_problems(payload: Mapping) -> List[str]:
    if "metrics" not in payload:
        return [payload.get("error", "no result")]
    problems = []
    if payload.get("correct") is not True:
        problems.append("correct is not true")
    if payload.get("failed", 0) > 0:
        problems.append(f"{payload['failed']} failed operations")
    return problems


def run_once(command: Sequence[str], workload: str, seed: int, seconds: float) -> dict:
    """One perfbench run; its result payload, tagged with the seed."""
    argv = list(command) + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", "0",
    ]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    try:
        payload = json.loads(lines[-1])
    except (IndexError, ValueError):
        payload = {"error": f"exit {proc.returncode}: {proc.stderr.strip()[-300:]}"}
    payload["seed"] = seed
    return payload


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    entries = json.loads((ROOT / "BENCH_perf.json").read_text())["entries"]
    runs: Dict[str, List[dict]] = {}
    warm_up: Dict[str, object] = {}
    for workload in (w["name"] for w in bench["workloads"]):
        seeds = [(seed, True) for seed in SEEDS]
        if workload in WARM_UP:
            seeds.insert(0, (SEEDS[0], False))
        runs[workload] = []
        for seed, measured in seeds:
            payload = run_once(bench["command"], workload, seed, bench["run_seconds"])
            value = payload.get("metrics", {}).get(METRIC, {}).get("value")
            if measured:
                runs[workload].append(payload)
            else:
                warm_up[workload] = value
            note = "" if measured else " (warm-up, discarded)"
            print(f"{workload} seed {seed}: {METRIC} {value}{note}", flush=True)
    passed, rows = verdict(
        committed_medians(entries), runs,
        committed_setup=committed_medians(entries, SETUP),
    )
    for row in rows:
        ratio = "-" if row["ratio"] is None else f"{row['ratio']:.3f}"
        kind = "gated" if row["gated"] else "report-only"
        setup = row[SETUP]
        print(f"{row['workload']:<22} {kind:<11} median {row['median']} "
              f"committed {row['committed']} ratio {ratio}; {SETUP} median "
              f"{setup['median']} committed {setup['committed']} (report-only)")
        for problem in row["problems"]:
            print(f"  FAIL: {problem}")
    REPORT.write_text(
        json.dumps(
            {"passed": passed, "threshold": THRESHOLD, "seeds": list(SEEDS),
             "run_seconds": bench["run_seconds"], "workloads": rows,
             "warm_up": warm_up},
            indent=2,
        ) + "\n"
    )
    print("perf gate:", "pass" if passed else "FAIL")
    return 0 if passed else 1


if __name__ == "__main__":
    sys.exit(main())
