"""The speed gate's verdict (``tools/perfgate.py``) on fixture payloads."""

from __future__ import annotations

import importlib.util
from pathlib import Path

spec = importlib.util.spec_from_file_location(
    "perfgate", Path(__file__).resolve().parent.parent / "tools" / "perfgate.py"
)
perfgate = importlib.util.module_from_spec(spec)
spec.loader.exec_module(perfgate)

W = "sim-calgary-lard"


def _run(value, correct=True, failed=0, setup=None):
    metrics = {"requests_per_s": {"value": value, "unit": "1/s"}}
    if setup is not None:
        metrics["setup_s"] = {"value": setup, "unit": "s"}
    return {
        "correct": correct,
        "attempted": 100,
        "failed": failed,
        "metrics": metrics,
    }


def _entry(workload, by_seed, median=None, setup_by_seed=None):
    values = {"by_seed": {str(seed): v for seed, v in by_seed.items()}}
    if median is not None:
        values["median"] = median
    change = {"requests_per_s": values}
    if setup_by_seed is not None:
        change["setup_s"] = {
            "by_seed": {str(seed): v for seed, v in setup_by_seed.items()}
        }
    return {"workload": workload, "change": change}


def _seeds(value):
    return {seed: value for seed in perfgate.SEEDS}


def _judge(values, committed=1000.0, **run_kw):
    runs = {W: [_run(v, **run_kw) for v in values]}
    return perfgate.verdict({W: committed}, runs, gated=(W,), threshold=0.1)


def test_drop_beyond_threshold_fails():
    passed, (row,) = _judge([880.0, 890.0, 950.0])
    assert not passed
    assert row["median"] == 890.0
    assert "below the committed" in row["problems"][0]


def test_drop_inside_threshold_passes():
    passed, (row,) = _judge([905.0, 920.0, 1100.0])
    assert passed
    assert row["ratio"] == 0.92 and row["problems"] == []


def test_incorrect_run_fails_even_when_fast():
    passed, (row,) = _judge([1200.0], correct=False)
    assert not passed
    assert row["problems"] == ["seed None: correct is not true"]


def test_failed_operations_fail_even_when_fast():
    passed, (row,) = _judge([1200.0], failed=3)
    assert not passed
    assert row["problems"] == ["seed None: 3 failed operations"]


def test_run_without_result_fails():
    runs = {W: [{"error": "exit 1: boom", "seed": 2}]}
    passed, (row,) = perfgate.verdict({W: 1000.0}, runs, gated=(W,))
    assert not passed
    assert row["problems"] == ["seed 2: exit 1: boom", "no measured run"]


def test_gated_workload_without_committed_entry_fails():
    passed, (row,) = perfgate.verdict({}, {W: [_run(1000.0)]}, gated=(W,))
    assert not passed
    assert row["problems"] == ["no committed per-seed BENCH_perf.json values"]


def test_gated_workload_not_run_fails():
    passed, (row,) = perfgate.verdict({W: 1000.0}, {}, gated=(W,))
    assert not passed
    assert row["problems"] == ["no measured run"]


def test_report_only_workload_cannot_fail_on_speed():
    runs = {"live-lard": [_run(10.0)]}
    passed, (row,) = perfgate.verdict({}, runs, gated=())
    assert passed and not row["gated"]


def test_report_only_workload_still_fails_on_correctness():
    runs = {"live-lard": [_run(1000.0, failed=1)]}
    passed, _ = perfgate.verdict({"live-lard": 1000.0}, runs, gated=())
    assert not passed


def test_newest_entry_per_workload_is_compared():
    entries = [
        _entry(W, _seeds(500.0)),
        _entry("live-lard", _seeds(900.0)),
        _entry(W, _seeds(1000.0)),
    ]
    committed = perfgate.committed_medians(entries)
    assert committed == {W: 1000.0, "live-lard": 900.0}
    passed, _ = perfgate.verdict(committed, {W: [_run(850.0)]}, gated=(W,))
    assert not passed


def test_baseline_is_the_median_of_the_gates_own_seeds():
    # Seed 1 is slow, seeds 4-10 are fast: the 10-seed median would
    # overstate what seeds 1-3 should read.
    by_seed = {1: 900.0, 2: 1000.0, 3: 1010.0}
    by_seed.update({seed: 1200.0 for seed in range(4, 11)})
    committed = perfgate.committed_medians([_entry(W, by_seed, median=1200.0)])
    assert committed == {W: 1000.0}
    passed, _ = perfgate.verdict(committed, {W: [_run(950.0)]}, gated=(W,))
    assert passed


def test_newest_entry_without_per_seed_values_counts_as_uncommitted():
    entries = [_entry(W, _seeds(1000.0)), _entry(W, {1: 990.0}, median=990.0)]
    committed = perfgate.committed_medians(entries)
    assert committed == {}
    passed, (row,) = perfgate.verdict(committed, {W: [_run(1000.0)]}, gated=(W,))
    assert not passed
    assert row["problems"] == ["no committed per-seed BENCH_perf.json values"]


def test_setup_regression_is_reported_but_cannot_fail():
    runs = {W: [_run(1000.0, setup=s) for s in (0.9, 1.2, 1.0)]}
    passed, (row,) = perfgate.verdict(
        {W: 1000.0}, runs, gated=(W,), committed_setup={W: 0.1}
    )
    assert passed and row["problems"] == []
    assert row["setup_s"] == {
        "median": 1.0, "committed": 0.1, "values": [0.9, 1.2, 1.0]
    }


def test_committed_setup_is_the_median_of_the_gates_own_seeds():
    entries = [
        _entry(W, _seeds(1000.0), setup_by_seed={1: 0.4, 2: 0.1, 3: 0.2, 4: 9.0}),
        # The older entry shape: setup_s without per-seed values.
        _entry("live-lard", _seeds(900.0)),
    ]
    assert perfgate.committed_medians(entries, "setup_s") == {W: 0.2}
    runs = {w: [_run(1000.0, setup=0.3)] for w in (W, "live-lard")}
    passed, rows = perfgate.verdict(
        perfgate.committed_medians(entries), runs, gated=(W,),
        committed_setup=perfgate.committed_medians(entries, "setup_s"),
    )
    assert passed
    assert [row["setup_s"]["committed"] for row in rows] == [0.2, None]
    assert [row["setup_s"]["median"] for row in rows] == [0.3, 0.3]


def test_run_without_setup_reports_none():
    passed, (row,) = _judge([1000.0])
    assert passed
    assert row["setup_s"] == {"median": None, "committed": None, "values": []}


def test_committed_trajectory_covers_every_gated_workload():
    import json

    root = Path(__file__).resolve().parent.parent
    entries = json.loads((root / "BENCH_perf.json").read_text())["entries"]
    bench = json.loads((root / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in bench["workloads"]]
    committed = perfgate.committed_medians(entries)
    assert set(perfgate.GATED) <= set(workloads)
    # committed_medians leaves out a workload whose newest entry lacks a
    # per-seed value for one of the gate's seeds.
    assert all(committed.get(w, 0) > 0 for w in perfgate.GATED)
