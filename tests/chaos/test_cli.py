"""The ``repro chaos`` CLI: run/replay/shrink/soak surfaces."""

import os

import pytest

from repro.chaos import runner
from repro.chaos.cli import main as chaos_main
from repro.chaos.generator import ScenarioGenerator
from repro.chaos.oracle import OracleConfig, Violation
from repro.chaos.spec import Scenario
from repro.cli import main as repro_main
from repro.farm.runner import pool_map

DATA = os.path.join(os.path.dirname(__file__), "data")
PLANTED = os.path.join(DATA, "planted.json")
SMOKE = os.path.join(DATA, "smoke.json")


def test_run_small_sweep_passes(capsys):
    assert chaos_main([
        "run", "--trials", "2", "--seed", "11", "--requests", "200",
        "--policies", "traditional,l2s", "--quiet",
    ]) == 0
    out = capsys.readouterr().out
    assert "2/2 trials passed" in out


def test_run_reports_are_deterministic(capsys):
    args = ["run", "--trials", "1", "--seed", "13", "--requests", "200",
            "--policies", "l2s"]
    assert chaos_main(args) == 0
    first = capsys.readouterr().out
    assert chaos_main(args) == 0
    assert capsys.readouterr().out == first


def test_run_trial_matches_across_worker_counts():
    gen = ScenarioGenerator(11, requests=300)
    tasks = [(gen, trial, OracleConfig()) for trial in range(3)]
    serial = pool_map(runner.run_trial, tasks, workers=1)
    assert pool_map(runner.run_trial, tasks, workers=2) == serial
    assert [s.name for _, _, s in serial] == [
        gen.generate(t).name for t in range(3)
    ]


def test_run_stdout_identical_for_any_worker_count(capsys):
    args = ["run", "--trials", "2", "--seed", "11", "--requests", "300"]
    assert chaos_main(args + ["--workers", "1"]) == 0
    serial = capsys.readouterr().out
    assert chaos_main(args + ["--workers", "2"]) == 0
    assert capsys.readouterr().out == serial
    assert "2/2 trials passed" in serial


def test_run_saves_each_failing_scenario_with_its_replay_line(
    tmp_path, capsys, monkeypatch
):
    planted = Violation("planted", "forced failure")
    monkeypatch.setattr(
        runner.ChaosOracle, "finish", lambda self, *a, **k: [planted]
    )
    out_dir = tmp_path / "failures"
    assert chaos_main([
        "run", "--trials", "1", "--seed", "11", "--requests", "200",
        "--policies", "traditional", "--workers", "1", "--out", str(out_dir),
    ]) == 1
    path = str(out_dir / "chaos-s11-t0000.json")
    assert Scenario.load(path).name == "chaos-s11-t0000"
    out = capsys.readouterr().out
    assert "[planted] forced failure" in out
    assert f"  scenario saved: {path}\n  replay: repro chaos replay {path}" in out
    assert "0/1 trials passed" in out


def test_replay_passing_scenario(capsys):
    assert chaos_main(["replay", SMOKE]) == 0
    out = capsys.readouterr().out
    assert "oracles: all passed" in out


def test_replay_strict_planted_fails(capsys):
    assert chaos_main(["replay", PLANTED, "--strict"]) == 1
    out = capsys.readouterr().out
    assert "strict_service" in out


def test_replay_missing_file_is_exit_2(capsys):
    assert chaos_main(["replay", "/nonexistent/scenario.json"]) == 2


def test_replay_invalid_scenario_is_exit_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"name": "x", "seed": 1, "policy": "quantum"}\n')
    assert chaos_main(["replay", str(bad)]) == 2
    assert "invalid scenario" in capsys.readouterr().err


def test_shrink_writes_minimal_reproducer(tmp_path, capsys):
    out = str(tmp_path / "planted.min.json")
    assert chaos_main(["shrink", PLANTED, "--strict", "--out", out]) == 0
    minimal = Scenario.load(out)
    assert minimal.event_count() <= 3
    text = capsys.readouterr().out
    assert f"repro chaos replay {out}" in text


def test_shrink_rejects_passing_scenario(capsys):
    assert chaos_main(["shrink", SMOKE]) == 2
    assert "does not fail" in capsys.readouterr().err


def test_soak_bounded_run(tmp_path, capsys):
    # A tiny wall-clock budget still runs at least the trial cap check;
    # --max-trials keeps it deterministic-ish and fast.
    assert chaos_main([
        "soak", "--minutes", "0.2", "--max-trials", "2", "--seed", "17",
        "--requests", "200", "--policies", "traditional",
        "--out", str(tmp_path / "soak"),
    ]) == 0
    out = capsys.readouterr().out
    assert "chaos soak:" in out


def test_main_cli_delegates_chaos(capsys):
    assert repro_main(["chaos", "replay", SMOKE]) == 0
    assert "oracles: all passed" in capsys.readouterr().out


def test_chaos_requires_subcommand():
    with pytest.raises(SystemExit):
        chaos_main([])
