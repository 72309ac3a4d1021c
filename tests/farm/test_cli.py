"""``repro farm`` CLI: flags, spec files, quick mode, determinism."""

from __future__ import annotations

import json

import pytest

from repro.cli import main as repro_main
from repro.farm.cli import main as farm_main

_GRID = [
    "sweep",
    "--traces", "calgary",
    "--policies", "traditional,lard",
    "--nodes", "4",
    "--seeds", "0,1",
    "--requests", "300",
    "--no-progress",
]


def test_sweep_quick_smoke(capsys):
    rc = farm_main(
        ["sweep", "--quick", "--requests", "300", "--workers", "1",
         "--no-progress"]
    )
    captured = capsys.readouterr()
    assert rc == 0
    # --quick still honors the default grid shape in its banner.
    assert "= 6 shards" in captured.err
    assert "traditional" in captured.out and "l2s" in captured.out


def test_sweep_workers_flag_output_identical(capsys):
    assert farm_main(_GRID + ["--workers", "1"]) == 0
    serial_out = capsys.readouterr().out
    assert farm_main(_GRID + ["--workers", "2"]) == 0
    farm_out = capsys.readouterr().out
    assert farm_out == serial_out


def test_sweep_twice_identical(capsys):
    assert farm_main(_GRID + ["--workers", "2"]) == 0
    first = capsys.readouterr().out
    assert farm_main(_GRID + ["--workers", "2"]) == 0
    second = capsys.readouterr().out
    assert first == second


def test_sweep_spec_file_round_trip(tmp_path, capsys):
    spec_path = str(tmp_path / "grid.json")
    rc = farm_main(_GRID + ["--save-spec", spec_path])
    assert rc == 0
    capsys.readouterr()
    out_path = str(tmp_path / "merged.json")
    rc = farm_main(
        ["sweep", "--spec", spec_path, "--workers", "2", "--no-progress",
         "--out", out_path]
    )
    assert rc == 0
    spec_run = capsys.readouterr().out
    rc = farm_main(_GRID + ["--workers", "1", "--out", str(tmp_path / "s.json")])
    assert rc == 0
    with open(out_path) as fh:
        merged = json.load(fh)
    assert len(merged["results"]) == 4
    assert merged["spec"]["requests"] == 300
    # The --spec run and the flag run produce the same table.
    flag_run = capsys.readouterr().out
    table = lambda text: text.split("trace ", 1)[1].rsplit("wrote", 1)[0]
    assert table(spec_run) == table(flag_run)


def test_sweep_rejects_bad_spec(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"traces": []}')
    rc = farm_main(["sweep", "--spec", str(bad)])
    assert rc == 2
    assert "farm sweep:" in capsys.readouterr().err


def test_sweep_derived_seed_count(capsys):
    rc = farm_main(
        ["sweep", "--traces", "calgary", "--policies", "traditional",
         "--nodes", "2", "--replicates", "3", "--requests", "200",
         "--no-progress"]
    )
    assert rc == 0
    assert "3 seed(s)" in capsys.readouterr().err


def test_top_level_cli_delegates_to_farm(capsys):
    rc = repro_main(
        ["farm", "sweep", "--traces", "calgary", "--policies", "traditional",
         "--nodes", "2", "--seeds", "0", "--requests", "200",
         "--workers", "1", "--no-progress"]
    )
    assert rc == 0
    captured = capsys.readouterr()
    assert "farm sweep:" in captured.err
    assert "traditional" in captured.out


def test_progress_goes_to_stderr_not_stdout(capsys):
    rc = farm_main(
        ["sweep", "--traces", "calgary", "--policies", "traditional",
         "--nodes", "2", "--seeds", "0", "--requests", "200",
         "--workers", "1"]
    )
    assert rc == 0
    captured = capsys.readouterr()
    assert "[1/1]" in captured.err
    assert "[1/1]" not in captured.out
