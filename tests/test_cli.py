"""Tests for the command-line interface."""

import pytest

from repro.cli import FIGURE_TRACES, build_parser, main


def test_version_flag(capsys):
    from repro import __version__

    with pytest.raises(SystemExit) as excinfo:
        main(["--version"])
    assert excinfo.value.code == 0
    assert capsys.readouterr().out.strip() == f"repro {__version__}"


def test_help_epilog_mentions_live_subcommands(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["--help"])
    assert excinfo.value.code == 0
    out = capsys.readouterr().out
    # argparse re-wraps the epilog, so match pieces, not the phrase.
    assert "repro live" in out
    assert "serve|loadtest|compare" in out
    assert "docs/LIVE.md" in out


def test_live_delegates_to_live_cli(capsys):
    # `repro live --help` reaches the live sub-parser (no sockets).
    with pytest.raises(SystemExit) as excinfo:
        main(["live", "--help"])
    assert excinfo.value.code == 0
    out = capsys.readouterr().out
    assert "serve" in out and "loadtest" in out and "compare" in out


def test_live_requires_subcommand():
    with pytest.raises(SystemExit) as excinfo:
        main(["live"])
    assert excinfo.value.code == 2


def test_parser_requires_command():
    with pytest.raises(SystemExit):
        build_parser().parse_args([])


def test_parser_rejects_unknown_command():
    with pytest.raises(SystemExit):
        build_parser().parse_args(["frobnicate"])


def test_figure_trace_mapping():
    assert FIGURE_TRACES == {7: "calgary", 8: "clarknet", 9: "nasa", 10: "rutgers"}


def test_tables_command(capsys):
    assert main(["tables"]) == 0
    out = capsys.readouterr().out
    assert "Table 1" in out and "Table 2" in out
    assert "mu_p" in out and "calgary" in out


def test_bound_command(capsys):
    assert main(["bound", "nasa", "--nodes", "8", "--memory", "32"]) == 0
    out = capsys.readouterr().out
    assert "nasa x 8 nodes" in out
    assert "req/s" in out


def test_simulate_command(capsys):
    assert (
        main(
            [
                "simulate",
                "calgary",
                "round-robin",
                "--nodes",
                "2",
                "--requests",
                "1500",
            ]
        )
        == 0
    )
    out = capsys.readouterr().out
    assert "round-robin" in out
    assert "model bound" in out


def test_simulate_rejects_bad_trace():
    with pytest.raises(KeyError):
        main(["simulate", "unknown-trace", "l2s", "--requests", "100"])


def test_figure_command_validates_number():
    with pytest.raises(SystemExit):
        build_parser().parse_args(["figure", "5"])  # 7-10 only


def test_netfaults_command(tmp_path, capsys):
    out = tmp_path / "nf.txt"
    args = [
        "netfaults",
        "calgary",
        "--policies",
        "l2s",
        "--nodes",
        "2",
        "--requests",
        "1500",
        "--loss",
        "0.01",
        "--seed",
        "3",
        "--out",
        str(out),
    ]
    assert main(args) == 0
    text = capsys.readouterr().out
    assert "Unreliable interconnect" in text
    assert "l2s" in text and "loss 1.0%" in text
    first = out.read_text()
    assert first == text.rstrip("\n") + "\n" or first in text
    # Same seed, byte-identical report (the CI smoke's contract).
    assert main(args) == 0
    capsys.readouterr()
    assert out.read_text() == first


def test_netfaults_command_with_schedule(capsys):
    assert (
        main(
            [
                "netfaults",
                "calgary",
                "--policies",
                "traditional",
                "--nodes",
                "2",
                "--requests",
                "1500",
                "--loss",
                "0",
                "--schedule",
                "link:0-1@0.05..0.1",
            ]
        )
        == 0
    )
    out = capsys.readouterr().out
    assert "traditional" in out


def test_analyze_command_preset(capsys):
    assert main(["analyze", "nasa", "--requests", "4000", "--memories", "8,32"]) == 0
    out = capsys.readouterr().out
    assert "nasa" in out
    assert "LRU capacity-miss rates" in out
    assert "8 MB" in out and "32 MB" in out


def test_reproduce_command_model_only(tmp_path, capsys):
    out = tmp_path / "report.md"
    assert main(["reproduce", "--out", str(out), "--model-only"]) == 0
    text = out.read_text()
    assert "Table 1" in text and "Table 2" in text
    assert "Peak locality gain" in text
    assert "Figure 7" not in text  # simulations skipped


def test_reproduce_command_with_tiny_sims(tmp_path):
    out = tmp_path / "report.md"
    assert (
        main(
            [
                "reproduce",
                "--out",
                str(out),
                "--requests",
                "1500",
                "--traces",
                "calgary",
                "--nodes",
                "2",
            ]
        )
        == 0
    )
    text = out.read_text()
    assert "Figure 7" in text
    assert "calgary" in text


def test_analyze_command_npz(tmp_path, capsys):
    from repro.workload import synthesize

    trace = synthesize("calgary", num_requests=2000)
    path = tmp_path / "t.npz"
    trace.save(path)
    assert main(["analyze", str(path), "--memories", "4"]) == 0
    out = capsys.readouterr().out
    assert "calgary" in out


def test_simulate_verify_flag(capsys):
    assert (
        main(
            [
                "simulate", "calgary", "l2s",
                "--nodes", "2", "--requests", "1500", "--verify",
            ]
        )
        == 0
    )
    out = capsys.readouterr().out
    assert "verify: books balance" in out


CHAOS_DATA = "tests/chaos/data"


def test_faults_accepts_spec(capsys):
    assert main(["faults", "--spec", f"{CHAOS_DATA}/planted.json"]) == 0
    out = capsys.readouterr().out
    # The scenario's own policy, cluster size, and crash schedule ran.
    assert "l2s" in out
    assert "schedule:" in out and "crash(2)" in out


def test_faults_spec_positionals_override(capsys):
    assert (
        main(
            [
                "faults", "calgary", "traditional",
                "--spec", f"{CHAOS_DATA}/planted.json",
            ]
        )
        == 0
    )
    assert "traditional" in capsys.readouterr().out


def test_faults_spec_exclusive_with_schedule(capsys):
    assert (
        main(
            [
                "faults", "--spec", f"{CHAOS_DATA}/planted.json",
                "--schedule", "crash:1@0.1",
            ]
        )
        == 2
    )
    assert "exclusive" in capsys.readouterr().err


def test_faults_requires_trace_without_spec(capsys):
    assert main(["faults"]) == 2
    assert "required without --spec" in capsys.readouterr().err


def test_netfaults_accepts_spec(capsys):
    assert main(["netfaults", "--spec", f"{CHAOS_DATA}/smoke.json"]) == 0
    out = capsys.readouterr().out
    assert "l2s" in out


def test_netfaults_spec_exclusive_with_sweep(capsys):
    assert (
        main(["netfaults", "--spec", f"{CHAOS_DATA}/smoke.json", "--sweep"])
        == 2
    )
    assert "exclusive" in capsys.readouterr().err


def test_simulate_sanitize_exits_nonzero_on_a_leak(capsys, monkeypatch):
    from repro.des.sanitize import DESSanitizer

    args = ["simulate", "calgary", "l2s", "--nodes", "2", "--requests", "300",
            "--sanitize"]
    assert main(args) == 0
    assert "no leaks" in capsys.readouterr().out

    # Plant a leak: an operation that never ends.
    finish = DESSanitizer.finish

    def leaky_finish(self):
        self.op_begin("planted-op", "never ends")
        return finish(self)

    monkeypatch.setattr(DESSanitizer, "finish", leaky_finish)
    assert main(args) == 1
    assert "LEAKS DETECTED" in capsys.readouterr().out
