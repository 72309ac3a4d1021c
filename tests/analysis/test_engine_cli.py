"""CLI surface of the v2 lint driver: --explain, --select/--ignore
validation, --sarif output shape, and registry/doc sync."""

import json
from pathlib import Path

import pytest

from repro.analysis.engine import main as engine_main
from repro.analysis.rules import REGISTRY, RULES, explain, rule_ids
from repro.analysis.sarif import to_sarif
from repro.analysis.simlint import Finding

CLEAN = "def f(x):\n    return x + 1\n"


@pytest.fixture()
def clean_pkg(tmp_path):
    pkg = tmp_path / "cleanpkg"
    pkg.mkdir()
    (pkg / "__init__.py").write_text("")
    (pkg / "mod.py").write_text(CLEAN)
    return pkg


def lint(args):
    return engine_main([str(a) for a in args])


# -- registry ---------------------------------------------------------------


def test_registry_covers_v1_and_v2_rules():
    ids = rule_ids()
    for rid in [f"REP00{i}" for i in range(1, 9)]:
        assert rid in ids
    for rid in [f"REP10{i}" for i in range(1, 8)]:
        assert rid in ids


def test_registry_and_rules_dict_in_sync():
    assert set(RULES) == set(REGISTRY)
    for rid, rule in REGISTRY.items():
        assert rule.id == rid
        assert rule.summary == RULES[rid]
        assert rule.explain.strip(), f"{rid} has no explanation"


@pytest.mark.parametrize("rid", rule_ids())
def test_docs_catalog_has_a_row_per_rule(rid):
    docs = Path(__file__).resolve().parents[2] / "docs" / "ANALYSIS.md"
    assert f"| {rid} | {REGISTRY[rid].name} |" in docs.read_text()


def test_explain_every_rule():
    for rid in rule_ids():
        text = explain(rid)
        assert rid in text


# -- CLI flags --------------------------------------------------------------


def test_explain_flag(capsys):
    assert lint(["--explain", "REP104"]) == 0
    out = capsys.readouterr().out
    assert "REP104" in out


def test_explain_unknown_rule(capsys):
    assert lint(["--explain", "REP999"]) == 2
    assert "unknown rule" in capsys.readouterr().err


def test_list_rules_lists_all(capsys):
    assert lint(["--list-rules"]) == 0
    out = capsys.readouterr().out
    for rid in rule_ids():
        assert rid in out


def test_select_unknown_rule_rejected(clean_pkg, capsys):
    assert lint([clean_pkg, "--select", "REP999"]) == 2
    assert "unknown rules" in capsys.readouterr().err


def test_ignore_unknown_rule_rejected(clean_pkg, capsys):
    assert lint([clean_pkg, "--ignore", "NOPE"]) == 2
    assert "unknown rules" in capsys.readouterr().err


def test_ignore_drops_findings(tmp_path, capsys):
    pkg = tmp_path / "sim"
    pkg.mkdir()
    (pkg / "__init__.py").write_text("")
    (pkg / "mod.py").write_text(
        "import random\n\n\ndef f():\n    return random.random()\n"
    )
    assert lint([pkg]) == 1
    capsys.readouterr()
    assert lint([pkg, "--ignore", "REP001"]) == 0


def test_clean_package_exits_zero(clean_pkg, capsys):
    assert lint([clean_pkg]) == 0
    assert "ok: 0 findings" in capsys.readouterr().out


# -- SARIF ------------------------------------------------------------------


def test_sarif_flag_writes_valid_log(tmp_path, capsys):
    pkg = tmp_path / "sim"
    pkg.mkdir()
    (pkg / "__init__.py").write_text("")
    (pkg / "mod.py").write_text(
        "import random\n\n\ndef f():\n    return random.random()\n"
    )
    sarif_path = tmp_path / "out.sarif"
    assert lint([pkg, "--sarif", sarif_path]) == 1
    capsys.readouterr()
    log = json.loads(sarif_path.read_text())
    assert log["version"] == "2.1.0"
    run = log["runs"][0]
    assert run["tool"]["driver"]["name"] == "simlint"
    results = run["results"]
    assert results and results[0]["ruleId"] == "REP001"
    loc = results[0]["locations"][0]["physicalLocation"]
    assert loc["region"]["startLine"] == 5


def test_sarif_trace_becomes_related_locations():
    f = Finding(
        "pkg/util.py", 5, 4, "REP104", "allocation on hot path",
        trace=(
            "pkg/core.py:4: step (marked hotpath)",
            "pkg/util.py:1: expand (called by step)",
        ),
    )
    log = json.loads(to_sarif([f]))
    result = log["runs"][0]["results"][0]
    related = result["relatedLocations"]
    assert len(related) == 2
    assert related[0]["physicalLocation"]["region"]["startLine"] == 4
    assert "marked hotpath" in related[0]["message"]["text"]


def test_sarif_rules_metadata_present():
    log = json.loads(to_sarif([]))
    rules = log["runs"][0]["tool"]["driver"]["rules"]
    assert {r["id"] for r in rules} == set(rule_ids())
