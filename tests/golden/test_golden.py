"""Re-simulate the golden grid and diff against the committed files.

A failure here means a change altered simulation behaviour.  If that
was intended, regenerate with ``PYTHONPATH=src python
tests/golden/regen.py`` and explain the diff in the same commit.
"""

from __future__ import annotations

import hashlib
import json
import os

import pytest

from .regen import CHAOS_TRIALS, SCENARIOS, chaos_path_for, path_for, render, render_chaos

#: The one pair of byte-identical golden files.  The traditional server
#: never reaches the 0.2 s client timeout on seed 2, so that ``timeout``
#: cell pins only that an armed timeout which never fires leaves the run
#: unchanged; seed 1 pins the timeout path itself.
IDENTICAL = {"traditional-plain-s2.json", "traditional-timeout-s2.json"}


@pytest.mark.parametrize(
    "policy,mode,seed",
    SCENARIOS,
    ids=[f"{p}-{m}-s{s}" for p, m, s in SCENARIOS],
)
def test_golden_simresult(policy, mode, seed):
    with open(path_for(policy, mode, seed), encoding="utf-8") as fh:
        expected = fh.read()
    assert render(policy, mode, seed) == expected


@pytest.mark.parametrize("trial", CHAOS_TRIALS)
def test_golden_chaos_report(trial):
    with open(chaos_path_for(trial), encoding="utf-8") as fh:
        expected = fh.read()
    assert render_chaos(trial) == expected


def test_golden_node_completions_are_the_measured_requests():
    # A node completes a request only when its reply leaves: a timed-out
    # or crashed request is not a completion at the node it died on.
    unbalanced = []
    for scenario in SCENARIOS:
        with open(path_for(*scenario), encoding="utf-8") as fh:
            stored = json.load(fh)
        result = stored.get("result", stored)
        if sum(result["node_completions"]) != result["requests_measured"]:
            unbalanced.append(os.path.basename(path_for(*scenario)))
    assert unbalanced == []


def test_golden_files_are_distinct():
    paths = [path_for(*scenario) for scenario in SCENARIOS]
    paths += [chaos_path_for(trial) for trial in CHAOS_TRIALS]
    by_digest = {}
    for path in paths:
        with open(path, "rb") as fh:
            digest = hashlib.sha256(fh.read()).hexdigest()
        by_digest.setdefault(digest, set()).add(os.path.basename(path))
    duplicates = [names for names in by_digest.values() if len(names) > 1]
    assert duplicates == [IDENTICAL]
