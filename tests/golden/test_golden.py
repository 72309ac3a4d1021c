"""Re-simulate the golden grid and diff against the committed files.

A failure here means a change altered simulation behaviour.  If that
was intended, regenerate with ``PYTHONPATH=src python
tests/golden/regen.py`` and explain the diff in the same commit.
"""

from __future__ import annotations

import pytest

from .regen import CHAOS_TRIALS, SCENARIOS, chaos_path_for, path_for, render, render_chaos


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
