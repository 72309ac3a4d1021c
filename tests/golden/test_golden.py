"""Re-simulate the golden grid and diff against the committed JSON.

A failure here means a change altered simulation behaviour.  If that
was intended, regenerate with ``PYTHONPATH=src python
tests/golden/regen.py`` and explain the diff in the same commit.
"""

from __future__ import annotations

import pytest

from .regen import SCENARIOS, canonical, path_for, simulate


@pytest.mark.parametrize(
    "policy,mode,seed",
    SCENARIOS,
    ids=[f"{p}-{m}-s{s}" for p, m, s in SCENARIOS],
)
def test_golden_simresult(policy, mode, seed):
    with open(path_for(policy, mode, seed), encoding="utf-8") as fh:
        expected = fh.read()
    assert canonical(simulate(policy, mode, seed)) == expected
