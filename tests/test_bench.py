"""The kernel perf gate: ``check_regression`` on synthetic payloads."""

from __future__ import annotations

import json

import pytest

from repro.bench import DEFAULT_TOLERANCE, check_regression


def _payload(requests=8000, requests_per_s=20_000.0, throughput_rps=1234.5):
    return {
        "meta": {"requests": requests},
        "scenarios": {
            "lard": {
                "requests_per_s": requests_per_s,
                "throughput_rps": throughput_rps,
            }
        },
    }


@pytest.fixture
def baseline(tmp_path):
    path = tmp_path / "BENCH_kernel.json"
    path.write_text(json.dumps(_payload()))
    return str(path)


def test_identical_run_passes(baseline):
    assert check_regression(_payload(), baseline) == []


def test_scale_mismatch_fails(baseline):
    failures = check_regression(_payload(requests=2000), baseline)
    assert len(failures) == 1
    assert "2000" in failures[0] and "8000" in failures[0]


def test_moved_throughput_fails(baseline):
    failures = check_regression(_payload(throughput_rps=1234.6), baseline)
    assert len(failures) == 1
    assert "simulated throughput moved" in failures[0]


def test_requests_per_s_drop_beyond_tolerance_fails(baseline):
    within = 20_000.0 * (1.0 - DEFAULT_TOLERANCE) + 1.0
    assert check_regression(_payload(requests_per_s=within), baseline) == []
    beyond = 20_000.0 * (1.0 - DEFAULT_TOLERANCE) - 1.0
    failures = check_regression(_payload(requests_per_s=beyond), baseline)
    assert len(failures) == 1
    assert "requests/s" in failures[0]


def test_fewer_events_per_second_alone_passes(tmp_path):
    """A change that removes events lowers events/s by design; only
    requests per wall second are gated."""
    base = _payload()
    base["scenarios"]["lard"]["events_per_s"] = 400_000.0
    path = tmp_path / "BENCH_kernel.json"
    path.write_text(json.dumps(base))
    fewer = _payload()
    fewer["scenarios"]["lard"]["events_per_s"] = 200_000.0
    assert check_regression(fewer, str(path)) == []


def test_baseline_without_requests_per_s_is_refused(tmp_path):
    old = _payload()
    del old["scenarios"]["lard"]["requests_per_s"]
    old["scenarios"]["lard"]["events_per_s"] = 400_000.0
    path = tmp_path / "BENCH_kernel.json"
    path.write_text(json.dumps(old))
    failures = check_regression(_payload(), str(path))
    assert len(failures) == 1 and "re-record" in failures[0]
