"""Farm execution: ordered merging, determinism, crash retry.

The heart of the farm contract: for any worker count the merged output
is byte-identical to the serial run, and a worker process dying is
retried while a deterministic exception propagates.
"""

from __future__ import annotations

import os

import pytest

from repro.farm.runner import (
    FarmWorkerError,
    pool_map,
    run_chaos_farm,
    run_sweep,
)
from repro.farm.spec import SweepSpec

#: Small enough for CI, large enough to exercise every policy path.
_SPEC = SweepSpec(
    traces=("calgary",),
    policies=("traditional", "lard", "l2s"),
    node_counts=(4,),
    seeds=(0, 1),
    requests=400,
)


# -- pool_map ----------------------------------------------------------------


def _square(x: int) -> int:
    return x * x


def _crash_once(args) -> int:
    """Die hard on the first attempt per item; succeed on the retry.

    The flag file distinguishes attempts because a retry runs in a
    *fresh* worker process — in-process state cannot.
    """
    value, flag_dir = args
    flag = os.path.join(flag_dir, f"seen-{value}")
    if not os.path.exists(flag):
        with open(flag, "w") as fh:
            fh.write("1")
        os._exit(17)  # kill the worker, not just raise
    return value * 10


def _always_crash(args) -> int:
    os._exit(17)


def _raise_value_error(x: int) -> int:
    raise ValueError(f"deterministic failure on {x}")


def test_pool_map_serial_matches_parallel():
    items = list(range(20))
    assert pool_map(_square, items, workers=1) == [x * x for x in items]
    assert pool_map(_square, items, workers=3) == [x * x for x in items]


def test_pool_map_preserves_item_order_with_many_workers():
    items = list(range(40, 0, -1))
    assert pool_map(_square, items, workers=4) == [x * x for x in items]


def test_pool_map_retries_killed_workers(tmp_path):
    items = [(i, str(tmp_path)) for i in range(4)]
    assert pool_map(_crash_once, items, workers=2) == [0, 10, 20, 30]


def test_pool_map_gives_up_after_bounded_retries(tmp_path):
    items = [(i, str(tmp_path)) for i in range(2)]
    with pytest.raises(FarmWorkerError):
        pool_map(_always_crash, items, workers=2, crash_retries=1)


def test_pool_map_propagates_deterministic_exceptions():
    with pytest.raises(ValueError, match="deterministic failure"):
        pool_map(_raise_value_error, [1, 2, 3], workers=2)


def test_pool_map_progress_sees_every_item():
    seen = []
    pool_map(_square, [1, 2, 3], workers=1, progress=lambda i, r: seen.append((i, r)))
    assert seen == [(0, 1), (1, 4), (2, 9)]


# -- sweep farming -----------------------------------------------------------


def test_farm_matches_serial_byte_for_byte():
    serial = run_sweep(_SPEC, workers=1)
    farmed = run_sweep(_SPEC, workers=2)
    assert farmed.to_json() == serial.to_json()
    assert farmed.render() == serial.render()


def test_same_grid_twice_is_deterministic():
    first = run_sweep(_SPEC, workers=2)
    second = run_sweep(_SPEC, workers=2)
    assert first.to_json() == second.to_json()


def test_farm_results_line_up_with_shards():
    farm = run_sweep(_SPEC, workers=2)
    for shard, result in farm.rows():
        assert result.policy == shard.policy
        assert result.trace == shard.trace
        assert result.nodes == shard.nodes


def test_shard_results_match_direct_run_simulation():
    from repro.sim import run_simulation

    farm = run_sweep(_SPEC, workers=2)
    shard, result = farm.rows()[1]
    direct = run_simulation(
        shard.trace,
        shard.policy,
        nodes=shard.nodes,
        cache_bytes=_SPEC.cache_mb * 1024 * 1024,
        num_requests=_SPEC.requests,
        passes=_SPEC.passes,
        seed=shard.seed,
    )
    assert direct.throughput_rps == result.throughput_rps
    assert direct.node_completions == result.node_completions


def test_shard_result_unchanged_under_sanitizer():
    """A sanitized rerun of a farmed shard is observationally identical
    — the farm's free-list/fast-path reliance never leaks into results."""
    import dataclasses

    from repro.sim import run_simulation

    farm = run_sweep(_SPEC, workers=2)
    shard, result = farm.rows()[4]  # an l2s cell (the most stateful)
    sanitized = run_simulation(
        shard.trace,
        shard.policy,
        nodes=shard.nodes,
        cache_bytes=_SPEC.cache_mb * 1024 * 1024,
        num_requests=_SPEC.requests,
        passes=_SPEC.passes,
        seed=shard.seed,
        sanitize=True,
    )
    assert dataclasses.asdict(sanitized) == dataclasses.asdict(result)


# -- chaos farming -----------------------------------------------------------


def test_chaos_farm_matches_serial_verdicts():
    serial = run_chaos_farm(3, seed=11, workers=1, requests=300)
    farmed = run_chaos_farm(3, seed=11, workers=2, requests=300)
    assert farmed.outcomes == serial.outcomes
    assert farmed.failures == serial.failures
