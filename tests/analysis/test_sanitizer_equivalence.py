"""Sanitized runs must be observationally identical to unsanitized runs.

The sanitizer only *observes*: same SimResult field for field, same event
order, on every path a request or message can take.  These are the acceptance tests for
`Environment(sanitize=True)` being safe to flip on in CI smoke runs.
"""

import pytest

from repro.cluster import ClusterConfig
from repro.faults import RetryPolicy
from repro.model import MB
from repro.netfaults import NetFaultConfig
from repro.servers import make_policy
from repro.sim import Simulation
from repro.workload import build_fileset, generate_trace


@pytest.fixture(scope="module")
def trace():
    fs = build_fileset(200, 18 * 1024, 14 * 1024, 0.9, seed=3, name="santrace")
    return generate_trace(fs, 2500, seed=4, name="santrace")


def cfg(nodes=4, **kw):
    return ClusterConfig(
        nodes=nodes, cache_bytes=2 * MB, multiprogramming_per_node=8, **kw
    )


def run(trace, policy_name, sanitize, config=None, **kw):
    sim = Simulation(
        trace, make_policy(policy_name), config or cfg(), passes=2,
        sanitize=sanitize, **kw
    )
    return sim, sim.run()


@pytest.mark.parametrize("policy_name", ["l2s", "lard", "round-robin"])
def test_sanitized_result_identical(trace, policy_name):
    _, plain = run(trace, policy_name, sanitize=False)
    sim, sanitized = run(trace, policy_name, sanitize=True)
    assert sanitized == plain
    report = sim.env.sanitizer.finish()
    assert report.clean, report.render()
    assert sim.env.sanitizer.violations == []


def test_sanitized_canonical_run_is_leak_free(trace):
    sim, _ = run(trace, "l2s", sanitize=True)
    san = sim.env.sanitizer
    report = san.finish()
    assert report.clean, report.render()
    # The run drained, and every entry it scheduled — each station
    # completion, kick and message leg — went through the checked pop.
    assert san.pops > 1000
    assert san.pops == sim.env.event_count


#: (policy, run options) of the paths beyond the plain request chain:
#: client timeouts cancelling requests mid-stage, the ack/retry protocol
#: on a lossy fabric, partitioned-DFS remote reads (lossy, so fallbacks
#: happen too), and lard-ng's dispatcher round-trip.
PATHS = {
    "timeout": ("lard", dict(retry=RetryPolicy(timeout_s=0.05))),
    "netloss": (
        "l2s",
        dict(config=cfg(net_faults=NetFaultConfig(loss_rate=0.02, seed=1))),
    ),
    "dfs": (
        "lard",
        dict(
            config=cfg(
                replicated_disks=False,
                net_faults=NetFaultConfig(loss_rate=0.02, seed=2),
            )
        ),
    ),
    "lard-ng": ("lard-ng", {}),
}


@pytest.mark.parametrize("path", sorted(PATHS))
def test_sanitized_paths_identical_and_leak_free(trace, path):
    policy_name, kw = PATHS[path]
    _, plain = run(trace, policy_name, sanitize=False, **kw)
    sim, sanitized = run(trace, policy_name, sanitize=True, **kw)
    assert sanitized == plain
    report = sim.env.sanitizer.finish()
    assert report.clean, report.render()
    assert sim.env.sanitizer.violations == []


def test_env_var_sanitize_matches_explicit(trace, monkeypatch):
    sim_explicit, explicit = run(trace, "l2s", sanitize=True)
    monkeypatch.setenv("REPRO_DES_SANITIZE", "1")
    sim_env, via_env = run(trace, "l2s", sanitize=None)
    assert sim_env.env.sanitized
    assert via_env == explicit
