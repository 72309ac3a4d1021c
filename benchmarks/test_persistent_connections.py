"""P1 — persistent connections (HTTP/1.1), the paper's §4 extension.

The paper's algorithms target HTTP/1.0 and defer persistent connections
to Aron et al.  Expectations of that literature, checked here:

* L2S: connection migrations per request fall as connections lengthen
  (hand-off amortized), throughput holds or improves;
* LARD: one hand-off per connection plus front-end relays; locality
  decays with connection length (the PHTTP problem), but the front-end
  relay is cheaper than a full distribution decision;
* traditional: indifferent to connection length (no distribution).
"""

from conftest import run_once

from repro.experiments import bench_requests, render_table
from repro.servers import make_policy
from repro.sim import run_simulation
from repro.workload import sessionize, synthesize

LENGTHS = (1.0, 4.0, 8.0)


def test_persistent_connections(benchmark):
    trace = synthesize("calgary", num_requests=min(bench_requests(), 12_000))

    def compute():
        out = {}
        for k in LENGTHS:
            for policy in ("l2s", "lard", "traditional"):
                out[(policy, k)] = run_simulation(
                    sessionize(trace, k, seed=0), make_policy(policy), nodes=8
                )
        return out

    results = run_once(benchmark, compute)
    print("\npersistent connections (8 nodes, calgary):")
    rows = []
    for (policy, k), r in sorted(results.items()):
        rows.append(
            (
                policy,
                k,
                f"{r.throughput_rps:,.0f}",
                f"{r.forwarded_fraction:.2f}",
                f"{r.miss_rate:.3f}",
            )
        )
    print(render_table(["policy", "reqs/conn", "req/s", "migrations/req", "miss"], rows))

    # L2S: migrations per request fall with connection length.
    assert (
        results[("l2s", 8.0)].forwarded_fraction
        < results[("l2s", 1.0)].forwarded_fraction
    )
    # L2S throughput holds (within noise) or improves.
    assert (
        results[("l2s", 8.0)].throughput_rps
        > 0.9 * results[("l2s", 1.0)].throughput_rps
    )
    # LARD: exactly one hand-off per connection -> ~1/k migrations.
    assert results[("lard", 8.0)].forwarded_fraction < 0.3
    # LARD's locality decays with connection length (misses rise).
    assert results[("lard", 8.0)].miss_rate >= results[("lard", 1.0)].miss_rate
    # Traditional is indifferent (no distribution at all).
    t1 = results[("traditional", 1.0)].throughput_rps
    t8 = results[("traditional", 8.0)].throughput_rps
    assert 0.8 < t8 / t1 < 1.25
