#!/usr/bin/env python3
"""HTTP/1.1 study: what persistent connections do to each server design.

The paper's algorithms target HTTP/1.0; Section 4 notes persistent
connections need "slightly modifying the algorithms".  This study sweeps
the mean requests-per-connection and shows the divergent effects:

* L2S amortizes hand-offs (migrations per request fall) and holds its
  throughput;
* LARD hands a connection off once and relays later requests through
  the front-end — cheap relays, but locality decays (misses creep up);
* the traditional server doesn't distribute anything and doesn't care.

Run:  python examples/http11_study.py
"""

from repro.experiments import render_table
from repro.servers import make_policy
from repro.sim import run_simulation
from repro.workload import sessionize, synthesize

NODES = 8
LENGTHS = (1.0, 2.0, 4.0, 8.0, 16.0)


def main() -> None:
    trace = synthesize("calgary", num_requests=10_000, seed=11)
    print(
        f"persistent connections on {NODES} nodes "
        f"(calgary-like, {len(trace):,} requests)\n"
    )
    rows = []
    for policy_name in ("l2s", "lard", "traditional"):
        for k in LENGTHS:
            r = run_simulation(
                sessionize(trace, k, seed=0), make_policy(policy_name), nodes=NODES
            )
            rows.append(
                (
                    policy_name,
                    f"{k:.0f}",
                    f"{r.throughput_rps:,.0f}",
                    f"{r.forwarded_fraction:.2f}",
                    f"{r.miss_rate:.2%}",
                    f"{r.mean_cpu_idle:.2f}",
                )
            )
    print(
        render_table(
            ["policy", "reqs/conn", "req/s", "migrations/req", "miss", "idle"],
            rows,
        )
    )
    print(
        "\nReading the table: L2S's migrations-per-request column falls"
        "\nsteadily (hand-offs amortized over the connection), LARD's"
        "\nmigrations approach 1/k while its miss rate drifts up (relayed"
        "\nrequests always serve locally, whatever the content), and the"
        "\ntraditional rows barely move."
    )


if __name__ == "__main__":
    main()
