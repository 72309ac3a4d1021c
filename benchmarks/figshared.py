"""Shared setup and assertions for the figure 7-10 scaling benchmarks."""

from __future__ import annotations

from repro.experiments import ScalingExperiment


def print_figure(exp: ScalingExperiment, figure: str) -> None:
    print(f"\n{figure}: throughput (req/s) for the {exp.trace} trace")
    print(exp.render())


def figure_experiment(
    benchmark, scaling_store, trace: str, figure: str, **shape_kwargs
) -> ScalingExperiment:
    """The setup shared by every figure 7-10 benchmark: run the trace's
    scaling experiment exactly once under pytest-benchmark timing, print
    the figure, and assert the common paper shape.  Returns the
    experiment for trace-specific assertions."""
    exp = benchmark.pedantic(
        scaling_store.get, args=(trace,), rounds=1, iterations=1
    )
    print_figure(exp, figure)
    assert_paper_shape(exp, **shape_kwargs)
    return exp


def assert_paper_shape(
    exp: ScalingExperiment,
    l2s_within: float = 0.45,
    l2s_over_lard_at_16: float = 1.0,
    lard_plateaus: bool = True,
) -> None:
    """The shape claims common to figures 7-10.

    * the model bound dominates every simulated system;
    * every system scales from 2 to 16 nodes (LARD may plateau late);
    * at 16 nodes: L2S >= LARD (within ``l2s_over_lard_at_16`` slack)
      and L2S > traditional by a wide margin;
    * L2S lands within ``l2s_within`` of the model bound at 16 nodes
      (the paper achieves 22%; our closed-loop regime is documented to
      land near 20-45% depending on the trace);
    * with ``lard_plateaus``, LARD saturates: its 8 -> 16 node gain is
      small (front-end bound).  NASA's expensive replies keep LARD
      back-end-bound below the front-end limit, so its curve still grows
      at 16 nodes — there the check is skipped.
    """
    series = exp.throughput_series()
    n_idx = {n: i for i, n in enumerate(exp.node_counts)}
    i16, i8, i2 = n_idx[16], n_idx[8], n_idx[2]

    for system in ("l2s", "lard", "traditional"):
        for i in range(len(exp.node_counts)):
            assert series[system][i] <= series["model"][i] * 1.08, (
                f"{system} exceeds the model bound at "
                f"{exp.node_counts[i]} nodes"
            )

    # Scaling from 2 to 16 nodes for every system.
    for system in ("l2s", "lard", "traditional"):
        assert series[system][i16] > series[system][i2], f"{system} did not scale"

    l2s16, lard16, trad16 = (
        series["l2s"][i16],
        series["lard"][i16],
        series["traditional"][i16],
    )
    assert l2s16 >= lard16 * l2s_over_lard_at_16
    assert l2s16 > 1.5 * trad16
    assert l2s16 >= (1.0 - l2s_within) * series["model"][i16]

    if lard_plateaus:
        # LARD's front-end plateau: the 8->16 gain is far below 2x.
        assert series["lard"][i16] < 1.5 * series["lard"][i8]

    # LARD forwards 100% of requests; L2S forwards fewer.
    fwd = exp.metric_series("forwarded_fraction")
    assert fwd["lard"][i16] == 1.0
    assert fwd["l2s"][i16] < 1.0
    assert fwd["traditional"][i16] == 0.0
