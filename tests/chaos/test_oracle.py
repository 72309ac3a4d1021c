"""Invariant oracles: the clean case, strict mode, floors, dedup."""

import os
from types import SimpleNamespace

import pytest

from repro.chaos.oracle import ChaosOracle, OracleConfig, availability_floor
from repro.chaos.runner import render_report, run_scenario
from repro.chaos.spec import PlanItem, Scenario

DATA = os.path.join(os.path.dirname(__file__), "data")


def _clean_scenario(**overrides):
    kwargs = dict(
        name="oracle-clean",
        seed=5,
        trace="calgary",
        requests=200,
        policy="traditional",
        nodes=2,
        cache_mb=8,
        horizon_s=0.6,
        retries=2,
        plan=(),
    )
    kwargs.update(overrides)
    return Scenario(**kwargs)


class TestCleanRun:
    def test_clean_run_passes_every_oracle(self):
        outcome = run_scenario(_clean_scenario())
        assert outcome.passed, [v.render() for v in outcome.violations]
        assert outcome.result is not None
        assert outcome.result.verify() == []

    def test_oracle_sampler_actually_sampled(self):
        scenario = _clean_scenario()
        outcome = run_scenario(scenario)
        assert outcome.passed
        # The mid-run sampler is part of the contract, not dead code:
        # the report mentions no violations precisely because it ran.
        assert "oracles: all passed" in render_report(outcome)

    def test_replay_is_deterministic(self):
        scenario = _clean_scenario()
        a = run_scenario(scenario)
        b = run_scenario(scenario)
        assert render_report(a) == render_report(b)
        assert a.result.throughput_rps == b.result.throughput_rps
        assert a.result.requests_measured == b.result.requests_measured


class TestStrictMode:
    def test_planted_fixture_fails_strict_only(self):
        planted = Scenario.load(os.path.join(DATA, "planted.json"))
        strict = run_scenario(planted, OracleConfig(strict=True))
        assert not strict.passed
        assert "strict_service" in {v.check for v in strict.violations}

    def test_clean_run_passes_strict(self):
        outcome = run_scenario(_clean_scenario(), OracleConfig(strict=True))
        assert outcome.passed, [v.render() for v in outcome.violations]


class TestAvailabilityFloor:
    def test_non_disruptive_plan_has_sharp_floor(self):
        s = _clean_scenario(plan=(
            PlanItem("jitter", seconds=1e-4),
            PlanItem("dup", rate=0.01),
            PlanItem("slow", node=1, start=0.1, end=0.2, factor=0.5),
        ))
        # The sharp case returns exactly 1.0 (the oracle then demands
        # zero failures); >= keeps the check float-identity-free.
        assert availability_floor(s) >= 1.0

    def test_crash_lowers_the_floor(self):
        s = _clean_scenario(
            nodes=4,
            plan=(PlanItem("crash", node=1, start=0.1, end=0.3),),
        )
        assert availability_floor(s) < 1.0

    def test_spof_policies_get_a_deeper_floor(self):
        plan = (PlanItem("crash", node=0, start=0.1, end=0.3),)
        spof = _clean_scenario(nodes=4, policy="lard", plan=plan)
        dist = _clean_scenario(nodes=4, policy="l2s", plan=plan)
        assert availability_floor(spof) < availability_floor(dist)


class TestViolationBookkeeping:
    def test_duplicate_findings_are_recorded_once(self):
        oracle = ChaosOracle(_clean_scenario())
        oracle._record("policy_invariant", "same problem")
        oracle._record("policy_invariant", "same problem")
        oracle._record("policy_invariant", "different problem")
        assert len(oracle.violations) == 2

    def test_finish_requires_attachment(self):
        result = run_scenario(_clean_scenario()).result
        oracle = ChaosOracle(_clean_scenario())
        with pytest.raises(RuntimeError):
            oracle.finish(result)


class TestFaultedRuns:
    def test_crash_with_retries_passes_default_oracles(self):
        s = _clean_scenario(
            name="oracle-crash",
            nodes=4,
            requests=300,
            policy="l2s",
            retries=4,
            plan=(PlanItem("crash", node=2, start=0.1, end=0.3),),
        )
        outcome = run_scenario(s)
        assert outcome.passed, [v.render() for v in outcome.violations]

    def test_lard_backend_crash_keeps_view_non_negative(self):
        # Regression: zeroing the front-end's view entry on back-end
        # recovery double-credited connections that straddled the reboot
        # and drove the view negative (policy_invariant violations).
        s = _clean_scenario(
            name="oracle-lard-crash",
            nodes=4,
            requests=400,
            policy="lard",
            retries=4,
            plan=(
                PlanItem("dup", rate=0.01),
                PlanItem("crash", node=3, start=0.15, end=0.3),
            ),
        )
        outcome = run_scenario(s)
        checks = {v.check for v in outcome.violations}
        assert "policy_invariant" not in checks, [
            v.render() for v in outcome.violations
        ]


class _StubClusterConfig:
    multiprogramming_per_node = 16
    nodes = 4


class _StubSim:
    """Just enough Simulation (and SimResult) surface for the metastable
    check: ``result`` stands in for the run's SimResult."""

    def __init__(self, times, warmup_count=100, total=None):
        self.completion_times = list(times)
        self.result = SimpleNamespace(requests_warmup=warmup_count)
        self.requests_total = (
            total if total is not None else warmup_count + len(times)
        )
        self.config = _StubClusterConfig()


def _ramp_scenario():
    return _clean_scenario(
        name="oracle-metastable",
        plan=(PlanItem("ramp", start=0.3, end=0.5, share=0.5),),
    )


def _uniform(n, spacing):
    return [i * spacing for i in range(n)]


def _collapsing(n, split_fraction, fast, slow):
    split = int(n * split_fraction)
    times = [i * fast for i in range(split)]
    t = times[-1]
    for _ in range(n - split):
        t += slow
        times.append(t)
    return times


class TestMetastableCheck:
    """The metastable check against synthetic completion series.

    Driving `_metastable` directly keeps the fixtures exact: a genuine
    collapse (tail 50x below both yardsticks) must fire, and each
    exoneration — healthy tail, recovering cache re-warm, missing
    baseline — must not.
    """

    def _violations(self, times, baseline):
        oracle = ChaosOracle(_ramp_scenario())
        sim = _StubSim(times)
        oracle._metastable(sim, sim.result, baseline)
        return [v for v in oracle.violations if v.check == "metastable_failure"]

    def test_collapse_below_both_yardsticks_fires(self):
        # 1000/s before the window, 20/s ever after; baseline 1000/s.
        perturbed = _collapsing(1000, 0.45, fast=1e-3, slow=5e-2)
        baseline = _uniform(1000, 1e-3)
        assert self._violations(perturbed, baseline)

    def test_healthy_tail_passes(self):
        assert self._violations(_uniform(1000, 1e-3), _uniform(1000, 1e-3)) == []

    def test_rewarming_run_is_exonerated_by_its_own_pre_rate(self):
        # The whole perturbed run serves at 100/s (cache still warming,
        # tail no worse than before the crowd) while the baseline runs
        # at 1000/s: trailing the counterfactual is not collapse.
        assert self._violations(_uniform(1000, 1e-2), _uniform(1000, 1e-3)) == []

    def test_missing_baseline_skips_the_check(self):
        perturbed = _collapsing(1000, 0.45, fast=1e-3, slow=5e-2)
        assert self._violations(perturbed, None) == []

    def test_ratio_zero_disables(self):
        perturbed = _collapsing(1000, 0.45, fast=1e-3, slow=5e-2)
        oracle = ChaosOracle(_ramp_scenario(), OracleConfig(metastable_ratio=0.0))
        sim = _StubSim(perturbed)
        oracle._metastable(sim, sim.result, _uniform(1000, 1e-3))
        assert oracle.violations == []

    def test_end_to_end_ramp_scenario_passes(self):
        # A realistic seeded ramp through the full runner: counterfactual
        # baseline and all, the oracle must hold on a healthy cluster.
        s = _clean_scenario(
            name="oracle-ramp-e2e",
            nodes=4,
            requests=600,
            policy="lard",
            retries=4,
            plan=(PlanItem("ramp", start=0.3, end=0.55, share=0.6),),
        )
        outcome = run_scenario(s)
        assert outcome.passed, [v.render() for v in outcome.violations]
