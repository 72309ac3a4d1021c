"""Delta-debugging shrinker: minimality, determinism, budget honesty.

The expensive end-to-end property — the planted fixture shrinking to
the same byte-identical <= 3-event reproducer with the kernel's runtime
sanitizer off and on — is the contract that makes soak-produced
reproducers trustworthy.
"""

import os

import pytest

from repro.chaos.oracle import OracleConfig
from repro.chaos.shrink import ShrinkResult, shrink_scenario
from repro.chaos.spec import PlanItem, Scenario

DATA = os.path.join(os.path.dirname(__file__), "data")
STRICT = OracleConfig(strict=True)


def _planted():
    return Scenario.load(os.path.join(DATA, "planted.json"))


@pytest.fixture(scope="module")
def reference_minimal():
    """The minimal reproducer under the default engine configuration."""
    return shrink_scenario(_planted(), oracle_config=STRICT)


class TestPlantedFixture:
    def test_shrinks_to_a_tiny_reproducer(self):
        result = shrink_scenario(_planted(), oracle_config=STRICT)
        assert result.scenario.event_count() <= 3
        assert [i.kind for i in result.scenario.plan] == ["crash"]
        assert result.events_after < result.events_before
        assert not result.budget_exhausted

    def test_shrink_is_deterministic(self):
        a = shrink_scenario(_planted(), oracle_config=STRICT)
        b = shrink_scenario(_planted(), oracle_config=STRICT)
        assert a.scenario.to_json() == b.scenario.to_json()
        assert a.runs == b.runs

    @pytest.mark.parametrize("sanitize", ["0", "1"])
    def test_minimal_reproducer_is_engine_independent(
        self, monkeypatch, sanitize, reference_minimal
    ):
        monkeypatch.setenv("REPRO_DES_SANITIZE", sanitize)
        result = shrink_scenario(_planted(), oracle_config=STRICT)
        expected = reference_minimal.scenario.to_json()
        assert result.scenario.to_json() == expected
        assert result.scenario.event_count() <= 3

    def test_minimal_scenario_still_fails(self, reference_minimal):
        from repro.chaos.runner import run_scenario

        outcome = run_scenario(reference_minimal.scenario, STRICT)
        assert not outcome.passed


class TestContracts:
    def test_passing_scenario_is_rejected(self):
        smoke = Scenario.load(os.path.join(DATA, "smoke.json"))
        with pytest.raises(ValueError, match="does not fail"):
            shrink_scenario(smoke)

    def test_predicate_is_memoized(self):
        planted = _planted()
        evaluated = []

        def predicate(scenario):
            evaluated.append(scenario.to_json())
            # Fails iff the crash item survives.
            return any(i.kind == "crash" for i in scenario.plan)

        result = shrink_scenario(planted, predicate=predicate)
        assert [i.kind for i in result.scenario.plan] == ["crash"]
        assert len(evaluated) == len(set(evaluated))

    def test_budget_exhaustion_is_reported(self):
        planted = _planted()

        def predicate(scenario):
            return any(i.kind == "crash" for i in scenario.plan)

        result = shrink_scenario(planted, predicate=predicate, max_runs=2)
        assert isinstance(result, ShrinkResult)
        assert result.budget_exhausted
        # Whatever survived the tiny budget must still be a failure.
        assert any(i.kind == "crash" for i in result.scenario.plan)

    def test_magnitudes_shrink_toward_benign(self):
        scenario = Scenario(
            name="mag",
            seed=3,
            trace="calgary",
            requests=150,
            policy="traditional",
            nodes=2,
            cache_mb=8,
            horizon_s=0.5,
            retries=1,
            plan=(
                PlanItem("loss", rate=0.4),
                PlanItem("slow", node=1, start=0.1, end=0.2, factor=0.2),
            ),
        )

        def predicate(s):
            # "Fails" while the loss rate stays above 10%.
            return any(
                i.kind == "loss" and i.rate > 0.1 for i in s.plan
            )

        result = shrink_scenario(scenario, predicate=predicate)
        (loss,) = [i for i in result.scenario.plan if i.kind == "loss"]
        assert 0.1 < loss.rate <= 0.2  # halved as far as still failing
