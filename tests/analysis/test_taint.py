"""Planted-bug fixtures for the nondeterminism taint pass (REP101–103).

Each positive fixture plants a source flowing ≥2 calls deep into a sink
and asserts both the rule and the provenance: the reported trace must
name the source module/line and every intermediate hop."""

from repro.analysis.callgraph import CallGraph
from repro.analysis.modules import ProjectModel
from repro.analysis import taint


def run(sources):
    model = ProjectModel.from_sources(sources)
    return taint.run(model, CallGraph.build(model))


def rules_of(findings):
    return [f.rule for f in findings]


# -- REP101: scheduling sinks ---------------------------------------------


def test_rep101_wall_clock_two_calls_deep():
    findings = run({
        "pkg.clockutil": (
            "import time\n"
            "\n"
            "def read_clock():\n"
            "    return time.time()\n"
        ),
        "pkg.middle": (
            "from .clockutil import read_clock\n"
            "\n"
            "def pick_delay(scale):\n"
            "    base = read_clock()\n"
            "    return base * scale\n"
        ),
        "pkg.sim": (
            "from .middle import pick_delay\n"
            "\n"
            "def drive(env):\n"
            "    d = pick_delay(2.0)\n"
            "    env.call_later(d, None)\n"
        ),
    })
    assert rules_of(findings) == ["REP101"]
    f = findings[0]
    assert f.path == "pkg/sim.py"
    assert f.line == 5
    # Provenance: source module/line, both hops, and the sink.
    trace = "\n".join(f.trace)
    assert "pkg/clockutil.py:4: source (wall-clock): time.time()" in trace
    assert "pick_delay" in trace and "read_clock" in trace
    assert "sink: scheduling call call_later" in trace
    # ≥2 calls deep: source line, two propagation steps, sink line.
    assert len(f.trace) >= 4


def test_rep101_unseeded_rng_through_argument():
    findings = run({
        "pkg.entropy": (
            "import random\n"
            "\n"
            "def jitter():\n"
            "    return random.random()\n"
        ),
        "pkg.kernel": (
            "def schedule_at(env, delay):\n"
            "    env.call_later(delay, None)\n"
        ),
        "pkg.sim": (
            "from .entropy import jitter\n"
            "from .kernel import schedule_at\n"
            "\n"
            "def drive(env):\n"
            "    schedule_at(env, jitter())\n"
        ),
    })
    # The tainted argument crosses into schedule_at and reaches the
    # sink there — the sink is 2 calls from the source.
    assert "REP101" in rules_of(findings)
    f = [x for x in findings if x.rule == "REP101"][0]
    assert f.path == "pkg/kernel.py"
    trace = "\n".join(f.trace)
    assert "source (rng): global RNG draw random.random()" in trace
    assert "passed to" in trace


def test_rep101_clean_when_rng_is_seeded():
    findings = run({
        "pkg.sim": (
            "import random\n"
            "\n"
            "def delay():\n"
            "    rng = random.Random(42)\n"
            "    return rng.random()\n"
            "\n"
            "def drive(env):\n"
            "    env.call_later(delay(), None)\n"
        ),
    })
    assert findings == []


def test_rep101_wall_clock_through_from_imported_datetime_class():
    # ``from datetime import datetime`` binds a class, not a module; the
    # resolver must still see ``datetime.now()`` as a wall-clock read.
    findings = run({
        "pkg.sim": (
            "from datetime import datetime\n"
            "\n"
            "def drive(env):\n"
            "    env.call_later(datetime.now().second, None)\n"
        ),
    })
    assert rules_of(findings) == ["REP101"]
    assert "source (wall-clock): datetime.datetime.now()" in findings[0].trace[0]


def test_rep101_wall_clock_exempt_in_live_scope():
    findings = run({
        "repro.live.loop": (
            "import time\n"
            "\n"
            "def now_s():\n"
            "    return time.time()\n"
            "\n"
            "def drive(env):\n"
            "    env.call_later(now_s(), None)\n"
        ),
    })
    assert findings == []


def test_rep101_suppression_comment():
    findings = run({
        "pkg.sim": (
            "import time\n"
            "\n"
            "def stamp():\n"
            "    return time.time()\n"
            "\n"
            "def drive(env):\n"
            "    env.call_later(stamp(), None)  # simlint: disable=REP101\n"
        ),
    })
    assert findings == []


# -- REP102: SimResult sinks ----------------------------------------------


def test_rep102_entropy_into_simresult():
    findings = run({
        "pkg.ids": (
            "import uuid\n"
            "\n"
            "def run_id():\n"
            "    return str(uuid.uuid4())\n"
        ),
        "pkg.report": (
            "from .ids import run_id\n"
            "\n"
            "def tag():\n"
            "    return run_id()\n"
        ),
        "pkg.sim": (
            "from .report import tag\n"
            "\n"
            "def finish(SimResult):\n"
            "    return SimResult(name=tag())\n"
        ),
    })
    assert rules_of(findings) == ["REP102"]
    trace = "\n".join(findings[0].trace)
    assert "source (entropy): uuid.uuid4()" in trace
    assert "sink: SimResult(...) construction" in trace
    assert len(findings[0].trace) >= 4  # 2-call-deep provenance


def test_rep102_clean_simresult():
    findings = run({
        "pkg.sim": (
            "def finish(SimResult, hits):\n"
            "    return SimResult(hits=hits)\n"
        ),
    })
    assert findings == []


# -- REP103: scenario-generation sinks ------------------------------------


def test_rep103_set_order_into_scenario():
    findings = run({
        "pkg.picker": (
            "def pick_node(nodes):\n"
            "    victims = set(nodes)\n"
            "    for v in victims:\n"
            "        return v\n"
        ),
        "pkg.gen": (
            "from .picker import pick_node\n"
            "\n"
            "def plan(Scenario, nodes):\n"
            "    victim = pick_node(nodes)\n"
            "    return Scenario(node=victim)\n"
        ),
    })
    assert rules_of(findings) == ["REP103"]
    trace = "\n".join(findings[0].trace)
    assert "source (set-order)" in trace
    assert "sink: Scenario(...) scenario construction" in trace


def test_rep103_sorted_launders_set_order():
    findings = run({
        "pkg.picker": (
            "def pick_node(nodes):\n"
            "    victims = set(nodes)\n"
            "    for v in sorted(victims):\n"
            "        return v\n"
        ),
        "pkg.gen": (
            "from .picker import pick_node\n"
            "\n"
            "def plan(Scenario, nodes):\n"
            "    return Scenario(node=pick_node(nodes))\n"
        ),
    })
    assert findings == []


def test_rep103_scenario_generator_method_sink():
    findings = run({
        "pkg.gen": (
            "import os\n"
            "\n"
            "class ScenarioGenerator:\n"
            "    def generate(self, seed):\n"
            "        return seed\n"
            "\n"
            "def entropy_seed():\n"
            "    return os.urandom(8)\n"
            "\n"
            "def drive():\n"
            "    g = ScenarioGenerator()\n"
            "    return g.generate(entropy_seed())\n"
        ),
    })
    assert "REP103" in rules_of(findings)
    trace = "\n".join(findings[0].trace)
    assert "source (entropy): os.urandom()" in trace
