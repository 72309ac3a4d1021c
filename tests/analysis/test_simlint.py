"""simlint fixture tests: one positive and one negative per rule, the
suppression syntax, rule scoping by path, and the CLI surface.

The linting entry point is :func:`repro.analysis.lint_source`; ``path``
controls which rules are active (REP001 only fires in simulation
packages, REP003 only in kernel packages, REP108 only in ``overload``).
"""

import ast
import json

import pytest

from repro.analysis import RULES, lint_paths, lint_source
from repro.analysis.engine import lint_all, main as lint_main
from repro.analysis.rules import REGISTRY

SIM_PATH = "src/repro/sim/fixture.py"
KERNEL_PATH = "src/repro/des/fixture.py"
NEUTRAL_PATH = "tools/fixture.py"


def rules_of(findings):
    return [f.rule for f in findings]


# -- REP001: unseeded global RNG ------------------------------------------


def test_rep001_flags_global_random_module():
    src = "import random\nx = random.random()\n"
    assert rules_of(lint_source(src, SIM_PATH)) == ["REP001"]


def test_rep001_flags_from_import_draws():
    src = "from random import choice\nx = choice([1, 2])\n"
    assert rules_of(lint_source(src, SIM_PATH)) == ["REP001"]


def test_rep001_flags_numpy_global_rng():
    src = "import numpy as np\nx = np.random.rand(3)\n"
    assert rules_of(lint_source(src, SIM_PATH)) == ["REP001"]


def test_rep001_allows_seeded_instances():
    src = (
        "import random\nimport numpy as np\n"
        "rng = random.Random(42)\nx = rng.random()\n"
        "g = np.random.default_rng(42)\ny = g.normal()\n"
    )
    assert lint_source(src, SIM_PATH) == []


def test_rep001_scoped_to_simulation_packages():
    src = "import random\nx = random.random()\n"
    assert lint_source(src, NEUTRAL_PATH) == []


# -- REP002: unordered iteration ------------------------------------------


def test_rep002_flags_for_loop_over_set():
    src = "s = {1, 2, 3}\nfor x in s:\n    print(x)\n"
    assert rules_of(lint_source(src, NEUTRAL_PATH)) == ["REP002"]


def test_rep002_flags_list_over_dict_keys():
    src = "d = {}\nxs = list(d.keys())\n"
    assert rules_of(lint_source(src, NEUTRAL_PATH)) == ["REP002"]


def test_rep002_flags_comprehension_and_min_key():
    src = (
        "s = set()\n"
        "xs = [x for x in s]\n"
        "m = min(s, key=lambda x: x)\n"
    )
    assert rules_of(lint_source(src, NEUTRAL_PATH)) == ["REP002", "REP002"]


def test_rep002_allows_sorted_sets_and_ordered_structures():
    src = (
        "s = {1, 2, 3}\n"
        "for x in sorted(s):\n    print(x)\n"
        "d = {}\n"
        "for k in d:\n    print(k)\n"
        "xs = list(d)\n"
        "m = min(s)\n"  # plain min of a set is order-independent
    )
    assert lint_source(src, NEUTRAL_PATH) == []


# -- REP003: wall-clock reads ---------------------------------------------


def test_rep003_flags_time_time_in_kernel():
    src = "import time\nt = time.time()\n"
    assert rules_of(lint_source(src, KERNEL_PATH)) == ["REP003"]


def test_rep003_flags_datetime_now_in_kernel():
    src = "from datetime import datetime\nt = datetime.now()\n"
    assert rules_of(lint_source(src, KERNEL_PATH)) == ["REP003"]


@pytest.mark.parametrize(
    "src",
    [
        "import datetime\nt = datetime.datetime.now(datetime.timezone.utc)\n",
        "from datetime import datetime, timezone\nt = datetime.now(timezone.utc)\n",
    ],
    ids=["module-import", "from-import"],
)
def test_rep003_flags_tz_aware_datetime_now(src):
    assert rules_of(lint_source(src, KERNEL_PATH)) == ["REP003"]


def test_rep003_allows_wall_clock_outside_kernel():
    # The workload package may timestamp artifacts; only the kernel and
    # the simulation layers are forbidden the wall clock.
    src = "import time\nt = time.time()\n"
    assert lint_source(src, "src/repro/workload/fixture.py") == []


def test_rep003_allows_time_module_constants():
    src = "import time\nz = time.struct_time\n"
    assert lint_source(src, KERNEL_PATH) == []


# -- REP004: id()-based ordering ------------------------------------------


def test_rep004_flags_sort_key_id():
    src = "xs = []\nxs.sort(key=id)\n"
    assert rules_of(lint_source(src, NEUTRAL_PATH)) == ["REP004"]


def test_rep004_flags_id_comparison_and_lambda_key():
    src = (
        "a, b, xs = object(), object(), []\n"
        "flag = id(a) < id(b)\n"
        "ys = sorted(xs, key=lambda o: id(o))\n"
    )
    assert rules_of(lint_source(src, NEUTRAL_PATH)) == ["REP004", "REP004"]


def test_rep004_allows_id_equality_and_plain_keys():
    src = (
        "a, b, xs = object(), object(), []\n"
        "same = id(a) == id(b)\n"  # identity check, not an ordering
        "ys = sorted(xs, key=len)\n"
    )
    assert lint_source(src, NEUTRAL_PATH) == []


# -- REP005: mutable defaults ---------------------------------------------


def test_rep005_flags_mutable_defaults():
    src = "def f(x=[]):\n    return x\n\ndef g(y=dict()):\n    return y\n"
    assert rules_of(lint_source(src, NEUTRAL_PATH)) == ["REP005", "REP005"]


def test_rep005_allows_none_and_immutable_defaults():
    src = "def f(x=None, y=(), z=0):\n    return x, y, z\n"
    assert lint_source(src, NEUTRAL_PATH) == []


# -- REP006: swallowed exceptions -----------------------------------------


def test_rep006_flags_bare_except():
    src = "try:\n    pass\nexcept:\n    pass\n"
    assert rules_of(lint_source(src, NEUTRAL_PATH)) == ["REP006"]


def test_rep006_flags_blanket_pass_handler():
    src = "try:\n    pass\nexcept Exception:\n    pass\n"
    assert rules_of(lint_source(src, NEUTRAL_PATH)) == ["REP006"]


def test_rep006_allows_named_and_handled_exceptions():
    src = (
        "try:\n    pass\nexcept ValueError:\n    pass\n"
        "try:\n    pass\nexcept Exception:\n    raise\n"
    )
    assert lint_source(src, NEUTRAL_PATH) == []


# -- REP007: unseeded instance RNG in fault-injection code ----------------

FAULT_PATH = "src/repro/faults/fixture.py"
NETFAULT_PATH = "src/repro/netfaults/fixture.py"


def test_rep007_flags_zero_arg_random_instance():
    src = "import random\nrng = random.Random()\n"
    assert rules_of(lint_source(src, FAULT_PATH)) == ["REP007"]
    assert rules_of(lint_source(src, NETFAULT_PATH)) == ["REP007"]


def test_rep007_flags_from_import_constructor():
    src = "from random import Random\nrng = Random()\n"
    assert rules_of(lint_source(src, NETFAULT_PATH)) == ["REP007"]


def test_rep007_flags_numpy_constructors():
    src = (
        "import numpy as np\nfrom numpy.random import default_rng\n"
        "a = np.random.default_rng()\n"
        "b = np.random.RandomState()\n"
        "c = default_rng()\n"
    )
    assert rules_of(lint_source(src, NETFAULT_PATH)) == ["REP007"] * 3


def test_rep007_allows_seeded_constructors():
    src = (
        "import random\nimport numpy as np\n"
        "a = random.Random(7)\nb = random.Random(seed)\n"
        "c = np.random.default_rng(seed=3)\n"
    )
    assert lint_source(src, NETFAULT_PATH) == []


def test_rep007_only_fires_in_fault_packages():
    src = "import random\nrng = random.Random()\n"
    assert lint_source(src, NEUTRAL_PATH) == []
    assert lint_source(src, SIM_PATH) == []  # sim scope: REP001 territory


def test_rep007_netfaults_is_also_sim_and_kernel_scope():
    # The netfaults package is in REP001's and REP003's scope too: global-RNG
    # draws and wall-clock reads are flagged there like everywhere else
    # in the simulator.
    draws = "import random\nx = random.random()\n"
    assert rules_of(lint_source(draws, NETFAULT_PATH)) == ["REP001"]
    clock = "import time\nt = time.time()\n"
    assert rules_of(lint_source(clock, NETFAULT_PATH)) == ["REP003"]


def test_rep007_suppression():
    src = "import random\nrng = random.Random()  # simlint: disable=REP007\n"
    assert lint_source(src, FAULT_PATH) == []


# -- REP008: fragile oracle checks in chaos code ---------------------------

CHAOS_PATH = "src/repro/chaos/fixture.py"


def test_rep008_flags_float_literal_equality():
    src = "if served == 1.0:\n    pass\n"
    assert rules_of(lint_source(src, CHAOS_PATH)) == ["REP008"]


def test_rep008_flags_float_literal_inequality():
    src = "ok = rate != 0.5\n"
    assert rules_of(lint_source(src, CHAOS_PATH)) == ["REP008"]


def test_rep008_allows_ordered_float_comparisons():
    src = "if served < 0.95 or rate > 0.0:\n    pass\n"
    assert lint_source(src, CHAOS_PATH) == []


def test_rep008_allows_integer_equality():
    src = "if failed == 0:\n    pass\n"
    assert lint_source(src, CHAOS_PATH) == []


def test_rep008_flags_wall_clock_assert():
    src = "import time\nassert time.monotonic() < deadline\n"
    assert "REP008" in rules_of(lint_source(src, CHAOS_PATH))


@pytest.mark.parametrize(
    "src",
    [
        "import datetime\n"
        "assert datetime.datetime.now(datetime.timezone.utc) < deadline\n",
        "from datetime import datetime, timezone\n"
        "assert datetime.now(timezone.utc) < deadline\n",
    ],
    ids=["module-import", "from-import"],
)
def test_rep008_flags_tz_aware_wall_clock_assert(src):
    assert rules_of(lint_source(src, CHAOS_PATH)) == ["REP008"]


def test_rep008_allows_wall_clock_outside_asserts():
    # chaos soak legitimately budgets real minutes; the chaos package is
    # outside REP003's scope so a plain read is fine — only *asserting* on
    # one is fragile.
    src = "import time\ndeadline = time.monotonic() + 60.0\n"
    assert lint_source(src, CHAOS_PATH) == []


def test_rep008_only_fires_in_chaos_scope():
    src = "if served == 1.0:\n    pass\n"
    assert lint_source(src, NEUTRAL_PATH) == []
    assert lint_source(src, SIM_PATH) == []


def test_rep008_suppression():
    src = "ok = x == 0.25  # simlint: disable=REP008\n"
    assert lint_source(src, CHAOS_PATH) == []


# -- REP108: clocks in overload components ----------------------------------

#: (path, source, lines flagged REP108).  Overload components take time
#: only as a ``now`` argument, so the import itself is a finding.
REP108_CASES = {
    "import-and-call": (
        "pkg/overload/limiter.py",
        "import time\n\ndef observe(latency_s, now):\n"
        "    return time.monotonic()\n",
        [1, 4],
    ),
    "from-import-alias": (
        "pkg/overload/breaker.py",
        "from time import monotonic as mono\n\ndef trip():\n"
        "    return mono()\n",
        [1, 4],
    ),
    "from-import-class": (
        "pkg/overload/admission.py",
        "from datetime import datetime\n\ndef stamp():\n"
        "    return datetime.now()\n",
        [1, 4],
    ),
    "outside-overload": (
        "pkg/live/frontend.py",
        "import time\n\ndef now():\n    return time.monotonic()\n",
        [],
    ),
    "clean": (
        "pkg/overload/limiter.py",
        "def observe(latency_s, now):\n    return now + latency_s\n",
        [],
    ),
    "suppressed": (
        "pkg/overload/debug.py",
        "import time  # simlint: disable=REP108\n",
        [],
    ),
}


@pytest.mark.parametrize("case", sorted(REP108_CASES))
def test_rep108_overload_clock_use(case):
    path, src, lines = REP108_CASES[case]
    findings = lint_source(src, path)
    assert [(f.rule, f.line) for f in findings] == [
        ("REP108", line) for line in lines
    ]
    assert all("now" in f.message for f in findings)


def test_rep108_is_a_local_rule():
    assert REGISTRY["REP108"].pass_name == "local"


# -- live: the repro.live wall-clock exemption ------------------------------

LIVE_PATH = "src/repro/live/fixture.py"


def test_live_scope_permits_wall_clock():
    # Wall-clock reads are the point of repro.live: the policies' Clock
    # is real seconds there.
    src = "import time\nt = time.monotonic()\n"
    assert lint_source(src, LIVE_PATH) == []


def test_live_scope_permits_wall_clock_asserts():
    src = "import time\nassert time.monotonic() < deadline\n"
    assert lint_source(src, LIVE_PATH) == []


def test_live_scope_override_beats_kernel_scope():
    # A live package nested under a kernel-scoped directory name stays
    # exempt: the ``live`` exemption wins.
    src = "import time\nt = time.time()\n"
    assert lint_source(src, "src/repro/sim/live/fixture.py") == []
    assert lint_source(src, "src/repro/chaos/live/fixture.py") == []


def test_live_scope_keeps_other_rules_active():
    # Only REP003/REP008 are exempted; live code is still simulation-
    # adjacent for everything else (unseeded RNGs, set iteration, ...).
    src = "import random\nx = random.random()\n"
    assert rules_of(lint_source(src, LIVE_PATH)) == ["REP001"]
    src = "for n in {1, 2}:\n    dispatch(n)\n"
    assert rules_of(lint_source(src, LIVE_PATH)) == ["REP002"]


def test_kernel_scope_still_flags_wall_clock():
    # The exemption is live-only: kernel and chaos scopes keep erroring.
    clock = "import time\nt = time.time()\n"
    assert rules_of(lint_source(clock, KERNEL_PATH)) == ["REP003"]
    fragile = "import time\nassert time.monotonic() < deadline\n"
    assert "REP008" in rules_of(lint_source(fragile, CHAOS_PATH))


# -- suppression -----------------------------------------------------------


def test_suppression_by_rule():
    src = "s = {1}\nfor x in s:  # simlint: disable=REP002\n    print(x)\n"
    assert lint_source(src, NEUTRAL_PATH) == []


def test_suppression_blanket():
    src = "s = {1}\nfor x in s:  # simlint: disable\n    print(x)\n"
    assert lint_source(src, NEUTRAL_PATH) == []


def test_suppression_of_other_rule_does_not_apply():
    src = "s = {1}\nfor x in s:  # simlint: disable=REP001\n    print(x)\n"
    assert rules_of(lint_source(src, NEUTRAL_PATH)) == ["REP002"]


# -- select / syntax errors / sorting --------------------------------------


def test_select_restricts_rules():
    src = "def f(x=[]):\n    s = {1}\n    return [y for y in s]\n"
    assert rules_of(lint_source(src, NEUTRAL_PATH, select={"REP005"})) == [
        "REP005"
    ]


def test_syntax_error_reported_as_rep000():
    findings = lint_source("def f(:\n", NEUTRAL_PATH)
    assert [f.rule for f in findings] == ["REP000"]


def test_findings_sorted_by_location():
    src = "def f(x=[]):\n    return x\n\ns = {1}\nfor y in s:\n    print(y)\n"
    findings = lint_source(src, NEUTRAL_PATH)
    assert [f.line for f in findings] == sorted(f.line for f in findings)


# -- the repo itself + CLI -------------------------------------------------


def test_repo_src_is_lint_clean():
    """The CI gate: simlint has no findings on the shipped sources."""
    findings, files = lint_paths(["src"])
    assert findings == []
    assert files > 40


def test_cli_exit_codes_and_json(tmp_path, capsys):
    bad = tmp_path / "bad.py"
    bad.write_text("s = {1}\nfor x in s:\n    pass\n")
    good = tmp_path / "good.py"
    good.write_text("x = 1\n")

    assert lint_main([str(good)]) == 0
    capsys.readouterr()

    assert lint_main([str(bad)]) == 1
    out = capsys.readouterr().out
    assert "REP002" in out and "FAIL" in out

    assert lint_main([str(bad), "--format", "json"]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["counts"] == {"REP002": 1}
    assert payload["files_checked"] == 1
    assert payload["findings"][0]["rule"] == "REP002"


def test_cli_list_rules_and_unknown_select(capsys):
    assert lint_main(["--list-rules"]) == 0
    out = capsys.readouterr().out
    for rule in RULES:
        assert rule in out
    assert lint_main(["--select", "REP999"]) == 2


def test_cli_statistics(tmp_path, capsys):
    bad = tmp_path / "bad.py"
    bad.write_text("s = {1}\nfor x in s:\n    pass\nxs = list(s)\n")
    assert lint_main([str(bad), "--statistics"]) == 1
    out = capsys.readouterr().out
    assert "REP002: 2" in out


@pytest.mark.parametrize("rule", sorted(RULES))
def test_every_rule_has_a_catalog_entry(rule):
    assert RULES[rule]


def test_lint_all_parses_each_file_once(tmp_path, monkeypatch):
    pkg = tmp_path / "pkg"
    (pkg / "sim").mkdir(parents=True)
    (pkg / "__init__.py").write_text("")
    (pkg / "sim" / "__init__.py").write_text("")
    (pkg / "sim" / "core.py").write_text("def f(x):\n    return x\n")
    (tmp_path / "loose.py").write_text("x = 1\n")
    calls = []
    real_parse = ast.parse

    def counting_parse(source, *args, **kwargs):
        calls.append(kwargs.get("filename"))
        return real_parse(source, *args, **kwargs)

    monkeypatch.setattr(ast, "parse", counting_parse)
    findings, files = lint_all([str(pkg), str(tmp_path / "loose.py")])
    assert findings == []
    assert files == 4
    assert len(calls) == len(set(calls)) == files
