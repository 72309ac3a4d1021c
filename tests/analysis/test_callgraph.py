"""Call-graph resolution unit suite: the project model's import/alias
resolution and the resolution styles the interprocedural passes rely on
(direct calls, constructors, self/super methods, annotated parameters,
``x = Cls(...)`` locals, self-attribute types)."""

from repro.analysis.callgraph import CallGraph
from repro.analysis.modules import ProjectModel


def build(sources):
    model = ProjectModel.from_sources(sources)
    return model, CallGraph.build(model)


def targets_of(graph, qualname):
    return [c.target for c in graph.callees(qualname) if c.target]


# -- module / import resolution -------------------------------------------


def test_direct_module_function_call():
    _, g = build({
        "pkg.a": "def helper():\n    return 1\n\ndef top():\n    return helper()\n",
    })
    assert targets_of(g, "pkg.a.top") == ["pkg.a.helper"]


def test_from_import_resolution():
    _, g = build({
        "pkg.util": "def f():\n    return 0\n",
        "pkg.b": "from .util import f\n\ndef top():\n    return f()\n",
    })
    assert targets_of(g, "pkg.b.top") == ["pkg.util.f"]


def test_from_import_with_alias():
    _, g = build({
        "pkg.util": "def f():\n    return 0\n",
        "pkg.b": "from .util import f as g\n\ndef top():\n    return g()\n",
    })
    assert targets_of(g, "pkg.b.top") == ["pkg.util.f"]


def test_module_import_dotted_call():
    _, g = build({
        "pkg.util": "def f():\n    return 0\n",
        "pkg.b": (
            "from . import util\n\ndef top():\n    return util.f()\n"
        ),
    })
    assert targets_of(g, "pkg.b.top") == ["pkg.util.f"]


def test_relative_parent_import():
    _, g = build({
        "pkg.sub.mod": (
            "from ..util import f\n\ndef top():\n    return f()\n"
        ),
        "pkg.util": "def f():\n    return 0\n",
    })
    assert targets_of(g, "pkg.sub.mod.top") == ["pkg.util.f"]


# -- classes and methods ---------------------------------------------------


def test_constructor_resolves_to_init():
    _, g = build({
        "pkg.a": (
            "class C:\n"
            "    def __init__(self):\n"
            "        self.x = 1\n"
            "\n"
            "def top():\n"
            "    return C()\n"
        ),
    })
    calls = g.callees("pkg.a.top")
    assert calls[0].class_target == "pkg.a.C"
    assert calls[0].target == "pkg.a.C.__init__"


def test_self_method_call():
    _, g = build({
        "pkg.a": (
            "class C:\n"
            "    def helper(self):\n"
            "        return 1\n"
            "    def top(self):\n"
            "        return self.helper()\n"
        ),
    })
    assert targets_of(g, "pkg.a.C.top") == ["pkg.a.C.helper"]


def test_inherited_method_via_mro():
    _, g = build({
        "pkg.base": (
            "class Base:\n"
            "    def helper(self):\n"
            "        return 1\n"
        ),
        "pkg.child": (
            "from .base import Base\n"
            "\n"
            "class Child(Base):\n"
            "    def top(self):\n"
            "        return self.helper()\n"
        ),
    })
    assert targets_of(g, "pkg.child.Child.top") == ["pkg.base.Base.helper"]


def test_super_call_skips_own_class():
    _, g = build({
        "pkg.a": (
            "class Base:\n"
            "    def setup(self):\n"
            "        return 1\n"
            "\n"
            "class Child(Base):\n"
            "    def setup(self):\n"
            "        return super().setup()\n"
        ),
    })
    assert targets_of(g, "pkg.a.Child.setup") == ["pkg.a.Base.setup"]


def test_annotated_parameter_type():
    _, g = build({
        "pkg.core": (
            "class Env:\n"
            "    def call_later(self, d, fn):\n"
            "        return d\n"
        ),
        "pkg.use": (
            "from .core import Env\n"
            "\n"
            "def top(env: Env):\n"
            "    return env.call_later(1, None)\n"
        ),
    })
    assert targets_of(g, "pkg.use.top") == ["pkg.core.Env.call_later"]


def test_local_constructor_assignment_type():
    _, g = build({
        "pkg.core": (
            "class Env:\n"
            "    def call_later(self, d, fn):\n"
            "        return d\n"
        ),
        "pkg.use": (
            "from .core import Env\n"
            "\n"
            "def top():\n"
            "    env = Env()\n"
            "    return env.call_later(1, None)\n"
        ),
    })
    assert "pkg.core.Env.call_later" in targets_of(g, "pkg.use.top")


def test_self_attribute_type_inference():
    _, g = build({
        "pkg.a": (
            "class Worker:\n"
            "    def work(self):\n"
            "        return 1\n"
            "\n"
            "class Owner:\n"
            "    def __init__(self):\n"
            "        self.w = Worker()\n"
            "    def top(self):\n"
            "        return self.w.work()\n"
        ),
    })
    assert "pkg.a.Worker.work" in targets_of(g, "pkg.a.Owner.top")


def test_unresolved_attr_call_keeps_name():
    _, g = build({
        "pkg.a": "def top(env):\n    return env.call_later(1, None)\n",
    })
    calls = g.callees("pkg.a.top")
    assert calls[0].target is None
    assert calls[0].attr_name == "call_later"


def test_external_call_records_module():
    _, g = build({
        "pkg.a": "import time\n\ndef top():\n    return time.sleep(1)\n",
    })
    calls = g.callees("pkg.a.top")
    assert calls[0].external == "time.sleep"


# -- reachability ----------------------------------------------------------


def test_reachable_from_reports_path():
    _, g = build({
        "pkg.a": (
            "def a():\n    return b()\n"
            "def b():\n    return c()\n"
            "def c():\n    return 1\n"
        ),
    })
    reach = g.reachable_from(["pkg.a.a"])
    assert reach["pkg.a.c"] == ("pkg.a.a", "pkg.a.b", "pkg.a.c")


def test_reachable_from_stops_at_barrier():
    _, g = build({
        "pkg.a": (
            "def a():\n    return b()\n"
            "def b():\n    return c()\n"
            "def c():\n    return 1\n"
        ),
    })
    reach = g.reachable_from(["pkg.a.a"], stop={"pkg.a.b"})
    assert "pkg.a.b" in reach  # reached, but not traversed through
    assert "pkg.a.c" not in reach


def test_subclasses_transitive():
    model, _ = build({
        "pkg.a": (
            "class Base:\n    pass\n"
            "class Mid(Base):\n    pass\n"
            "class Leaf(Mid):\n    pass\n"
        ),
    })
    subs = {c.qualname for c in model.subclasses("pkg.a.Base")}
    assert subs == {"pkg.a.Mid", "pkg.a.Leaf"}
