"""The lazy package exports, as the runtime and the static tools see them.

``repro``, ``repro.cluster`` and ``repro.live`` export their public names
lazily (PEP 562), so a live back-end worker starts from a lean import
graph.  These tests pin three things:

* the worker's import graph stays lean;
* every exported name still resolves to its defining module's object;
* simlint's project model still resolves every re-export, because the
  packages keep their import statements under ``TYPE_CHECKING``.
"""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.analysis.modules import ProjectModel

SRC = Path(__file__).resolve().parent.parent / "src"

#: The only repro modules a back-end worker may load.
WORKER_MODULES = {
    "repro",
    "repro.cluster",
    "repro.cluster.cache",
    "repro.live",
    "repro.live.backend",
    "repro.live.fileset",
    "repro.live.http11",
}

#: Every intra-project import the project model cannot resolve to a
#: class, function or module, by the name it imports -> the importing
#: modules.  All are module-level constants (or ``__version__``), which
#: the model does not track; a re-export it stops seeing shows up here.
UNRESOLVED = {
    "repro.__version__": ("repro.cli",),
    "repro.analysis.modules.CLOCK": ("repro.analysis.simlint",),
    "repro.analysis.modules.ENTROPY": ("repro.analysis.taint",),
    "repro.analysis.modules.RNG_DRAW": (
        "repro.analysis.simlint", "repro.analysis.taint",
    ),
    "repro.analysis.modules.RNG_UNSEEDED": (
        "repro.analysis.simlint", "repro.analysis.taint",
    ),
    "repro.analysis.modules.SEEDABLE_CTORS": ("repro.analysis.taint",),
    "repro.analysis.modules.WALL_CLOCK": (
        "repro.analysis.simlint", "repro.analysis.taint",
    ),
    "repro.analysis.rules.REGISTRY": (
        "repro.analysis", "repro.analysis.engine", "repro.analysis.sarif",
    ),
    "repro.analysis.rules.RULES": (
        "repro.analysis", "repro.analysis.engine", "repro.analysis.simlint",
    ),
    "repro.chaos.generator.DEFAULT_POLICIES": ("repro.chaos.cli",),
    "repro.cluster.node.CPU_BULK": ("repro.sim.lifecycle",),
    "repro.cluster.node.CPU_PROMPT": ("repro.cluster.network", "repro.sim.lifecycle"),
    "repro.cluster.policies.CACHE_POLICIES": ("repro.cluster",),
    "repro.des.core.NORMAL": ("repro.des.resources",),
    "repro.des.core.URGENT": (
        "repro.chaos.oracle", "repro.cluster.network", "repro.faults.injector",
        "repro.faults.timeline", "repro.sim.driver", "repro.sim.lifecycle",
    ),
    "repro.experiments.figures.DEFAULT_NODE_COUNTS": ("repro.experiments",),
    "repro.experiments.figures.DEFAULT_SYSTEMS": ("repro.experiments",),
    "repro.live.chaos.AVAILABILITY_THRESHOLD": ("repro.live.cli",),
    "repro.live.cluster.MB": ("repro.live.chaos",),
    "repro.live.compare.HANDOFF_THRESHOLD": ("repro.live.cli",),
    "repro.live.faultproxy.MIN_HEALTHY": ("repro.live.frontend",),
    "repro.live.compare.HIT_RATIO_THRESHOLD": ("repro.live.cli",),
    "repro.model.parameters.DEFAULT_PARAMETERS": ("repro.model",),
    "repro.model.parameters.KB": ("repro.model",),
    "repro.model.parameters.MB": (
        "repro.chaos.generator", "repro.chaos.runner", "repro.cli",
        "repro.cluster.config", "repro.experiments.extra", "repro.farm.runner",
        "repro.model", "repro.sim.runner",
    ),
    "repro.model.surfaces.DEFAULT_HIT_RATES": ("repro.model",),
    "repro.model.surfaces.DEFAULT_SIZES_KB": ("repro.model",),
    "repro.netfaults.model.ARQ_RETRY": ("repro.netfaults",),
    "repro.netfaults.model.DEFAULT_RELIABLE_KINDS": (
        "repro.netfaults", "repro.netfaults.protocol",
    ),
    "repro.netfaults.model.NETFAULT_KINDS": ("repro.netfaults",),
    "repro.servers.POLICIES": ("repro.cli",),
    "repro.sim.runner.DEFAULT_SIM_CACHE_BYTES": (
        "repro.experiments.figures", "repro.sim",
    ),
    "repro.workload.presets.DEFAULT_REQUESTS": ("repro.workload",),
    "repro.workload.presets.PRESETS": ("repro.workload",),
    "repro.workload.presets.TRACE_ORDER": (
        "repro.experiments.tables", "repro.workload",
    ),
}


@pytest.fixture(scope="module")
def model():
    return ProjectModel.load(SRC / "repro")


def test_backend_worker_imports_a_lean_graph():
    env = dict(os.environ, PYTHONPATH=str(SRC))
    code = "import json, sys, repro.live.backend; print(json.dumps(sorted(sys.modules)))"
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True,
        check=True,
    )
    loaded = json.loads(out.stdout)
    assert "numpy" not in loaded
    assert {m for m in loaded if m.split(".")[0] == "repro"} == WORKER_MODULES


@pytest.mark.parametrize("package", ["repro", "repro.cluster", "repro.live"])
def test_every_export_is_the_defining_modules_object(model, package):
    pkg = importlib.import_module(package)
    for name in pkg.__all__:
        # The static view names the defining module; the lazy runtime
        # lookup must land on the very same object.
        target = model.resolve(model.modules[package], name)
        if target is None:
            assert name in vars(pkg), name  # defined in the package itself
            continue
        module, _, leaf = target.rpartition(".")
        expected = getattr(importlib.import_module(module), leaf)
        assert getattr(pkg, name) is expected, name


def test_project_model_resolves_every_reexport(model):
    unresolved = {}
    for name, mod in model.modules.items():
        for bound, target in mod.imports.items():
            if not target.startswith("repro."):
                continue
            resolved = model.resolve(mod, bound)
            if resolved in model.classes or resolved in model.functions:
                continue
            if resolved in model.modules:
                continue
            unresolved.setdefault(resolved, []).append(name)
    assert {k: tuple(sorted(v)) for k, v in unresolved.items()} == UNRESOLVED
