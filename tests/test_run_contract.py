"""Code outside ``repro.sim`` reads a run through its SimResult.

``Simulation.run()`` returns a :class:`~repro.sim.SimResult` for every
run, stranded requests and empty measurement windows included, so no
caller needs to catch an error from a run or to rebuild numbers from the
driver's private state.  These tests parse ``src/repro`` and pin both:

* no module outside ``src/repro/sim`` reads a private ``Simulation``
  name (an attribute the driver assigns as ``self._x``, or one of its
  ``_methods``) on anything but ``self``;
* no ``except RuntimeError`` handler guards a ``try`` body that calls
  ``.run()``.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "repro"
SIM = SRC / "sim"


def _simulation_private_names():
    tree = ast.parse((SIM / "driver.py").read_text())
    [cls] = [
        node
        for node in tree.body
        if isinstance(node, ast.ClassDef) and node.name == "Simulation"
    ]
    names = set()
    for node in ast.walk(cls):
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.ctx, ast.Store)
            and isinstance(node.value, ast.Name)
            and node.value.id == "self"
        ):
            name = node.attr
        elif isinstance(node, ast.FunctionDef):
            name = node.name
        else:
            continue
        if name.startswith("_") and not name.startswith("__"):
            names.add(name)
    return names


def _modules():
    return sorted(SRC.rglob("*.py"))


def _where(path, node):
    return f"{path.relative_to(SRC)}:{node.lineno}: {ast.unparse(node)}"


def test_no_private_simulation_read_outside_sim():
    private = _simulation_private_names()
    # The scan sees the driver's counters at all.
    assert {"_completed", "_failed", "_next", "_measure_start"} <= private
    found = []
    for path in _modules():
        if SIM in path.parents:
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if (
                isinstance(node, ast.Attribute)
                and node.attr in private
                and not (isinstance(node.value, ast.Name) and node.value.id == "self")
            ):
                found.append(_where(path, node))
    assert found == []


def _catches_runtime_error(handler):
    caught = handler.type
    types = caught.elts if isinstance(caught, ast.Tuple) else [caught]
    return any(isinstance(t, ast.Name) and t.id == "RuntimeError" for t in types)


def _calls_run(statements):
    return any(
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "run"
        for statement in statements
        for node in ast.walk(statement)
    )


def test_no_runtime_error_caught_around_a_run():
    found = []
    for path in _modules():
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, ast.Try) or not _calls_run(node.body):
                continue
            for handler in node.handlers:
                if handler.type is not None and _catches_runtime_error(handler):
                    found.append(_where(path, handler.type))
    assert found == []
