"""The benchmark's tracer patches ntkms by attribute path.

``perfbench/tracing.py`` lists its targets as (module, attribute path)
pairs and replaces each in place: a method through the class
``__dict__``, a function through the module.  A rename in ntkms would
break only the traced benchmark run, so every target is resolved here.
The file is read as source, not imported.
"""

import ast
import importlib
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _targets():
    tree = ast.parse(TRACING.read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "TARGETS" for t in node.targets
        ):
            return [entry[:2] for entry in ast.literal_eval(node.value)]
    raise AssertionError("perfbench/tracing.py defines no TARGETS")


@pytest.mark.parametrize("module_name, path", _targets())
def test_tracer_target_resolves(module_name, path):
    owner = importlib.import_module(module_name)
    *parents, attr = path.split(".")
    for part in parents:
        owner = getattr(owner, part)
    if isinstance(owner, type):
        assert attr in owner.__dict__, f"{path} is not defined on the class itself"
    else:
        assert callable(getattr(owner, attr, None)), f"{module_name} has no {attr}"
