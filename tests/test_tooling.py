"""The benchmark tracer's targets must exist in the package.

``perfbench/tracer.py`` wraps the functions its ``TARGETS`` table names;
a name that no longer resolves would only fail when a traced run starts.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def load_targets():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer.TARGETS


@pytest.mark.parametrize("name,target", sorted(load_targets().items()))
def test_tracer_target_resolves(name, target):
    # resolve the way Tracer.install does: class members through the class
    # __dict__, module-level functions through the module
    module_name, attribute = target
    module = importlib.import_module(module_name)
    owner_name, _, member = attribute.rpartition(".")
    if owner_name:
        owner = getattr(module, owner_name)
        assert member in owner.__dict__, f"{name}: {attribute} is not defined on {owner_name}"
        value = owner.__dict__[member]
        if isinstance(value, staticmethod):
            value = value.__func__
    else:
        value = getattr(module, member)
    assert callable(value), f"{name}: {attribute} is not callable"
