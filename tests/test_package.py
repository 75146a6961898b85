"""Every public name resolves on the module that exports it."""

import importlib
import pkgutil

import pytest

import ntkms

SUBMODULES = sorted(
    info.name for info in pkgutil.iter_modules(ntkms.__path__) if info.name != "__main__"
)


@pytest.mark.parametrize("name", [""] + SUBMODULES)
def test_every_exported_name_is_an_attribute(name):
    module = importlib.import_module(f"ntkms.{name}" if name else "ntkms")
    missing = [attr for attr in module.__all__ if not hasattr(module, attr)]
    assert missing == [], f"{module.__name__}.__all__ names missing attributes: {missing}"
