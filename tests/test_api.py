"""The public names each module exports really exist."""

import importlib

import pytest

MODULES = [
    "scalimm",
    "scalimm.classify",
    "scalimm.cli",
    "scalimm.ir",
    "scalimm.lattice",
    "scalimm.parser",
    "scalimm.report",
]


@pytest.mark.parametrize("module_name", MODULES)
def test_every_exported_name_resolves(module_name):
    module = importlib.import_module(module_name)
    missing = [name for name in module.__all__ if not hasattr(module, name)]
    assert missing == []
