"""The public names each module exports."""

import importlib

import pytest


@pytest.mark.parametrize("module", ["tracerange", "tracerange.extreme_points"])
def test_every_exported_name_resolves(module):
    mod = importlib.import_module(module)
    assert [name for name in mod.__all__ if not hasattr(mod, name)] == []
    assert len(set(mod.__all__)) == len(mod.__all__)
