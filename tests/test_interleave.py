"""A smoke run of ``tools/interleave.py``: this tree against itself on the
``realize`` workload, over a few ops."""

import importlib.util
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
# the top-level names the tool loads: each side's package and workloads, and
# the benchmark modules it reads ``percentile`` and the references from
LOADED = ("tracerange", "workloads", "worker", "host", "reference", "tracing")


@pytest.fixture
def interleave(monkeypatch):
    """The tool as a module; afterwards ``sys.path`` and the package's
    modules are as they were, and what the tool loaded from ``bench/`` is gone."""
    monkeypatch.setattr(sys, "path", list(sys.path))
    before = {name: module for name, module in sys.modules.items() if name.split(".")[0] in LOADED}
    spec = importlib.util.spec_from_file_location("interleave", ROOT / "tools" / "interleave.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    yield module
    for name in [name for name in sys.modules if name.split(".")[0] in LOADED]:
        del sys.modules[name]
    sys.modules.update(before)


def test_interleave_checks_every_op_and_lists_every_kind(interleave, monkeypatch, capsys):
    monkeypatch.setattr(interleave, "OPS", 20)
    # each op's result goes through the workload's ``check``, which raises on a wrong one
    assert interleave.main([str(ROOT), str(ROOT), "--workload", "realize", "--seed", "3"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "realize seed 3: 20 ops on each side, alternated"
    listed = {line.split(":")[0].strip() for line in lines[4:]}
    assert listed == {"expand", "locate", "digits", "decode", "oracle"}
    assert sum(int(line.split()[-2]) for line in lines[4:]) == 20
