"""Two source trees, one workload, one interpreter: ops timed side by side.

    python tools/interleave.py OLD_TREE NEW_TREE --workload cover --seed 3

Each tree is a checkout of this repository (or any directory holding its
``src/``). The workload generators come from this checkout's
``bench/workloads``, so both trees run the same seeded ops; each side
builds its own list, since an op may hold the package's objects. The ops run
alternately, one op on each side, the side that goes first alternating
too, so the drift of a shared host falls on both sides alike; separate
benchmark runs of the same tree can differ by far more than a per-op
change. Every result is checked with the workload's own ``check``.

The first ``OPS`` ops of the seeded list are timed, after ``WARMUP`` ops
run on each side untimed. Prints each side's ops per second of op time, p50
and p99 in microseconds (nearest rank, as the benchmark reports them), and
the median over the ops of new time / old time, over all of them and then
over each op kind's, so a change confined to one kind shows there. A
kind's median rests on its own ops alone: one with fewer than a few
hundred of the ``OPS`` ops resolves no change smaller than about 20 %
either way, as its spread from run to run shows. This sizes a per-op
change before the paired ``bench/run.py`` runs that a claim rests on; it
is not a benchmark of its own.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import pkgutil
import statistics
import sys
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent.parent / "bench"
OPS = 3000  # ops timed on each side, from the start of the seeded list
WARMUP = 50  # ops run on each side before timing


def _owned(name: str) -> bool:
    return name.split(".")[0] in ("tracerange", "workloads")


class Side:
    """One tree's package, workload module and op list, loaded under the
    usual names and then set aside, so the other tree can load under the
    same names."""

    def __init__(self, tree: Path, workload: str, seed: int, count: int):
        src = str(tree.resolve() / "src")
        for name in [name for name in sys.modules if _owned(name)]:
            del sys.modules[name]
        sys.path.insert(0, src)
        try:
            self.workload = importlib.import_module(f"workloads.{workload}")
            package = importlib.import_module("tracerange")
            # every module and public name now, so no lazy import runs later
            for info in pkgutil.iter_modules(package.__path__):
                if info.name != "__main__":
                    importlib.import_module(f"tracerange.{info.name}")
            for name in getattr(package, "__all__", ()):
                getattr(package, name)
        finally:
            sys.path.remove(src)
        if not str(Path(package.__file__).resolve()).startswith(src):
            raise SystemExit(f"tracerange was not loaded from {src}")
        self.modules = {name: module for name, module in sys.modules.items() if _owned(name)}
        self.ops = self.workload.build(seed)[:count]
        self.times: list[float] = []

    def run(self, index: int) -> None:
        sys.modules.update(self.modules)
        op = self.ops[index]
        started = perf_counter()
        result = self.workload.run(op)
        self.times.append(perf_counter() - started)
        self.workload.check(op, result)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("old", type=Path, help="the tree to compare against, such as a copy of the parent commit")
    parser.add_argument("new", type=Path, help="the tree with the change")
    parser.add_argument("--workload", default="cover", help="a module of bench/workloads (default: cover)")
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)

    sys.path.insert(0, str(BENCH))  # ``workloads``, the ``reference`` it imports, and ``worker``
    from worker import percentile

    old, new = (Side(tree, args.workload, args.seed, OPS) for tree in (args.old, args.new))
    count = len(old.ops)
    for index in range(min(WARMUP, count)):
        old.run(index)
        new.run(index)
    old.times.clear()
    new.times.clear()
    gc.collect()
    for index in range(count):
        first, second = (old, new) if index % 2 else (new, old)
        first.run(index)
        second.run(index)

    print(f"{args.workload} seed {args.seed}: {count} ops on each side, alternated")
    for label, side in (("old", old), ("new", new)):
        times = sorted(side.times)
        print(
            f"{label}: {len(times) / sum(times):9.1f} ops/s  p50 {percentile(times, 0.5) * 1e6:9.1f} us"
            f"  p99 {percentile(times, 0.99) * 1e6:9.1f} us"
        )
    ratios = [b / a for a, b in zip(old.times, new.times)]
    print(f"per-op median ratio new/old: {statistics.median(ratios):.3f}")
    kinds: dict[str, list[float]] = {}
    for op, ratio in zip(old.ops, ratios):
        kinds.setdefault(op.kind, []).append(ratio)
    for kind, share in kinds.items():
        print(f"  {kind}: {statistics.median(share):.3f} over {len(share)} ops")
    return 0


if __name__ == "__main__":
    sys.exit(main())
