"""One benchmark run of one workload, in a fresh interpreter.

Started by ``run.py``; not meant to be run by hand. It imports tracerange
from ``src/``, builds the seeded op list, warms up, and reports the
monotonic time at which the timed loop could start (``run.py`` turns that
into ``setup_s``). With ``--setup-only`` it stops there. Otherwise it runs a
closed loop, one op at a time in this single thread, and prints one JSON
object with the counts and metrics as its last line:

* ``--trace 0``: the ops a reference host runs in ``--seconds`` of op
  time (and at least ``MIN_OPS``), with ``COLD_STARTS`` launches of
  ``python -m tracerange`` spread over the run, one at a time;
* ``--trace 1``: fewer ops, each once untraced and once traced, so the
  difference in op time is the tracing cost.

Both run whole rounds of the op list from its start, so the ops run, and
the ops that fail, are the same in number whatever the seed and the speed
of the host; per-layer counts repeat exactly for a seed.

Every op's result is checked outside its timed region. Op and launch
times are scaled to a reference host (``HostSpeed``); the unscaled figures
go to the diagnostics.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import platform
import re
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path
from time import perf_counter

import host
from reference import Failure, Mismatch, unlimited_digits
from tracing import Tracer

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "bench" / "out"

WARMUP = 8
MIN_OPS = 1000  # so the 99th percentile has at least ten samples beyond it
# ops per second of op time on the reference host (see HostSpeed)
OPS_RATE = {"cover": 280, "realize": 440, "cli": 2100}
COLD_STARTS = 61
HOST_EVERY_S = 0.1  # op time between host-speed slices
HOST_SLICE_S = 0.01
HOST_WINDOW = 3  # slices on each side that scale a timing
# ops per second of --seconds in a traced run; sized so both passes and
# their checks fit the run
TRACE_RATE = {"cover": 80, "realize": 100, "cli": 500}
TRACE_CHUNK = 50
_RATIONAL = re.compile(r"(\d+)/(\d+)")


def max_rational_bits(text: str) -> int:
    """Bit size of the largest numerator or denominator written in ``text``."""
    tokens = [t for match in _RATIONAL.finditer(text) for t in match.groups()]
    if not tokens:
        return 0
    longest = max(map(len, tokens))
    with unlimited_digits():
        return max(int(t).bit_length() for t in tokens if len(t) == longest)


class Tally:
    """Outcome counts over the ops of one pass."""

    def __init__(self, workload, count_output: bool = False):
        self.workload = workload
        self.count_output = count_output
        self.attempted = self.failed = self.wrong = 0
        self.latencies: list = []
        self.examples: list = []
        self.bytes = self.max_bits = 0
        self.check_s = 0.0

    def record(self, op, result, error, seconds: float) -> None:
        self.attempted += 1
        self.latencies.append(seconds)
        started = perf_counter()
        problem = None
        if error is not None:
            self.failed += 1
            problem = f"{op.kind}: raised {type(error).__name__}: {error}"
        else:
            try:
                self.workload.check(op, result)
            except Failure as exc:
                self.failed += 1
                problem = f"{op.kind}: {exc}"
            except Exception as exc:  # Mismatch, or output the checker cannot read
                self.failed += 1
                self.wrong += 1
                kind = "" if isinstance(exc, Mismatch) else f"{type(exc).__name__}: "
                problem = f"{op.kind}: wrong answer: {kind}{exc}"
            if self.count_output:
                self.bytes += len(result.text)
                self.max_bits = max(self.max_bits, max_rational_bits(result.text))
        if problem and len(self.examples) < 5:
            self.examples.append(problem[:300])
        self.check_s += perf_counter() - started


def execute(run, op):
    started = perf_counter()
    try:
        result, error = run(op), None
    except Exception as exc:  # an op that raises counts as failed
        result, error = None, exc
    return result, error, perf_counter() - started


class HostSpeed:
    """Short slices of the fixed loop in ``host.py``, spread over the run.

    On a shared VM the speed of the host drifts by a fifth within a minute,
    and every timing drifts with it. Each timing is scaled to the reference
    host by the mean rate of the slices around it, which cancels that drift.
    """

    def __init__(self):
        self.rates: list = []
        self.sample()

    def sample(self) -> None:
        self.rates.append(host.rate(HOST_SLICE_S))

    def mark(self) -> int:
        return len(self.rates)

    def scale(self, mark: int) -> float:
        """Factor from a time taken at ``mark`` to reference-host time."""
        around = self.rates[max(0, mark - HOST_WINDOW) : mark + HOST_WINDOW]
        return sum(around) / len(around) / host.REFERENCE_RATE


def whole_rounds(workload, ops: float, least: int = 1) -> int:
    """``ops`` rounded to whole rounds of the op list, and at least ``least``."""
    length = workload.ROUND_LENGTH
    return max(-(-least // length), round(ops / length)) * length


def timed_loop(workload, ops, count: int, speed: HostSpeed, launcher: "Launcher") -> tuple:
    """The first ``count`` ops of the list, cycled; returns the tally and
    the host mark of each op. Host slices every ``HOST_EVERY_S`` of op time
    and the launcher's cold starts, spread evenly over the ops, stay outside
    the op timings."""
    tally = Tally(workload)
    marks = []
    since_sample = 0.0
    for index in range(count):
        if since_sample >= HOST_EVERY_S:
            speed.sample()
            since_sample = 0.0
        if launcher.due(index / count):
            launcher.launch()
        op = ops[index % len(ops)]
        result, error, elapsed = execute(workload.run, op)
        since_sample += elapsed
        marks.append(speed.mark())
        tally.record(op, result, error, elapsed)
    speed.sample()
    while launcher.due(1.0):
        launcher.launch()
    return tally, marks


def percentile(sorted_values: list, share: float) -> float:
    """Nearest-rank percentile."""
    rank = max(1, -(-len(sorted_values) * share // 1))
    return sorted_values[int(rank) - 1]


class Launcher:
    """Times ``python -m tracerange`` launches of small ``cli`` requests."""

    def __init__(self, seed: int):
        from workloads import cli

        self.cli = cli
        self.ops = cli.cold_start_ops(seed, COLD_STARTS)
        self.env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        self.times: list = []
        self.scales: list = []
        self.tally = Tally(cli)

    def due(self, progress: float) -> bool:
        done = len(self.times)
        return done < len(self.ops) and progress >= (done + 0.5) / len(self.ops)

    def launch(self) -> None:
        """One launch, scaled by the host's rate just before and after it."""
        op = self.ops[len(self.times)]
        before = host.rate(HOST_SLICE_S)
        started = perf_counter()
        proc = subprocess.run(
            [sys.executable, "-m", "tracerange", *op.inputs[0]],
            cwd=ROOT, env=self.env, capture_output=True, text=True, timeout=60,
        )
        elapsed = perf_counter() - started
        after = host.rate(HOST_SLICE_S)
        self.times.append(elapsed)
        self.scales.append((before + after) / 2 / host.REFERENCE_RATE)
        self.tally.record(op, self.cli.launch_result(proc.stdout, proc.returncode), None, elapsed)


def untraced_report(workload, ops, seconds: float, seed: int, name: str) -> dict:
    speed = HostSpeed()
    launcher = Launcher(seed)
    count = whole_rounds(workload, OPS_RATE[name] * seconds, MIN_OPS)
    tally, marks = timed_loop(workload, ops, count, speed, launcher)
    raw = tally.latencies
    lat = sorted(t * speed.scale(m) for t, m in zip(raw, marks))
    launches = [t * scale for t, scale in zip(launcher.times, launcher.scales)]
    attempted = tally.attempted + launcher.tally.attempted
    metrics = {
        "ops_per_s": (len(lat) / sum(lat), "1/s"),
        "latency_p50_ms": (percentile(lat, 0.50) * 1e3, "ms"),
        "latency_p99_ms": (percentile(lat, 0.99) * 1e3, "ms"),
        "success_rate": (1 - tally.failed / tally.attempted, "ratio"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "cold_start_ms": (statistics.median(launches) * 1e3, "ms"),
    }
    unscaled = sorted(raw)
    return {
        "attempted": attempted,
        "failed": tally.failed + launcher.tally.failed,
        "wrong": tally.wrong + launcher.tally.wrong,
        "metrics": metrics,
        "diagnostics": {
            "ops_timed": len(lat),
            "samples_beyond_p99": sum(1 for x in lat if x > percentile(lat, 0.99)),
            "error_rate": tally.failed / tally.attempted,
            "kinds": dict(Counter(ops[i % len(ops)].kind for i in range(len(lat)))),
            "host_rate": statistics.mean(speed.rates),
            "unscaled": {
                "ops_per_s": len(raw) / sum(raw),
                "latency_p50_ms": percentile(unscaled, 0.50) * 1e3,
                "latency_p99_ms": percentile(unscaled, 0.99) * 1e3,
                "cold_start_ms": statistics.median(launcher.times) * 1e3,
            },
            "check_seconds": tally.check_s,
            "problems": tally.examples + launcher.tally.examples,
        },
    }


def traced_report(workload, ops, seconds: float, seed: int, name: str) -> dict:
    """The same ops untraced and traced, alternating in chunks of
    ``TRACE_CHUNK`` (and which pass goes first), so host drift cancels out
    of the tracing overhead."""
    count = whole_rounds(workload, TRACE_RATE[name] * seconds)
    chosen = [ops[i % len(ops)] for i in range(count)]
    tracer = Tracer()
    plain, traced = Tally(workload), Tally(workload, count_output=True)
    for first in range(0, count, TRACE_CHUNK):
        chunk = range(first, min(first + TRACE_CHUNK, count))
        for tracing in (False, True) if first // TRACE_CHUNK % 2 == 0 else (True, False):
            if not tracing:
                for i in chunk:
                    plain.record(chosen[i], *execute(workload.run, chosen[i]))
                continue
            tracer.install()
            try:
                for i in chunk:
                    tracer.op = i
                    root = tracer.span(f"op.{chosen[i].kind}", "op", workload.run)
                    traced.record(chosen[i], *execute(root, chosen[i]))
            finally:
                tracer.uninstall()
    OUT.mkdir(exist_ok=True)
    spans_path = OUT / f"spans-{name}-seed{seed}.jsonl"
    tracer.dump(spans_path)
    metrics = dict(tracer.layer_metrics(), **tracer.counts())
    metrics["serialize.bytes"] = traced.bytes
    metrics["serialize.max_rational_bits"] = traced.max_bits
    metrics["trace.overhead_ms"] = (sum(traced.latencies) - sum(plain.latencies)) / count * 1e3
    metrics["trace.spans"] = len(tracer.spans)
    return {
        "attempted": plain.attempted + traced.attempted,
        "failed": plain.failed + traced.failed,
        "wrong": plain.wrong + traced.wrong,
        "metrics": {key: (value, _unit(key)) for key, value in metrics.items()},
        "diagnostics": {
            "ops_per_pass": count,
            "untraced_op_seconds": sum(plain.latencies),
            "traced_op_seconds": sum(traced.latencies),
            "spans_file": str(spans_path.relative_to(ROOT)),
            "problems": plain.examples + traced.examples,
        },
    }


def _unit(key: str) -> str:
    if key.endswith("_s"):
        return "s"
    if key.endswith("_ms"):
        return "ms"
    if key.endswith("collapse_ratio"):
        return "ratio"
    if key.endswith(".bytes"):
        return "bytes"
    if key.endswith("_bits"):
        return "bits"
    return "count"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    sys.path.insert(0, str(ROOT / "src"))
    import tracerange

    if not Path(tracerange.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"tracerange imported from {tracerange.__file__}, not from src/", file=sys.stderr)
        return 2
    workload = importlib.import_module(f"workloads.{args.workload}")
    ops = workload.build(args.seed)
    for op in ops[:WARMUP]:
        execute(workload.run, op)
    gc.collect()
    ready = time.monotonic()
    if args.setup_only:
        print(json.dumps({"ready": ready}))
        return 0
    if args.trace:
        report = traced_report(workload, ops, args.seconds, args.seed, args.workload)
    else:
        report = untraced_report(workload, ops, args.seconds, args.seed, args.workload)
    report["ready"] = ready
    report["diagnostics"].update(python=platform.python_version(), machine=platform.machine(), cpus=os.cpu_count())
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
