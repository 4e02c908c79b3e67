"""tracerange benchmark: one run of one workload.

    python3 bench/run.py --workload cover --seed 1 --seconds 10 --trace 0

Workloads are ``cover``, ``realize`` and ``cli`` (see BENCHMARK.json and
bench/README.md). Run from anywhere inside a source checkout; the program
is imported from ``src/``, so there is nothing to build. Each run happens
in fresh interpreters started one at a time:

* ``--trace 0``: ``SETUP_PROBES`` set-up-only interpreters, then the
  measuring one; ``setup_s`` is the median time from starting an
  interpreter to the start of its timed loop, scaled to the reference host
  like the other times (see ``worker.HostSpeed``). Prints every end-to-end
  metric.
* ``--trace 1``: one interpreter that runs a fixed set of ops, each once
  untraced and once traced, and prints every per-layer metric.

The last line of standard output is the result object; the line before it
holds diagnostics, including the host speed (``host.rate``) measured before
and after the run, so drift of the host shows when runs disagree. Both are
also written to ``bench/out/``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

import host

ROOT = Path(__file__).resolve().parent.parent
WORKER = ROOT / "bench" / "worker.py"
OUT = ROOT / "bench" / "out"
WORKLOADS = ("cover", "realize", "cli")
SETUP_PROBES = 9
SETUP_CALIBRATION_S = 0.05
DEADLINE_S = 170  # every process this run starts ends within this
_STARTED = time.monotonic()


def _time_left() -> float:
    return max(1.0, DEADLINE_S - (time.monotonic() - _STARTED))


def calibrate(batches: int = 5) -> float:
    """Host speed: median rate of the fixed loop over short batches."""
    return statistics.median(host.rate(0.1) for _ in range(batches))


def setup_probe(args) -> tuple:
    """One set-up-only interpreter: its set-up time scaled to the reference
    host by the loop's rate just before and after it, and unscaled."""
    before = host.rate(SETUP_CALIBRATION_S)
    _, seconds = start_worker(args, ["--setup-only"])
    after = host.rate(SETUP_CALIBRATION_S)
    return seconds * (before + after) / 2 / host.REFERENCE_RATE, seconds


def start_worker(args, extra=()) -> tuple:
    """Run a worker to completion; return its report and its set-up time."""
    command = [
        sys.executable, str(WORKER), "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace), *extra,
    ]
    started = time.monotonic()
    proc = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=_time_left())
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"worker exited with {proc.returncode}")
    report = json.loads(proc.stdout.strip().splitlines()[-1])
    return report, report["ready"] - started


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="tracerange benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "tracerange" / "__init__.py").is_file():
        print("error: no tracerange sources under src/; run from a source checkout", file=sys.stderr)
        return 2

    host.pin_to_one_cpu()
    calibration_before = calibrate()
    setups = []
    if not args.trace:
        # writes the bytecode caches, so every measured start finds them
        subprocess.run([sys.executable, str(WORKER), "--workload", args.workload, "--seed", "0",
                        "--setup-only"], cwd=ROOT, capture_output=True, timeout=_time_left(), check=True)
        setups = [setup_probe(args) for _ in range(SETUP_PROBES)]
    report, _ = start_worker(args)
    calibration_after = calibrate()

    metrics = report["metrics"]
    if not args.trace:
        metrics["setup_s"] = (statistics.median(scaled for scaled, _ in setups), "s")
        report["diagnostics"]["unscaled"]["setup_s"] = statistics.median(raw for _, raw in setups)
    result = {
        "correct": report["wrong"] == 0,
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    diagnostics = dict(
        report["diagnostics"],
        workload=args.workload, seed=args.seed, seconds=args.seconds, trace=args.trace,
        calibration_before=calibration_before, calibration_after=calibration_after,
    )
    OUT.mkdir(exist_ok=True)
    record = OUT / f"BENCH_{args.workload}_seed{args.seed}_trace{args.trace}.json"
    record.write_text(json.dumps({"result": result, "diagnostics": diagnostics}, indent=1) + "\n")
    print(json.dumps({"diagnostics": diagnostics}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
