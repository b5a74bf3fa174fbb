"""Benchmark entry point.

    python3 perfbench/run.py --workload formulas --seed 1 --seconds 22 --trace 0

Runs one workload in a fresh worker process (`worker.py`) and prints every
metric by name with its unit, then, as the last line, one JSON object with
`correct`, `attempted`, `failed` and `metrics`. With `--trace 0` the metrics
are the end-to-end ones; with `--trace 1` they are the per-layer ones of a
traced pass over the same inputs. Exits non-zero without a result when the
worker fails, e.g. when the checkout holds no `src/hdpl`.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

from calib import quantum, speed_factor
from gen import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
WORKER = os.path.join(HERE, "worker.py")

# set-up is timed in this many extra processes before the measured run, and
# as many after it
SETUP_PROBES = 3
# reference timings taken on either side of a set-up probe
PROBE_QUANTA = 5

END_TO_END_UNITS = {
    "verdicts_per_s": "1/s",
    "verdict_ms_p50": "ms",
    "verdict_ms_p90": "ms",
    "ok_ratio": "ratio",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    return {"trace.overhead_ratio": "ratio", "hdpl.loc": "lines"}.get(name, "count")


def run_worker(args: list[str], echo: bool) -> tuple[float, list[str]]:
    """Start a worker; return the seconds from spawn to its `ready` line
    (interpreter start, imports, input generation, warm-up) and its later
    output."""
    start = time.perf_counter()
    with subprocess.Popen([sys.executable, WORKER] + args, stdout=subprocess.PIPE, text=True) as proc:
        first = proc.stdout.readline()
        setup = time.perf_counter() - start
        if first.startswith("ready ") and echo:
            print(f"inputs {first.split()[1]}", flush=True)
        lines = proc.stdout.read().splitlines()
        code = proc.wait()
    if code != 0 or not first.startswith("ready "):
        sys.exit(f"error: worker exited with code {code}")
    return setup, lines


def probe_setup(common: list[str]) -> float:
    """Set-up time of one worker that exits once ready, normalised by
    reference timings taken right before and after it."""
    before = [quantum() for _ in range(PROBE_QUANTA)]
    setup, _ = run_worker(common + ["--probe"], echo=False)
    after = [quantum() for _ in range(PROBE_QUANTA)]
    return setup * speed_factor(before + after)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    common = ["--workload", args.workload, "--seed", str(args.seed)]
    setups = []
    if not args.trace:
        setups = [probe_setup(common) for _ in range(SETUP_PROBES)]
    _, lines = run_worker(common + ["--seconds", str(args.seconds), "--trace", str(args.trace)], echo=True)
    if not args.trace:
        setups += [probe_setup(common) for _ in range(SETUP_PROBES)]

    for line in lines[:-1]:
        print(line)
    result = json.loads(lines[-1])
    if args.trace:
        metrics = {name: {"value": v, "unit": layer_unit(name)} for name, v in result["layers"].items()}
    else:
        values = dict(result["metrics"], setup_s=statistics.median(setups))
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END_UNITS.items()}
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{result['attempted']} requests in {result['rounds']} passes, {result['failed']} failed")
    for name, m in metrics.items():
        print(f"metric {name} = {m['value']} {m['unit']}")
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
