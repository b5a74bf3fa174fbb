"""One workload run in a fresh process: generate the inputs, run the timed
closed loop, check every verdict, and report.

Started by `run.py`; it prints `ready <digest>` once set-up is done (inputs
generated and one cycle of the schedule run untimed), so the parent can time
set-up, then per-request rows, then one JSON line with the run's results.
With `--probe` it exits right after set-up.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import time

import gen
from calib import quantum, speed_factor

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

# a run makes timed passes over its inputs: at least this many, and more
# while the next one still ends in time
MIN_ROUNDS = 4
# requests run in chunks of about this many seconds, with one reference
# timing (calib.quantum) between consecutive chunks; a chunk's times are
# normalised by the two timings on either side of it. The host's slow and
# fast stretches last from about 0.1 s up, so the chunks must be short.
CHUNK_S = 0.005


def _import_hdpl():
    """Import the package from this checkout's source tree, never from an
    installed copy."""
    if not os.path.isfile(os.path.join(SRC, "hdpl", "__init__.py")):
        sys.exit(f"error: no hdpl sources under {SRC}")
    sys.path.insert(0, SRC)
    import hdpl

    if os.path.dirname(os.path.abspath(hdpl.__file__)) != os.path.join(SRC, "hdpl"):
        sys.exit(f"error: hdpl imported from {hdpl.__file__}, not from {SRC}")


def _percentile(sorted_values: list[float], q: float) -> float:
    return statistics.quantiles(sorted_values, n=100, method="inclusive")[q - 1]


def _row(workload: str, req: dict, ms: float, raw_ms: float, outcome: str) -> str:
    return "row " + json.dumps(
        {
            "workload": workload,
            "kind": req["kind"],
            "fragment": req["fragment"],
            "states": req["states"],
            "height": req.get("height"),
            "ms": round(ms, 4),
            "raw_ms": round(raw_ms, 4),
            "outcome": outcome,
        },
        separators=(",", ":"),
    )


def _run(req: dict, tracer):
    """One request: (latency in seconds, result or the HdplError it raised)."""
    from client import execute
    from hdpl.syntax import HdplError

    t = time.perf_counter()
    try:
        out = execute(req, tracer)
    except HdplError as exc:
        out = exc
    return time.perf_counter() - t, out


def _same(a, b) -> bool:
    if isinstance(a, Exception) or isinstance(b, Exception):
        return type(a) is type(b) and str(a) == str(b)
    return a == b


def warm_up(pool: list[dict], workload: str):
    """Run one cycle of the workload's schedule once, untimed, so that
    first-call costs fall into set-up rather than into the first latencies."""
    from client import NullTracer

    for req in pool[: len(gen.CELLS[workload]())]:
        _run(req, NullTracer)


def run_rounds(pool: list[dict], seconds: float):
    """Closed loop, one request in flight, tracing off. Each round is one pass
    over the pool, made in chunks with a reference timing between any two
    chunks. Rounds go
    on while the next one, judged by the last, ends within `seconds`, and
    there are at least MIN_ROUNDS. Returns each request's normalised and raw
    latencies (one per round), its first-round result, the requests whose
    result changed between rounds, and the run's median speed factor. Later
    results are compared and dropped at once, so memory does not grow with
    the number of rounds."""
    from client import NullTracer

    first: list = [None] * len(pool)
    changed: set[int] = set()
    quanta = [quantum()]  # quanta[i] and quanta[i + 1] enclose chunk i
    chunks: list[list[tuple[int, float]]] = []
    start = time.perf_counter()
    rounds, last = 0, 0.0
    while rounds < MIN_ROUNDS or time.perf_counter() - start + last <= seconds:
        t0 = time.perf_counter()
        k = 0
        while k < len(pool):
            c0, chunk = time.perf_counter(), []
            while k < len(pool) and time.perf_counter() - c0 < CHUNK_S:
                d, out = _run(pool[k], NullTracer)
                chunk.append((k, d))
                if rounds == 0:
                    first[k] = out
                elif not _same(out, first[k]):
                    changed.add(k)
                k += 1
            chunks.append(chunk)
            quanta.append(quantum())
        rounds += 1
        last = time.perf_counter() - t0

    latencies: list[list[float]] = [[] for _ in pool]
    raw: list[list[float]] = [[] for _ in pool]
    factors = []
    for i, chunk in enumerate(chunks):
        f = speed_factor(quanta[i : i + 2])
        factors.append(f)
        for k, d in chunk:
            latencies[k].append(d * f)
            raw[k].append(d)
    return latencies, raw, first, changed, statistics.median(factors)


def traced_pass(pool: list[dict], tracer):
    """One pass over the pool with tracing on. Each request also runs once
    with tracing off, the two in alternating order, and the ratio of their
    summed latencies is the tracing overhead. Returns the traced results and
    that ratio."""
    from client import NullTracer, closure_probe

    results, seconds = [], {tracer: 0.0, NullTracer: 0.0}
    for k, req in enumerate(pool):
        for tr in (tracer, NullTracer) if k % 2 else (NullTracer, tracer):
            d, out = _run(req, tr)
            seconds[tr] += d
            if tr is tracer:
                results.append(out)
        closure_probe(req, tracer)
    return results, seconds[tracer] / seconds[NullTracer]


def end_to_end(latencies: list[list[float]], failures: dict, peak_rss_mb: float) -> dict:
    """End-to-end metrics of a plain run, `setup_s` aside, from each
    request's median normalised latency over the rounds."""
    best = [statistics.median(ds) for ds in latencies]
    ok = len(best) - len(failures)
    lat = sorted(d * 1000 for d in best)
    return {
        "verdicts_per_s": ok / sum(best),
        "verdict_ms_p50": _percentile(lat, 50),
        "verdict_ms_p90": _percentile(lat, 90),
        "ok_ratio": ok / len(best),
        "peak_rss_mb": peak_rss_mb,
    }


def check_all(pool: list[dict], results: list, checker, changed=frozenset()) -> dict[int, str]:
    """Failure reason per request that raised, gave different results in
    different rounds, or failed its check."""
    from hdpl.syntax import HdplError

    failures: dict[int, str] = {}
    for k, out in enumerate(results):
        if isinstance(out, HdplError):
            failures[k] = f"{type(out).__name__}: {out}"
        elif k in changed:
            failures[k] = "result differs between rounds"
        else:
            try:
                why = checker.check(pool[k], out)
            except HdplError as exc:
                why = f"check raised {type(exc).__name__}: {exc}"
            if why:
                failures[k] = why
    return failures


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--probe", action="store_true", help="exit once set-up is done")
    args = ap.parse_args(argv)

    _import_hdpl()
    pool = gen.generate(args.workload, args.seed)
    warm_up(pool, args.workload)
    print("ready", gen.digest(pool), flush=True)
    if args.probe:
        return 0

    from client import Checker, Tracer

    if args.trace:
        tracer = Tracer()
        results, ratio = traced_pass(pool, tracer)
        failures = check_all(pool, results, Checker(tracer))
        rounds = 1
    else:
        latencies, raw, results, changed, speed = run_rounds(pool, args.seconds)
        rounds = len(latencies[0])
        # the peak so far: checks below are not part of the workload
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        failures = check_all(pool, results, Checker(), changed)
        print(f"host speed factor {speed:.4f} (median over the rounds)")
        for k, ds in enumerate(latencies):
            # one row per request, with its median latencies over the rounds
            ms = statistics.median(ds) * 1000
            raw_ms = statistics.median(raw[k]) * 1000
            print(_row(args.workload, pool[k], ms, raw_ms, failures.get(k, "ok")))
    for k, why in sorted(failures.items()):
        print(f"failed request {k} ({pool[k]['kind']}, {pool[k]['fragment']}): {why}")

    result = {
        "attempted": len(pool) * rounds,
        "failed": len(failures) * rounds,
        # a raised HdplError is a failed operation; any other failure is a wrong verdict
        "correct": all(isinstance(results[k], Exception) for k in failures),
        "rounds": rounds,
    }
    if args.trace:
        result["layers"] = layer_metrics(tracer, len(pool), ratio)
    else:
        result["metrics"] = end_to_end(latencies, failures, peak_rss_mb)
    print(json.dumps(result), flush=True)
    return 0


# per-layer metric name -> (tracer field, tracer key); "_s" names are summed
# call seconds, the rest are call counts or work counters
LAYER_METRICS = {
    "syntax.parse_sentence_s": ("seconds", "syntax.parse_sentence"),
    "syntax.parse_sentence_calls": ("counts", "syntax.parse_sentence"),
    "checker.satisfies_s": ("seconds", "checker.satisfies"),
    "checker.satisfies_calls": ("counts", "checker.satisfies"),
    "kripke.model_from_dict_s": ("seconds", "kripke.model_from_dict"),
    "games.lower_s": ("seconds", "games.lower"),
    "syntax.print_sentence_s": ("seconds", "syntax.print_sentence"),
    "syntax.lowered_nodes": ("counts", "syntax.lowered_nodes"),
    "games.enumerate_s": ("seconds", "games.enumerate"),
    "games.theta_size": ("counts", "games.theta_size"),
    "games.char_formula_s": ("seconds", "games.char_formula"),
    "games.char_formula_calls": ("counts", "games.char_formula"),
    "games.normal_form_s": ("seconds", "games.normal_form"),
    "gameboard.parse_tree_s": ("seconds", "gameboard.parse_tree"),
    "gameboard.tree_nodes": ("counts", "gameboard.tree_nodes"),
    "games.ef_solve_s": ("seconds", "games.ef_solve"),
    "games.ef_abelard_wins": ("counts", "games.ef_abelard_wins"),
    "games.trace_steps": ("counts", "games.trace_steps"),
    "omega.solve_s": ("seconds", "omega.solve"),
    "omega.solve_runs": ("counts", "omega.solve_runs"),
    "omega.dead_positions": ("counts", "omega.dead_positions"),
    "omega.safe_positions": ("counts", "omega.safe_positions"),
    "omega.loss_rank_s": ("seconds", "omega.loss_rank"),
    "omega.closure_s": ("seconds", "omega.closure"),
    "omega.closure_entries": ("counts", "omega.closure_entries"),
    "omega.closure_overflows": ("counts", "omega.closure_overflows"),
    "omega.bf_s": ("seconds", "omega.bf"),
    "omega.bf_family_size": ("counts", "omega.bf_family_size"),
    "omega.witness_s": ("seconds", "omega.witness"),
    "seqgame.survives_s": ("seconds", "seqgame.survives"),
    "seqgame.calls": ("counts", "seqgame.survives"),
}


def layer_metrics(tracer, requests: int, overhead_ratio: float) -> dict:
    out = {name: getattr(tracer, field).get(key, 0) for name, (field, key) in LAYER_METRICS.items()}
    out["trace.requests"] = requests
    out["trace.overhead_ratio"] = overhead_ratio
    out["hdpl.loc"] = 0
    for name in os.listdir(os.path.join(SRC, "hdpl")):
        if name.endswith(".py"):
            with open(os.path.join(SRC, "hdpl", name), "rb") as fh:
                out["hdpl.loc"] += fh.read().count(b"\n")
    return out


if __name__ == "__main__":
    sys.exit(main())
