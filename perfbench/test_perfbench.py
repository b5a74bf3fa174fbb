"""Self-checks of the benchmark itself.

    python3 -m pytest perfbench/test_perfbench.py -q
"""

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import calib  # noqa: E402
import client  # noqa: E402
import gen  # noqa: E402
import worker  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
    SPEC = json.load(fh)


def test_seed_fixes_the_inputs():
    for workload in gen.WORKLOADS:
        first = gen.digest(gen.generate(workload, 1))
        assert gen.digest(gen.generate(workload, 1)) == first
        assert gen.digest(gen.generate(workload, 2)) != first


def test_pools_cover_every_stratum_of_every_cell_equally():
    for workload in gen.WORKLOADS:
        assert gen.POOL_SIZE[workload] % (len(gen.CELLS[workload]()) * gen.STRATA) == 0


def test_times_are_normalised_by_the_reference():
    assert calib.speed_factor([calib.REF_S, calib.REF_S]) == 1.0
    assert calib.speed_factor([2 * calib.REF_S, 2 * calib.REF_S]) == 0.5
    latencies, raw, results, changed, speed = worker.run_rounds(gen.generate("backforth", 3)[:20], 0.0)
    assert not changed and len(results) == 20
    assert all(len(ls) == worker.MIN_ROUNDS for ls in latencies)
    ratios = [n / r for ls, rs in zip(latencies, raw) for n, r in zip(ls, rs)]
    assert min(ratios) > 0 and speed > 0


def test_generated_trees_are_valid():
    # parse_tree validates against the fragment and raises on an invalid tree
    pool = gen.generate("formulas", 3)
    for req in pool[:560]:
        if "tree" in req:
            client.execute(req)


def _wrong(req: dict, out: dict) -> dict:
    """The result with its verdict deliberately flipped."""
    out = dict(out)
    kind = req["kind"]
    if kind == "check":
        out["verdict"] = not out["verdict"]
    elif kind == "normalform":
        out["holds"] = not out["holds"]
    elif kind == "charform":
        out["lowered"] = f"~({out['lowered']})"
    elif kind == "fh":
        out["satisfied"] = []
    elif kind in ("game", "omega"):
        out["winner"] = "abelard" if out["winner"] == "eloise" else "eloise"
        out["loss_rank"] = 0
    elif kind == "bf":
        out["related"] = not out["related"]
    return out


def test_a_wrong_verdict_counts_as_an_error():
    checker = client.Checker()
    for workload in gen.WORKLOADS:
        pool = gen.generate(workload, 5)
        # two requests per kind; bf needs a fragment where bf and the game agree
        picks = {}
        for req in pool[:80]:
            if req["kind"] == "bf" and req["fragment"] != "diamond,at,store":
                continue
            if len(picks.setdefault(req["kind"], [])) < 2:
                picks[req["kind"]].append(req)
        picked = [req for reqs in picks.values() for req in reqs]
        results = [client.execute(req) for req in picked]
        assert worker.check_all(picked, results, checker) == {}
        wrong = [_wrong(req, out) for req, out in zip(picked, results)]
        failures = worker.check_all(picked, wrong, checker)
        assert sorted(failures) == list(range(len(picked))), failures
        latencies = [[0.001]] * len(picked)
        assert worker.end_to_end(latencies, failures, 1.0)["ok_ratio"] < 1


def test_traced_pass_emits_every_per_layer_metric():
    names = {m["name"] for m in SPEC["per_layer"]}
    seen_nonzero = set()
    for workload in gen.WORKLOADS:
        pool = gen.generate(workload, 7)[: len(gen.CELLS[workload]())]
        tracer = client.Tracer()
        results, ratio = worker.traced_pass(pool, tracer)
        assert worker.check_all(pool, results, client.Checker(tracer)) == {}
        layers = worker.layer_metrics(tracer, len(pool), ratio)
        assert set(layers) == names
        seen_nonzero |= {name for name, value in layers.items() if value}
    # every layer is exercised by some workload (closure overflows excepted)
    assert names - seen_nonzero <= {"omega.closure_overflows"}


def test_run_prints_every_end_to_end_metric():
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", "countable", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=170, check=True,
    )
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == {
        name: m["unit"] for name, m in result["metrics"].items()
    }
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_fails_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "formulas", "--seed", "1", "--seconds", "1",
         "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
