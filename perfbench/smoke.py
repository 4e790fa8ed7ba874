"""Smoke check of the benchmark at tiny sizes.

    python3 perfbench/smoke.py

For every workload it makes one untraced and two traced runs with one seed,
each with ``--seconds 0``, which runs one iteration per phase, and asserts
that:

- the last line is the result object, correct, with every metric of
  BENCHMARK.json for that mode and its unit, and each metric is also
  printed by name with its unit;
- the exact per-layer counts repeat exactly across the two traced runs;
- predictions.json names every per-layer metric once, and only known
  workloads and end-to-end metrics.

It also checks that the benchmark refuses to run, without printing a
result, in a directory holding only BENCHMARK.json and this directory.
Exits 0 when every check holds.
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
EXACT = (
    "paths.steps",
    "planar_map.darts",
    "trees.objects",
    "labeled.objects",
    "harness.rng_streams",
    "validations_per_op",
)


def expect(ok: bool, what) -> None:
    if not ok:
        raise AssertionError(what)


def run(root: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    cmd = [sys.executable, str(root / HERE.name / "run.py"), "--workload", workload]
    cmd += ["--seed", "7", "--seconds", "0", "--trace", str(trace), "--tiny"]
    return subprocess.run(cmd, cwd=root, capture_output=True, text=True, timeout=170)


def checked_result(done: subprocess.CompletedProcess, specs: list[dict]) -> dict:
    expect(done.returncode == 0, done.stderr)
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    expect(set(result) == {"correct", "attempted", "failed", "metrics"}, result)
    expect(result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, result)
    expect(list(result["metrics"]) == [m["name"] for m in specs], result["metrics"])
    for m in specs:
        expect(result["metrics"][m["name"]]["unit"] == m["unit"], m)
        printed = [ln for ln in lines[:-1] if ln.startswith(f"{m['name']} = ")]
        expect(len(printed) == 1 and printed[0].endswith(f" {m['unit']}"), m)
    return {name: m["value"] for name, m in result["metrics"].items()}


def check_predictions(spec: dict) -> None:
    rows = json.loads((HERE / "predictions.json").read_text())["rows"]
    named = [name for row in rows for name in row["metrics"]]
    expect(sorted(named) == sorted(m["name"] for m in spec["per_layer"]), named)
    workloads = {w["name"] for w in spec["workloads"]}
    metrics = {m["name"] for m in spec["end_to_end"]}
    for row in rows:
        expect(set(row["flat_on"]) <= workloads, row)
        for move in row["moves"]:
            expect(move["workload"] in workloads and move["metric"] in metrics, row)


def check_bare_directory(spec: dict) -> None:
    bare = HERE / "out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(HERE, bare / HERE.name, ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = run(bare, spec["workloads"][0]["name"], 0)
    shutil.rmtree(bare)
    expect(done.returncode != 0, done.stdout)
    expect(not done.stdout.strip(), done.stdout)


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    check_predictions(spec)
    check_bare_directory(spec)
    for workload in [w["name"] for w in spec["workloads"]]:
        checked_result(run(ROOT, workload, 0), spec["end_to_end"])
        first, second = (checked_result(run(ROOT, workload, 1), spec["per_layer"]) for _ in range(2))
        for name in EXACT:
            expect(first[name] == second[name], (workload, name, first[name], second[name]))
        print(f"{workload}: ok")
    print("smoke check passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
