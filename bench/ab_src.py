"""A/B timing of one perfbench workload on two ``src/`` trees, in
alternating fresh processes, written as JSON.

    python3 bench/ab_src.py /path/to/parent/src src --workload bijection \\
        --pairs 4 --seconds 20 --seed 1 --out ab.json

Each process imports ``quadmap`` from one of the two trees, builds the
workload from ``perfbench/workloads.py``, runs one warm-up iteration and
then perfbench's own closed loop (``perfbench/run.py``, ``measure``) for
``--seconds``: every step scaled to reference seconds by the calibrations
on either side of it, every output checked by the workload.  A pair runs
one process per side, the parent first in even pairs and the change first
in odd ones, so that a drift of the machine's speed favours neither side.
Fresh processes and medians over several of them keep the heap layout of
one process, which moves perfbench's ``bijection`` figures by a few
percent, out of the comparison.

Printed per side: the median op time in reference seconds with its
quartiles, the op rate, the minor page faults per op, and the pairs the
change won; every iteration that both sides ran must digest alike.  The
faults are the rise of ``ru_minflt`` over the timed steps of a process's
loop, over its ops, the median over the side's processes; the
calibrations between the steps allocate large tables and are left out.
``--tiny`` runs perfbench's smoke-test sizes, and ``--seconds 0`` one
timed iteration per process.
"""
from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT), str(ROOT / "perfbench")]  # run.py imports ``workloads``
from perfbench.run import quartiles  # noqa: E402


def minor_faults() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt


class FaultCount:
    """A workload whose ``run`` adds the minor faults of its steps, not of
    the calibrations that ``pause`` runs between them, to ``faults``."""

    def __init__(self, wl) -> None:
        self.wl, self.faults = wl, 0

    def __getattr__(self, name: str):
        return getattr(self.wl, name)

    def run(self, k: int, pause):
        start = minor_faults()

        def counted_pause() -> None:
            nonlocal start
            self.faults += minor_faults() - start
            pause()
            start = minor_faults()

        output = self.wl.run(k, counted_pause)
        self.faults += minor_faults() - start
        return output


def child(src: str, workload: str, seed: int, seconds: float, tiny: bool) -> dict:
    """Run perfbench's loop on the workload for ``seconds`` against ``src``."""
    sys.path.insert(0, str(Path(src).resolve()))
    import quadmap
    from perfbench.run import measure
    from workloads import WORKLOADS

    if not Path(quadmap.__file__).resolve().is_relative_to(Path(src).resolve()):
        raise SystemExit(f"quadmap imported from {quadmap.__file__}, not from {src}")
    wl = WORKLOADS[workload](seed, tiny)
    measure(wl, 0)  # warm-up: one iteration
    counted = FaultCount(wl)
    rows = [
        {"k": r["k"], "reference_s": r["reference_s"], "wall_s": r["seconds"],
         "failed": r["checked"].failed, "digests": r["checked"].digests}
        for r in measure(counted, seconds)
    ]
    return {"quadmap": quadmap.__file__, "ops_per_iteration": wl.ops_per_iteration, "rows": rows,
            "minor_faults_per_op": counted.faults / (len(rows) * wl.ops_per_iteration)}


def run_side(src: str, args: argparse.Namespace) -> dict:
    # a child times the tree given as its first argument
    cmd = [sys.executable, __file__, src, src, "--child", "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds)]
    if args.tiny:
        cmd.append("--tiny")
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=True)
    return json.loads(done.stdout.splitlines()[-1])


def op_seconds(runs: list[dict]) -> list[float]:
    return [r["reference_s"] / run["ops_per_iteration"] for run in runs for r in run["rows"]]


def summary(runs: list[dict]) -> dict:
    ops = op_seconds(runs)
    return {
        "median_ref_s": statistics.median(ops),
        "quartiles_ref_s": quartiles(ops),
        "ops_per_ref_s": len(ops) / sum(ops),
        "process_medians_ref_s": [statistics.median(op_seconds([run])) for run in runs],
        "minor_faults_per_op": statistics.median(run["minor_faults_per_op"] for run in runs),
        "failed": sum(r["failed"] for run in runs for r in run["rows"]),
    }


def main(argv: list[str]) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("parent", help="the parent's src/ directory")
    p.add_argument("change", help="the change's src/ directory")
    names = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]
    p.add_argument("--workload", default="bijection", choices=names)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--pairs", type=int, default=4)
    p.add_argument("--seconds", type=float, default=20.0, help="timed loop per process")
    p.add_argument("--tiny", action="store_true", help="perfbench's smoke-test sizes")
    p.add_argument("--out")
    p.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.pairs < 1 or args.seconds < 0:
        p.error("--pairs must be >= 1 and --seconds >= 0")
    if args.child:
        print(json.dumps(child(args.parent, args.workload, args.seed, args.seconds, args.tiny)))
        return 0
    sides = {"parent": [], "change": []}
    for pair in range(args.pairs):
        for side in ("parent", "change") if pair % 2 == 0 else ("change", "parent"):
            sides[side].append(run_side(getattr(args, side), args))
    record = {name: summary(runs) for name, runs in sides.items()}
    won = sum(
        statistics.median(op_seconds([c])) < statistics.median(op_seconds([q]))
        for q, c in zip(sides["parent"], sides["change"])
    )
    digests = {}  # the digests of each iteration k, over every process that ran it
    for r in (r for runs in sides.values() for run in runs for r in run["rows"]):
        digests.setdefault(r["k"], set()).add(tuple(r["digests"]))
    record.update(
        {
            "workload": args.workload,
            "seed": args.seed,
            "tiny": args.tiny,
            "pairs": args.pairs,
            "seconds": args.seconds,
            "change_won_pairs": won,
            "digests_equal": all(len(d) == 1 for d in digests.values()),
            "runs": sides,
        }
    )
    for name in sides:
        s = record[name]
        q1, _, q3 = s["quartiles_ref_s"]
        print(f"{name}: median {1000 * s['median_ref_s']:.2f} ms/op "
              f"(quartiles {1000 * q1:.2f}-{1000 * q3:.2f}), {s['ops_per_ref_s']:.3f} ops/s, "
              f"{s['minor_faults_per_op']:.1f} minor faults/op, {s['failed']} failed")
    print(f"change won {won} of {args.pairs} pairs; digests equal: {record['digests_equal']}")
    if args.out:
        Path(args.out).write_text(json.dumps(record, indent=1) + "\n")
    return 0 if record["digests_equal"] and not record["parent"]["failed"] + record["change"]["failed"] else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
