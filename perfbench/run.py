"""quadmap benchmark: one workload, one closed-loop caller, one process.

    python3 perfbench/run.py --workload bijection --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 0

Run from anywhere; the package is imported from ``src/`` beside this
directory and never from an installed copy.  With ``--trace 0`` the run
reports the end-to-end metrics of BENCHMARK.json; with ``--trace 1`` it
first runs untraced for a third of the time, then replays the same
iterations under the per-layer tracer (``tracing.py``) and reports the
per-layer metrics, each averaged per op.  The last line of standard output
is one JSON object; the lines before it print every metric by name with
its unit.  A run record (machine, load, versions, seeds, per-iteration
times and output digests) is written to ``perfbench/out/``.

Times are reported in reference seconds.  The speed of a shared machine
drifts by tens of percent within seconds, so a fixed pure-Python
calibration loop runs before the first iteration and after every step of
every iteration (a workload marks its steps by calling ``pause``), and
each step's time is scaled by ``CAL_REFERENCE_S`` over the mean of the
calibrations on either side of it.  A reference second is
therefore the time in which the calibration loop would run
``1 / CAL_REFERENCE_S`` times; the loop takes about ``CAL_REFERENCE_S`` on
a 2-core Xeon VM, so there reference and wall seconds roughly agree.  The
wall-clock figures are printed and recorded beside them.
"""
from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

SETUP_SAMPLES = 3  # this process plus two fresh interpreters
CAL_REFERENCE_S = 0.12
TAIL_BEYOND = 10  # ops that must lie beyond the reported tail percentile
TAIL_SAMPLES = 100  # fewer timed iterations give no percentile above p90


def parse_args(argv: list[str], names: list[str]) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=names + ["all"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true", help="smoke-test sizes")
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds < 0:
        p.error("--seed and --seconds must be >= 0")
    return args


def forwarded(args: argparse.Namespace, workload: str) -> list[str]:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload]
    cmd += ["--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.tiny:
        cmd.append("--tiny")
    return cmd


# -- calibration and set-up ----------------------------------------------------


def calibrate() -> float:
    """Seconds a fixed pure-Python loop takes now, with the collector paused
    so that the size of the program's heap does not enter it."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        acc = 0
        for i in range(600_000):
            acc += i * i % 7
        for _ in range(3):  # small tables, so that peak memory stays the program's
            table = {i: (i, acc) for i in range(50_000)}
            picked = [table[i][0] for i in range(0, 50_000, 3)]
            del table, picked
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


def reference(seconds: float, cal: float) -> float:
    return seconds * CAL_REFERENCE_S / cal


class StepClock:
    """Times one iteration step by step.

    ``pause`` ends a step, runs the calibration and starts the next step;
    ``stop`` ends the last one.  Each step's time is scaled by the mean of
    the calibrations on either side of it.  Under a tracer each step is
    traced as part of op ``k`` and the calibrations are not.
    """

    def __init__(self, k: int, cal: float, tracer) -> None:
        self.k, self.tracer = k, tracer
        self.cals = [cal]
        self.wall = self.ref = 0.0
        self.running = False
        self._start()

    def _start(self) -> None:
        if self.tracer is not None:
            self.tracer.begin_op(self.k)
        self.running = True
        self.t0 = time.perf_counter()

    def stop(self) -> None:
        step = time.perf_counter() - self.t0
        self.running = False
        if self.tracer is not None:
            self.tracer.end_op()
        after = calibrate()
        self.wall += step
        self.ref += reference(step, (self.cals[-1] + after) / 2)
        self.cals.append(after)

    def pause(self) -> None:
        self.stop()
        self._start()


def set_up(args: argparse.Namespace):
    """Import the package and run one warm-up iteration, the import timed
    as one step and the warm-up step by step.

    Returns the workload, the set-up time in wall and in reference seconds,
    and the check of the warm-up output.
    """
    calibrate()  # the first run after start-up or idling reads slow
    before = calibrate()
    start = time.perf_counter()
    import quadmap

    import workloads

    if not Path(quadmap.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"quadmap imported from {quadmap.__file__}, not from {SRC}")
    wl = workloads.WORKLOADS[args.workload](args.seed, args.tiny)
    seconds = time.perf_counter() - start
    after = calibrate()
    clock = StepClock(-1, after, None)
    output = wl.run(-1, clock.pause)
    clock.stop()
    wall = seconds + clock.wall
    ref = reference(seconds, (before + after) / 2) + clock.ref
    return wl, (wall, ref), wl.check(output)


def probe_setup(args: argparse.Namespace) -> list[float]:
    """Set-up time of a fresh interpreter running this workload."""
    cmd = forwarded(args, args.workload) + ["--setup-probe"]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=170)
    if done.returncode != 0:
        raise RuntimeError(f"set-up probe failed:\n{done.stderr}")
    return json.loads(done.stdout.splitlines()[-1])["setup"]


# -- measurement -------------------------------------------------------------


def measure(wl, seconds: float, tracer=None) -> list[dict]:
    """Closed loop from iteration 0 until ``seconds`` have passed; at least
    one iteration, so ``seconds`` 0 runs exactly one."""
    from workloads import Checked

    rows = []
    calibrate()  # the first run after start-up or idling reads slow
    cal = calibrate()
    start = time.perf_counter()
    k = 0
    while k == 0 or time.perf_counter() - start < seconds:
        clock = StepClock(k, cal, tracer)
        try:
            output = wl.run(k, clock.pause)
            clock.stop()
            checked = wl.check(output)
            del output
        except Exception:
            if clock.running:
                clock.stop()
            checked = Checked(wl.ops_per_iteration, [traceback.format_exc()], [])
        rows.append(
            {"k": k, "seconds": clock.wall, "reference_s": clock.ref, "cals": clock.cals,
             "checked": checked}
        )
        cal = clock.cals[-1]
        k += 1
    return rows


def quartiles(values: list[float]) -> list[float]:
    return statistics.quantiles(values, n=4) if len(values) > 1 else list(values) * 3


def tail(op_ms: list[float]) -> dict | None:
    """Highest percentile with at least TAIL_BEYOND ops beyond it."""
    if len(op_ms) < TAIL_SAMPLES:
        return None
    ranked = sorted(op_ms)
    keep = len(ranked) - TAIL_BEYOND
    return {
        "value": ranked[keep - 1],
        "percentile": 100.0 * keep / len(ranked),
        "samples": len(ranked),
    }


def op_seconds(wl, rows: list[dict], ref: bool) -> list[float]:
    """Time per op of each iteration, in reference or in wall seconds."""
    return [r["reference_s" if ref else "seconds"] / wl.ops_per_iteration for r in rows]


def end_to_end(wl, rows: list[dict], setup: list[float], ref: bool) -> dict:
    per_op = op_seconds(wl, rows, ref)
    return {
        "ops_per_s": len(per_op) / sum(per_op),
        "op_p50_ms": 1000.0 * statistics.median(per_op),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "setup_s": statistics.median(setup),
    }


def per_layer(tracer, ops: int, scale: float, overhead: float) -> dict:
    """Totals of the traced phase, per op; layers that never ran read 0.

    Times are multiplied by ``scale``, which turns them into reference
    seconds.
    """
    from tracing import LAYERS

    from quadmap.harness import EXPERIMENTS

    totals = dict.fromkeys(
        [f"{layer}.{kind}" for layer in LAYERS for kind in ("self_s", "calls", "objects")]
        + [f"{layer}.validate_s" for layer in ("trees", "labeled", "planar_map")]
        + [f"planar_map.{kind}" for kind in ("build_s", "query_s", "io_s", "maps", "darts")]
        + [f"harness.{stat}_s" for stat in EXPERIMENTS]
        + ["paths.steps", "harness.rng_streams", "gc.pause_s", "gc.collections", "validations"],
        0.0,
    )
    for (layer, cat), wall in tracer.self_time.items():
        seconds = wall * scale
        if layer != "gc":
            totals[f"{layer}.self_s"] = totals.get(f"{layer}.self_s", 0.0) + seconds
        if cat != "other":
            totals[f"{layer}.{cat}_s"] = totals.get(f"{layer}.{cat}_s", 0.0) + seconds
    for stat, wall in tracer.stat_time.items():
        totals[f"harness.{stat}_s"] = wall * scale
    totals.update(tracer.counts)
    out = {name: value / ops for name, value in totals.items()}
    out["validations_per_op"] = out.pop("validations")
    out["trace_overhead_ratio"] = overhead
    return out


def self_shares(tracer) -> dict:
    layers = tracer.layer_self_time()
    total = sum(layers.values())
    return {layer: seconds / total for layer, seconds in sorted(layers.items())}


# -- run record --------------------------------------------------------------


def git_commit() -> str | None:
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True
        )
    except OSError:  # no git on this machine
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def machine() -> dict:
    model = platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    import numpy

    return {
        "nproc": os.cpu_count(),
        "cpu_model": model,
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "quadmap").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def record_rows(wl, rows: list) -> list[dict]:
    return [
        {
            "k": r["k"],
            "seconds": r["seconds"],
            "reference_s": r["reference_s"],
            "cal_s": r["cals"],
            "inputs": wl.inputs(r["k"]),
            "failed_ops": r["checked"].failed,
            "problems": r["checked"].problems,
            "digests": r["checked"].digests,
        }
        for r in rows
    ]


def run_digest(rows: list) -> str:
    h = hashlib.sha256()
    for r in rows:
        h.update(",".join(r["checked"].digests).encode() + b";")
    return h.hexdigest()[:16]


# -- main --------------------------------------------------------------------


def main(argv: list[str]) -> int:
    if not (SRC / "quadmap" / "__init__.py").is_file():
        print(f"error: no quadmap package under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    args = parse_args(argv, names)
    if args.workload == "all":
        codes = [subprocess.run(forwarded(args, name), cwd=ROOT).returncode for name in names]
        return max(codes)
    sys.path.insert(0, str(SRC))
    load_before = os.getloadavg()
    wl, setup, warm = set_up(args)
    if args.setup_probe:
        print(json.dumps({"setup": setup}))
        return 0
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}{'-tiny' if args.tiny else ''}"
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "tiny": args.tiny,
        "tracing": bool(args.trace),
        "machine": machine(),
        "git_commit": git_commit(),
        "source_sha256": source_digest(),
        "load_before": load_before,
        "cal_reference_s": CAL_REFERENCE_S,
    }
    OUT.mkdir(exist_ok=True)
    if args.trace:
        import workloads
        from tracing import Tracer

        untraced = measure(wl, args.seconds / 3)
        with Tracer([workloads]) as tracer:
            traced = measure(wl, args.seconds * 2 / 3, tracer)
        common = min(len(untraced), len(traced))
        overhead = sum(op_seconds(wl, traced[:common], True)) / sum(
            op_seconds(wl, untraced[:common], True)
        )
        scale = CAL_REFERENCE_S / statistics.mean(c for r in traced for c in r["cals"])
        rows, timed = untraced + traced, untraced
        metric_specs = spec["per_layer"]
        values = per_layer(tracer, wl.ops_per_iteration * len(traced), scale, overhead)
        tracer.write_spans(OUT / f"{stem}-spans.json")
        record["self_time_share"] = self_shares(tracer)
        record["dropped_spans"] = tracer.dropped_spans
        record["iterations"] = record_rows(wl, untraced)
        record["traced_iterations"] = record_rows(wl, traced)
    else:
        setups = [setup] + [probe_setup(args) for _ in range(SETUP_SAMPLES - 1)]
        rows = timed = measure(wl, args.seconds)
        metric_specs = spec["end_to_end"]
        values = end_to_end(wl, rows, [ref for _, ref in setups], ref=True)
        wall = end_to_end(wl, rows, [seconds for seconds, _ in setups], ref=False)
        record["setup_samples"] = [{"wall_s": w, "reference_s": r} for w, r in setups]
        record["wall_clock"] = wall
        record["iterations"] = record_rows(wl, rows)
    attempted = wl.ops_per_iteration * len(rows)
    failed = sum(r["checked"].failed for r in rows)
    problems = [f"warm-up: {p}" for p in warm.problems]
    for r in rows:
        problems += [f"iteration {r['k']}: {p}" for p in r["checked"].problems]
    op_ms = [1000.0 * s for s in op_seconds(wl, timed, True)]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in metric_specs}
    record.update(
        {
            "load_after": os.getloadavg(),
            "attempted": attempted,
            "failed": failed,
            "ops_failed_ratio": failed / attempted,
            "op_ms_quartiles": quartiles(op_ms),
            "op_tail_ms": tail(op_ms),
            "output_digest": run_digest(rows),
            "problems": problems,
            "metrics": metrics,
        }
    )
    record_path = OUT / f"{stem}.json"
    record_path.write_text(json.dumps(record, indent=1) + "\n")

    for p in problems:
        print(f"FAILED {p}", file=sys.stderr)
    for name, m in metrics.items():
        print(f"{name} = {m['value']!r} {m['unit']}")
    print(f"ops_failed_ratio = {failed / attempted!r} ratio ({failed} of {attempted} ops)")
    t = record["op_tail_ms"]
    if t is None:
        print(f"op_tail_ms not reported: {len(op_ms)} timed iterations, need {TAIL_SAMPLES}")
    else:
        print(f"op_tail_ms = {t['value']!r} ms (p{t['percentile']:.1f} of {t['samples']})")
    if "wall_clock" in record:
        print("wall clock: " + ", ".join(f"{k} = {v:.6g}" for k, v in record["wall_clock"].items()))
    if "self_time_share" in record:
        print("self time share: " + ", ".join(
            f"{k} {v:.3f}" for k, v in record["self_time_share"].items()
        ))
    print(f"output digest {record['output_digest']}; record {record_path.relative_to(ROOT)}")
    result = {
        "correct": failed == 0 and not warm.problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
