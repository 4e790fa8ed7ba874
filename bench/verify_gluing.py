"""Timings and memory of ``quadmap verify`` by stage, written as JSON.

Run from the repository root against the ``quadmap`` on ``PYTHONPATH``:

    PYTHONPATH=src python3 bench/verify_gluing.py stages --max-n 6 --repeats 3
    PYTHONPATH=src python3 bench/verify_gluing.py ascii
    PYTHONPATH=src python3 bench/verify_gluing.py rss --what all

``stages`` runs one warm-up ``verify --max-n K`` and then ``--repeats``
timed ones in this process, with stdout captured; each kernel that
``quadmap.cli`` calls by module-level name is wrapped with a
``perf_counter`` accumulator, and ``other`` is the rest of the command
(mostly the counting checks).  ``ascii`` times ``planar_map._ascii_ints``
on one row of 524,288 values, a ``save_map`` line of a 2^18-edge map.
``rss`` reports the peak resident memory of this process before and after
a part of perfbench's ``exhaustive`` op (``verify --max-n 5``, then
``orbit_decomposition(5)`` and ``tv_distance(4)``).  Run it in a fresh
process per measurement.
"""
from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import time
import timeit

import numpy as np

from quadmap import cli, enumeration
from quadmap.planar_map import _ascii_ints

STAGES = {
    "_chord_arrays": "chord",
    "_rooted_code_arrays": "rooted_codes",
    "_bfs_arrays": "bfs",
    "_tree_of_quad_arrays": "inverse",
    "_pointed_code_arrays": "pointed_codes",
    "_gluing_check": "gluing_check",
}


def _verify(max_n: int) -> None:
    with contextlib.redirect_stdout(io.StringIO()):
        if cli.main(["verify", "--max-n", str(max_n)]) != 0:
            raise SystemExit("verify failed")


def stages(max_n: int, repeats: int) -> dict:
    spent: dict[str, float] = {}

    def wrap(module, name: str, label: str) -> None:
        inner = getattr(module, name)

        def timed(*args, **kwargs):
            start = time.perf_counter()
            try:
                return inner(*args, **kwargs)
            finally:
                spent[label] = spent.get(label, 0.0) + time.perf_counter() - start

        setattr(module, name, timed)

    wrap(enumeration, "_well_labeled_arrays", "listing")
    for name, label in STAGES.items():
        wrap(cli, name, label)
    _verify(max_n)
    spent.clear()
    walls = []
    for _ in range(repeats):
        start = time.perf_counter()
        _verify(max_n)
        walls.append(time.perf_counter() - start)
    split = {label: round(s / repeats, 4) for label, s in sorted(spent.items())}
    split["other"] = round(sum(walls) / repeats - sum(split.values()), 4)
    return {"max_n": max_n, "wall_s": [round(w, 4) for w in walls], "stages_mean_s": split}


def ascii_timings() -> dict:
    values = np.random.default_rng(1).integers(0, 524288, 524288)
    best = min(timeit.repeat(lambda: _ascii_ints(values), number=1, repeat=15))
    return {"one_row_ms": round(best * 1e3, 2)}


def rss(what: str) -> dict:
    def peak_mb() -> float:
        return round(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 2)

    before = peak_mb()
    if what in ("verify", "all"):
        _verify(5)
    if what in ("orbits", "all"):
        enumeration.orbit_decomposition(5)
        enumeration.tv_distance(4)
    return {"what": what, "peak_mb_before": before, "peak_mb_after": peak_mb()}


def main() -> None:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = p.add_subparsers(dest="command", required=True)
    s = sub.add_parser("stages")
    s.add_argument("--max-n", type=int, default=5)
    s.add_argument("--repeats", type=int, default=3)
    sub.add_parser("ascii")
    r = sub.add_parser("rss")
    r.add_argument("--what", choices=("verify", "orbits", "all"), default="all")
    args = p.parse_args()
    if args.command == "stages":
        result = stages(args.max_n, args.repeats)
    elif args.command == "ascii":
        result = ascii_timings()
    else:
        result = rss(args.what)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
