"""Per-layer timings of the contour, tree and map kernels, written as JSON.

Run from the repository root against the ``quadmap`` on ``PYTHONPATH``:

    PYTHONPATH=src python3 bench/array_kernels.py --sizes 1000 10000 --repeats 3 --out after.json
    PYTHONPATH=/path/to/older/src python3 bench/array_kernels.py ... --out before.json

Each tree and map layer is timed with ``perf_counter`` on the same seeded
draw per size (``harness.sample_rooted_pd(n, default_rng([seed, n]))``):
``encode``, ``decode``, the public validation of ``PlaneTree`` (from the
children lists) and of ``Encoding``, the chord kernels ``_predecessor_array``
and ``_chord_arrays`` of the drawn encoding, the map kernels, the checks
``HalfEdgeMap(...)`` and ``validate_quadrangulation`` of a fresh map, and the
conversions ``map_of_quad`` (of the drawn quadrangulation) and
``quad_of_map`` (of its ``map_of_quad``), ``fiber`` of a pointed draw
(``harness.sample_pointed_ps(n, default_rng([seed, n, 2]))``), and
``tree_of_quad`` once more on the map of the path labeled (1, 2, ..., 2),
whose root vertex holds 2n darts and one tree edge
(``tree_of_quad_high_degree``), and the checks ``HalfEdgeMap(...)`` and
``load_map`` once more on the map of the path labeled (1, 2, ..., n+1),
whose radius is n+1 (``HalfEdgeMap_validation_high_diameter``,
``load_map_high_diameter``): a check that walks the map level by level
takes O(n) numpy calls there.  The contour
layers are timed on one walk of n edges, as one replica of the scaling
experiment draws it: ``dyck_walk_batch``, ``uniform_encoding_arrays`` and
``contour_accumulate`` of i.i.d. label increments along a fixed walk.  The
code kernels ``_rooted_code_arrays`` and ``_pointed_code_arrays`` and the
level kernel ``_bfs_arrays`` are also timed, whatever the sizes, at the
shape of the exhaustive battery: one
stack of the chord maps of all well-labeled trees with 5 edges, each
rooted at dart 1 and pointed and started at vertex 0, as is
``_predecessor_array`` of their label bodies.  The packed sort
``paths._stable_order`` is timed on the ``tail`` of a 2^15-face map
(2^17 darts), the size of perfbench's ``bijection`` op.  Before all that,
one replica of each scaling statistic (``radius``, ``profile``,
``hp_gap``, ``class_diameter``, ``edge_gap``) is timed at n = 2^14, each
repeat on the stream of its own size index.  The median and the spread
of ``--repeats`` runs are reported, and beside them the median number of
minor page faults (``ru_minflt`` of this process alone) that one run
took: arrays that the allocator hands back to the system are faulted in
again on the next run.  The speed of a shared machine drifts by tens of
percent within seconds, so each row also reports its median in
perfbench's reference seconds (``median_ref_s``): perfbench's calibration
loop runs once before and once after the row's repeats, and the median is
scaled by the mean of the two (``perfbench/run.py``, ``calibrate`` and
``reference``).
"""
from __future__ import annotations

import argparse
import itertools
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

import numpy as np

from quadmap import enumeration, harness, labeled, paths, planar_map, schaeffer, snake, trees

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))
from perfbench.run import calibrate, reference  # noqa: E402


def _minor_faults() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt


def _timed(fn, repeats: int, setup=lambda: None) -> dict:
    times, faults = [], []
    cals = [calibrate()]
    for _ in range(repeats):
        arg = setup()
        before = _minor_faults()
        start = time.perf_counter()
        fn(arg)
        times.append(time.perf_counter() - start)
        faults.append(_minor_faults() - before)
    cals.append(calibrate())
    return {
        "median_ref_s": reference(statistics.median(times), statistics.mean(cals)),
        "cal_s": cals,
        "median_s": statistics.median(times),
        "min_s": min(times),
        "max_s": max(times),
        "minflt_median": statistics.median(faults),
    }


def layers(n: int, seed: int, repeats: int) -> dict:
    """Time every contour, tree and map layer at size n.  Each repeat gets
    a map freshly built by ``quad_of_tree``, so no repeat reuses the orbits
    an earlier one cached on the map."""
    tree, quad = harness.sample_rooted_pd(n, np.random.default_rng([seed, n]))
    enc = labeled.encode(tree)
    body, walk = enc.labels[None, :-1], enc.walk.steps[None]
    children = tree.tree.children
    text = planar_map.save_map(quad)
    fresh = lambda: schaeffer.quad_of_tree(tree)  # noqa: E731
    pointed = lambda: harness.sample_pointed_ps(n, np.random.default_rng([seed, n, 2]))  # noqa: E731
    steps = np.concatenate((np.arange(n + 1), np.arange(n - 1, -1, -1)))
    path = labeled.LabeledTree(trees.walk_to_tree(trees.Walk(steps)), [1] + [2] * n)
    far = schaeffer.quad_of_tree(labeled.LabeledTree(path.tree, np.arange(1, n + 2)))
    far_text = planar_map.save_map(far)
    rng = np.random.default_rng([seed, n, 1])
    walks = paths.dyck_walk_batch(n, 1, rng)
    incs = rng.integers(-1, 2, size=n, dtype=np.int64)
    return {
        "dyck_walk_batch": _timed(lambda _: paths.dyck_walk_batch(n, 1, rng), repeats),
        "uniform_encoding_arrays": _timed(lambda _: paths.uniform_encoding_arrays(n, rng), repeats),
        "contour_accumulate": _timed(lambda _: paths.contour_accumulate(walks, incs, start=1), repeats),
        "sample_rooted_pd": _timed(
            lambda _: harness.sample_rooted_pd(n, np.random.default_rng([seed, n])), repeats
        ),
        "encode": _timed(lambda _: labeled.encode(tree), repeats),
        "decode": _timed(lambda _: labeled.decode(enc), repeats),
        "PlaneTree_validation": _timed(lambda _: trees.PlaneTree(children), repeats),
        "Encoding_validation": _timed(lambda _: labeled.Encoding(enc.labels, enc.walk), repeats),
        "_predecessor_array": _timed(lambda _: schaeffer._predecessor_array(body), repeats),
        "_chord_arrays": _timed(lambda _: schaeffer._chord_arrays(body, walk), repeats),
        "quad_of_tree": _timed(lambda _: schaeffer.quad_of_tree(tree), repeats),
        "tree_of_quad": _timed(schaeffer.tree_of_quad, repeats, fresh),
        "tree_of_quad_high_degree": _timed(
            schaeffer.tree_of_quad, repeats, lambda: schaeffer.quad_of_tree(path)
        ),
        "bfs_distances": _timed(lambda q: planar_map.bfs_distances(q.map, q.origin), repeats, fresh),
        "rooted_code": _timed(lambda q: planar_map.rooted_code(q.map, q.root), repeats, fresh),
        "map_of_quad": _timed(planar_map.map_of_quad, repeats, fresh),
        "quad_of_map": _timed(
            planar_map.quad_of_map, repeats, lambda: planar_map.map_of_quad(fresh())
        ),
        "fiber": _timed(schaeffer.fiber, repeats, pointed),
        "save_map": _timed(planar_map.save_map, repeats, fresh),
        "load_map": _timed(lambda _: planar_map.load_map(text), repeats),
        "HalfEdgeMap_validation": _timed(
            lambda q: planar_map.HalfEdgeMap(q.map.twin, q.map.nxt, q.map.tail), repeats, fresh
        ),
        "validate_quadrangulation": _timed(
            lambda q: planar_map.validate_quadrangulation(q.map), repeats, fresh
        ),
        "HalfEdgeMap_validation_high_diameter": _timed(
            lambda _: planar_map.HalfEdgeMap(far.map.twin, far.map.nxt, far.map.tail), repeats
        ),
        "load_map_high_diameter": _timed(lambda _: planar_map.load_map(far_text), repeats),
    }


def small_stack(repeats: int) -> dict:
    """Time the code and level kernels on the stack of all well-labeled
    5-edge quads."""
    n = 5
    labels, walks, shape = enumeration._well_labeled_arrays(n)
    twin, nxt, tail = schaeffer._chord_arrays(labels[:, :-1], walks[shape])
    roots, origins = np.ones(len(twin), dtype=np.int64), np.zeros(len(twin), dtype=np.int64)
    return {
        "n": n,
        "maps": len(twin),
        "_rooted_code_arrays": _timed(
            lambda _: planar_map._rooted_code_arrays(nxt, twin, roots), repeats
        ),
        "_pointed_code_arrays": _timed(
            lambda _: planar_map._pointed_code_arrays(nxt, twin, tail, 0), repeats
        ),
        "_bfs_arrays": _timed(lambda _: planar_map._bfs_arrays(twin, tail, n + 2, origins), repeats),
        "_predecessor_array": _timed(
            lambda _: schaeffer._predecessor_array(labels[:, :-1]), repeats
        ),
    }


def packed_sort(seed: int, repeats: int) -> dict:
    """Time ``paths._stable_order`` on the ``tail`` of a 2^15-face map."""
    tail = harness.sample_rooted_pd(2**15, np.random.default_rng([seed, 2**15]))[1].map.tail
    return {"darts": tail.size, "_stable_order": _timed(lambda _: paths._stable_order(tail), repeats)}


def rerooting(seed: int, repeats: int) -> dict:
    """Time the rerooting kernel ``paths._reroot`` through its callers: one
    corner of a 2^14 snake path (``snake.reroot_path`` at its first head
    minimum), one corner per row through ``paths._reroot_arrays`` on a drawn
    2^15-edge encoding and on the stack of all labeled trees with 5 edges,
    each row at its first label minimum, the exhaustive keys
    ``paths._reroot_keys`` at n = 5 and 6, and the public functions built on
    them: ``orbit_decomposition(5)``, ``law_tables(4)``,
    ``unrooted_plane_tree_count(6)`` and ``stabilizer_size`` of a drawn
    labeled tree with 2^10 edges."""
    rng = np.random.default_rng([seed, 2**14])
    path = snake.sample_snake(2**14, rng)
    theta = snake.first_argmin(path.head)
    labels, walks = paths.uniform_encoding_arrays(2**15, rng)
    first = labels[:, :-1].argmin(axis=1)
    five, six = enumeration._encoding_arrays(5), enumeration._encoding_arrays(6)
    stack, stack_walks = five[0], five[1][five[2]]
    stack_first = stack[:, :-1].argmin(axis=1)
    tree = harness.sample_labeled_uniform(2**10, rng)
    return {
        "reroot_path_2^14": _timed(lambda _: snake.reroot_path(path, theta), repeats),
        "per_row_2^15": _timed(lambda _: paths._reroot_arrays(labels, walks, first), repeats),
        "per_row_n5_stack": _timed(
            lambda _: paths._reroot_arrays(stack, stack_walks, stack_first), repeats
        ),
        "_reroot_keys_n5": _timed(lambda _: paths._reroot_keys(*five), repeats),
        "_reroot_keys_n6": _timed(lambda _: paths._reroot_keys(*six), repeats),
        "orbit_decomposition_5": _timed(lambda _: enumeration.orbit_decomposition(5), repeats),
        "law_tables_4": _timed(lambda _: enumeration.law_tables(4), repeats),
        "unrooted_plane_tree_count_6": _timed(
            lambda _: enumeration.unrooted_plane_tree_count(6), repeats
        ),
        "stabilizer_size_2^10": _timed(lambda _: labeled.stabilizer_size(tree), repeats),
    }


def replicas(seed: int, repeats: int) -> dict:
    """Time one replica of each scaling statistic at size 2^14; repeat k
    draws on the streams of size index k."""
    n = 2**14
    lambdas = np.linspace(0.0, 3.0, 61)  # the profile experiment's grid
    stats = {
        "radius": lambda k: harness.radius_samples(n, 1, seed, k),
        "profile": lambda k: harness.profile_curve(n, 1, seed, lambdas, k),
        "hp_gap": lambda k: harness.hp_gap_samples(n, 1, seed, k),
        "class_diameter": lambda k: harness.class_diameter_samples(n, 1, seed, k),
        "edge_gap": lambda k: harness.edge_gap_samples(n, 1, seed, k),
    }
    index = itertools.count()
    rows = {name: _timed(stat, repeats, lambda: next(index)) for name, stat in stats.items()}
    return {"n": n, **rows}


def machine() -> dict:
    cpu = ""
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), "")
    except OSError:
        pass
    return {
        "cpu": cpu,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "platform": platform.platform(),
    }


def main() -> None:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--sizes", type=int, nargs="*", default=[1000, 10000, 100000, 1000000])
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--repeats", type=int, default=3)
    p.add_argument("--out", required=True)
    args = p.parse_args()
    record = {"machine": machine(), "seed": args.seed, "repeats": args.repeats}
    # replicas first: the large layers would leave the heap grown for them
    record["replicas"] = replicas(args.seed, args.repeats)
    record["layers"] = {n: layers(n, args.seed, args.repeats) for n in args.sizes}
    record["small_stack"] = small_stack(args.repeats)
    record["rerooting"] = rerooting(args.seed, args.repeats)
    record["packed_sort"] = packed_sort(args.seed, args.repeats)
    record["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    with open(args.out, "w") as fh:
        json.dump(record, fh, indent=1)


if __name__ == "__main__":
    main()
