"""Command-line interface.

Subcommands: ``sample`` (draw trees or quadrangulations), ``enumerate``
(exact counts as CSV), ``verify`` (exhaustive identity battery, exit code
0 only if everything passes), ``experiment`` (scaling statistics to CSV)
and ``snake`` (limit-path draws as CSV).  The default master seed comes
from the QUADMAP_SEED environment variable when a command omits --seed.
A bad argument value or an unreadable file (a ``ValueError`` or
``OSError`` from the command) is reported as a usage error, exit code 2.
"""
from __future__ import annotations

import argparse
import os
import sys
from collections import Counter

import numpy as np

from . import enumeration, harness
from .labeled import _node_labels, encode
from .planar_map import (
    _bfs_arrays,
    _csr_rotation_arrays,
    _pointed_code_arrays,
    _rooted_code_arrays,
    save_map,
)
from .schaeffer import _chord_arrays, _glued_arrays, _predecessor_array, _tree_of_quad_arrays
from .snake import sample_snake

__all__ = ["main"]


def _default_seed(value: int | None) -> int:
    if value is not None:
        return value
    return int(os.environ.get("QUADMAP_SEED", "0"))


def _write(path: str | None, text: str) -> None:
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w") as fh:
            fh.write(text)


def _cmd_sample(args: argparse.Namespace) -> int:
    rng = np.random.default_rng(_default_seed(args.seed))
    chunks: list[str] = []
    for _ in range(args.count):
        if args.kind == "labeled":
            tree = harness.sample_labeled_uniform(args.n, rng)
            chunks.append(encode(tree).to_lines() + "\n")
        elif args.kind == "rooted-pd":
            _, quad = harness.sample_rooted_pd(args.n, rng)
            chunks.append(save_map(quad))
        else:
            pq = harness.sample_pointed_ps(args.n, rng)
            chunks.append(save_map(pq))
    _write(args.output, "\n".join(chunks))
    return 0


def _cmd_enumerate(args: argparse.Namespace) -> int:
    counts = enumeration._family_counts(args.n)
    kinds = [args.kind] if args.kind else enumeration.FAMILY_KINDS
    rows = "".join(f"{args.n},{kind},{counts[kind]}\n" for kind in kinds)
    _write(args.output, "n,kind,count\n" + rows)
    return 0


def _cmd_snake(args: argparse.Namespace) -> int:
    rng = np.random.default_rng(_default_seed(args.seed))
    if args.count == 1:
        _write(args.output, sample_snake(args.m, rng).to_csv())
        return 0
    base = args.output or "snake.csv"
    stem, dot, ext = base.rpartition(".")
    if not dot:
        stem, ext = base, "csv"
    for i in range(args.count):
        _write(f"{stem}_{i:03d}.{ext}", sample_snake(args.m, rng).to_csv())
    return 0


def _cmd_experiment(args: argparse.Namespace) -> int:
    if args.config:
        with open(args.config) as fh:
            cfg = harness.ExperimentConfig.from_json(fh.read())
    else:
        cfg = harness.ExperimentConfig(
            name=args.name,
            sizes=tuple(args.sizes or (1024, 4096)),
            replicas=200 if args.replicas is None else args.replicas,
            seed=_default_seed(args.seed),
            grid_m=2**12 if args.grid_m is None else args.grid_m,
            output=args.output,
        )
    text = harness.run_experiment(cfg)
    if cfg.output is None:
        sys.stdout.write(text)
    return 0


# verify runs the bijection kernels on slices of about this many darts,
# which bounds their working memory at every size
_VERIFY_DARTS = 2**14


def _bijection_checks(labels: np.ndarray, walks: np.ndarray):
    """Verify's bijection checks on (B, 2n+1) stacks of well-labeled
    encodings: the rooted codes of their quadrangulations, whether the
    inverse gives every tree back, whether the gluing and the BFS metrics
    agree, and the pointed codes for the sizes that have law tables (an
    empty list above them)."""
    count, n = len(labels), labels.shape[1] // 2
    twin, nxt, tail = _chord_arrays(labels[:, :-1], walks)
    roots, origins = np.ones(count, dtype=np.int64), np.zeros(count, dtype=np.int64)
    codes = _rooted_code_arrays(nxt, twin, roots)
    dist = _bfs_arrays(twin, tail, n + 2, origins)
    back_walks, back_labels = _tree_of_quad_arrays(twin, nxt, tail, dist, roots)
    node_labels = _node_labels(labels, walks)
    round_trip = np.array_equal(back_walks, walks) and np.array_equal(back_labels, node_labels)
    body = labels[:, :-1]
    minima = np.count_nonzero(body == body.min(axis=1, keepdims=True), axis=1)
    ok = bool(
        np.all(dist[:, 0] == 0)
        and np.array_equal(dist[:, 1:], node_labels)
        and np.array_equal(np.count_nonzero(tail == 0, axis=1), minima)
        and np.array_equal(dist.max(axis=1), node_labels.max(axis=1))
    )
    ok = _gluing_check(body, walks, nxt, tail) and ok
    pointed = _pointed_code_arrays(nxt, twin, tail, 0) if n <= enumeration.MAX_LAW_N else []
    return codes, round_trip, ok, pointed


def _gluing_check(body, walks, nxt, tail) -> bool:
    """Whether the doddering trees of the (B, 2n) label bodies, glued along
    their (B, 2n+1) gluer walks by one ``_glued_arrays`` call, have reverse
    height process (0, *body[b]), list every dart once and give the chord
    stack's (nxt, tail), offsets removed.  Mixed depths fail it."""
    count, m = len(body), 2 * body.shape[1]
    try:
        flat, sizes, depth, nested = _glued_arrays(_predecessor_array(body), walks)
    except ValueError:  # a glued vertex mixes depths
        return False
    listed = np.array_equal(np.sort(flat), np.arange(count * m))
    if not (listed and nested.all() and np.array_equal(depth, body)):
        return False
    glued_nxt, glued_tail = _csr_rotation_arrays(flat, sizes)
    row = np.arange(count)[:, None]
    return (
        np.array_equal(glued_nxt.reshape(count, m) - m * row, nxt)
        and np.array_equal(glued_tail.reshape(count, m) - (m // 4 + 2) * row, tail)
    )


def _cmd_verify(args: argparse.Namespace) -> int:
    checks: list[tuple[str, bool, str]] = []

    def check(name: str, ok: bool, detail: str = "") -> None:
        checks.append((name, ok, detail))

    # bijection suite, on stacks of well-labeled trees
    pointed_counts = {}
    for n in range(1, args.max_n + 1):
        labels, walks, shape = enumeration._well_labeled_arrays(n)
        codes, pointed, round_trip, ok = [], set(), True, True
        pieces = -(-len(labels) * 4 * n // _VERIFY_DARTS)
        for rows in np.array_split(np.arange(len(labels)), pieces):
            slice_codes, slice_round_trip, slice_ok, slice_pointed = _bijection_checks(
                labels[rows], walks[shape[rows]]
            )
            codes += slice_codes
            round_trip = round_trip and slice_round_trip
            ok = ok and slice_ok
            pointed.update(slice_pointed)
        distinct = len(set(codes))
        check(f"bijection injective n={n}", distinct == len(labels), f"{distinct} codes")
        check(f"inverse round trip n={n}", round_trip)
        check(f"gluing and metrics n={n}", ok)
        # Tutte's census: 2 * 3^n * C(2n, n) / ((n + 1)(n + 2)) rooted quadrangulations
        tutte = len(labels) * (n + 2) == 2 * 3**n * enumeration.catalan(n)
        check(f"rooted quads closed form n={n}", tutte, f"{len(labels)}")
        pointed_counts[n] = len(pointed)  # read for n <= MAX_LAW_N only
    # counting
    for n in range(1, min(args.max_n, enumeration.MAX_LAW_N) + 1):
        count = enumeration._family_counts(n)["labeled_trees"]
        check(f"labeled count n={n}", count == enumeration.catalan(n) * 3**n, f"{count}")
    for n in range(2, 7):
        check(
            f"walkup n={n}",
            enumeration.walkup_count(n) == enumeration.unrooted_plane_tree_count(n),
        )
    for n in range(1, min(args.max_n, enumeration.MAX_LAW_N) + 1):
        dec = enumeration.orbit_decomposition(n)
        check(f"orbits = pointed quads n={n}", dec.n_orbits == pointed_counts[n])
        stabilizers = Counter(orbit.stabilizer for orbit in dec.orbits)
        check(f"stabilizer counts n={n}", enumeration._stabilizer_counts(n, 3) == stabilizers)
    for n in range(1, min(args.max_n, 3) + 1):
        tables = enumeration.law_tables(n)
        check(
            f"laws sum to one n={n}",
            sum(r.p_s for r in tables.pointed) == 1
            and sum(r.p_d for r in tables.rooted) == 1
            and sum(r.p_u for r in tables.pointed) == 1,
        )
        tv = sum(abs(r.p_u - r.p_s) for r in tables.pointed) / 2
        check(f"tv formula n={n}", enumeration.tv_distance(n) == tv, f"{tv}")
    width = max(len(name) for name, _, _ in checks)
    failures = 0
    for name, ok, detail in checks:
        status = "PASS" if ok else "FAIL"
        extra = f"  {detail}" if detail else ""
        print(f"{name:<{width}}  {status}{extra}")
        failures += 0 if ok else 1
    print(f"{len(checks) - failures}/{len(checks)} checks passed")
    return 1 if failures else 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="quadmap",
        description="Random quadrangulations: exact bijections and scaling experiments.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("sample", help="draw random trees or quadrangulations")
    p.add_argument("--kind", choices=("labeled", "rooted-pd", "pointed-ps"), required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--count", type=int, default=1)
    p.add_argument("--seed", type=int)
    p.add_argument("--output", "-o")
    p.set_defaults(func=_cmd_sample)

    p = sub.add_parser("enumerate", help="exact counts as CSV")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--kind", choices=enumeration.FAMILY_KINDS)
    p.add_argument("--output", "-o")
    p.set_defaults(func=_cmd_enumerate)

    p = sub.add_parser("verify", help="run the exhaustive identity battery")
    p.add_argument("--max-n", type=int, default=4)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("experiment", help="run a scaling experiment")
    p.add_argument("--config", help="JSON config file, in place of all the other flags")
    p.add_argument("--name", choices=harness.EXPERIMENTS)
    p.add_argument("--sizes", type=int, nargs="+", help="default: 1024 4096")
    p.add_argument("--replicas", type=int, help="default: 200")
    p.add_argument("--seed", type=int)
    p.add_argument("--grid-m", type=int, help="default: 4096")
    p.add_argument("--output", "-o")
    p.set_defaults(func=_cmd_experiment)

    p = sub.add_parser("snake", help="sample limit paths as CSV")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--count", type=int, default=1)
    p.add_argument("--seed", type=int)
    p.add_argument("--output", "-o")
    p.set_defaults(func=_cmd_snake)

    args = parser.parse_args(argv)
    if args.command == "experiment":
        flags = ("name", "sizes", "replicas", "seed", "grid_m", "output")
        given = ["--" + f.replace("_", "-") for f in flags if getattr(args, f) is not None]
        if args.config and given:
            parser.error(f"--config cannot be combined with {', '.join(given)}")
        if not args.config and not args.name:
            parser.error("experiment needs --name or --config")
    if args.command in ("sample", "snake") and args.count < 1:
        parser.error("--count must be >= 1")
    if args.command == "snake" and args.count > 1 and args.output == "-":
        parser.error("--output - writes one path to stdout; --count must be 1")
    if args.command == "verify" and not 1 <= args.max_n <= enumeration.MAX_LISTING_N:
        parser.error(
            f"--max-n must be between 1 and {enumeration.MAX_LISTING_N} "
            "(MAX_LISTING_N, the exhaustive listing bound)"
        )
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        parser.error(f"{args.command}: {exc}")


if __name__ == "__main__":
    raise SystemExit(main())
