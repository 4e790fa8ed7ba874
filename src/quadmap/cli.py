"""Command-line interface.

Subcommands: ``sample`` (draw trees or quadrangulations), ``enumerate``
(exact counts as CSV), ``verify`` (exhaustive identity battery, exit code
0 only if everything passes), ``experiment`` (scaling statistics to CSV)
and ``snake`` (limit-path draws as CSV).  The default master seed comes
from the QUADMAP_SEED environment variable when a command omits --seed.
"""
from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from . import enumeration, harness
from .labeled import encode, minima_set
from .planar_map import bfs_distances, pointed_code, radius, rooted_code, save_map
from .schaeffer import assemble, canonical_gluing, doddering, gluer, quad_of_tree, tree_of_quad
from .snake import sample_snake
from .trees import height_process

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
    kinds = [args.kind] if args.kind else list(enumeration.FAMILY_KINDS)
    lines = ["n,kind,count"]
    for kind in kinds:
        lines.append(f"{args.n},{kind},{len(enumeration.enumerate_family(args.n, kind))}")
    _write(args.output, "\n".join(lines) + "\n")
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
            sizes=tuple(args.sizes),
            replicas=args.replicas,
            seed=_default_seed(args.seed),
            grid_m=args.grid_m,
            output=args.output,
        )
    text = harness.run_experiment(cfg)
    if cfg.output is None:
        sys.stdout.write(text)
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    checks: list[tuple[str, bool, str]] = []

    def check(name: str, ok: bool, detail: str = "") -> None:
        checks.append((name, ok, detail))

    # bijection suite
    for n in range(1, args.max_n + 1):
        trees = enumeration.well_labeled_trees(n)
        quads = [quad_of_tree(t) for t in trees]
        codes = {rooted_code(q.map, q.root) for q in quads}
        check(f"bijection injective n={n}", len(codes) == len(trees), f"{len(codes)} codes")
        check(
            f"inverse round trip n={n}",
            all(tree_of_quad(q) == t for q, t in zip(quads, trees)),
        )
        ok = True
        for t, q in zip(trees, quads):
            enc = encode(t)
            body = enc.labels[:-1]
            d = doddering(body)
            g = gluer(t)
            built = assemble(d, g, canonical_gluing(d, g))
            ok = ok and rooted_code(built.map, built.root) == rooted_code(q.map, q.root)
            rhp = height_process(d.tree, "reverse")
            ok = ok and rhp == (0,) + tuple(body)
            dist = bfs_distances(q.map, 0)
            ok = ok and all(dist[u + 1] == t.labels[u] for u in range(t.tree.n_nodes))
            ok = ok and q.map.degree(0) == len(minima_set(enc.labels))
            ok = ok and radius(q) == max(t.labels)
        check(f"gluing and metrics n={n}", ok)
    # counting
    for n in range(1, min(args.max_n, enumeration.MAX_LAW_N) + 1):
        count = len(enumeration.labeled_trees(n))
        check(
            f"labeled count n={n}",
            count == enumeration.catalan(n) * 3**n,
            f"{count}",
        )
    for n in range(2, 7):
        check(
            f"walkup n={n}",
            enumeration.walkup_count(n) == enumeration.unrooted_plane_tree_count(n),
        )
    for n in range(1, min(args.max_n, enumeration.MAX_LAW_N) + 1):
        dec = enumeration.orbit_decomposition(n)
        pointed = {
            pointed_code(q.map, q.map.tail[q.root])
            for q in enumeration.rooted_quads(n)
        }
        check(f"orbits = pointed quads n={n}", dec.n_orbits == len(pointed))
    for n in range(1, min(args.max_n, 3) + 1):
        tables = enumeration.law_tables(n)
        check(
            f"laws sum to one n={n}",
            sum(r.p_s for r in tables.pointed) == 1
            and sum(r.p_d for r in tables.rooted) == 1
            and sum(r.p_u for r in tables.pointed) == 1,
        )
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
    p.add_argument("--config", help="JSON config file")
    p.add_argument("--name", choices=harness.EXPERIMENTS)
    p.add_argument("--sizes", type=int, nargs="+", default=[1024, 4096])
    p.add_argument("--replicas", type=int, default=200)
    p.add_argument("--seed", type=int)
    p.add_argument("--grid-m", type=int, default=2**12)
    p.add_argument("--output", "-o")
    p.set_defaults(func=_cmd_experiment)

    p = sub.add_parser("snake", help="sample limit paths as CSV")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--count", type=int, default=1)
    p.add_argument("--seed", type=int)
    p.add_argument("--output", "-o")
    p.set_defaults(func=_cmd_snake)

    args = parser.parse_args(argv)
    if args.command == "experiment" and not args.config and not args.name:
        parser.error("experiment needs --name or --config")
    if args.command == "verify" and not 1 <= args.max_n <= enumeration.MAX_LISTING_N:
        parser.error(
            f"--max-n must be between 1 and {enumeration.MAX_LISTING_N} "
            "(MAX_LISTING_N, the exhaustive listing bound)"
        )
    return args.func(args)


if __name__ == "__main__":
    raise SystemExit(main())
