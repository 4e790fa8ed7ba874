"""The benchmark's workloads: inputs from the seed, one iteration, checks.

Every workload is a closed loop of one caller.  Iteration ``k`` (``k = -1``
is the warm-up) draws its inputs from the benchmark seed and ``k`` alone,
so a given seed replays the same inputs on every commit.  ``run`` does only
the program's work, and calls ``pause`` between its steps so that the
timer can calibrate there; ``check`` verifies the output against facts
that hold for any correct program, and digests it.  A changed digest is reported but
is not a failure: some later changes alter sampled rows on purpose.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from quadmap import cli, enumeration, harness, planar_map, schaeffer


@dataclass
class Checked:
    """Outcome of checking one iteration."""

    failed: int
    problems: list[str]
    digests: list[str]


def _digest(*parts: str) -> str:
    return hashlib.sha256("\0".join(parts).encode()).hexdigest()[:16]


# -- scaling ----------------------------------------------------------------

_LAMBDAS = 61  # profile grid points per size


class Scaling:
    """All five scaling statistics through ``harness.run_experiment``.

    One op is one replica of one statistic at one size (the snake radius
    column counts as one more size).  Iteration ``k`` runs each statistic
    once with ``replicas`` replicas and its own master seed.
    """

    name = "scaling"

    def __init__(self, seed: int, tiny: bool) -> None:
        self.seed = seed
        self.sizes = (2**6, 2**8) if tiny else (2**12, 2**14)
        self.grid_m = 2**6 if tiny else 2**12
        self.replicas = 4 if tiny else 50
        s = len(self.sizes)
        self.ops_by_stat = {
            "radius": (2 * s + 1) * self.replicas,
            "profile": s * self.replicas,
            "hp_gap": s * self.replicas,
            "class_diameter": s * self.replicas,
            "edge_gap": s * self.replicas,
        }
        self.ops_per_iteration = sum(self.ops_by_stat.values())

    def master_seed(self, k: int) -> int:
        # run_experiment also uses master+1 and master+2 for the radius
        # laws, so iterations are spaced by 4 to keep their streams apart
        return (self.seed * 2**20 + k + 1) * 4

    def inputs(self, k: int) -> dict:
        master = self.master_seed(k)
        return {
            "master_seed": master,
            "stream_keys": "[master + {0,1,2}, size_index, replica] via harness.replica_rng",
            "sizes": list(self.sizes),
            "grid_m": self.grid_m,
            "replicas": self.replicas,
        }

    def run(self, k: int, pause) -> list[tuple[str, str]]:
        master = self.master_seed(k)
        out = []
        for stat in self.ops_by_stat:
            if out:
                pause()
            cfg = harness.ExperimentConfig(
                name=stat,
                sizes=self.sizes,
                replicas=self.replicas,
                seed=master,
                grid_m=self.grid_m,
            )
            out.append((stat, harness.run_experiment(cfg)))
        return out

    def check(self, output: list[tuple[str, str]]) -> Checked:
        failed, problems, digests = 0, [], []
        for stat, text in output:
            found = self._problems(stat, text)
            if found:
                failed += self.ops_by_stat[stat]
                problems += [f"{stat}: {p}" for p in found]
            digests.append(_digest(text))
        return Checked(failed, problems, digests)

    def _problems(self, stat: str, text: str) -> list[str]:
        lines = text.splitlines()
        body = [line for line in lines if not line.startswith("#")]
        if f"# experiment={stat}" not in lines or not body:
            return ["missing header"]
        columns, rows = body[0].split(","), [r.split(",") for r in body[1:]]
        if stat == "radius":
            want_cols = ["experiment", "law", "n", "replica", "value"]
            keys = [(law, n) for n in self.sizes for law in ("rooted_pd", "pointed_ps")]
            keys.append(("snake", self.grid_m))
            want_rows = len(keys) * self.replicas
        elif stat == "profile":
            want_cols = ["experiment", "n", "lambda", "mean_value"]
            want_rows = len(self.sizes) * _LAMBDAS
        else:
            want_cols = ["experiment", "n", "replica", "value"]
            want_rows = len(self.sizes) * self.replicas
        if columns != want_cols:
            return [f"columns {columns}"]
        if len(rows) != want_rows or any(len(r) != len(want_cols) for r in rows):
            return [f"{len(rows)} rows, want {want_rows} of {len(want_cols)} fields"]
        if any(r[0] != stat for r in rows):
            return ["experiment column"]
        values = np.array([float(r[-1]) for r in rows])
        if not np.all(np.isfinite(values)) or values.min() < 0:
            return ["value not finite or negative"]
        problems = []
        if stat == "radius":
            seen = {(r[1], int(r[2])) for r in rows}
            if seen != set(keys):
                problems.append(f"law/size columns {sorted(seen)}")
            for r in rows:
                if r[1] == "snake":
                    continue
                label_range = float(r[4]) * int(r[2]) ** 0.25
                if abs(label_range - round(label_range)) > 1e-9 or round(label_range) < 1:
                    problems.append(f"radius {r[4]} at n={r[2]} is not a label range")
                    break
        elif stat == "profile":
            for n in self.sizes:
                curve = [(float(r[2]), float(r[3])) for r in rows if int(r[1]) == n]
                curve.sort()
                ys = [y for _, y in curve]
                if len(curve) != _LAMBDAS or ys[0] < 0 or ys[-1] > 1:
                    problems.append(f"profile at n={n} leaves [0, 1]")
                if any(b < a for a, b in zip(ys, ys[1:])):
                    problems.append(f"profile at n={n} decreases")
        else:
            if {int(r[1]) for r in rows} != set(self.sizes):
                problems.append("size column")
        return problems


# -- bijection ---------------------------------------------------------------


class Bijection:
    """One large rooted quadrangulation per op, through the chord bijection,
    BFS, canonical codes and a text round trip."""

    name = "bijection"
    ops_per_iteration = 1

    def __init__(self, seed: int, tiny: bool) -> None:
        self.seed = seed
        self.n = 2**6 if tiny else 2**15

    def stream_key(self, k: int) -> list[int]:
        return [self.seed, k + 1]

    def inputs(self, k: int) -> dict:
        return {"n": self.n, "stream_key": self.stream_key(k)}

    def run(self, k: int, pause) -> tuple:
        rng = np.random.default_rng(self.stream_key(k))
        tree, quad = harness.sample_rooted_pd(self.n, rng)
        pause()
        back = schaeffer.tree_of_quad(quad)
        pause()
        dist = planar_map.bfs_distances(quad.map, quad.origin)
        code = planar_map.rooted_code(quad.map, quad.root)
        pause()
        text = planar_map.save_map(quad)
        loaded = planar_map.load_map(text)
        loaded_code = planar_map.rooted_code(loaded.map, loaded.root)
        return tree, quad, back, dist, code, text, loaded_code

    def check(self, output: tuple) -> Checked:
        tree, quad, back, dist, code, text, loaded_code = output
        problems = []
        if quad.n != self.n or tree.n != self.n:
            problems.append("size")
        if back != tree:
            problems.append("tree_of_quad does not return the drawn tree")
        labels = tree.labels
        if len(dist) != len(labels) + 1 or dist[0] != 0 or any(
            dist[u + 1] != labels[u] for u in range(len(labels))
        ):
            problems.append("BFS distances differ from tree labels")
        if loaded_code != code:
            problems.append("load_map(save_map(q)) changes the rooted code")
        return Checked(1 if problems else 0, problems, [_digest(text)])


# -- exhaustive --------------------------------------------------------------


class Exhaustive:
    """The exact identity battery on every object up to a small size."""

    name = "exhaustive"
    ops_per_iteration = 1
    TV_N, TV = 4, Fraction(11, 210)  # from the exact law tables at n = 4

    def __init__(self, seed: int, tiny: bool) -> None:
        self.seed = seed  # the workload is deterministic
        self.max_n = 3 if tiny else 5

    def inputs(self, k: int) -> dict:
        return {"verify_max_n": self.max_n, "orbit_n": self.max_n, "tv_n": self.TV_N}

    def run(self, k: int, pause) -> tuple:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            status = cli.main(["verify", "--max-n", str(self.max_n)])
        pause()
        orbits = enumeration.orbit_decomposition(self.max_n)
        pause()
        tv = enumeration.tv_distance(self.TV_N)
        return status, buf.getvalue(), orbits, tv

    def check(self, output: tuple) -> Checked:
        status, text, orbits, tv = output
        problems = []
        lines = text.strip().splitlines() or [""]
        passed, _, total = lines[-1].split(" ")[0].partition("/")
        if status != 0 or not passed or passed != total or any(" FAIL" in ln for ln in lines):
            problems.append(f"verify exit {status}: {lines[-1]}")
        n = self.max_n
        labeled = math.comb(2 * n, n) // (n + 1) * 3**n
        if sum(o.size for o in orbits.orbits) != labeled:
            problems.append("orbit sizes do not sum to C_n 3^n")
        if tv != self.TV:
            problems.append(f"tv_distance({self.TV_N}) = {tv}")
        summary = f"{orbits.n_orbits},{labeled},{tv}"
        return Checked(1 if problems else 0, problems, [_digest(text, summary)])


WORKLOADS = {w.name: w for w in (Scaling, Bijection, Exhaustive)}
