"""Seedable samplers and reproducible scaling experiments.

Samplers are exact: the uniform labeled-tree draw combines the
cycle-lemma tree sampler with i.i.d. label increments, the root-degree
weighted quadrangulation law comes out of rerooting a uniform labeled
tree at a uniform label minimum, and the pointed law is the image of the
uniform labeled tree under positivize-construct-point.

One replica driver runs every experiment statistic, the snake radius
included: replica r at size index i evaluates ``stat(n, rng)`` on its own
stream, keyed by ``[seed, size_index, replica]``.  A value depends only
on its key, so runs are prefix-stable in the replica count and the CSVs
are byte-identical for a fixed configuration regardless of scheduling.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .labeled import Encoding, LabeledTree, decode, first_min_corner, minima_set, reroot
from .paths import (
    contour_accumulate,
    doddering_rdfw,
    dyck_walk_batch,
    uniform_encoding_arrays,
)
from .planar_map import PointedQuadrangulation, RootedQuadrangulation
from .schaeffer import point, quad_of_tree
from .snake import SnakePath, distance, reroot_path, sample_snake_batch
from .trees import Walk

__all__ = [
    "ExperimentConfig",
    "EdgeLengthModel",
    "replica_rng",
    "sample_labeled_uniform",
    "sample_rooted_pd",
    "sample_pointed_ps",
    "perturbed_walk",
    "ks_statistic",
    "radius_samples",
    "profile_curve",
    "hp_gap_samples",
    "class_diameter_samples",
    "edge_gap_samples",
    "run_experiment",
    "EXPERIMENTS",
]


EXPERIMENTS = ("radius", "profile", "hp_gap", "class_diameter", "edge_gap")


@dataclass(frozen=True)
class ExperimentConfig:
    """What to run: experiment name, sizes, replicas per size, master seed,
    snake grid size, optional output path."""

    name: str
    sizes: tuple[int, ...]
    replicas: int
    seed: int
    grid_m: int = 2**12
    output: str | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "sizes", tuple(int(s) for s in self.sizes))
        if self.name not in EXPERIMENTS:
            raise ValueError(f"unknown experiment {self.name!r}; pick from {EXPERIMENTS}")
        if self.replicas < 1:
            raise ValueError("replicas must be >= 1")
        if any(b <= a for a, b in zip(self.sizes, self.sizes[1:])) or not self.sizes:
            raise ValueError("sizes must be nonempty and strictly increasing")

    @classmethod
    def from_json(cls, text: str) -> "ExperimentConfig":
        data = json.loads(text)
        if not isinstance(data, dict):
            raise ValueError("experiment config must be a JSON object")
        missing = [k for k in ("name", "sizes", "replicas", "seed") if k not in data]
        if missing:
            raise ValueError(f"experiment config is missing {', '.join(map(repr, missing))}")
        return cls(
            name=data["name"],
            sizes=tuple(data["sizes"]),
            replicas=int(data["replicas"]),
            seed=int(data["seed"]),
            grid_m=int(data.get("grid_m", 2**12)),
            output=data.get("output"),
        )


@dataclass(frozen=True)
class EdgeLengthModel:
    """I.i.d. positive edge lengths with mean 1.

    Families: ``deterministic`` (constant 1), ``uniform`` on [a, b] with
    (a+b)/2 = 1, and ``pareto`` with tail exponent beta > 1 (scale chosen
    for mean 1; the p-th moment is finite only for p < beta, and beta <= 4
    ruins the n^(1/4) scaling, which :func:`perturbed_walk` callers should
    treat as a diagnostic flag).
    """

    family: str
    params: tuple[float, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "params", tuple(float(p) for p in self.params))
        if self.family == "deterministic":
            if self.params:
                raise ValueError("deterministic lengths take no parameters")
        elif self.family == "uniform":
            if len(self.params) != 2:
                raise ValueError("uniform lengths need bounds (a, b)")
            a, b = self.params
            if not 0 <= a < b or abs((a + b) / 2 - 1.0) > 1e-12:
                raise ValueError("uniform bounds must satisfy 0 <= a < b, mean 1")
        elif self.family == "pareto":
            if len(self.params) != 1 or self.params[0] <= 1:
                raise ValueError("pareto needs a tail exponent beta > 1")
        else:
            raise ValueError("family must be deterministic, uniform or pareto")

    @property
    def tail_exponent(self) -> float | None:
        return self.params[0] if self.family == "pareto" else None

    def has_finite_moment(self, p: float) -> bool:
        return self.tail_exponent is None or p < self.tail_exponent

    def sample(self, size: int, rng: np.random.Generator) -> np.ndarray:
        if self.family == "deterministic":
            return np.ones(size)
        if self.family == "uniform":
            a, b = self.params
            return rng.uniform(a, b, size=size)
        beta = self.params[0]
        scale = (beta - 1.0) / beta  # mean 1
        return scale * (1.0 - rng.random(size)) ** (-1.0 / beta)


def replica_rng(master_seed: int, size_index: int, replica: int) -> np.random.Generator:
    """Independent stream per (seed, size, replica); schedule independent."""
    return np.random.default_rng([master_seed, size_index, replica])


# -- samplers ----------------------------------------------------------------


def _encoding_from_arrays(labels: np.ndarray, walk: np.ndarray) -> Encoding:
    return Encoding(tuple(int(x) for x in labels), Walk(tuple(int(x) for x in walk)))


def sample_labeled_uniform(n: int, rng: np.random.Generator) -> LabeledTree:
    """Uniform labeled tree with n edges."""
    labels, walks = uniform_encoding_arrays(n, rng)
    return decode(_encoding_from_arrays(labels[0], walks[0]))


def sample_rooted_pd(
    n: int, rng: np.random.Generator
) -> tuple[LabeledTree, RootedQuadrangulation]:
    """Draw under the root-degree weighted law on rooted quadrangulations.

    A uniform labeled tree rerooted at a uniform corner of its label
    minimum gives each well-labeled representative with the right weight;
    the pair (well-labeled tree, its quadrangulation) is returned.
    """
    labels, walks = uniform_encoding_arrays(n, rng)
    enc = _encoding_from_arrays(labels[0], walks[0])
    minima = minima_set(enc.labels)
    theta = minima[int(rng.integers(len(minima)))]
    tree = decode(reroot(enc, theta))
    return tree, quad_of_tree(tree)


def sample_pointed_ps(n: int, rng: np.random.Generator) -> PointedQuadrangulation:
    """Draw a pointed quadrangulation as the image of a uniform labeled tree."""
    labels, walks = uniform_encoding_arrays(n, rng)
    enc = _encoding_from_arrays(labels[0], walks[0])
    tree = decode(reroot(enc, first_min_corner(enc.labels)))
    return point(quad_of_tree(tree))


def perturbed_walk(
    encoding: Encoding, model: EdgeLengthModel, rng: np.random.Generator
) -> tuple[np.ndarray, float]:
    """Edge-length perturbation of the chord-tree contour.

    The chord tree of the well-labeled encoding has its unit edge lengths
    replaced by i.i.d. mean-1 lengths; the function returns the perturbed
    scaled contour and its sup distance to the unperturbed one (zero for
    deterministic lengths, vanishing as n grows when the lengths have
    enough moments).
    """
    if min(encoding.labels) < 1:
        raise ValueError("encoding must be well-labeled")
    walk, weighted = _chord_contours(np.array(encoding.labels[:-1]), model, rng)
    scale = encoding.n**0.25
    c_tilde = weighted / scale
    gap = float(np.abs(c_tilde - walk / scale).max())
    return c_tilde, gap


def _chord_contours(
    body: np.ndarray, model: EdgeLengthModel, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """Unit and length-weighted contours of the chord tree of a positive
    label body; the edge lengths are drawn from ``rng``."""
    walk = doddering_rdfw(body)[None, :]
    lengths = model.sample((walk.shape[1] - 1) // 2, rng)
    return walk[0], contour_accumulate(walk, lengths, start=0.0)[0]


# -- statistics ---------------------------------------------------------------


def ks_statistic(sample_a: Sequence[float], sample_b: Sequence[float]) -> float:
    """Two-sample Kolmogorov-Smirnov statistic (sup CDF difference)."""
    a = np.sort(np.asarray(sample_a, dtype=float))
    b = np.sort(np.asarray(sample_b, dtype=float))
    if a.size == 0 or b.size == 0:
        raise ValueError("samples must be nonempty")
    grid = np.concatenate((a, b))
    cdf_a = np.searchsorted(a, grid, side="right") / a.size
    cdf_b = np.searchsorted(b, grid, side="right") / b.size
    return float(np.abs(cdf_a - cdf_b).max())


# -- experiment statistics ----------------------------------------------------


def _replicas(stat, n: int, replicas: int, seed: int, size_index: int) -> np.ndarray:
    """``stat(n, rng)`` for r in range(replicas), each on the stream
    ``replica_rng(seed, size_index, r)``, stacked in replica order."""
    return np.array([stat(n, replica_rng(seed, size_index, r)) for r in range(replicas)])


def radius_samples(n: int, replicas: int, seed: int, size_index: int = 0) -> np.ndarray:
    """Scaled label ranges (max - min) / n^(1/4) of uniform labeled trees.

    This is the scaled radius under both laws of the ``radius`` experiment:
    for ``rooted_pd`` it is (max label - 1) / n^(1/4) of the rerooted
    well-labeled tree, which only sees the label range, and for
    ``pointed_ps`` it is the range of the unrerooted encoding.
    """
    def stat(n, rng):
        labels, _ = uniform_encoding_arrays(n, rng)
        return (labels.max() - labels.min()) / n**0.25

    return _replicas(stat, n, replicas, seed, size_index)


def snake_radius_samples(m: int, replicas: int, seed: int) -> np.ndarray:
    """Range of the sampled head process per draw (max of the rerooted head)."""
    def stat(m, rng):
        f, _ = sample_snake_batch(m, 1, rng)
        return f.max() - f.min()

    return _replicas(stat, m, replicas, seed, 0)


def profile_curve(
    n: int,
    replicas: int,
    seed: int,
    lambdas: np.ndarray,
    size_index: int = 0,
) -> np.ndarray:
    """Mean scaled cumulative corner-count curve over replicas.

    One replica's curve is the fraction of contour corners whose centered
    label is at most lambda * n^(1/4), evaluated by linear interpolation
    between integer levels; the labels are centered at their minimum, which
    matches the well-labeled representative of the draw.
    """
    levels = lambdas * n**0.25 + 1.0

    def stat(n, rng):
        labels, _ = uniform_encoding_arrays(n, rng)
        body = labels[0, : 2 * n] - labels.min()
        # cum[j] = fraction with centered label < j; level function at integers
        cum = np.concatenate(([0], np.cumsum(np.bincount(body)))) / (2 * n)
        return np.interp(levels, np.arange(cum.size), cum, right=1.0)

    curves = _replicas(stat, n, replicas, seed, size_index)
    return sum(curves, np.zeros(lambdas.shape[0])) / replicas


def hp_gap_samples(n: int, replicas: int, seed: int, size_index: int = 0) -> np.ndarray:
    """Scaled sup gap between a uniform tree's contour and height process.

    The t-grid runs over j/(2n); the height process is evaluated at nt by
    linear interpolation.  Both processes visit nodes in the same order, so
    the gap vanishes as n grows.
    """
    def stat(n, rng):
        walk = dyck_walk_batch(n, 1, rng)[0]
        heights = np.concatenate(([0], walk[1:][np.diff(walk) > 0]))
        # height process at half-integer positions j/2, j = 0..2n
        dense = np.empty(2 * n + 1)
        dense[0::2] = heights
        dense[1::2] = (heights[:-1] + heights[1:]) / 2.0
        return np.abs(walk - dense).max() / math.sqrt(n)

    return _replicas(stat, n, replicas, seed, size_index)


def class_diameter_samples(
    n: int, replicas: int, seed: int, size_index: int = 0
) -> np.ndarray:
    """Farthest metric distance between a class representative and the
    first-minimum representative of a normalized uniform encoding."""
    def stat(n, rng):
        labels, walks = uniform_encoding_arrays(n, rng)
        path = SnakePath(
            (labels[0] - 1.0) / n**0.25, walks[0] / n**0.5, _checked=True
        )
        body = labels[0, : 2 * n]
        minima = np.nonzero(body == body.min())[0]
        target = reroot_path(path, int(minima[0]) / (2 * n))
        return max(
            distance(reroot_path(path, int(k) / (2 * n)), target) for k in minima
        )

    return _replicas(stat, n, replicas, seed, size_index)


def edge_gap_samples(
    n: int,
    replicas: int,
    seed: int,
    model: EdgeLengthModel | None = None,
    size_index: int = 0,
) -> np.ndarray:
    """Sup gap between the unit and length-perturbed chord-tree contours."""
    if model is None:
        model = EdgeLengthModel("uniform", (0.5, 1.5))

    def stat(n, rng):
        labels, _ = uniform_encoding_arrays(n, rng)
        # well-labeled representative: rotate the first minimum to the front
        body = np.roll(labels[0, : 2 * n], -int(np.argmin(labels[0, : 2 * n])))
        walk, weighted = _chord_contours(body - body[0] + 1, model, rng)
        return np.abs(weighted - walk).max() / n**0.25

    return _replicas(stat, n, replicas, seed, size_index)


# -- experiment driver --------------------------------------------------------


def _csv_header(cfg: ExperimentConfig, columns: Sequence[str]) -> list[str]:
    lines = [
        f"# experiment={cfg.name}",
        f"# sizes={','.join(map(str, cfg.sizes))}",
        f"# replicas={cfg.replicas}",
        f"# seed={cfg.seed}",
        f"# grid_m={cfg.grid_m}",
        "# thresholds: two-sample KS 0.05 (discrete pairs), 0.08 (vs snake);"
        " replica counts are artifact choices",
        ",".join(columns),
    ]
    return lines


def run_experiment(cfg: ExperimentConfig) -> str:
    """Run one experiment and return (and optionally write) its CSV."""
    rows: list[str] = []
    if cfg.name == "radius":
        lines = _csv_header(cfg, ("experiment", "law", "n", "replica", "value"))
        for si, n in enumerate(cfg.sizes):
            for offset, law in enumerate(("rooted_pd", "pointed_ps")):
                vals = radius_samples(n, cfg.replicas, cfg.seed + offset, si)
                rows += [f"radius,{law},{n},{r},{float(v)!r}" for r, v in enumerate(vals)]
        vals = snake_radius_samples(cfg.grid_m, cfg.replicas, cfg.seed + 2)
        rows += [f"radius,snake,{cfg.grid_m},{r},{float(v)!r}" for r, v in enumerate(vals)]
    elif cfg.name == "profile":
        lines = _csv_header(cfg, ("experiment", "n", "lambda", "mean_value"))
        lambdas = np.linspace(0.0, 3.0, 61)
        for si, n in enumerate(cfg.sizes):
            curve = profile_curve(n, cfg.replicas, cfg.seed, lambdas, si)
            rows += [
                f"profile,{n},{float(lam)!r},{float(val)!r}" for lam, val in zip(lambdas, curve)
            ]
    else:
        sampler = {
            "hp_gap": hp_gap_samples,
            "class_diameter": class_diameter_samples,
            "edge_gap": edge_gap_samples,
        }[cfg.name]
        lines = _csv_header(cfg, ("experiment", "n", "replica", "value"))
        for si, n in enumerate(cfg.sizes):
            vals = sampler(n, cfg.replicas, cfg.seed, size_index=si)
            rows += [f"{cfg.name},{n},{r},{float(v)!r}" for r, v in enumerate(vals)]
    text = "\n".join(lines + rows) + "\n"
    if cfg.output:
        with open(cfg.output, "w") as fh:
            fh.write(text)
    return text
