"""Seedable samplers and reproducible scaling experiments.

Samplers are exact: the uniform labeled-tree draw combines the
cycle-lemma tree sampler with i.i.d. label increments, the root-degree
weighted quadrangulation law comes out of rerooting a uniform labeled
tree at a uniform label minimum, and the pointed law is the image of the
uniform labeled tree under positivize-construct-point.  Each public
sampler is the batch of one of a private kernel that draws ``count``
encodings as stacked arrays.

One replica driver runs every experiment statistic, the snake radius
included: replica r at size index i evaluates ``stat(n, rng)`` on its own
stream, keyed by ``[seed, size_index, replica]``.  A value depends only
on its key, so runs are prefix-stable in the replica count and the CSVs
are byte-identical for a fixed configuration regardless of scheduling.
"""
from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, fields
from typing import Sequence

import numpy as np

from .labeled import Encoding, LabeledTree, _node_labels
from .paths import (
    _doddering_rdfw,
    _reroot_arrays,
    contour_accumulate,
    dyck_walk_batch,
    uniform_encoding_arrays,
)
from .planar_map import PointedQuadrangulation, RootedQuadrangulation
from .schaeffer import _labeled_tree_of_arrays, _quad_of_arrays, point
from .snake import SnakePath, _path, _representatives, distance, sample_snake_batch
from .trees import _integer

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
    snake grid size, optional output path.  Every value ``run_experiment``
    would reject is rejected here, before any row is computed."""

    name: str
    sizes: tuple[int, ...]
    replicas: int
    seed: int
    grid_m: int = 2**12
    output: str | None = None

    def __post_init__(self) -> None:
        if isinstance(self.sizes, (str, bytes)) or not np.iterable(self.sizes):
            raise ValueError(f"sizes must be a sequence of integers, got {self.sizes!r}")
        object.__setattr__(self, "sizes", tuple(_integer(s, "sizes") for s in self.sizes))
        for name in ("replicas", "seed", "grid_m"):
            object.__setattr__(self, name, _integer(getattr(self, name), name))
        if self.name not in EXPERIMENTS:
            raise ValueError(f"unknown experiment {self.name!r}; pick from {EXPERIMENTS}")
        if self.output is not None and not isinstance(self.output, (str, os.PathLike)):
            raise ValueError(f"output must be a path, got {self.output!r}")
        if self.replicas < 1:
            raise ValueError("replicas must be >= 1")
        if any(b <= a for a, b in zip(self.sizes, self.sizes[1:])) or not self.sizes:
            raise ValueError("sizes must be nonempty and strictly increasing")
        if self.sizes[0] < 1:
            raise ValueError("sizes must be >= 1")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")
        if self.name == "radius" and (self.grid_m < 2 or self.grid_m % 2):
            raise ValueError("the radius experiment needs an even grid_m >= 2")

    @classmethod
    def from_json(cls, text: str) -> "ExperimentConfig":
        data = json.loads(text)
        if not isinstance(data, dict):
            raise ValueError("experiment config must be a JSON object")
        missing = [k for k in ("name", "sizes", "replicas", "seed") if k not in data]
        if missing:
            raise ValueError(f"experiment config is missing {', '.join(map(repr, missing))}")
        unknown = sorted(set(data) - {f.name for f in fields(cls)})
        if unknown:
            raise ValueError(f"experiment config has unknown keys {', '.join(map(repr, unknown))}")
        return cls(**data)


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
        if not all(map(math.isfinite, self.params)):
            raise ValueError(f"edge length params must be finite, got {self.params}")
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


_EDGE_LENGTHS = EdgeLengthModel("uniform", (0.5, 1.5))  # the edge_gap experiment's lengths


def replica_rng(master_seed: int, size_index: int, replica: int) -> np.random.Generator:
    """Independent stream per (seed, size, replica); schedule independent."""
    return np.random.default_rng([master_seed, size_index, replica])


# -- samplers ----------------------------------------------------------------


def sample_labeled_uniform(n: int, rng: np.random.Generator) -> LabeledTree:
    """Uniform labeled tree with n edges."""
    labels, walks = uniform_encoding_arrays(n, rng)
    return _labeled_tree_of_arrays(walks[0], _node_labels(labels[0], walks[0]))


def sample_rooted_pd(
    n: int, rng: np.random.Generator
) -> tuple[LabeledTree, RootedQuadrangulation]:
    """Draw under the root-degree weighted law on rooted quadrangulations.

    A uniform labeled tree rerooted at a uniform corner of its label
    minimum gives each well-labeled representative with the right weight;
    the pair (well-labeled tree, its quadrangulation) is returned.
    """
    labels, walks = _rooted_pd_arrays(n, rng, 1)
    labs, walk = labels[0], walks[0]
    return _labeled_tree_of_arrays(walk, _node_labels(labs, walk)), _quad_of_arrays(labs, walk)


def _rooted_pd_arrays(n: int, rng: np.random.Generator, count: int):
    """:func:`sample_rooted_pd`'s well-labeled encodings, ``count`` of them
    as (count, 2n+1) stacks of labels and walks.  Each row's corner is
    drawn by one ``rng.integers(0, k)`` over the rows' minimum counts k,
    which for one row is the draw ``rng.integers(k)``."""
    labels, walks = uniform_encoding_arrays(n, rng, count)
    body = labels[:, : 2 * n]
    minima = body == body.min(axis=1, keepdims=True)
    pick = rng.integers(0, np.count_nonzero(minima, axis=1))
    theta = np.argmax(np.cumsum(minima, axis=1) > pick[:, None], axis=1)  # the pick-th minimum
    return _reroot_arrays(labels, walks, theta)


def sample_pointed_ps(n: int, rng: np.random.Generator) -> PointedQuadrangulation:
    """Draw a pointed quadrangulation as the image of a uniform labeled tree."""
    labels, walks = _pointed_ps_arrays(n, rng, 1)
    return point(_quad_of_arrays(labels[0], walks[0]))


def _pointed_ps_arrays(n: int, rng: np.random.Generator, count: int):
    """:func:`sample_pointed_ps`'s well-labeled encodings, before pointing,
    ``count`` of them as (count, 2n+1) stacks of labels and walks."""
    labels, walks = uniform_encoding_arrays(n, rng, count)
    return _reroot_arrays(labels, walks, np.argmin(labels[:, : 2 * n], axis=1))  # first minimum


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
    if encoding.labels.min() < 1:
        raise ValueError("encoding must be well-labeled")
    walk, weighted = _chord_contours(encoding.labels[:-1], model, rng)
    scale = encoding.n**0.25
    c_tilde = weighted / scale
    gap = float(np.abs(c_tilde - walk / scale).max())
    return c_tilde, gap


def _chord_contours(
    body: np.ndarray, model: EdgeLengthModel, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """Unit and length-weighted contours of the chord tree of a positive
    label body; the edge lengths are drawn from ``rng``."""
    walk = _doddering_rdfw(body)[None, :]
    lengths = model.sample((walk.shape[1] - 1) // 2, rng)
    return walk[0], contour_accumulate(walk, lengths, start=0.0)[0]


# -- statistics ---------------------------------------------------------------


def ks_statistic(sample_a: Sequence[float], sample_b: Sequence[float]) -> float:
    """Two-sample Kolmogorov-Smirnov statistic (sup CDF difference)."""
    a = np.sort(np.asarray(sample_a, dtype=float))
    b = np.sort(np.asarray(sample_b, dtype=float))
    if a.size == 0 or b.size == 0:
        raise ValueError("samples must be nonempty")
    for name, sample in (("sample_a", a), ("sample_b", b)):
        if np.isnan(sample[-1]):  # a sort puts NaNs last
            raise ValueError(f"{name} holds a NaN")
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
        body = labels[0, : 2 * n]
        body -= body.min()  # the closing label equals the first, so this is the minimum
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
        heights = np.concatenate(([0], walk[1:][walk[1:] > walk[:-1]]))
        # height process at half-integer positions j/2, j = 0..2n
        dense = np.empty(2 * n + 1)
        dense[0::2] = heights
        np.add(heights[:-1], heights[1:], out=dense[1::2])
        dense[1::2] /= 2.0
        np.subtract(walk, dense, out=dense)
        return np.abs(dense, out=dense).max() / math.sqrt(n)

    return _replicas(stat, n, replicas, seed, size_index)


def class_diameter_samples(
    n: int, replicas: int, seed: int, size_index: int = 0
) -> np.ndarray:
    """Farthest metric distance between a class representative and the
    first-minimum representative of a normalized uniform encoding."""
    def stat(n, rng):
        reps = _representatives(_normalized_uniform(n, rng))
        first = next(reps)
        return max((distance(r, first) for r in reps), default=0.0)

    return _replicas(stat, n, replicas, seed, size_index)


def _normalized_uniform(n: int, rng: np.random.Generator) -> SnakePath:
    """A uniform labeled tree with n edges as a grid path pair, scaled as
    :func:`~quadmap.snake.normalize_encoding` scales its encoding; the
    integer arrays are dropped on return."""
    labels, walks = uniform_encoding_arrays(n, rng)
    head = np.subtract(labels[0], 1.0)
    head /= n**0.25
    return _path(head, walks[0] / n**0.5)


def edge_gap_samples(n: int, replicas: int, seed: int, size_index: int = 0) -> np.ndarray:
    """Sup gap between the unit and the length-perturbed chord-tree
    contours, with edge lengths uniform on [0.5, 1.5]."""
    def stat(n, rng):
        labels = uniform_encoding_arrays(n, rng)[0][0, : 2 * n]
        # well-labeled representative: rotate the first minimum to the front
        body = np.roll(labels, -int(np.argmin(labels)))
        del labels  # frees the encoding before the chord contours are built
        body -= body[0] - 1
        walk, weighted = _chord_contours(body, _EDGE_LENGTHS, rng)
        np.subtract(weighted, walk, out=weighted)
        return np.abs(weighted, out=weighted).max() / n**0.25

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
