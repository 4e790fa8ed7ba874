import hashlib
import json
import math
from collections import Counter

import numpy as np
import pytest

from quadmap import harness
from quadmap.enumeration import law_tables
from quadmap.harness import (
    EdgeLengthModel,
    ExperimentConfig,
    class_diameter_samples,
    edge_gap_samples,
    hp_gap_samples,
    ks_statistic,
    perturbed_walk,
    profile_curve,
    radius_samples,
    replica_rng,
    run_experiment,
    sample_labeled_uniform,
    sample_pointed_ps,
    sample_rooted_pd,
    snake_radius_samples,
)
from quadmap.labeled import encode, is_well_labeled, minima_set
from quadmap.planar_map import bfs_distances, radius, rooted_code, validate_quadrangulation

CHI2_99 = {2: 9.2103, 8: 20.0902, 17: 33.4087}


def test_sample_labeled_uniform_n1():
    rng = np.random.default_rng(5)
    counts = Counter(tuple(sample_labeled_uniform(1, rng).labels.tolist()) for _ in range(30000))
    assert set(counts) == {(1, 0), (1, 1), (1, 2)}
    for value in counts.values():
        assert abs(value / 30000 - 1 / 3) < 0.02


def test_sample_labeled_uniform_n2_chi_square():
    rng = np.random.default_rng(9)
    draws = 100000
    counts = Counter()
    for _ in range(draws):
        t = sample_labeled_uniform(2, rng)
        counts[(t.tree.children, tuple(t.labels.tolist()))] += 1
    assert len(counts) == 18
    expected = draws / 18
    chi2 = sum((c - expected) ** 2 / expected for c in counts.values())
    assert chi2 < CHI2_99[17]
    shapes = Counter()
    for (children, _), c in counts.items():
        shapes[children] += c
    assert all(abs(v / draws - 1 / 2) < 0.01 for v in shapes.values())


def test_sample_rooted_pd_n1():
    rng = np.random.default_rng(6)
    counts = Counter()
    for _ in range(30000):
        tree, quad = sample_rooted_pd(1, rng)
        assert is_well_labeled(tree)
        counts[quad.map.degree(0)] += 1
    assert abs(counts[1] / 30000 - 2 / 3) < 0.02  # endpoint-pointed path
    assert abs(counts[2] / 30000 - 1 / 3) < 0.02


def test_sample_rooted_pd_n2_chi_square():
    rng = np.random.default_rng(8)
    exact = {row.code: float(row.p_d) for row in law_tables(2).rooted}
    draws = 100000
    counts = Counter()
    for _ in range(draws):
        _, quad = sample_rooted_pd(2, rng)
        counts[rooted_code(quad.map, quad.root)] += 1
    assert set(counts) <= set(exact)
    chi2 = sum(
        (counts.get(code, 0) - draws * p) ** 2 / (draws * p)
        for code, p in exact.items()
    )
    assert chi2 < CHI2_99[8]


def test_sample_pointed_ps_n1():
    rng = np.random.default_rng(7)
    counts = Counter(radius(sample_pointed_ps(1, rng)) for _ in range(30000))
    assert abs(counts[2] / 30000 - 2 / 3) < 0.02
    assert abs(counts[1] / 30000 - 1 / 3) < 0.02


def test_sampled_quadrangulations_satisfy_identities():
    rng = np.random.default_rng(10)
    for n in (5, 40, 300):
        tree, quad = sample_rooted_pd(n, rng)
        assert validate_quadrangulation(quad.map)
        dist = bfs_distances(quad.map, 0)
        assert all(dist[u + 1] == tree.labels[u] for u in range(tree.tree.n_nodes))
        assert quad.map.degree(0) == len(minima_set(encode(tree).labels))


def test_edge_length_model_validation():
    EdgeLengthModel("deterministic")
    EdgeLengthModel("uniform", (0.5, 1.5))
    EdgeLengthModel("pareto", (5.0,))
    with pytest.raises(ValueError):
        EdgeLengthModel("uniform", (0.5, 2.0))  # mean is not 1
    with pytest.raises(ValueError):
        EdgeLengthModel("pareto", (0.5,))
    with pytest.raises(ValueError):
        EdgeLengthModel("gamma", ())
    for beta in (math.nan, math.inf):  # both would draw NaN lengths
        with pytest.raises(ValueError, match="params"):
            EdgeLengthModel("pareto", (beta,))
    assert EdgeLengthModel("pareto", (3.5,)).has_finite_moment(4) is False
    assert EdgeLengthModel("uniform", (0.5, 1.5)).has_finite_moment(40)


def test_edge_length_model_means():
    rng = np.random.default_rng(11)
    for model in (
        EdgeLengthModel("uniform", (0.5, 1.5)),
        EdgeLengthModel("pareto", (6.0,)),
    ):
        assert abs(model.sample(200000, rng).mean() - 1.0) < 0.01


def test_perturbed_walk_deterministic_gap_zero():
    rng = np.random.default_rng(12)
    tree, _ = sample_rooted_pd(30, rng)
    c_tilde, gap = perturbed_walk(encode(tree), EdgeLengthModel("deterministic"), rng)
    assert gap == 0.0
    assert c_tilde.shape == (4 * 30 + 1,)


def test_perturbed_walk_gap_shrinks():
    med = [
        float(np.median(edge_gap_samples(n, 25, 13, size_index=i)))
        for i, n in enumerate((2**10, 2**16))
    ]
    assert med[1] < med[0]


def test_heavy_tail_flag():
    model = EdgeLengthModel("pareto", (3.0,))
    assert not model.has_finite_moment(4)  # diagnostic for the gap not vanishing


def test_ks_statistic_cases():
    assert ks_statistic([1.0, 2.0], [1.0, 2.0]) == 0.0
    assert ks_statistic([0.0, 1.0], [5.0, 6.0]) == 1.0
    a = np.linspace(0, 1, 50)
    b = np.linspace(0.2, 1.2, 70)
    assert ks_statistic(a, b) == pytest.approx(ks_statistic(b, a))
    with pytest.raises(ValueError):
        ks_statistic([], [1.0])


def test_replica_rng_streams_differ():
    a = replica_rng(1, 0, 0).random(4)
    b = replica_rng(1, 0, 1).random(4)
    c = replica_rng(1, 0, 0).random(4)
    assert not np.array_equal(a, b)
    assert np.array_equal(a, c)


def test_experiment_config_validation():
    with pytest.raises(ValueError):
        ExperimentConfig("radius", (100, 100), 5, 0)
    with pytest.raises(ValueError):
        ExperimentConfig("nonsense", (100,), 5, 0)
    cfg = ExperimentConfig.from_json(
        '{"name": "hp_gap", "sizes": [64, 128], "replicas": 3, "seed": 5}'
    )
    assert cfg.sizes == (64, 128)
    with pytest.raises(ValueError, match="'replicas'"):
        ExperimentConfig.from_json('{"name": "radius", "sizes": [8]}')
    with pytest.raises(ValueError, match="JSON object"):
        ExperimentConfig.from_json("[1, 2]")
    # what run_experiment would reject mid-run, or would misread, is
    # rejected up front with the field's name, from code and from JSON
    good = {"name": "radius", "sizes": (4, 8), "replicas": 2, "seed": 0}
    for bad in (
        {"sizes": (0, 4)}, {"seed": -1}, {"grid_m": 3}, {"grid_m": 0},
        {"sizes": (4.5,)}, {"sizes": "48"}, {"sizes": 48},
        {"replicas": 2.5}, {"replicas": math.inf}, {"replicas": True},
        {"seed": 1.5}, {"seed": True}, {"seed": "1"}, {"grid_m": 64.0}, {"output": 1},
    ):
        (field,) = bad
        with pytest.raises(ValueError, match=field):
            ExperimentConfig(**{**good, **bad})
        with pytest.raises(ValueError, match=field):
            ExperimentConfig.from_json(json.dumps({**good, **bad}))
    assert ExperimentConfig("hp_gap", (4, 8), 2, 0, grid_m=3).grid_m == 3  # unused there
    cfg = ExperimentConfig("radius", np.array([4, 8]), np.int64(2), np.uint32(5), np.int16(6))
    assert (cfg.sizes, cfg.replicas, cfg.seed, cfg.grid_m) == ((4, 8), 2, 5, 6)
    assert all(type(v) is int for v in (*cfg.sizes, cfg.replicas, cfg.seed, cfg.grid_m))


@pytest.mark.parametrize("name", ["radius", "profile", "hp_gap", "class_diameter", "edge_gap"])
def test_experiment_csv_deterministic(name):
    cfg = ExperimentConfig(name, (32, 64), 4, 99, grid_m=16)
    first = run_experiment(cfg)
    second = run_experiment(cfg)
    assert first == second
    header, *rows = [l for l in first.splitlines() if not l.startswith("#")]
    assert header.count(",") >= 3
    assert rows
    for row in rows:
        float(row.rsplit(",", 1)[1])  # value column parses


# sha256 of run_experiment output at ExperimentConfig(name, (32, 64), 4, 99,
# grid_m=16), with the radius experiment's snake rows left out: every
# discrete row is pinned, so a change to any of them is seen here
GOLDEN_DISCRETE_CSV = {
    "radius": "e099b45641c97b743ee18630921f74eeb2af5bfcc7e296a5f9cc9adc212f5a8f",
    "profile": "572008e16b9fc99d0b8397aaafe6a3ff93c361a9ef77bd0cee7bb3459548d1d0",
    "hp_gap": "01d6d04ffb3dcc85af3b78a4219d7a947ab55531ed1630465ca818d243bfa26f",
    "class_diameter": "df5bd08a63c6531714d09d97aa48ba5d88f3c1b4405df51ebaf5efb1937badf0",
    "edge_gap": "24c54a7a817c2c2edeef313b5d394adb2bf1c0387e98c70a03c263970b2da543",
}


def test_experiment_discrete_rows_golden():
    digests = {}
    for name in GOLDEN_DISCRETE_CSV:
        text = run_experiment(ExperimentConfig(name, (32, 64), 4, 99, grid_m=16))
        lines = text.splitlines(keepends=True)
        kept = "".join(line for line in lines if not line.startswith("radius,snake,"))
        digests[name] = hashlib.sha256(kept.encode()).hexdigest()
    assert digests == GOLDEN_DISCRETE_CSV


LAMBDAS = np.linspace(0.0, 3.0, 7)
STATISTICS = {
    "radius": lambda reps: radius_samples(64, reps, 21, size_index=1),
    "snake_radius": lambda reps: snake_radius_samples(16, reps, 21),
    "profile": lambda reps: profile_curve(64, reps, 21, LAMBDAS, size_index=1),
    "hp_gap": lambda reps: hp_gap_samples(64, reps, 21, size_index=1),
    "class_diameter": lambda reps: class_diameter_samples(64, reps, 21, size_index=1),
    "edge_gap": lambda reps: edge_gap_samples(64, reps, 21, size_index=1),
}


@pytest.mark.parametrize("name", sorted(STATISTICS))
def test_statistics_prefix_stable(name, monkeypatch):
    # the first k replicas do not depend on how many replicas are run
    draw, k, big = STATISTICS[name], 3, 5
    if name != "profile":
        assert np.array_equal(draw(big)[:k], draw(k))
        return
    # profile_curve returns a mean: rebuild it from one-replica runs whose
    # replica 0 is moved onto stream r
    real = harness.replica_rng
    curves = []
    for r in range(big):
        monkeypatch.setattr(harness, "replica_rng", lambda s, i, _, r=r: real(s, i, r))
        curves.append(draw(1))
    monkeypatch.undo()
    for reps in (k, big):
        assert np.array_equal(draw(reps), sum(curves[:reps], np.zeros(LAMBDAS.size)) / reps)
