import hashlib
import json
import math
from collections import Counter

import numpy as np
import pytest

import reference_loops as reference
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
from quadmap.labeled import Encoding, _node_labels, encode, minima_set
from quadmap.paths import contour_accumulate, doddering_rdfw, dyck_walk_batch, uniform_encoding_arrays
from quadmap.planar_map import (
    _bfs_arrays,
    _rooted_code_arrays,
    bfs_distances,
    validate_quadrangulation,
)
from quadmap.schaeffer import _chord_arrays, _labeled_tree_of_arrays, point, quad_of_tree
from quadmap.snake import distance, normalize_encoding, positive_representatives
from quadmap.trees import Walk

CHI2_99 = {2: 9.2103, 8: 20.0902, 17: 33.4087}


# The n <= 2 law tests draw their samples in one call of the stacked kernel
# that each public sampler is the batch of one of.


def test_sample_labeled_uniform_n1():
    rng = np.random.default_rng(5)
    labels, walks = uniform_encoding_arrays(1, rng, 30000)
    counts = Counter(map(tuple, _node_labels(labels, walks).tolist()))
    assert set(counts) == {(1, 0), (1, 1), (1, 2)}
    for value in counts.values():
        assert abs(value / 30000 - 1 / 3) < 0.02


def test_sample_labeled_uniform_n2_chi_square():
    rng = np.random.default_rng(9)
    draws = 100000
    labels, walks = uniform_encoding_arrays(2, rng, draws)
    node_labels = _node_labels(labels, walks)
    counts = Counter(zip(map(tuple, walks.tolist()), map(tuple, node_labels.tolist())))
    assert len(counts) == 18
    expected = draws / 18
    chi2 = sum((c - expected) ** 2 / expected for c in counts.values())
    assert chi2 < CHI2_99[17]
    shapes = Counter()
    for (walk, _), c in counts.items():
        shapes[walk] += c
    assert all(abs(v / draws - 1 / 2) < 0.01 for v in shapes.values())


def test_sample_rooted_pd_n1():
    rng = np.random.default_rng(6)
    labels, walks = harness._rooted_pd_arrays(1, rng, 30000)
    assert labels.min() >= 1  # every tree is well-labeled
    _, _, tail = _chord_arrays(labels[:, :-1], walks)
    counts = Counter(np.count_nonzero(tail == 0, axis=1).tolist())  # the origin's degree
    assert abs(counts[1] / 30000 - 2 / 3) < 0.02  # endpoint-pointed path
    assert abs(counts[2] / 30000 - 1 / 3) < 0.02


def test_sample_rooted_pd_n2_chi_square():
    rng = np.random.default_rng(8)
    exact = {row.code: float(row.p_d) for row in law_tables(2).rooted}
    draws = 100000
    labels, walks = harness._rooted_pd_arrays(2, rng, draws)
    twin, nxt, _ = _chord_arrays(labels[:, :-1], walks)
    counts = Counter(_rooted_code_arrays(nxt, twin, np.ones(draws, dtype=np.int64)))
    assert set(counts) <= set(exact)
    chi2 = sum(
        (counts.get(code, 0) - draws * p) ** 2 / (draws * p)
        for code, p in exact.items()
    )
    assert chi2 < CHI2_99[8]


def test_sample_pointed_ps_n1():
    rng = np.random.default_rng(7)
    labels, walks = harness._pointed_ps_arrays(1, rng, 30000)
    twin, _, tail = _chord_arrays(labels[:, :-1], walks)
    origins = np.zeros(30000, dtype=np.int64)  # the origin is vertex 0
    counts = Counter(_bfs_arrays(twin, tail, 3, origins).max(axis=1).tolist())
    assert abs(counts[2] / 30000 - 2 / 3) < 0.02
    assert abs(counts[1] / 30000 - 1 / 3) < 0.02


def _rooted_pd_row(n, rng):
    labels, walks = harness._rooted_pd_arrays(n, rng, 1)
    tree = _labeled_tree_of_arrays(walks[0], _node_labels(labels, walks)[0])
    return tree, quad_of_tree(tree)


def _pointed_ps_row(n, rng):
    labels, walks = harness._pointed_ps_arrays(n, rng, 1)
    tree = _labeled_tree_of_arrays(walks[0], _node_labels(labels, walks)[0])
    return point(quad_of_tree(tree))


def _labeled_row(n, rng):
    labels, walks = uniform_encoding_arrays(n, rng, 1)
    return _labeled_tree_of_arrays(walks[0], _node_labels(labels, walks)[0])


@pytest.mark.parametrize(
    "scalar, row, loop",
    [
        (sample_labeled_uniform, _labeled_row, None),
        (sample_rooted_pd, _rooted_pd_row, reference.sample_rooted_pd),
        (sample_pointed_ps, _pointed_ps_row, reference.sample_pointed_ps),
    ],
    ids=["labeled", "rooted_pd", "pointed_ps"],
)
def test_scalar_samplers_are_the_batch_of_one(scalar, row, loop):
    # row 0 of a stacked draw of one is the scalar draw, and so is the
    # per-object loop that drew the minimum as rng.integers(k); all three
    # leave the stream in the same state
    for n in (1, 2, 64):
        for seed in range(8):
            rngs = [np.random.default_rng([seed, n]) for _ in range(3)]
            draws = [scalar(n, rngs[0]), row(n, rngs[1])]
            if loop is not None:
                draws.append(loop(n, rngs[2]))
            assert all(d == draws[0] for d in draws[1:])
            after = {rng.random() for rng in rngs[: len(draws)]}
            assert len(after) == 1


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


@pytest.mark.parametrize(
    "a, b, name",
    [
        ([math.nan] * 3, [math.nan], "sample_a"),
        ([math.nan], [1.0], "sample_a"),
        ([0.5, 1.0], [2.0, math.nan, 0.0], "sample_b"),
    ],
)
def test_ks_statistic_rejects_nan(a, b, name):
    # before, the first read 0.0 and the second 1.0
    with pytest.raises(ValueError, match=f"{name} holds a NaN"):
        ks_statistic(a, b)


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
    "radius": "489120f29465ea4ed28b389f252afec7ccea8029638b601d24a31f77773566f4",
    "profile": "8ba551ae6944edfacf8eaa8494123725748e8074d5f89f0cfaf8476e43134891",
    "hp_gap": "7454a11653dcf5554752a402010f7ad038a56ef73f9dccd1d33a0a3bcff1d276",
    "class_diameter": "33a3722ca322de634b487eb1c1c32f949bbd0d3609b80c3faac2b4f09792343d",
    "edge_gap": "7b11d62606527e785492eb27a5c72899d0d5c06e7886301cd65ca74b46507aae",
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


# Each statistic's replica loop writes every replica into rows it owns; these
# references rebuild each replica from the public kernels, which return fresh
# arrays, as the loops did before they reused their rows.


def _reference_radius(n, rng):
    labels, _ = uniform_encoding_arrays(n, rng)
    return (labels.max() - labels.min()) / n**0.25


def _reference_profile(n, rng, levels):
    labels, _ = uniform_encoding_arrays(n, rng)
    body = labels[0, : 2 * n] - labels[0, : 2 * n].min()
    cum = np.concatenate(([0], np.cumsum(np.bincount(body)))) / (2 * n)
    return np.interp(levels, np.arange(cum.size), cum, right=1.0)


def _reference_hp_gap(n, rng):
    walk = dyck_walk_batch(n, 1, rng)[0]
    heights = np.concatenate(([0], walk[1:][walk[1:] > walk[:-1]]))
    dense = np.empty(2 * n + 1)
    dense[0::2] = heights
    dense[1::2] = (heights[:-1] + heights[1:]) / 2.0
    return np.abs(walk - dense).max() / math.sqrt(n)


def _reference_class_diameter(n, rng):
    labels, walks = uniform_encoding_arrays(n, rng)
    path = normalize_encoding(Encoding(labels[0], Walk(walks[0])))
    first, *rest = positive_representatives(path)
    return max((distance(r, first) for r in rest), default=0.0)


def _reference_edge_gap(n, rng):
    labels, _ = uniform_encoding_arrays(n, rng)
    body = np.roll(labels[0, : 2 * n], -int(np.argmin(labels[0, : 2 * n])))
    body -= body[0] - 1
    walk = doddering_rdfw(body)
    lengths = EdgeLengthModel("uniform", (0.5, 1.5)).sample(2 * n, rng)
    weighted = contour_accumulate(walk[None], lengths, start=0.0)[0]
    return np.abs(weighted - walk).max() / n**0.25


def _draw_features(n, seed, size_index, replicas):
    """Which kernel paths the replicas' encodings take: a walk taller than
    255 (edge keys past one byte), a first label minimum at corner 0 with
    more minima after it, and a single label minimum."""
    found = set()
    for r in range(replicas):
        labels, walks = uniform_encoding_arrays(n, replica_rng(seed, size_index, r))
        corners = np.flatnonzero(labels[0, :-1] == labels.min())
        if walks.max() > 255:
            found.add("tall")
        if corners.size == 1:
            found.add("single")
        elif corners[0] == 0:
            found.add("first at 0")
    return found


@pytest.mark.parametrize(
    "n, seeds, size_index, replicas, paths",
    [
        (16, range(4), 0, 10, {"single", "first at 0"}),
        (2**10, range(3), 2, 4, {"single"}),
        (2**14, (5,), 1, 3, {"tall", "single"}),
    ],
)
def test_statistics_match_public_kernel_references(n, seeds, size_index, replicas, paths):
    levels = LAMBDAS * n**0.25 + 1.0
    features = set()
    for seed in seeds:
        features |= _draw_features(n, seed, size_index, replicas)
        rngs = lambda: [replica_rng(seed, size_index, r) for r in range(replicas)]  # noqa: E731
        for sampler, reference in (
            (radius_samples, _reference_radius),
            (hp_gap_samples, _reference_hp_gap),
            (class_diameter_samples, _reference_class_diameter),
            (edge_gap_samples, _reference_edge_gap),
        ):
            want = np.array([reference(n, rng) for rng in rngs()])
            assert np.array_equal(sampler(n, replicas, seed, size_index), want), sampler.__name__
        curves = [_reference_profile(n, rng, levels) for rng in rngs()]
        want = sum(curves, np.zeros(LAMBDAS.size)) / replicas
        assert np.array_equal(profile_curve(n, replicas, seed, LAMBDAS, size_index), want)
    assert paths <= features


def test_uniform_lengths_are_fair_doubles_plus_a_half():
    # edge_gap_samples draws its lengths as rng.random(out=) + 0.5 into a row it owns
    model = EdgeLengthModel("uniform", (0.5, 1.5))
    for seed in range(20):
        row = np.empty(1000)
        np.random.default_rng(seed).random(out=row)
        row += 0.5
        assert np.array_equal(row, model.sample(1000, np.random.default_rng(seed)))
