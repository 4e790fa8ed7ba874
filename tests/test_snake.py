import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from quadmap.enumeration import labeled_trees
from quadmap.labeled import Encoding, encode, reroot
from quadmap.paths import uniform_encoding_arrays
from quadmap.snake import (
    DEFAULT_HEAD_COV,
    SnakePath,
    class_distances,
    distance,
    first_argmin,
    normalize_encoding,
    positive_representatives,
    reroot_path,
    sample_snake,
    sample_snake_batch,
)
from quadmap.trees import Walk


def tent(m):
    """Unit tent contour of height 1 with zero head."""
    z = 1.0 - np.abs(np.linspace(-1.0, 1.0, m + 1))
    return SnakePath(np.zeros(m + 1), z)


def test_snake_path_validation():
    with pytest.raises(ValueError):
        SnakePath(np.zeros(5), -np.ones(5))  # negative contour
    with pytest.raises(ValueError):
        SnakePath(np.array([0.0, 1.0, 0.5]), np.array([0.0, 1.0, 0.0]))
    with pytest.raises(ValueError):
        # contour returns to level 0 but the head moved
        SnakePath(
            np.array([0.0, 1.0, 2.0, 1.0, 0.0]),
            np.array([0.0, 1.0, 0.0, 1.0, 0.0]),
        )


def test_distance_cases():
    x = tent(8)
    assert distance(x, x) == 0.0
    y = SnakePath(np.zeros(9), 0.5 * x.contour)
    assert distance(x, y) == pytest.approx(0.5)
    with pytest.raises(ValueError):
        distance(x, tent(6))


def test_distance_triangle_inequality():
    rng = np.random.default_rng(2)
    paths = [sample_snake(32, rng) for _ in range(6)]
    for a in paths:
        for b in paths:
            for c in paths:
                assert distance(a, c) <= distance(a, b) + distance(b, c) + 1e-12


def test_reroot_identity_and_tent():
    x = tent(8)
    assert reroot_path(x, 0.0) is x
    y = reroot_path(x, 0.5)  # rerooting a tent at its peak gives a tent again
    assert np.allclose(y.contour, x.contour)
    assert np.allclose(y.head, 0.0)
    with pytest.raises(ValueError):
        reroot_path(x, 0.3)  # off the grid


def test_reroot_group_law_sampled():
    rng = np.random.default_rng(3)
    x = sample_snake(64, rng)
    for _ in range(25):
        a, b = (int(v) for v in rng.integers(0, 64, 2))
        lhs = reroot_path(reroot_path(x, a / 64), b / 64)
        rhs = reroot_path(x, ((a + b) % 64) / 64)
        assert distance(lhs, rhs) < 1e-9


def test_first_argmin():
    assert first_argmin(np.zeros(5)) == 0.0
    assert first_argmin(np.array([0.0, -1.0, -1.0, 0.0])) == pytest.approx(1 / 3)
    rng = np.random.default_rng(4)
    x = sample_snake(128, rng)
    y = reroot_path(x, first_argmin(x.head))
    assert y.head.min() >= -1e-12


def test_positive_representatives():
    # the flat one-edge encoding has two minima, hence two representatives
    e = Encoding((1, 1, 1), Walk((0, 1, 0)))
    reps = positive_representatives(normalize_encoding(e))
    assert len(reps) == 2
    for rep in reps:
        assert rep.head.min() >= 0.0
        assert rep.head[0] == 0.0
    rng = np.random.default_rng(5)
    x = sample_snake(64, rng)  # continuous head: the minimum is unique
    assert len(positive_representatives(x)) == 1


def test_class_distances():
    e = Encoding((1, 2, 1, 2, 1), Walk((0, 1, 0, 1, 0)))
    x = normalize_encoding(e)
    closest, farthest = class_distances(x, x)
    assert closest == 0.0
    assert farthest >= 0.0
    y = reroot_path(x, first_argmin(x.head))
    assert class_distances(y, y)[0] == 0.0


def test_normalize_encoding_scales():
    e = Encoding((1, 2, 1), Walk((0, 1, 0)))
    x = normalize_encoding(e)
    assert np.allclose(x.head, [0.0, 1.0, 0.0])
    assert np.allclose(x.contour, [0.0, 1.0, 0.0])
    e4 = Encoding((1, 2, 1, 2, 1, 2, 1, 2, 1), Walk((0, 1, 0, 1, 0, 1, 0, 1, 0)))
    x4 = normalize_encoding(e4)
    assert np.allclose(x4.contour.max(), 1 / math.sqrt(4) * 1)
    assert np.allclose(x4.head.max(), 1 / 4**0.25)


@given(st.integers(1, 30), st.integers(0, 2**32 - 1))
@settings(max_examples=40, deadline=None)
def test_normalize_commutes_with_reroot(n, seed):
    rng = np.random.default_rng(seed)
    labels, walks = uniform_encoding_arrays(n, rng)
    e = Encoding(tuple(int(v) for v in labels[0]), Walk(tuple(int(v) for v in walks[0])))
    x = normalize_encoding(e)
    theta = int(rng.integers(0, 2 * n))
    a = normalize_encoding(reroot(e, theta))
    b = reroot_path(x, theta / (2 * n))
    assert np.allclose(a.head, b.head, atol=1e-12)
    assert np.allclose(a.contour, b.contour, atol=1e-12)


def test_sample_snake_invariants():
    rng = np.random.default_rng(6)
    x = sample_snake(2**10, rng)
    assert x.head[0] == 0.0 and x.contour[0] == 0.0
    assert x.head[-1] == 0.0 and x.contour[-1] == 0.0
    assert x.contour.min() >= 0.0
    with pytest.raises(ValueError):
        sample_snake(15, rng)  # odd grid


def test_sample_snake_covariance_smoke():
    # small-scale version of the acceptance check
    rng = np.random.default_rng(7)
    m = 128
    f, z = sample_snake_batch(m, 30000, rng)
    s, t = int(0.3 * m), int(0.7 * m)
    emp = float((f[:, s] * f[:, t]).mean())
    target = DEFAULT_HEAD_COV * float(z[:, s : t + 1].min(axis=1).mean())
    assert abs(emp - target) / target < 0.08


def test_default_head_cov_matches_normalized_labeled_trees():
    # the same check on the discrete object the sampler approximates:
    # normalize_encoding puts uniform labeled trees with n = m/2 edges on
    # the grid m, and their heads carry the covariance DEFAULT_HEAD_COV
    # times the contour minimum (2/3 = 0.667, not sqrt(2/3) = 0.816)
    rng = np.random.default_rng(7)
    m = 128
    labels, walks = uniform_encoding_arrays(m // 2, rng, count=30000)
    paths = [
        normalize_encoding(
            Encoding(tuple(int(v) for v in lab), Walk(tuple(int(v) for v in w)))
        )
        for lab, w in zip(labels, walks)
    ]
    f = np.array([p.head for p in paths])
    z = np.array([p.contour for p in paths])
    s, t = int(0.3 * m), int(0.7 * m)
    emp = float((f[:, s] * f[:, t]).mean())
    target = DEFAULT_HEAD_COV * float(z[:, s : t + 1].min(axis=1).mean())
    assert abs(emp - target) / target < 0.08


def test_head_cov_identity_exact_over_all_labeled_trees():
    # exhaustively, for every pair of grid times: E[f_s f_t] equals
    # DEFAULT_HEAD_COV * E[min z over [s, t]] under the uniform law
    n = 4
    paths = [normalize_encoding(encode(tree)) for tree in labeled_trees(n)]
    f = np.array([p.head for p in paths])
    z = np.array([p.contour for p in paths])
    for s in range(2 * n + 1):
        for t in range(s, 2 * n + 1):
            emp = float((f[:, s] * f[:, t]).mean())
            target = DEFAULT_HEAD_COV * float(z[:, s : t + 1].min(axis=1).mean())
            assert emp == pytest.approx(target, rel=1e-12, abs=1e-12)


def test_snake_csv_round_trip():
    rng = np.random.default_rng(8)
    x = sample_snake(16, rng)
    text = x.to_csv()
    assert text.splitlines()[0] == "s,f,zeta"
    y = SnakePath.from_csv(text)
    assert distance(x, y) < 1e-15


_CSV_FIELD = st.one_of(
    st.floats().map(repr),
    st.sampled_from(["nan", "inf", "-inf", "", " ", "x", "1e999"]),
)


@given(st.lists(st.lists(_CSV_FIELD, min_size=1, max_size=4), max_size=8))
@example([["0.0", "0.0", "0.0"], ["0.5", "nan", "0.0"], ["1.0", "0.0", "0.0"]])
@settings(max_examples=200, deadline=None)
def test_snake_csv_rejects_malformed_rows(rows):
    text = "s,f,zeta\n" + "".join(",".join(row) + "\n" for row in rows)
    try:
        path = SnakePath.from_csv(text)
    except ValueError:
        return
    assert np.isfinite(path.head).all() and np.isfinite(path.contour).all()
