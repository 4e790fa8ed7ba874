import numpy as np
import pytest

from quadmap.labeled import Encoding
from quadmap.paths import (
    contour_accumulate,
    contour_edges,
    doddering_rdfw,
    dyck_walk,
    dyck_walk_batch,
    uniform_encoding_arrays,
)
from quadmap.schaeffer import doddering
from quadmap.trees import Walk, dfw


def test_dyck_walk_is_valid_contour():
    rng = np.random.default_rng(1)
    for n in (1, 2, 5, 50, 2000):
        w = dyck_walk(n, rng)
        Walk(tuple(int(x) for x in w))  # validates shape and positivity


def test_dyck_walk_exact_uniformity():
    # all C_3 = 5 shapes equally likely
    rng = np.random.default_rng(2)
    counts = {}
    draws = 25000
    for w in dyck_walk_batch(3, draws, rng):
        counts[tuple(w.tolist())] = counts.get(tuple(w.tolist()), 0) + 1
    assert len(counts) == 5
    expected = draws / 5
    chi2 = sum((c - expected) ** 2 / expected for c in counts.values())
    assert chi2 < 13.28  # 99% quantile, 4 dof


def test_contour_edges_match_stack():
    rng = np.random.default_rng(3)
    for _ in range(25):
        n = int(rng.integers(1, 300))
        walks = dyck_walk_batch(n, 2, rng)
        edges = contour_edges(walks)
        for row in range(2):
            steps = np.diff(walks[row])
            stack, match = [], {}
            for i, s in enumerate(steps):
                if s > 0:
                    stack.append(i)
                else:
                    match[stack.pop()] = i
            assert all(edges[row, u] == edges[row, d] for u, d in match.items())
        # ids never shared between rows
        assert not set(edges[0].tolist()) & set(edges[1].tolist())


def test_contour_edges_match_lexsort_reference():
    # the former 3-key sort: by row, then level, then time
    rng = np.random.default_rng(8)
    for count, n in ((1, 1), (1, 257), (6, 40), (40, 300)):
        walks = dyck_walk_batch(n, count, rng)
        width = walks.shape[1]
        level = np.maximum(walks[:, :-1], walks[:, 1:])
        order = np.lexsort(
            (
                np.tile(np.arange(width - 1), count),
                level.ravel(),
                np.repeat(np.arange(count), width - 1),
            )
        )
        ref = np.empty(order.size, dtype=np.int64)
        ref[order] = np.repeat(np.arange(order.size // 2), 2)
        assert np.array_equal(contour_edges(walks), ref.reshape(count, width - 1))


def test_contour_accumulate_depth():
    # unit edge values reproduce the walk itself
    rng = np.random.default_rng(4)
    walks = dyck_walk_batch(40, 3, rng)
    ones = np.ones(3 * 40)
    acc = contour_accumulate(walks, ones, start=0)
    assert np.array_equal(acc, walks)


def test_uniform_encoding_arrays_are_encodings():
    rng = np.random.default_rng(5)
    labels, walks = uniform_encoding_arrays(25, rng, count=20)
    for lab, w in zip(labels, walks):
        Encoding(tuple(int(x) for x in lab), Walk(tuple(int(x) for x in w)))


def test_doddering_rdfw_matches_tree():
    rng = np.random.default_rng(6)
    for body in [(1, 2, 1), (1, 1, 1, 1), (1, 2, 3, 2)]:
        fast = doddering_rdfw(np.array(body))
        slow = dfw(doddering(body).tree, "reverse").steps
        assert tuple(int(x) for x in fast) == slow
    labels, _ = uniform_encoding_arrays(30, rng)
    body = np.roll(labels[0, :60], -int(np.argmin(labels[0, :60])))
    body = body - body[0] + 1
    fast = doddering_rdfw(body)
    slow = dfw(doddering(tuple(int(x) for x in body)).tree, "reverse").steps
    assert tuple(int(x) for x in fast) == slow


def test_dyck_walk_rejects_bad_sizes():
    rng = np.random.default_rng(7)
    with pytest.raises(ValueError):
        dyck_walk(0, rng)
