import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quadmap.paths import dyck_walk
from quadmap.trees import (
    PlaneTree,
    Walk,
    contour_nodes,
    dfw,
    first_visit_times,
    height_process,
    mirror,
    same_node,
    visit_order,
    walk_to_tree,
)
from quadmap.enumeration import plane_trees


def tree_from_children(*children):
    return PlaneTree(tuple(tuple(c) for c in children))


def test_single_edge_walk_both_directions():
    t = tree_from_children((1,), ())
    assert dfw(t, "clockwise").steps.tolist() == [0, 1, 0]
    assert dfw(t, "reverse").steps.tolist() == [0, 1, 0]


def test_hand_traversals():
    # root -> a, root -> b, a -> c
    t = tree_from_children((1, 3), (2,), (), ())
    assert dfw(t, "clockwise").steps.tolist() == [0, 1, 2, 1, 0, 1, 0]
    assert dfw(t, "reverse").steps.tolist() == [0, 1, 0, 1, 2, 1, 0]


def test_walk_to_tree_path():
    t = walk_to_tree(Walk((0, 1, 2, 1, 0)))
    assert t.children == ((1,), (2,), ())


@pytest.mark.parametrize(
    "steps",
    [(0, 1), (0, 1, 1), (0, -1, 0), (1, 0, 1), (0, 1, 0, 1)],
)
def test_walk_rejects_bad_sequences(steps):
    with pytest.raises(ValueError):
        Walk(tuple(steps))


def test_plane_tree_rejects_bad_ids():
    with pytest.raises(ValueError):
        PlaneTree(((2,), (), (1,)))
    with pytest.raises(ValueError):
        PlaneTree(((),))  # n = 0


@pytest.mark.parametrize("children", [[1, 2], [[1], None]])
def test_plane_tree_rejects_children_that_are_not_integer_lists(children):
    with pytest.raises(ValueError, match="children"):
        PlaneTree(children)


def test_height_process_hand_cases():
    assert height_process(tree_from_children((1,), ())).tolist() == [0, 1]
    cherry = tree_from_children((1, 2), (), ())
    assert height_process(cherry, "clockwise").tolist() == [0, 1, 1]


@pytest.mark.parametrize("n", range(1, 7))
def test_walk_round_trip_exhaustive(n):
    for t in plane_trees(n):
        assert walk_to_tree(dfw(t)) == t


def test_walk_round_trip_random_large():
    rng = np.random.default_rng(11)
    for _ in range(1000):
        n = int(rng.integers(2, 120))
        w = Walk(tuple(int(x) for x in dyck_walk(n, rng)))
        assert dfw(walk_to_tree(w)) == w
    big = Walk(tuple(int(x) for x in dyck_walk(10**5, rng)))
    assert dfw(walk_to_tree(big)) == big


@pytest.mark.parametrize("n", range(1, 6))
def test_reverse_is_mirror_clockwise(n):
    for t in plane_trees(n):
        assert dfw(t, "reverse") == dfw(mirror(t), "clockwise")
        assert mirror(mirror(t)) == t


def test_same_node_hand_cases():
    w = Walk((0, 1, 0, 1, 0))
    assert same_node(w, 0, 4)
    assert not same_node(w, 1, 3)
    assert same_node(Walk((0, 1, 2, 1, 0)), 1, 3)
    with pytest.raises(ValueError, match=r"corner 5 out of range 0\.\.4"):
        same_node(w, 0, 5)


@pytest.mark.parametrize("n", range(1, 6))
def test_same_node_partitions_match_traversal(n):
    for t in plane_trees(n):
        w = dfw(t)
        nodes = contour_nodes(w)
        classes = {}
        for i in range(2 * n + 1):
            classes.setdefault(nodes[i], []).append(i)
        assert len(classes) == n + 1
        for i in range(2 * n + 1):
            for j in range(2 * n + 1):
                assert same_node(w, i, j) == (nodes[i] == nodes[j])


@pytest.mark.parametrize("direction", ["clockwise", "reverse"])
@pytest.mark.parametrize("n", range(1, 7))
def test_first_visit_height_identity(n, direction):
    # m(l) + h(l) = 2l ties first-visit times to the height process
    for t in plane_trees(n):
        w = dfw(t, direction)
        h = height_process(t, direction)
        m = first_visit_times(w)
        assert all(m[k] + h[k] == 2 * k for k in range(n + 1))


def test_visit_order_clockwise_is_identity():
    for t in plane_trees(4):
        assert visit_order(t, "clockwise").tolist() == list(range(t.n_nodes))


@given(st.integers(1, 60), st.integers(0, 2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_walk_round_trip_property(n, seed):
    rng = np.random.default_rng(seed)
    w = Walk(tuple(int(x) for x in dyck_walk(n, rng)))
    t = walk_to_tree(w)
    assert t.n == n
    assert dfw(t) == w


def test_serialization_round_trip():
    t = tree_from_children((1, 3), (2,), (), ())
    assert PlaneTree.from_line(t.to_line()) == t
    w = dfw(t)
    assert Walk.from_line(w.to_line()) == w
    assert w.to_line() == "0,1,2,1,0,1,0"
