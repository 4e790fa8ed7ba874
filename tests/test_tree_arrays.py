"""The tree layer's array forms against the per-node loops they replaced.

Walks, labels, label processes, marks and tags are read-only int64 arrays,
and every tree-layer operation is an array operation on them.  The loops
the layer ran before are kept in ``reference_loops``; each array form must
equal its loop on every plane and labeled tree with n <= 5, on random trees
with 10^5 edges, and on a spike walk (n up-steps, then n down-steps) of
70000 edges, whose levels no longer fit the 16-bit radix sort.  The tree
types compare and hash by their arrays, and every integer field rejects
entries that are not integers.
"""
from dataclasses import fields
from itertools import product

import numpy as np
import pytest

import reference_loops as reference
from quadmap.enumeration import _walks, labeled_trees, plane_trees, well_labeled_trees
from quadmap.harness import sample_labeled_uniform, sample_rooted_pd
from quadmap.labeled import (
    Encoding,
    LabeledTree,
    MarkedTree,
    decode,
    encode,
    from_marked,
    to_marked,
    to_positive,
)
from quadmap.planar_map import HalfEdgeMap
from quadmap.schaeffer import (
    DodderingTree,
    PredecessorTable,
    doddering,
    predecessor_table,
    tree_of_quad,
)
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

EDGE = walk_to_tree(Walk((0, 1, 0)))


def check_tree(tree: PlaneTree, children) -> None:
    """Every array form on ``tree`` equals its loop on ``children``."""
    for direction in ("clockwise", "reverse"):
        walk, order, heights = reference.traverse(children, direction)
        assert dfw(tree, direction).steps.tolist() == list(walk)
        assert visit_order(tree, direction).tolist() == list(order)
        assert height_process(tree, direction).tolist() == list(heights)
    steps, _, depths = reference.traverse(children)
    kids, nodes, firsts = reference.read_walk(steps)
    assert tree.children == children == kids
    assert walk_to_tree(Walk(steps)) == tree
    assert tree.parent.tolist() == reference.parents(children)
    assert tree.depth.tolist() == list(depths)
    assert contour_nodes(tree.walk).tolist() == list(nodes)
    assert first_visit_times(tree.walk).tolist() == list(firsts)
    mirrored = reference.read_walk(reference.traverse(children, "reverse")[0])[0]
    assert mirror(tree).children == mirrored


def check_labeled(tree: LabeledTree, children, labels) -> None:
    """``encode``, ``decode``, the marks and, for a well-labeled tree, the
    doddering tree equal their loops on (children, labels)."""
    assert tree.tree.children == children and tree.labels.tolist() == list(labels)
    enc = encode(tree)
    process, steps = reference.encode(children, labels)
    assert (enc.labels.tolist(), enc.walk.steps.tolist()) == (list(process), list(steps))
    back = decode(enc)
    assert (back.tree.children, tuple(back.labels.tolist())) == reference.decode(process, steps)
    marks = reference.to_marked(children, labels)
    assert to_marked(tree).marks.tolist() == list(marks)
    assert from_marked(to_marked(tree)).labels.tolist() == list(
        reference.from_marked(children, marks)
    )
    if min(labels) >= 1:
        d = doddering(enc.labels[:-1])
        assert (d.tree.children, tuple(d.tags.tolist())) == reference.doddering(process[:-1])


@pytest.mark.parametrize("n", range(1, 6))
def test_plane_tree_forms_match_the_loops(n):
    trees = plane_trees(n)
    assert [t.children for t in trees] == [reference.read_walk(w)[0] for w in _walks(n)]
    for tree in trees:
        check_tree(tree, tree.children)
        assert PlaneTree(tree.children) == tree


@pytest.mark.parametrize("n", range(1, 6))
def test_labeled_tree_forms_match_the_loops(n):
    # labeled_trees lists, per plane tree, the edge increments in
    # itertools.product order
    expected = [
        (t.children, reference.from_marked(t.children, marks))
        for t in plane_trees(n)
        for marks in product((-1, 0, 1), repeat=n)
    ]
    trees = labeled_trees(n)
    assert len(trees) == len(expected)
    for tree, (children, labels) in zip(trees, expected):
        check_labeled(tree, children, labels)


def _spike(n: int) -> Walk:
    return Walk(np.concatenate((np.arange(n + 1), np.arange(n - 1, -1, -1))))


@pytest.mark.parametrize("kind", ["random", "spike"])
def test_tree_forms_match_the_loops_on_large_trees(kind):
    rng = np.random.default_rng([47, kind == "spike"])
    # the contour levels sort as uint16 keys for the random trees and as
    # int64 keys for the spike
    if kind == "random":
        labeled = [sample_labeled_uniform(10**5, rng) for _ in range(2)]
        labeled.append(sample_rooted_pd(10**5, rng)[0])  # well-labeled
        assert all(2**8 <= t.tree.walk.steps.max() < 2**16 for t in labeled)
    else:
        tree = walk_to_tree(_spike(70000))
        assert tree.walk.steps.max() >= 2**16
        labels = np.cumsum(np.concatenate(([1], rng.integers(-1, 2, size=70000))))
        labeled = [LabeledTree(tree, labels), to_positive(LabeledTree(tree, labels))]
    for tree in labeled:
        children = reference.read_walk(tree.tree.walk.steps.tolist())[0]
        check_tree(tree.tree, children)
        check_labeled(tree, children, tuple(tree.labels.tolist()))


@pytest.mark.parametrize(
    "children",
    [
        ((1, 2), (3,), (), ()),  # node 2 is discovered after node 3
        ((2, 1), (), ()),  # siblings listed counterclockwise
        ((1,), (2,), (1,)),  # node 1 listed twice, a cycle
        ((3,), (2,), (1,), ()),  # a cycle away from the root
        ((1,), (), (), ()),  # node 2 and 3 unreachable
        ((1, 4), (2,), (), ()),  # an id out of range
        ((1,), (0,)),  # the root as a child
        ((),),  # no edge
    ],
)
def test_plane_tree_rejects_ids_out_of_first_visit_order(children):
    with pytest.raises(ValueError):
        PlaneTree(children)


@pytest.mark.parametrize("n", range(1, 6))
def test_plane_tree_accepts_exactly_the_valid_children_lists(n):
    # every tree with its children lists reversed or its ids permuted: a
    # list is valid iff the walk of its depth-first traversal gives it back
    rng = np.random.default_rng(n)
    for tree in plane_trees(n):
        children = [list(c) for c in tree.children]
        for _ in range(3):
            ids = rng.permutation(n) + 1
            relabel = {0: 0, **{u + 1: int(v) for u, v in enumerate(ids)}}
            for variant in (
                [c[::-1] for c in children],
                [[relabel[c] for c in kids] for kids in children],
            ):
                variant = tuple(tuple(c) for c in variant)
                if reference.read_walk(reference.traverse(variant)[0])[0] == variant:
                    assert PlaneTree(variant).children == variant
                else:
                    with pytest.raises(ValueError):
                        PlaneTree(variant)


def _values(n: int):
    """Pairs of equal tree-layer values, one built by the library and one
    through the public constructors from lists."""
    tree, _ = sample_rooted_pd(n, np.random.default_rng([53, n]))
    enc = encode(tree)
    body = enc.labels[:-1]
    marked, d, table = to_marked(tree), doddering(body), predecessor_table(body)
    built = [enc.walk, tree.tree, tree, enc, marked, d, table]
    public_tree = PlaneTree(tree.tree.children)
    from_lists = [
        Walk(enc.walk.steps.tolist()),
        public_tree,
        LabeledTree(public_tree, tree.labels.tolist()),
        Encoding(enc.labels.tolist(), Walk(enc.walk.steps.tolist())),
        MarkedTree(public_tree, marked.marks.tolist()),
        DodderingTree(PlaneTree(d.tree.children), d.tags.tolist()),
        PredecessorTable(table.values.tolist()),
    ]
    return built, from_lists


@pytest.mark.parametrize("n", [1, 5, 1000])
def test_equal_values_hash_equal(n):
    built, from_lists = _values(n)
    for a, b in zip(built, from_lists):
        assert type(a) is type(b)
        assert (a == b) is True and (a != b) is False
        assert hash(a) == hash(b) and len({a, b}) == 1
    other = LabeledTree(EDGE, (1, 2))
    assert (LabeledTree(EDGE, (1, 1)) == other) is False
    assert LabeledTree(EDGE, (1, 1)) != encode(other)


def test_stored_arrays_are_read_only():
    built, from_lists = _values(64)
    tree = built[2]
    arrays = [tree.tree.parent, tree.tree.depth]
    for value in built + from_lists:
        stored = [getattr(value, f.name) for f in fields(value)]
        arrays += [v for v in stored if type(v) is np.ndarray]
    assert len(arrays) == 2 + 2 * 6  # one array field in each value but the plane tree
    for array in arrays:
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 0
    # a constructor copies the caller's array
    steps = tree.tree.walk.steps.copy()
    walk = Walk(steps)
    steps[1] = 5
    assert walk == tree.tree.walk


def test_tree_of_quad_equality_is_a_bool():
    tree, q = sample_rooted_pd(2**10, np.random.default_rng(2))
    back, other = tree_of_quad(q), well_labeled_trees(3)[0]
    assert (back == tree) is True and (back != tree) is False
    assert (back == other) is False and (back != other) is True


W = Walk((0, 1, 0, 1, 0))


@pytest.mark.parametrize(
    "build, expected",
    [
        (lambda: HalfEdgeMap((1.0, 0.4), (0, 1), (0, 1)), "twin"),
        (lambda: HalfEdgeMap((1, 0), (0, 1.9), (0, 1)), "nxt"),
        (lambda: HalfEdgeMap((True, False), (0, 1), (0, 1)), "twin"),
        (lambda: HalfEdgeMap(("1", "0"), (0, 1), (0, 1)), "twin"),
        (lambda: LabeledTree(EDGE, (1, 1.5)), "labels"),
        (lambda: Encoding((1, 1.7, 1), Walk((0, 1, 0))), "labels"),
        (lambda: MarkedTree(EDGE, (0.5,)), "marks"),
        (lambda: predecessor_table((1, 1.5)), "labels"),
        (lambda: doddering((1, 2.0, 1.5)), "labels"),
        (lambda: PlaneTree((("1",), ())), "children"),
        (lambda: Walk((0.0, 1.0, 0.0)), "steps"),
        # numpy alone reads these sequences as int64
        pytest.param(lambda: Walk((0, True, 0)), "steps", id="bool-steps"),
        pytest.param(lambda: LabeledTree(EDGE, (1, True)), "labels", id="bool-labels"),
        (lambda: Encoding((1, 1, 1), (0, 1, 0)), "walk"),
        (lambda: same_node(W, 0.5, 2), "corner"),
    ],
)
def test_integer_fields_take_only_integers(build, expected):
    with pytest.raises(ValueError, match=f"^{expected}: expected a"):
        build()
