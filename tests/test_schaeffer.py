import itertools

import numpy as np
import pytest

from quadmap.enumeration import well_labeled_trees
from quadmap.harness import sample_rooted_pd
from quadmap.labeled import LabeledTree, decode, encode, minima_set, reroot, stabilizer_size
from quadmap.planar_map import bfs_distances, pointed_code, radius, rooted_code
from quadmap.schaeffer import (
    DodderingTree,
    _glued_arrays,
    _predecessor_array,
    _tree_of_quad_arrays,
    assemble,
    doddering,
    fiber,
    point,
    predecessor_table,
    quad_of_tree,
    tree_of_quad,
)
from quadmap.trees import Walk, height_process, visit_order, walk_to_tree


EDGE = walk_to_tree(Walk((0, 1, 0)))


def test_predecessor_hand_cases():
    assert predecessor_table((1,)).values.tolist() == [-1]
    assert predecessor_table((1, 2, 1)).values.tolist() == [-1, 0, -1]
    assert predecessor_table((1, 1, 2)).values.tolist() == [-1, -1, 1]


def test_predecessor_rejects_bad_processes():
    for bad in [(2, 1), (1, 0, 1), (1, 3)]:
        with pytest.raises(ValueError):
            predecessor_table(bad)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_predecessor_nesting(n):
    # P(i) < j < i forces P(i) <= P(j) < j
    for t in well_labeled_trees(n):
        p = predecessor_table(encode(t).labels[:-1]).values
        for i, pi in enumerate(p):
            for j in range(pi + 1, i):
                assert pi <= p[j] < j


def test_doddering_hand_case():
    d = doddering((1, 2, 1))
    # reverse-order check: root children are tags 2 then 0 clockwise,
    # node 0 carries node 1
    assert d.tags.tolist() == [-1, 2, 0, 1]
    assert d.tree.children == ((1, 2), (), (3,), ())
    assert height_process(d.tree, "reverse").tolist() == [0, 1, 2, 1]


@pytest.mark.parametrize("n", range(1, 6))
def test_doddering_reverse_height_identity(n):
    for t in well_labeled_trees(n):
        body = encode(t).labels[:-1]
        d = doddering(body)
        assert d.tree.n_nodes == len(body) + 1
        assert d.tree.n == len(body)
        assert height_process(d.tree, "reverse").tolist() == [0] + body.tolist()
        order = visit_order(d.tree, "reverse")
        assert [d.tags[u] for u in order] == list(range(-1, len(body)))
        # the parent of the node tagged i is the node tagged P(i)
        pred = predecessor_table(body).values
        assert all(d.tags[d.tree.parent[u]] == pred[d.tags[u]] for u in range(1, len(d.tags)))


def test_quad_of_tree_hand_cases():
    q_center = quad_of_tree(LabeledTree(EDGE, (1, 1)))
    q_end = quad_of_tree(LabeledTree(EDGE, (1, 2)))
    # both are the one-face path; they differ by where the origin sits
    for q in (q_center, q_end):
        assert (q.map.n_vertices, q.map.n_edges, q.map.n_faces) == (3, 2, 1)
        assert q.map.tail[q.root] == 0
    assert q_center.map.degree(0) == 2
    assert q_end.map.degree(0) == 1


def test_quad_of_tree_rejects_non_well_labeled():
    with pytest.raises(ValueError):
        quad_of_tree(LabeledTree(EDGE, (1, 0)))


@pytest.mark.parametrize("n", range(1, 6))
def test_bijection_injective_and_counts(n):
    trees = well_labeled_trees(n)
    quads = [quad_of_tree(t) for t in trees]
    codes = {rooted_code(q.map, q.root) for q in quads}
    assert len(codes) == len(trees)
    for q in quads:
        assert q.map.n_edges == 2 * n
        assert q.map.n_vertices == n + 2
        assert all(len(f) == 4 for f in q.map.faces)


@pytest.mark.parametrize("n", range(1, 6))
def test_inverse_round_trip_exhaustive(n):
    for t in well_labeled_trees(n):
        assert tree_of_quad(quad_of_tree(t)) == t


def test_inverse_round_trip_large_random():
    rng = np.random.default_rng(123)
    for n in (10**3, 10**4, 10**5):
        for _ in range(3):
            tree, quad = sample_rooted_pd(n, rng)
            assert tree_of_quad(quad) == tree


def test_inverse_n1_endpoint():
    q = quad_of_tree(LabeledTree(EDGE, (1, 2)))
    assert tree_of_quad(q).labels.tolist() == [1, 2]


@pytest.mark.parametrize("n", range(1, 6))
def test_labels_are_bfs_distances(n):
    for t in well_labeled_trees(n):
        q = quad_of_tree(t)
        dist = bfs_distances(q.map, 0)
        assert dist[0] == 0
        assert all(dist[u + 1] == t.labels[u] for u in range(t.tree.n_nodes))
        assert radius(q) == max(t.labels)
        assert q.map.degree(0) == len(minima_set(encode(t).labels))


@pytest.mark.parametrize("n", range(1, 5))
def test_assemble_matches_direct_construction(n):
    for t in well_labeled_trees(n):
        body = encode(t).labels[:-1]
        d = doddering(body)
        built = assemble(d, t.tree)
        q = quad_of_tree(t)
        assert built == q  # dart for dart, vertex for vertex
        assert rooted_code(built.map, built.root) == rooted_code(q.map, q.root)
        assert built.map.n_vertices == n + 2


def test_assemble_n1_no_gluing():
    # walk (0,1,0): its two corners sit on distinct nodes, nothing merges
    t = LabeledTree(EDGE, (1, 1))
    d = doddering(encode(t).labels[:-1])
    built = assemble(d, t.tree)
    assert built.map.n_vertices == 3  # a path, no identification


def test_assemble_rejects_bad_assignments():
    with pytest.raises(ValueError):
        assemble(doddering((1, 2, 2, 1)), EDGE)  # 4 non-root nodes, 2 corners
    # corners 0 and 2 of a cherry share its root node, but the doddering
    # nodes sent there have depths 1 and 2
    d2 = doddering((1, 2, 2, 1))
    with pytest.raises(ValueError):
        assemble(d2, walk_to_tree(Walk((0, 1, 0, 1, 0))))


def test_tree_of_quad_arrays_raise_on_a_rotation_without_a_selected_dart():
    # distances (0, 0, 2) in place of (0, 1, 1): the one face reads labels
    # (0, 0, 2, 0), so only the side from vertex 2 to the origin is
    # selected, and the walk from the root's head, vertex 1, finds no end
    q = quad_of_tree(LabeledTree(EDGE, (1, 1)))
    he = q.map
    assert bfs_distances(he, q.origin).tolist() == [0, 1, 1] and he.head(q.root) == 1
    with pytest.raises(RuntimeError, match="no selected dart"):
        _tree_of_quad_arrays(
            he.twin[None], he.nxt[None], he.tail[None], np.array([[0, 0, 2]]), [q.root]
        )


@pytest.mark.parametrize("n", [1, 2])
def test_tree_of_quad_arrays_reject_faulty_distances_without_reading_unset_entries(n):
    # every distance vector over {0, 1, 2} on every quad with n faces: each
    # call returns a tree or raises RuntimeError, never an IndexError from
    # an unset contour entry, and the BFS distances give the tree back
    for tree in well_labeled_trees(n):
        q = quad_of_tree(tree)
        he = q.map
        arrays = (he.twin[None], he.nxt[None], he.tail[None])
        for dist in itertools.product(range(3), repeat=he.n_vertices):
            try:
                _tree_of_quad_arrays(*arrays, np.array([dist]), [q.root])
            except RuntimeError:
                pass
        walk, labels = _tree_of_quad_arrays(
            *arrays, bfs_distances(he, q.origin)[None], [q.root]
        )
        assert LabeledTree(walk_to_tree(Walk(walk[0])), labels[0]) == tree


@pytest.mark.parametrize("n", [2, 64])
def test_inverse_round_trip_at_a_vertex_of_high_degree(n):
    # the path labeled (1, 2, ..., 2): each of the 2n - 1 corners labeled 2
    # sends its chord to the root's one corner, so the root's vertex holds
    # 2n darts and one tree edge; at n = 64 the walks there outlast the
    # bit length of the dart count and finish by pointer jumping
    steps = np.concatenate((np.arange(n + 1), np.arange(n - 1, -1, -1)))
    tree = LabeledTree(walk_to_tree(Walk(steps)), (1,) + (2,) * n)
    q = quad_of_tree(tree)
    assert np.bincount(q.map.tail)[1] == 2 * n
    assert tree_of_quad(q) == tree


def test_assemble_rejects_a_gluing_across_depths():
    # the doddering tree of a path's labels (1, 2, 3, 2) glued along a
    # cherry: corners 0 and 2 share the root node, but the nodes tagged 0
    # and 2 sit at depths 1 and 3
    d = doddering((1, 2, 3, 2))
    with pytest.raises(ValueError, match="different depths"):
        assemble(d, walk_to_tree(Walk((0, 1, 0, 1, 0))))


def test_glued_arrays_flag_a_tag_hung_from_a_non_ancestor():
    # path walk, labels (1, 1, 2, 1): tag 2 hangs from tag 1; moved to tag 0,
    # at the same depth but no ancestor-or-self of tag 1, the reverse
    # traversal no longer lists the tags in order
    walk = np.array([[0, 1, 2, 1, 0]])
    parent = _predecessor_array(np.array([[1, 1, 2, 1]]))
    assert parent.tolist() == [[-1, -1, 1, -1]]
    assert _glued_arrays(parent, walk)[3].tolist() == [True]
    parent[0, 2] = 0
    _, _, depth, nested = _glued_arrays(parent, walk)
    assert depth.tolist() == [[1, 1, 2, 1]] and nested.tolist() == [False]


@pytest.mark.parametrize(
    "tags, message",
    [
        ((-1, 0, 3, 2, 9), "permutation of -1..3"),
        ((-1, 0, 3, 2, 0), "permutation of -1..3"),
        ((-1, 0, 3, 2), "4 doddering tags for 5 nodes"),
        ((0, -1, 3, 2, 1), "root must carry the tag -1"),
        ((-1, 0, 3, 2, 1.0), "expected an integer"),
    ],
)
def test_doddering_tree_rejects_bad_tags(tags, message):
    d = doddering((1, 2, 2, 2))
    assert d.tags.tolist() == [-1, 0, 3, 2, 1]
    assert DodderingTree(d.tree, d.tags) == d
    with pytest.raises(ValueError, match=message):
        DodderingTree(d.tree, tags)


def test_point_hand_cases():
    quads = [quad_of_tree(LabeledTree(EDGE, labels)) for labels in ((1, 1), (1, 2))]
    codes = {pointed_code(point(q).map, point(q).origin) for q in quads}
    assert len(codes) == 2


def test_fiber_n1():
    for labels in ((1, 1), (1, 2)):
        pq = point(quad_of_tree(LabeledTree(EDGE, labels)))
        assert len(fiber(pq)) == 1


@pytest.mark.parametrize("n", [1, 2, 3])
def test_fiber_structure(n):
    total = 0
    pointed = {}
    for t in well_labeled_trees(n):
        q = quad_of_tree(t)
        pq = point(q)
        code = pointed_code(pq.map, pq.origin)
        e = encode(t)
        minima = minima_set(e.labels)
        fib = fiber(pq)
        # representative count balances minima against symmetries
        assert len(fib) == len(minima) // stabilizer_size(t)
        # rerooting at each minimum reaches exactly the fiber
        tree_route = {
            rooted_code(quad_of_tree(decode(reroot(e, th))).map, 1) for th in minima
        }
        assert tree_route == {rooted_code(f.map, f.root) for f in fib}
        # pointing is invariant along the fiber
        for th in minima:
            q2 = quad_of_tree(decode(reroot(e, th)))
            assert pointed_code(q2.map, q2.map.tail[q2.root]) == code
        if code not in pointed:
            pointed[code] = len(fib)
            total += len(fib)
    assert total == len(well_labeled_trees(n))
