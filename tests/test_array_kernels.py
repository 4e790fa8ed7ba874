"""The array kernels against the per-dart Python loops they replaced.

Every map layer runs as numpy kernels at every size.  The loops it ran
before, on maps below 2048 darts, are kept in ``reference_loops`` as
references: each kernel and public function is compared with them on every
enumerated small object and on seeded draws from 256 to 16384 darts, and
corrupted map arrays must be rejected by the constructor, the reference
validator and the validation kernel with the same message.
"""
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest

import reference_loops as reference
from quadmap import harness
from quadmap.enumeration import (
    LawTables,
    Orbit,
    OrbitDecomposition,
    PointedLaw,
    RootedLaw,
    _encoding_arrays,
    _walks,
    _well_labeled_arrays,
    catalan,
    labeled_trees,
    law_tables,
    orbit_decomposition,
    plane_trees,
    rooted_quads,
    unrooted_plane_tree_count,
    well_labeled_trees,
)
from quadmap.labeled import (
    Encoding,
    LabeledTree,
    decode,
    encode,
    reroot,
    stabilizer_size,
    to_positive,
)
from quadmap.paths import _reroot_arrays, uniform_encoding_arrays
from quadmap.planar_map import (
    HalfEdgeMap,
    PointedMap,
    _ascii_ints,
    _bfs_arrays,
    _check_arrays,
    _connected,
    _orbit_arrays,
    _parse_ascii_ints,
    _pointed_code_arrays,
    _quad_faces,
    _rooted_code_arrays,
    _rotation_arrays,
    _split,
    _steps_to_end,
    _union,
    bfs_distances,
    load_map,
    map_of_quad,
    pointed_code,
    quad_of_map,
    radius,
    rooted_code,
    save_map,
)
from quadmap.schaeffer import (
    _chord_arrays,
    _contour_node_array,
    _glued_arrays,
    _labeled_tree_of_arrays,
    _predecessor_array,
    _tree_of_quad_arrays,
    doddering,
    fiber,
    point,
    predecessor_table,
    quad_of_tree,
    tree_of_quad,
)
from quadmap.trees import PlaneTree, Walk, _trusted

SAMPLED_N = (2**6, 2**8, 2**9, 2**10, 2**12)  # 256 .. 16384 darts


def fresh(he: HalfEdgeMap) -> HalfEdgeMap:
    """The same map without cached orbits."""
    return _trusted(HalfEdgeMap, twin=he.twin, nxt=he.nxt, tail=he.tail)


def check_map_kernels(he: HalfEdgeMap, origin: int, roots) -> None:
    """Every map kernel and the public function over it equal the
    reference loops on ``he``."""
    twin, nxt, tail = he.twin, he.nxt, he.tail
    for perm in (nxt, nxt[twin]):
        assert _split(*_orbit_arrays(perm)) == reference.orbits(perm.tolist())
    reference.check_map(twin.tolist(), nxt.tolist(), tail.tolist())
    _check_arrays(fresh(he))
    ref = fresh(he)
    assert ref.faces == reference.faces(he)
    assert ref.vertex_cycles == reference.vertex_cycles(he)
    distances = reference.bfs_distances(he, origin)
    dist = _bfs_arrays(twin[None], tail[None], he.n_vertices, [origin])[0]
    assert tuple(dist.tolist()) == distances
    assert tuple(bfs_distances(ref, origin).tolist()) == distances
    for root in roots:
        code = reference.rooted_code(he, root)
        assert _rooted_code_arrays(nxt[None], twin[None], [root]) == [code]
        assert rooted_code(ref, root) == code
    assert _ascii_ints(nxt).decode() == ",".join(map(str, nxt.tolist()))


def check_chord_arrays(enc, labels: np.ndarray, walk: np.ndarray) -> None:
    """``_chord_arrays`` and ``_rotation_arrays`` equal the reference
    rotation lists' arrays."""
    twin, nxt, tail = (a[0] for a in _chord_arrays(labels[None, :-1], walk[None]))
    rotations = reference.chord_rotations(enc.labels[:-1].tolist(), enc.walk.steps.tolist())
    built = reference.rotation_arrays(rotations)
    assert tuple(a.tolist() for a in _rotation_arrays(rotations)) == tuple(
        a.tolist() for a in built
    )
    assert twin.tolist() == [d ^ 1 for d in range(twin.size)]
    assert (nxt.tolist(), tail.tolist()) == tuple(a.tolist() for a in built)


def check_inverse(q, tree) -> None:
    """``_quad_faces`` equals the reference faces, and
    ``_tree_of_quad_arrays`` on the reference distances and public
    ``tree_of_quad`` equal the reference inverse and ``tree``."""
    he = q.map
    assert _quad_faces(he.nxt[he.twin]).tolist() == [list(f) for f in reference.faces(he)]
    dist = np.array(reference.bfs_distances(he, q.origin))
    walks, node_labels = _tree_of_quad_arrays(
        he.twin[None], he.nxt[None], he.tail[None], dist[None], [q.root]
    )
    built = _labeled_tree_of_arrays(walks[0], node_labels[0])
    assert built == tree_of_quad(q) == reference.tree_of_quad(q) == tree


@pytest.mark.parametrize("n", range(1, 6))
def test_kernels_match_python_on_all_small_quads(n):
    for tree in well_labeled_trees(n):
        q = quad_of_tree(tree)
        assert q == reference.quad_of_tree(tree)
        he = q.map
        check_map_kernels(he, q.origin, range(he.n_darts) if n <= 3 else (q.root, 0))
        assert pointed_code(he, q.origin) == reference.pointed_code(he, q.origin)
        assert fiber(point(q)) == reference.fiber(point(q))
        enc = encode(tree)
        labels, walk = np.array(enc.labels), np.array(enc.walk.steps)
        predecessors = reference.predecessors(enc.labels[:-1])
        assert tuple(_predecessor_array(labels[None, :-1])[0].tolist()) == predecessors
        assert tuple(predecessor_table(enc.labels[:-1]).values.tolist()) == predecessors
        nodes = _contour_node_array(walk[None])[0]
        assert tuple(nodes.tolist()) == reference.read_walk(walk.tolist())[1]
        check_chord_arrays(enc, labels, walk)
        check_inverse(q, tree)
        up = walk[1:] > walk[:-1]
        node_labels = np.concatenate((labels[:1], labels[1:][up]))
        assert _labeled_tree_of_arrays(walk, node_labels) == decode(enc) == tree
        for theta in range(2 * n):
            new_labels, new_walk = _reroot_arrays(labels, walk, theta)
            again = reference.reroot(enc, theta)
            assert new_labels.tolist() == again.labels.tolist()
            assert new_walk.tolist() == again.walk.steps.tolist()
            assert reroot(enc, theta) == again


@pytest.mark.parametrize("n", [3, 4, 5, 2**11 + 1])
def test_predecessor_array_matches_the_loop_on_stacks(n):
    # rows of 2n corners, a power of two at n = 4 only: every well-labeled
    # tree at n = 3, 4, 5, and three draws at 2n = 2^12 + 2, with rows of
    # different label spans
    if n <= 5:
        bodies = _well_labeled_arrays(n)[0][:, :-1]
    else:
        rng = np.random.default_rng(n)
        bodies = np.array([encode(harness.sample_rooted_pd(n, rng)[0]).labels[:-1] for _ in range(3)])
    assert len(set(bodies.max(axis=1).tolist())) > 1
    got = _predecessor_array(bodies)
    assert [tuple(row) for row in got.tolist()] == [reference.predecessors(b) for b in bodies.tolist()]


@pytest.mark.parametrize("n", [1, 2, 3])
def test_kernels_match_python_on_all_small_maps(n, rooted_maps_by_size):
    for rm in rooted_maps_by_size[n].values():
        for he in (rm.map, quad_of_map(rm).map):
            for origin in range(he.n_vertices):
                check_map_kernels(he, origin, range(he.n_darts) if origin == 0 else ())


@pytest.mark.parametrize("n", SAMPLED_N)
def test_kernels_match_python_on_sampled_maps(n):
    rng = np.random.default_rng([17, n])
    tree, q = harness.sample_rooted_pd(n, rng)
    assert (tree, q) == reference.sample_rooted_pd(n, np.random.default_rng([17, n]))
    he = q.map
    check_map_kernels(he, q.origin, (q.root, 0, he.n_darts - 1))
    enc = encode(tree)
    labels, walk = np.array(enc.labels), np.array(enc.walk.steps)
    predecessors = reference.predecessors(enc.labels[:-1])
    assert tuple(_predecessor_array(labels[None, :-1])[0].tolist()) == predecessors
    nodes = _contour_node_array(walk[None])[0]
    assert tuple(nodes.tolist()) == reference.read_walk(walk.tolist())[1]
    check_chord_arrays(enc, labels, walk)
    check_inverse(q, tree)
    raw_labels, raw_walks = uniform_encoding_arrays(n, rng)
    raw = decode(Encoding(raw_labels[0], Walk(raw_walks[0])))
    raw_enc = encode(raw)
    for theta in rng.integers(0, 2 * n, size=5):
        new_labels, new_walk = _reroot_arrays(raw_labels[0], raw_walks[0], int(theta))
        again = reference.reroot(raw_enc, int(theta))
        assert new_labels.tolist() == again.labels.tolist()
        assert new_walk.tolist() == again.walk.steps.tolist()


@pytest.mark.parametrize("n", SAMPLED_N)
def test_public_functions_equal_on_both_paths(n):
    rng = np.random.default_rng([23, n])
    tree, q = harness.sample_rooted_pd(n, rng)
    pq = harness.sample_pointed_ps(n, rng)
    he = fresh(q.map)
    text, pointed_text = save_map(q), save_map(pq)
    loaded, loaded_pointed = load_map(text), load_map(pointed_text)
    public = (
        tree,
        q,
        pq,
        he.faces,
        he.vertex_cycles,
        he.n_faces,
        tuple(bfs_distances(he, q.origin).tolist()),
        rooted_code(he, q.root),
        text,
        pointed_text,
        loaded,
        type(loaded),
        loaded_pointed,
        type(loaded_pointed),
        quad_of_tree(tree),
        tree_of_quad(q),
        point(q),
        HalfEdgeMap.from_rotations(q.map.vertex_cycles),
    )
    rng = np.random.default_rng([23, n])
    ref_tree, ref_q = reference.sample_rooted_pd(n, rng)
    ref_pq = reference.sample_pointed_ps(n, rng)
    ref = ref_q.map
    ref_faces = reference.faces(ref)
    expected = (
        ref_tree,
        ref_q,
        ref_pq,
        ref_faces,
        reference.vertex_cycles(ref),
        len(ref_faces),
        reference.bfs_distances(ref, ref_q.origin),
        reference.rooted_code(ref, ref_q.root),
        reference.save_map(ref_q),
        reference.save_map(ref_pq),
        reference.renumbered(ref_q),
        type(ref_q),
        reference.renumbered(ref_pq),
        type(ref_pq),
        reference.quad_of_tree(ref_tree),
        reference.tree_of_quad(ref_q),
        point(ref_q),
        ref,
    )
    assert public == expected


def check_conversions(m) -> None:
    """``quad_of_map`` of a rooted or pointed map, and ``map_of_quad`` of
    the result, equal the reference loops dart for dart."""
    q = quad_of_map(m)
    assert q == reference.quad_of_map(m)
    assert map_of_quad(q) == reference.map_of_quad(q)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_map_conversions_match_the_loops_on_all_small_maps(n, rooted_maps_by_size):
    for rm in rooted_maps_by_size[n].values():
        check_conversions(rm)
        for origin in range(rm.map.n_vertices):
            check_conversions(PointedMap(rm.map, origin))


@pytest.mark.parametrize("n", [1, 2, 5, 64, 3000])
def test_map_conversions_match_the_loops_on_sampled_quads(n):
    rng = np.random.default_rng([41, n])
    for _ in range(2):
        _, q = harness.sample_rooted_pd(n, rng)
        for quad in (q, harness.sample_pointed_ps(n, rng)):
            back = map_of_quad(quad)
            assert back == reference.map_of_quad(quad)
            assert quad_of_map(back) == reference.quad_of_map(back)


@pytest.mark.parametrize("n", range(1, 8))
def test_walks_match_the_recursive_listing(n):
    assert _walks(n).tolist() == [list(w) for w in reference.walks(n)]


@pytest.mark.parametrize("n", range(1, 5))
def test_glued_arrays_match_the_reference_loop(n):
    # every well-labeled tree of size n in one stack, against the loop
    # glued one tree at a time, its darts and vertices offset as in the union
    trees = well_labeled_trees(n)
    body = np.array([encode(t).labels[:-1] for t in trees])
    walks = np.array([encode(t).walk.steps for t in trees])
    flat, sizes, depth, nested = _glued_arrays(_predecessor_array(body), walks)
    expected_flat, expected_sizes = [], []
    for b, t in enumerate(trees):
        for rot in reference.glued_rotations(doddering(body[b]), t.tree):
            expected_flat += [dart + 4 * n * b for dart in rot]
            expected_sizes.append(len(rot))
    assert flat.tolist() == expected_flat and sizes.tolist() == expected_sizes
    assert np.array_equal(depth, body) and nested.all()


def test_text_kernels_match_join_and_int():
    rng = np.random.default_rng(3)
    samples = [
        np.array([0]),
        np.array([7, 0, 10, 99, 100, 101]),
        np.array([2**32 - 1, 2**32, 10**17, 10**18 - 1, 10**18, 2**63 - 1]),
        rng.integers(0, 10**6, 5000),
    ]
    for values in samples:
        line = ",".join(map(str, values.tolist()))
        assert _ascii_ints(values) == line.encode("ascii")
        parsed = _parse_ascii_ints(line)
        if values.max() < 10**18:
            assert parsed.tolist() == values.tolist()
        else:
            assert parsed is None  # 19 digits: left to int
    for line in ("", ",", "1,", ",1", "1,,2", "-1,2", " 1", "1_0", "+1", "１", "1 "):
        assert _parse_ascii_ints(line) is None


def test_stacked_text_rows_match_single_rows():
    # a flattened stack is written at its widest value's width, with the
    # leading zeros of each narrower value deleted, so it reads as its rows
    # written one at a time and joined by commas
    rng = np.random.default_rng(4)
    rows = np.array([[0, 1, 2], [1000, 5, 99999], [7, 7, 7], [10**9, 0, 10**12]])
    drawn = rng.integers(0, 10**6, (50, 2, 9)) // 10 ** rng.integers(0, 6, (50, 1, 1))
    for stack in (rows, rows[:, None, :], drawn):
        single = [_ascii_ints(row.ravel()) for row in stack]
        assert _ascii_ints(stack.ravel()) == b",".join(single)
        for row, text in zip(stack, single):
            assert text == ",".join(map(str, row.ravel().tolist())).encode("ascii")


# -- rejection parity ---------------------------------------------------------


def _quad_arrays():
    _, q = harness.sample_rooted_pd(2**10, np.random.default_rng([29, 2**10]))
    return [t.tolist() for t in (q.map.twin, q.map.nxt, q.map.tail)]


def _nxt_not_permutation(twin, nxt, tail):
    nxt[0] = nxt[1]


def _twin_fixed_point(twin, nxt, tail):
    twin[5] = 5


def _twin_not_involution(twin, nxt, tail):
    a = 0
    twin[a] = next(c for c in range(len(twin)) if c not in (a, twin[a]))


def _tail_mismatch(twin, nxt, tail):
    d = next(d for d in range(len(nxt)) if nxt[d] != d)
    tail[d] = (tail[d] + 1) % (max(tail) + 1)


def _split_vertex(twin, nxt, tail):
    a = next(d for d in range(len(nxt)) if nxt[nxt[d]] != d and nxt[d] != d)
    b = nxt[nxt[a]]  # a third dart of a's rotation: swapping cuts it in two
    nxt[a], nxt[b] = nxt[b], nxt[a]


def _vertex_id_gap(twin, nxt, tail):
    tail[:] = [v + (v >= 1) for v in tail]


def _two_copies(twin, nxt, tail):
    m, v = len(twin), max(tail) + 1
    twin += [t + m for t in twin]
    nxt += [d + m for d in nxt]
    tail += [u + v for u in tail]


def _genus_one(twin, nxt, tail):
    # re-pair two edges crosswise; keep the first re-pairing that lowers the
    # face count by two (a connected map with V - E + F = 0: a torus)
    m = len(twin)
    faces = lambda tw: len(reference.orbits([nxt[t] for t in tw]))  # noqa: E731
    before = faces(twin)
    for b in range(2, m, 2):
        tw = list(twin)
        a, a2, b2 = 0, twin[0], twin[b]
        if b in (a, a2):
            continue
        tw[a], tw[b], tw[a2], tw[b2] = b, a, b2, a2
        if faces(tw) == before - 2:
            twin[:] = tw
            return
    raise AssertionError("no re-pairing adds a handle")


CORRUPTIONS = {
    _nxt_not_permutation: "nxt is not a permutation of the darts",
    _twin_fixed_point: "twin is not a fixed-point-free involution",
    _twin_not_involution: "twin is not a fixed-point-free involution",
    _tail_mismatch: "nxt mixes darts of different vertices",
    _split_vertex: "vertex split across several rotation cycles",
    _vertex_id_gap: "vertex ids must be 0..V-1",
    _two_copies: "map is not connected",
    _genus_one: "map is not of genus 0",
}


@pytest.mark.parametrize("corrupt", CORRUPTIONS, ids=lambda f: f.__name__.strip("_"))
def test_rejections_match_on_both_paths(corrupt):
    twin, nxt, tail = _quad_arrays()
    corrupt(twin, nxt, tail)
    assert len(twin) >= 4096
    messages = []
    for validate in (HalfEdgeMap, reference.check_map):
        with pytest.raises(ValueError) as exc:
            validate(twin, nxt, tail)
        messages.append(str(exc.value))
    with pytest.raises(ValueError) as exc:  # the kernel itself
        _check_arrays(
            _trusted(HalfEdgeMap, twin=np.array(twin), nxt=np.array(nxt), tail=np.array(tail))
        )
    messages.append(str(exc.value))
    assert messages == [CORRUPTIONS[corrupt]] * 3


@pytest.mark.parametrize(
    "corrupt",
    [_nxt_not_permutation, _twin_fixed_point, _twin_not_involution, _two_copies, _genus_one],
    ids=lambda f: f.__name__.strip("_"),
)
def test_load_map_rejects_with_the_constructor_messages(corrupt):
    # the text carries twin and nxt only: load_map numbers the vertices by
    # the rotation cycles it finds, which the constructor's checks then read
    twin, nxt, tail = _quad_arrays()
    corrupt(twin, nxt, tail)
    lines = [f"n={len(twin) // 2}", ",".join(map(str, twin)), ",".join(map(str, nxt)), "0"]
    with pytest.raises(ValueError) as exc:
        load_map("\n".join(lines) + "\n")
    assert str(exc.value) == CORRUPTIONS[corrupt]


def test_valid_arrays_pass_both_paths():
    twin, nxt, tail = _quad_arrays()
    reference.check_map(twin, nxt, tail)
    assert len(reference.orbits([nxt[t] for t in twin])) == 2**10
    he = HalfEdgeMap(twin, nxt, tail)
    assert he.n_faces == 2**10


def _edge_ends(twin: np.ndarray, tail: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The two end vertices of every edge, as ``_check_arrays`` reads them."""
    darts = np.flatnonzero(twin > np.arange(twin.size))
    return tail[darts], tail[twin[darts]]


@pytest.mark.parametrize("n", range(1, 5))
def test_connected_matches_the_bfs_on_chord_maps_and_their_unions(n):
    labels, walks, shape = _well_labeled_arrays(n)
    twin, nxt, tail = _chord_arrays(labels[:, :-1], walks[shape])
    m, v = twin.shape[1], n + 2
    # each map alone, consecutive pairs, and the whole stack as one union
    groups = [[b] for b in range(len(twin))] + [[b, b + 1] for b in range(len(twin) - 1)]
    for rows in groups + [list(range(len(twin)))]:
        union_twin, union_tail = _union(twin[rows], m), _union(tail[rows], v)
        reached = _bfs_arrays(union_twin[None], union_tail[None], len(rows) * v, [0])
        connected = _connected(*_edge_ends(union_twin, union_tail), len(rows) * v)
        assert connected == bool(np.all(reached >= 0)) == (len(rows) == 1)


def _numberings(v: int, rng) -> dict:
    """Vertex ids for the positions 0..v-1 of a path or tree; v a power of 2."""
    ids = np.arange(v)
    zigzag = np.empty(v, dtype=np.int64)
    zigzag[0::2], zigzag[1::2] = ids[: v // 2], ids[::-1][: v // 2]
    bits = (v - 1).bit_length()
    reversed_bits = np.array([int(f"{i:0{bits}b}"[::-1], 2) for i in range(v)])
    return {
        "sorted": ids,
        "reversed": ids[::-1],
        "zigzag": zigzag,
        "bit_reversed": reversed_bits,
        "random": rng.permutation(v),
    }


@pytest.mark.parametrize("shape", ["path", "tree"])
def test_connected_under_adversarial_vertex_numberings(shape):
    # a spanning path or random tree is connected, and dropping any one of
    # its edges disconnects it, however its vertices are numbered and each
    # edge is oriented
    v = 2**12
    rng = np.random.default_rng([41, v])
    # the parent of the vertex at position i + 1 is at position parent[i]
    parent = np.arange(v - 1) if shape == "path" else rng.integers(0, np.arange(1, v))
    for name, ids in _numberings(v, rng).items():
        u, w = ids[1:], ids[parent]
        flip = rng.random(v - 1) < 0.5
        u, w = np.where(flip, w, u), np.where(flip, u, w)
        assert _connected(u, w, v), name
        for cut in (0, v // 2, v - 2, int(rng.integers(v - 1))):
            keep = np.arange(v - 1) != cut
            assert not _connected(u[keep], w[keep], v), (name, cut)


@pytest.mark.parametrize("token", ["x", "", "-3", "1.0"])
def test_large_map_text_names_the_bad_line(token):
    _, q = harness.sample_rooted_pd(2**10, np.random.default_rng([31, 2**10]))
    head, twin, nxt, root = save_map(q).splitlines()
    entries = nxt.split(",")
    entries[100] = token
    line = ",".join(entries)
    text = "\n".join((head, twin, line, root)) + "\n"
    with pytest.raises(ValueError) as exc:
        load_map(text)
    if token == "-3":
        assert str(exc.value) == "rotation array entry is not a dart index"
    else:
        named = f"map text: the rotation line is not made of int64 integers: {line[:40]!r}"
        assert str(exc.value) == named
    expected = "rotation array entry" if token == "-3" else "the rotation line"
    assert expected in str(exc.value)


# -- stacked kernels ----------------------------------------------------------
#
# Every kernel above also takes a leading batch axis and runs the stack as the
# disjoint union of its maps.  Each slice of a stack must equal the scalar
# functions on that object, on every object up to n = 5 and on stacks of
# sampled large maps; the enumeration results built on the stacks must equal
# the per-object loops they replaced, kept here as oracles.


def test_steps_to_end_raises_on_a_chain_without_end():
    succ = np.array([1, 2, 0])
    with pytest.raises(RuntimeError, match="never reaches a marked end"):
        _steps_to_end(succ, np.zeros(3, dtype=bool))
    assert _steps_to_end(succ, np.array([False, False, True])).tolist() == [2, 1, 0]


@pytest.mark.parametrize("n", range(1, 6))
def test_encoding_arrays_list_the_labeled_trees(n):
    labels, walks, shape = _encoding_arrays(n)
    encodings = [encode(t) for t in labeled_trees(n)]
    assert labels.tolist() == [e.labels.tolist() for e in encodings]
    assert [walks[s].tolist() for s in shape] == [e.walk.steps.tolist() for e in encodings]


@pytest.mark.parametrize("n", range(1, 6))
def test_stacked_kernels_match_scalar_on_all_small_quads(n):
    trees = well_labeled_trees(n)
    labels, walks, shape = _well_labeled_arrays(n)
    walks = walks[shape]
    count = len(trees)
    twin, nxt, tail = _chord_arrays(labels[:, :-1], walks)
    roots, origins = np.ones(count, dtype=np.int64), np.zeros(count, dtype=np.int64)
    codes = _rooted_code_arrays(nxt, twin, roots)
    pointed = _pointed_code_arrays(nxt, twin, tail, 0)
    dist = _bfs_arrays(twin, tail, n + 2, origins)
    faces = stack_faces(twin, nxt)
    back = _tree_of_quad_arrays(twin, nxt, tail, dist, roots)
    assert rooted_quads(n) == [quad_of_tree(t) for t in trees]
    for b, tree in enumerate(trees):
        q = quad_of_tree(tree)
        he = q.map
        assert (twin[b].tolist(), nxt[b].tolist(), tail[b].tolist()) == (
            he.twin.tolist(),
            he.nxt.tolist(),
            he.tail.tolist(),
        )
        assert codes[b] == rooted_code(he, q.root)
        assert pointed[b] == pointed_code(he, q.origin)
        assert dist[b].tolist() == bfs_distances(he, q.origin).tolist()
        assert faces[b].tolist() == [list(f) for f in he.faces]
        assert _labeled_tree_of_arrays(back[0][b], back[1][b]) == tree_of_quad(q) == tree


@pytest.mark.parametrize("n", [2**10, 2**12])
def test_batch_of_one_matches_stacked_large_maps(n):
    rng = np.random.default_rng([37, n])
    labels, walks = uniform_encoding_arrays(n, rng, count=3)
    theta = labels[:, :-1].argmin(axis=1)
    single = [_reroot_arrays(labels[b], walks[b], int(theta[b])) for b in range(3)]
    labels, walks = _reroot_arrays(labels, walks, theta)
    for b, (one_labels, one_walk) in enumerate(single):
        assert np.array_equal(labels[b], one_labels) and np.array_equal(walks[b], one_walk)
    twin, nxt, tail = _chord_arrays(labels[:, :-1], walks)
    roots, origins = np.array([1, 5, 9]), np.zeros(3, dtype=np.int64)
    codes = _rooted_code_arrays(nxt, twin, roots)
    dist = _bfs_arrays(twin, tail, n + 2, origins)
    faces = stack_faces(twin, nxt)
    back_walks, back_labels = _tree_of_quad_arrays(twin, nxt, tail, dist, np.ones(3, int))
    for b in range(3):
        one = slice(b, b + 1)  # the stack of one holding row b
        chord = _chord_arrays(labels[one, :-1], walks[one])
        assert all(np.array_equal(a[one], c) for a, c in zip((twin, nxt, tail), chord))
        assert codes[b] == _rooted_code_arrays(nxt[one], twin[one], roots[one])[0]
        assert np.array_equal(dist[one], _bfs_arrays(twin[one], tail[one], n + 2, [0]))
        assert np.array_equal(faces[one], stack_faces(twin[one], nxt[one]))
        tree = _tree_of_quad_arrays(twin[one], nxt[one], tail[one], dist[one], [1])
        assert np.array_equal(tree[0], back_walks[one])
        assert np.array_equal(tree[1], back_labels[one])
        assert np.array_equal(back_walks[b], walks[b])


def stack_faces(twin: np.ndarray, nxt: np.ndarray) -> np.ndarray:
    """``_quad_faces`` of the disjoint union of (B, m) stacks, as a
    (B, F, 4) stack in each map's own darts."""
    count, m = twin.shape
    faces = _quad_faces(_union(nxt, m)[_union(twin, m)]).reshape(count, -1, 4)
    return faces - m * np.arange(count)[:, None, None]


def check_quad_faces(twin: np.ndarray, nxt: np.ndarray) -> None:
    """``_quad_faces`` of the disjoint union of (B, m) stacks equals the
    generic route, ``_orbit_arrays`` of the face permutation (which ranks
    every cycle from its smallest dart), and the reference loop's faces."""
    count, m = twin.shape
    union = SimpleNamespace(twin=_union(twin, m), nxt=_union(nxt, m))
    f = union.nxt[union.twin]
    faces = _quad_faces(f)
    assert faces.tobytes() == _orbit_arrays(f)[0].reshape(-1, 4).tobytes()
    assert faces.tolist() == [list(face) for face in reference.faces(union)]
    assert stack_faces(twin, nxt).shape == (count, m // 4, 4)


@pytest.mark.parametrize("n", range(1, 6))
def test_face_array_lists_the_face_orbits_of_all_small_quads(n):
    labels, walks, shape = _well_labeled_arrays(n)
    twin, nxt, _ = _chord_arrays(labels[:, :-1], walks[shape])
    check_quad_faces(twin, nxt)


def test_face_array_lists_the_face_orbits_of_sampled_maps():
    rng = np.random.default_rng([43, 2**10])
    maps = [harness.sample_rooted_pd(2**10, rng)[1].map for _ in range(3)]
    twin, nxt = np.stack([m.twin for m in maps]), np.stack([m.nxt for m in maps])
    check_quad_faces(twin, nxt)
    faces = stack_faces(twin, nxt)
    for b, m in enumerate(maps):
        assert faces[b].ravel().tobytes() == _orbit_arrays(m.nxt[m.twin])[0].tobytes()
        assert np.array_equal(stack_faces(twin[b : b + 1], nxt[b : b + 1]), faces[b : b + 1])


@pytest.mark.parametrize("n", range(1, 5))
def test_level_rules_match_the_loops_at_every_root_in_one_stack(n):
    # one call roots every map at every dart and one starts from every
    # vertex, so darts and vertices are reached twice in a level, and darts
    # claimed by an earlier level come up again
    maps = [q.map for q in rooted_quads(n)]
    m, v = maps[0].n_darts, maps[0].n_vertices
    twin, nxt, tail = (np.array([getattr(he, f) for he in maps]) for f in ("twin", "nxt", "tail"))
    roots, origins = np.tile(np.arange(m), len(maps)), np.tile(np.arange(v), len(maps))
    codes = _rooted_code_arrays(np.repeat(nxt, m, 0), np.repeat(twin, m, 0), roots)
    dist = _bfs_arrays(np.repeat(twin, v, 0), np.repeat(tail, v, 0), v, origins)
    assert codes == [reference.rooted_code(he, d) for he in maps for d in range(m)]
    assert [tuple(row) for row in dist.tolist()] == [
        reference.bfs_distances(he, w) for he in maps for w in range(v)
    ]


def test_level_rules_match_the_loops_at_benchmark_size():
    _, q = harness.sample_rooted_pd(2**15, np.random.default_rng([41, 2**15]))
    he = q.map
    assert rooted_code(he, q.root) == reference.rooted_code(he, q.root)
    assert tuple(bfs_distances(he, q.origin).tolist()) == reference.bfs_distances(he, q.origin)


def test_text_rows_of_mixed_widths_match_join():
    # a row is written at its widest value's width, in uint32 arithmetic
    # below ten digits, with the leading zeros of each narrower value deleted
    rows = [
        [0, 0, 0, 0, 0, 0],
        [1, 2, 3, 5, 8, 9],
        [9, 10, 99, 100, 999_999, 1_000_000],
        [10**9 - 1, 10**9, 10**10, 2**32, 10**18 - 1, 2**63 - 1],
    ]
    for row in rows:
        assert _ascii_ints(np.array(row)) == ",".join(map(str, row)).encode("ascii")


def _orbit_oracle(n):
    """The per-object rerooting loop that orbit_decomposition replaced."""
    found = {}
    for tree in labeled_trees(n):
        enc = encode(tree)
        images = [reference.reroot(enc, theta) for theta in range(2 * n)]
        keys = [(tuple(e.labels.tolist()), tuple(e.walk.steps.tolist())) for e in images]
        rep_key = min(keys)
        if rep_key in found:
            continue
        size = len(set(keys))
        stab = sum(1 for k in keys if k == keys[0])
        found[rep_key] = Orbit(images[keys.index(rep_key)], size, stab)
    return OrbitDecomposition(n, tuple(found[k] for k in sorted(found)))


@pytest.mark.parametrize("n", range(1, 6))
def test_orbit_decomposition_matches_per_object_loop(n):
    assert orbit_decomposition(n) == _orbit_oracle(n)


@pytest.mark.parametrize("n", range(1, 7))
def test_unrooted_count_matches_per_object_loop(n):
    classes = set()
    for tree in plane_trees(n):
        enc = encode(LabeledTree(tree, (1,) * tree.n_nodes))
        classes.add(
            min(tuple(reference.reroot(enc, theta).walk.steps.tolist()) for theta in range(2 * n))
        )
    assert unrooted_plane_tree_count(n) == len(classes)


def _stabilizer_oracle(tree):
    enc = encode(tree)
    return sum(1 for theta in range(2 * tree.n) if reference.reroot(enc, theta) == enc)


def test_stabilizer_size_matches_per_corner_loop():
    # trees past the listing bounds, with few and with many symmetries
    star = PlaneTree(((tuple(range(1, 13)),) + ((),) * 12))
    symmetric = [LabeledTree(star, (1,) * 13), LabeledTree(star, (1,) + (2, 1, 0) * 4)]
    assert [stabilizer_size(t) for t in symmetric] == [12, 4]
    trees = list(labeled_trees(3)) + symmetric
    rng = np.random.default_rng(41)
    for n in (8, 20, 50):
        labels, walks = uniform_encoding_arrays(n, rng, count=3)
        trees += [decode(Encoding(a, Walk(w))) for a, w in zip(labels, walks)]
    for tree in trees:
        assert stabilizer_size(tree) == _stabilizer_oracle(tree)


@pytest.mark.parametrize("k", [2, 3, 5])
def test_stabilizer_size_of_a_large_symmetric_tree(k):
    # k copies of one seeded branch hung from the root by edges of label
    # increment 0: rerooting at every 2n/k-th corner turns the root by one
    # branch and fixes the tree; every other symmetry commutes with that
    # turn, so it fixes the root too and is one of these k
    branch = 2000 // k - 1
    labels, walks = uniform_encoding_arrays(branch, np.random.default_rng([59, k]))
    labels = np.concatenate([[1]] + [np.append(labels[0], 1)] * k)
    walk = np.concatenate([[0]] + [np.append(walks[0] + 1, 0)] * k)
    tree = decode(Encoding(labels, Walk(walk)))
    assert tree.n == k * (branch + 1)
    assert stabilizer_size(tree) == k


def _law_oracle(n):
    """The per-object law tables that law_tables replaced."""
    total = catalan(n) * 3**n
    image_counts, descriptors = {}, {}
    for tree in labeled_trees(n):
        pq = point(quad_of_tree(to_positive(tree)))
        code = pointed_code(pq.map, pq.origin)
        image_counts[code] = image_counts.get(code, 0) + 1
        descriptors.setdefault(code, (pq.map.degree(pq.origin), radius(pq)))
    n_pointed = len(image_counts)
    pointed = tuple(
        PointedLaw(c, *descriptors[c], Fraction(1, n_pointed), Fraction(image_counts[c], total))
        for c in sorted(image_counts)
    )
    rooted = {}
    for tree in well_labeled_trees(n):
        q = quad_of_tree(tree)
        code = rooted_code(q.map, q.root)
        deg = q.map.degree(q.origin)
        rooted.setdefault(code, RootedLaw(code, deg, Fraction(2 * n, total * deg)))
    return LawTables(n, pointed, tuple(rooted[c] for c in sorted(rooted)))


@pytest.mark.parametrize("n", range(1, 5))
def test_law_tables_match_per_object_reference(n):
    assert law_tables(n) == _law_oracle(n)
