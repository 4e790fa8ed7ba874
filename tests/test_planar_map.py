import numpy as np
import pytest
import reference_loops as reference
from hypothesis import example, given, settings
from hypothesis import strategies as st

from quadmap.enumeration import plane_trees, rooted_quads, well_labeled_trees
from quadmap import planar_map
from quadmap.harness import sample_pointed_ps, sample_rooted_pd
from quadmap.labeled import LabeledTree
from quadmap.planar_map import (
    HalfEdgeMap,
    PointedMap,
    PointedQuadrangulation,
    RootedMap,
    RootedQuadrangulation,
    bfs_distances,
    canonical_code,
    load_map,
    map_of_quad,
    pointed_code,
    profile,
    quad_of_map,
    radius,
    rooted_code,
    save_map,
    validate_quadrangulation,
)
from quadmap.schaeffer import fiber, point, quad_of_tree, tree_of_quad
from quadmap.trees import Walk, walk_to_tree


EDGE = walk_to_tree(Walk((0, 1, 0)))


def path_quad(labels):
    return quad_of_tree(LabeledTree(EDGE, labels))


def loop_map():
    return RootedMap(HalfEdgeMap.from_rotations([[0, 1]]), 0)


def link_map():
    return RootedMap(HalfEdgeMap.from_rotations([[0], [1]]), 0)


def triangle_map():
    rot = [[0, 5], [2, 1], [4, 3]]
    return HalfEdgeMap.from_rotations(rot)


def test_half_edge_validation():
    with pytest.raises(ValueError):  # twin with a fixed point
        HalfEdgeMap((0, 1), (1, 0), (0, 0))
    with pytest.raises(ValueError):  # nxt not a permutation
        HalfEdgeMap((1, 0), (0, 0), (0, 0))
    with pytest.raises(ValueError):  # disconnected
        HalfEdgeMap.from_rotations([[0], [1], [2], [3]], twin=(1, 0, 3, 2))
    with pytest.raises(ValueError, match="every dart"):  # dart 5 of 2
        HalfEdgeMap.from_rotations([[0, 5]])


def test_validate_quadrangulation():
    assert validate_quadrangulation(path_quad((1, 1)).map)
    assert not validate_quadrangulation(triangle_map())
    assert not validate_quadrangulation(loop_map().map)
    for n in range(1, 6):
        for t in well_labeled_trees(n):
            assert validate_quadrangulation(quad_of_tree(t).map)


def test_validate_quadrangulation_rejects_loop_of_odd_darts():
    # darts 1 and 3 form a loop at vertex 0; the faces have degrees 3 and 1
    m = HalfEdgeMap.from_rotations([[0, 1, 3], [2]], twin=(2, 3, 0, 1))
    assert m.head(1) == m.tail[1] == m.head(3) == m.tail[3] == 0
    assert not validate_quadrangulation(m)


def test_quadrangulation_counts_enforced():
    # a valid map that is not a quadrangulation must be rejected
    with pytest.raises(ValueError):
        RootedQuadrangulation(triangle_map(), 0)


def test_bfs_radius_profile_hand_cases():
    q_end = path_quad((1, 2))
    q_center = path_quad((1, 1))
    assert bfs_distances(q_end.map, 0).tolist() == [0, 1, 2]
    assert radius(q_end) == 2
    assert radius(q_center) == 1
    assert profile(q_end) == [0.5, 1.0]
    assert profile(q_center) == [1.0]


def test_bfs_distances_keep_the_last_origin_on_the_map(monkeypatch):
    tree, q = sample_rooted_pd(64, np.random.default_rng(17))
    he = q.map
    fresh = HalfEdgeMap(he.twin, he.nxt, he.tail)  # validated: its checks run no BFS
    origins = []

    def counted(twin, tail, n_vertices, origin):
        origins.append(list(origin))
        return real(twin, tail, n_vertices, origin)

    real = planar_map._bfs_arrays
    monkeypatch.setattr(planar_map, "_bfs_arrays", counted)
    assert tree_of_quad(q) == tree
    dist = bfs_distances(he, q.origin)
    assert origins == [[q.origin]]  # the second ask reads tree_of_quad's BFS
    assert dist is bfs_distances(he, q.origin) and not dist.flags.writeable
    assert dist.tolist() == [0, *tree.labels.tolist()]
    other = bfs_distances(he, 5)
    assert bfs_distances(he, q.origin).tolist() == dist.tolist()
    assert origins == [[q.origin], [5], [q.origin]]  # one entry: the last origin only
    assert other[q.origin] == dist[5]
    # the cache is no field: equality and hashing ignore it
    assert he == fresh and hash(he) == hash(fresh)


def test_map_checks_run_no_bfs(monkeypatch):
    # connectivity by hooking stars, faces counted by the f^4 check: neither
    # the constructor nor load_map walks the map level by level, which takes
    # n + 1 levels on the quadrangulation of the path labeled (1, ..., n + 1)
    n = 2**12
    steps = np.concatenate((np.arange(n + 1), np.arange(n - 1, -1, -1)))
    path = LabeledTree(walk_to_tree(Walk(steps)), np.arange(1, n + 2))
    quads = [sample_rooted_pd(2**10, np.random.default_rng(3))[1], quad_of_tree(path)]
    texts = [save_map(q) for q in quads]

    def no_bfs(*args):
        raise AssertionError("a map check ran a BFS")

    monkeypatch.setattr(planar_map, "_bfs_arrays", no_bfs)
    for q, text in zip(quads, texts):
        he = q.map
        assert HalfEdgeMap(he.twin, he.nxt, he.tail) == he
        loaded = load_map(text)
        assert type(loaded) is RootedQuadrangulation and loaded.root == q.root
        assert np.array_equal(loaded.map.twin, he.twin) and np.array_equal(loaded.map.nxt, he.nxt)
        assert save_map(loaded) == text


def test_profile_of_maps_that_are_not_bipartite():
    # edge {1, 2} of the triangle and the loop join vertices at the radius
    assert profile(RootedMap(triangle_map(), 0)) == [2 / 3, 1.0]
    assert profile(loop_map()) == [1.0]


@pytest.mark.parametrize("n", range(1, 5))
def test_profile_shape(n):
    for t in well_labeled_trees(n):
        q = quad_of_tree(t)
        prof = profile(q)
        assert len(prof) == radius(q)
        assert all(b >= a for a, b in zip(prof, prof[1:]))
        assert prof[-1] == 1.0


def test_quad_of_map_single_edge_maps():
    # the loop gives the center-pointed path, the link the endpoint one
    q_loop = quad_of_map(loop_map())
    q_link = quad_of_map(link_map())
    assert q_loop.map.n_faces == 1 and q_link.map.n_faces == 1
    codes = {rooted_code(q.map, q.root) for q in (q_loop, q_link)}
    assert len(codes) == 2
    for m in (loop_map(), link_map()):
        back = map_of_quad(quad_of_map(m))
        assert rooted_code(back.map, back.root) == rooted_code(m.map, m.root)
        with pytest.raises(TypeError):  # a general map is not a quadrangulation
            map_of_quad(m)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_map_quad_round_trip_rooted(n, rooted_maps_by_size):
    maps = rooted_maps_by_size[n]
    quads = rooted_quads(n)
    assert len(maps) == len(quads)  # bijection consequence
    for rm in maps.values():
        q = quad_of_map(rm)
        assert q.map.n_faces == n
        back = map_of_quad(q)
        assert rooted_code(back.map, back.root) == rooted_code(rm.map, rm.root)
    for q in quads:
        back = map_of_quad(q)
        q2 = quad_of_map(back)
        assert rooted_code(q2.map, q2.root) == rooted_code(q.map, q.root)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_map_quad_round_trip_pointed(n):
    seen = set()
    for t in well_labeled_trees(n):
        pq = point(quad_of_tree(t))
        code = pointed_code(pq.map, pq.origin)
        if code in seen:
            continue
        seen.add(code)
        back = map_of_quad(pq)
        assert isinstance(back, PointedMap)
        pq2 = quad_of_map(back)
        assert pointed_code(pq2.map, pq2.origin) == code


@pytest.mark.parametrize(
    "fn, value, name",
    [
        (rooted_code, -1, "root"),
        (bfs_distances, -1, "origin"),
        (bfs_distances, 99, "origin"),
        (bfs_distances, 1.0, "origin"),
        (rooted_code, 2.5, "root"),
        (pointed_code, 99, "origin"),
    ],
)
def test_map_functions_check_root_and_origin(fn, value, name):
    he = path_quad((1, 2)).map
    with pytest.raises(ValueError, match=f"^{name}"):
        fn(he, value)


@pytest.mark.parametrize("v", [-1, 3, 1.0])
def test_degree_checks_its_vertex(v):
    with pytest.raises(ValueError, match="^vertex"):
        path_quad((1, 2)).map.degree(v)


@pytest.mark.parametrize("d", [-1, 5, 1.0])
def test_head_checks_its_dart(d):
    with pytest.raises(ValueError, match="^dart"):
        HalfEdgeMap.from_rotations([[0], [1]]).head(d)


def test_bipartite_coloring_recovers_map():
    # vertices at even distance from the origin are exactly the old ones
    m = link_map()
    q = quad_of_map(m)
    dist = bfs_distances(q.map, q.map.tail[q.root])
    old = {v for v in range(q.map.n_vertices) if dist[v] % 2 == 0}
    assert len(old) == m.map.n_vertices


def test_canonical_codes():
    # same structure built in different dart orders
    q1 = HalfEdgeMap.from_rotations([[0], [1, 2], [3]])
    q2 = HalfEdgeMap.from_rotations([[2], [3, 0], [1]])
    assert rooted_code(q1, 0) == rooted_code(q2, 2)
    # the center-pointed path is symmetric around its origin
    qc = path_quad((1, 1))
    darts = qc.map.vertex_cycles[0]
    assert len({rooted_code(qc.map, d) for d in darts}) == 1
    # all nine rooted quadrangulations of size two have distinct codes
    codes = {rooted_code(q.map, q.root) for q in rooted_quads(2)}
    assert len(codes) == 9
    assert canonical_code(path_quad((1, 2))) == rooted_code(
        path_quad((1, 2)).map, 1
    )


def renamed(he: HalfEdgeMap, new: np.ndarray) -> HalfEdgeMap:
    """``he`` with each dart d renamed ``new[d]``; vertex ids stay."""
    twin, nxt, tail = (np.empty_like(he.tail) for _ in range(3))
    twin[new], nxt[new], tail[new] = new[he.twin], new[he.nxt], he.tail
    return HalfEdgeMap(twin, nxt, tail)


@pytest.mark.parametrize("n", [64, 512, 4096])
def test_codes_are_invariant_under_dart_renaming(n):
    rng = np.random.default_rng([53, n])
    pq = sample_pointed_ps(n, rng)
    he = pq.map
    new = rng.permutation(he.n_darts)
    other = renamed(he, new)
    assert not np.array_equal(other.nxt, he.nxt)
    for root in rng.integers(he.n_darts, size=4).tolist():
        code = rooted_code(he, root)
        assert len(code) == 4 * 2 * he.n_darts  # two uint32 labels per dart
        assert rooted_code(other, int(new[root])) == code
    assert pointed_code(other, pq.origin) == pointed_code(he, pq.origin)


def tree_map(walk) -> HalfEdgeMap:
    """The one-face map of the plane tree with clockwise walk ``walk``: the
    edge to node u >= 1 has dart 2u - 2 at u and dart 2u - 1 at its parent."""
    rotations = [[2 * c - 1 for c in kids] for kids in walk_to_tree(Walk(walk)).children]
    for u in range(1, len(rotations)):
        rotations[u].insert(0, 2 * u - 2)
    return HalfEdgeMap.from_rotations(rotations)


def test_code_bytes_order_as_label_sequences():
    # trees sharing a path of 120-135 edges from the root first differ at
    # labels near 256, where a byte order other than big-endian would
    # disagree with the order of the label sequences
    codes = []
    for depth in range(120, 136):
        for end in plane_trees(3):
            steps = end.walk.steps.tolist()
            walk = [*range(depth + 1), *(depth + s for s in steps[1:]), *range(depth - 1, -1, -1)]
            codes.append(rooted_code(tree_map(walk), 1))
    assert len(set(codes)) == len(codes)
    labels = lambda code: np.frombuffer(code, ">u4").tolist()  # noqa: E731
    assert sorted(codes) == sorted(codes, key=labels)


def test_serialization_bit_exact():
    q = path_quad((1, 2))
    text = save_map(q)
    assert text.splitlines()[0] == "n=2"
    again = load_map(text)
    assert isinstance(again, RootedQuadrangulation)
    assert save_map(again) == text
    assert rooted_code(again.map, again.root) == rooted_code(q.map, q.root)

    pq = point(q)
    text = save_map(pq)
    assert "origin=" in text.splitlines()[3]
    back = load_map(text)
    assert save_map(back) == text
    assert pointed_code(back.map, back.origin) == pointed_code(pq.map, pq.origin)

    m = loop_map()
    assert save_map(load_map(save_map(m))) == save_map(m)


@pytest.mark.parametrize(
    "rotations", [[[0, "1"]], [[0, None]], [0, 1], [[0, True]], [[0, 1.0]], [[0], 1]]
)
def test_from_rotations_rejects_rotations_that_are_not_integer_lists(rotations):
    with pytest.raises(ValueError, match="rotations"):
        HalfEdgeMap.from_rotations(rotations)


def reference_orbits(perm):
    """Cycles of perm found by scanning darts in increasing order."""
    seen = [False] * len(perm)
    cycles = []
    for d in range(len(perm)):
        cyc = []
        while not seen[d]:
            seen[d] = True
            cyc.append(d)
            d = perm[d]
        if cyc:
            cycles.append(tuple(cyc))
    return cycles


def test_counted_faces_match_the_face_listing(rooted_maps_by_size):
    # f^4 = id and f^2 fixed-point-free must read "every face has degree 4"
    # on faces of degree 1, 2, 3, 4 and 8 (the one face of a 4-edge tree)
    maps = [loop_map().map, link_map().map, triangle_map(), tree_map((0, 1, 0, 1, 0, 1, 0, 1, 0))]
    for by_code in rooted_maps_by_size.values():
        for rm in by_code.values():
            maps += [rm.map, quad_of_map(rm).map]
    degrees = set()
    for m in maps:
        assert m.n_faces == len(m.faces)
        assert validate_quadrangulation(m) == all(len(face) == 4 for face in m.faces)
        degrees.update(map(len, m.faces))
    assert {1, 2, 3, 4, 8} <= degrees


@pytest.mark.parametrize("n", [1, 2, 3])
def test_orbit_walk_matches_reference_loop(n, rooted_maps_by_size):
    for rm in rooted_maps_by_size[n].values():
        # the quadrangulation's vertex ids follow its rotation lists, not its darts
        for m in (rm.map, quad_of_map(rm).map):
            by_vertex = {m.tail[c[0]]: c for c in reference_orbits(m.nxt)}
            assert m.vertex_cycles == tuple(by_vertex[v] for v in range(m.n_vertices))
            face_perm = [m.nxt[m.twin[d]] for d in range(m.n_darts)]
            assert m.faces == tuple(reference_orbits(face_perm))
        assert load_map(save_map(rm)).map == rm.map  # enumerated tails: smallest-dart order


def test_load_map_rejects_malformed():
    with pytest.raises(ValueError):
        load_map("n=1\n0,1\n1,0\n")
    with pytest.raises(ValueError):
        load_map("n=2\n1,0\n0,1\n0\n")


@given(st.integers(0, 3), st.integers(-8, 8))
@example(0, 5)
@settings(max_examples=100, deadline=None)
def test_load_map_fuzz_rotation_entry(index, value):
    # one of the four rotation entries of a valid map text replaced by any integer
    head, twin, nxt, root = save_map(path_quad((1, 2))).splitlines()
    entries = nxt.split(",")
    entries[index] = str(value)
    text = "\n".join((head, twin, ",".join(entries), root)) + "\n"
    try:
        back = load_map(text)
    except ValueError:
        return
    assert save_map(back) == text


@pytest.mark.parametrize(
    "text, line",
    [
        ("n=0\n\n\n0\n", "twin"),
        ("n=x\n1,0\n0,1\n0\n", "edge count"),
        ("n=1\n1,0\n0,a\n0\n", "rotation"),
        ("n=1\n1,0\n0,1\nz\n", "root"),
        ("n=1\n1,0\n0,1\norigin=q\n", "origin"),
        ("n=1\n1,,0\n0,1\n0\n", "twin"),
        ("n=1\n1,0\n0,1.5\n0\n", "rotation"),
    ],
)
def test_load_map_names_the_bad_line(text, line):
    with pytest.raises(ValueError, match=f"the {line} line"):
        load_map(text)


@pytest.mark.parametrize("value", [2**63, -(2**63) - 1, 10**40])
@pytest.mark.parametrize("field", ["twin", "nxt", "tail"])
def test_half_edge_map_rejects_entries_beyond_int64(field, value):
    fields = {"twin": [1, 0], "nxt": [0, 1], "tail": [0, 1]}
    fields[field][1] = value
    with pytest.raises(ValueError, match=f"{field} has an entry outside the int64 range"):
        HalfEdgeMap(**fields)


def test_half_edge_map_fields_must_be_one_dimensional():
    with pytest.raises(ValueError, match="twin must be one-dimensional"):
        HalfEdgeMap([[1, 0], [3, 2]], [0, 1, 2, 3], [0, 0, 0, 0])


@pytest.mark.parametrize(
    "rotations, twin",
    [([[0], [1]], (1, 2**63)), ([[0], [1]], (-(2**63) - 1, 0)), ([[0], [2**63]], None)],
)
def test_from_rotations_rejects_entries_beyond_int64(rotations, twin):
    with pytest.raises(ValueError, match="int64|every dart"):
        HalfEdgeMap.from_rotations(rotations, twin)


@pytest.mark.parametrize("token", ["9" * 19, "-" + "9" * 19, "9" * 40, "1" + "0" * 18])
@pytest.mark.parametrize("line", ["twin", "rotation"])
def test_load_map_dart_line_beyond_int64(line, token):
    # 10**18 has 19 digits but fits int64: it fails as an out-of-range dart
    head, twin, nxt, root = save_map(path_quad((1, 2))).splitlines()
    darts = {"twin": twin.split(","), "rotation": nxt.split(",")}
    darts[line][0] = token
    text = "\n".join((head, ",".join(darts["twin"]), ",".join(darts["rotation"]), root)) + "\n"
    with pytest.raises(ValueError, match=line):
        load_map(text)


def test_conversions_and_fibers_match_the_loops_on_thin_maps():
    # faces of degree 1, 2, 3 and 8, and the quadrangulation of the path
    # labeled (1, 2, ..., 2) at n = 64, whose root vertex holds 2n darts,
    # with its map: quad_of_map, map_of_quad and fiber compose nxt, twin
    # and the face permutation, which these maps stretch
    n = 64
    steps = np.concatenate((np.arange(n + 1), np.arange(n - 1, -1, -1)))
    path = quad_of_tree(LabeledTree(walk_to_tree(Walk(steps)), (1,) + (2,) * n))
    star = tree_map((0, 1, 0, 1, 0, 1, 0, 1, 0))
    maps = [loop_map().map, link_map().map, triangle_map(), star, path.map, map_of_quad(path).map]
    assert sorted({len(face) for he in maps[:4] for face in he.faces}) == [1, 2, 3, 8]
    assert np.bincount(path.map.tail).max() == 2 * n
    for he in maps:
        marked = [RootedMap(he, root) for root in range(he.n_darts)]
        marked += [PointedMap(he, origin) for origin in range(he.n_vertices)]
        for m in marked:
            q = quad_of_map(m)
            assert q == reference.quad_of_map(m)
            assert map_of_quad(q) == reference.map_of_quad(q)
            if isinstance(q, PointedQuadrangulation):
                assert fiber(q) == reference.fiber(q)
        if validate_quadrangulation(he):
            for origin in range(he.n_vertices):
                pq = PointedQuadrangulation(he, origin)
                assert map_of_quad(pq) == reference.map_of_quad(pq)
                assert fiber(pq) == reference.fiber(pq)
