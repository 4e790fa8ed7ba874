import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from quadmap.enumeration import rooted_quads, well_labeled_trees
from quadmap.labeled import LabeledTree
from quadmap.planar_map import (
    HalfEdgeMap,
    PointedMap,
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
from quadmap.schaeffer import point, quad_of_tree
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


def test_validate_quadrangulation():
    assert validate_quadrangulation(path_quad((1, 1)).map)
    assert not validate_quadrangulation(triangle_map())
    assert not validate_quadrangulation(loop_map().map)
    for n in range(1, 6):
        for t in well_labeled_trees(n):
            assert validate_quadrangulation(quad_of_tree(t).map)


def test_quadrangulation_counts_enforced():
    # a valid map that is not a quadrangulation must be rejected
    with pytest.raises(ValueError):
        RootedQuadrangulation(triangle_map(), 0)


def test_bfs_radius_profile_hand_cases():
    q_end = path_quad((1, 2))
    q_center = path_quad((1, 1))
    assert bfs_distances(q_end.map, 0) == (0, 1, 2)
    assert radius(q_end) == 2
    assert radius(q_center) == 1
    assert profile(q_end) == [0.5, 1.0]
    assert profile(q_center) == [1.0]


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
