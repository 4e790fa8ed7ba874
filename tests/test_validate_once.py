"""Values the library builds from valid values skip re-validation; these
tests keep the dropped runtime checks as test-time checks.

Every library-built value is rebuilt field by field through its public
validating constructor (a plane tree from its children lists) and must
come back equal and hold only read-only one-dimensional int64 arrays, or
tuples of Python ints.  A counting test pins where validation still runs.
"""
from collections import Counter
from dataclasses import fields, is_dataclass

import numpy as np
import pytest

from quadmap.enumeration import labeled_trees, plane_trees, well_labeled_trees
from quadmap.harness import sample_labeled_uniform, sample_pointed_ps, sample_rooted_pd
from quadmap.labeled import (
    Encoding,
    LabeledTree,
    MarkedTree,
    decode,
    encode,
    from_marked,
    reroot,
    to_marked,
    to_positive,
)
from quadmap import planar_map
from quadmap.planar_map import (
    HalfEdgeMap,
    PointedMap,
    PointedQuadrangulation,
    RootedMap,
    RootedQuadrangulation,
    load_map,
    map_of_quad,
    quad_of_map,
    save_map,
)
from quadmap.schaeffer import (
    DodderingTree,
    doddering,
    fiber,
    point,
    quad_of_tree,
    tree_of_quad,
)
from quadmap.snake import SnakePath, normalize_encoding, reroot_path
from quadmap.trees import PlaneTree, Walk, dfw, mirror, walk_to_tree


def rebuilt(value):
    """``value`` rebuilt through the public constructors of it and its parts."""
    if isinstance(value, PlaneTree):
        return PlaneTree(value.children)
    if is_dataclass(value):
        return type(value)(**{f.name: rebuilt(getattr(value, f.name)) for f in fields(value)})
    return value


def holds_python_ints(value) -> bool:
    if type(value) is np.ndarray:
        return value.dtype == np.int64 and value.ndim == 1 and not value.flags.writeable
    if is_dataclass(value):
        return all(holds_python_ints(getattr(value, f.name)) for f in fields(value))
    if isinstance(value, tuple):
        return all(type(x) is int or holds_python_ints(x) for x in value)
    return type(value) is int


def check(value):
    assert rebuilt(value) == value
    assert holds_python_ints(value)
    return value


def check_all(values):
    # equal values pass or fail together, so each distinct one is checked once
    for value in set(values):
        check(value)


@pytest.mark.parametrize("n", range(1, 6))
def test_tree_values_pass_public_validation(n):
    for tree in plane_trees(n):
        check(tree)
        check(walk_to_tree(check(dfw(tree))))
        check(dfw(tree, "reverse"))
        check(mirror(tree))


@pytest.mark.parametrize("n", range(1, 6))
def test_labeled_values_pass_public_validation(n):
    built = []
    for tree in labeled_trees(n):
        enc = encode(tree)
        marked = to_marked(tree)
        assert decode(enc) == tree and from_marked(marked) == tree
        built += [tree, enc, decode(enc), to_positive(tree), marked, from_marked(marked)]
        built += [reroot(enc, theta) for theta in range(2 * n + 1)]
    check_all(built)


@pytest.mark.parametrize("n", range(1, 6))
def test_bijection_values_pass_public_validation(n):
    built = []
    for tree in well_labeled_trees(n):
        q = quad_of_tree(tree)
        assert tree_of_quad(q) == tree
        pq = point(q)
        built += [q, tree_of_quad(q), doddering(encode(tree).labels[:-1]), pq]
        built += fiber(pq) + [map_of_quad(q), map_of_quad(pq)]
    check_all(built)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_map_quad_values_pass_public_validation(n, rooted_maps_by_size):
    for rm in rooted_maps_by_size[n].values():
        for m in (rm, PointedMap(rm.map, rm.origin)):
            q = check(quad_of_map(m))
            check(map_of_quad(q))


@pytest.mark.parametrize("n", [10**3, 10**4])
def test_sampled_values_pass_public_validation(n):
    rng = np.random.default_rng([41, n])
    tree, q = sample_rooted_pd(n, rng)
    check(tree)
    check(q)
    check(sample_pointed_ps(n, rng))
    check(sample_labeled_uniform(n, rng))


@pytest.mark.parametrize("n", [3, 2**10])  # 12 and 4096 darts: both sides of the size constant
def test_map_fields_are_private_read_only_arrays(n):
    _, q = sample_rooted_pd(n, np.random.default_rng([43, n]))
    he = q.map
    for field in (he.twin, he.nxt, he.tail):
        with pytest.raises(ValueError, match="read-only"):
            field[0] = 0
    twin = he.twin.copy()
    built = HalfEdgeMap(twin, he.nxt, he.tail)
    twin[[0, 1]] = twin[[1, 0]]  # the caller's array, not the map's
    assert built == he
    from_lists = HalfEdgeMap(he.twin.tolist(), he.nxt.tolist(), he.tail.tolist())
    assert from_lists == built and hash(from_lists) == hash(built)
    # map text numbers the vertices by smallest dart, so a loaded map round-trips
    loaded = load_map(save_map(q))
    again = load_map(save_map(loaded))
    assert again == loaded and hash(again) == hash(loaded)
    assert len({loaded, again}) == 1 and loaded.map != q.map


@pytest.mark.parametrize("n", range(1, 4))
def test_snake_paths_pass_public_validation(n):
    for tree in labeled_trees(n):
        path = normalize_encoding(encode(tree))
        for k in range(2 * n + 1):
            image = reroot_path(path, k / (2 * n))
            for p in (path, image):
                assert not p.head.flags.writeable and not p.contour.flags.writeable
                again = SnakePath(p.head, p.contour, snake_tol=p.snake_tol)
                assert np.array_equal(again.head, p.head)
                assert np.array_equal(again.contour, p.contour)


VALUE_CLASSES = (
    Walk,
    PlaneTree,
    LabeledTree,
    Encoding,
    MarkedTree,
    HalfEdgeMap,
    RootedMap,
    PointedMap,
    RootedQuadrangulation,
    PointedQuadrangulation,
    DodderingTree,
    SnakePath,
)


@pytest.fixture
def validations(monkeypatch):
    """Counter of ``__post_init__`` calls by class name."""
    counts = Counter()
    for cls in VALUE_CLASSES:
        original = vars(cls)["__post_init__"]

        def counting(self, _original=original, _name=cls.__name__):
            counts[_name] += 1
            _original(self)

        monkeypatch.setattr(cls, "__post_init__", counting)
    return counts


def test_sampling_and_inverse_validate_nothing(validations):
    tree, q = sample_rooted_pd(64, np.random.default_rng(5))
    assert tree_of_quad(q) == tree
    assert validations == Counter()


def test_doddering_validates_nothing(validations):
    d = doddering((1, 2, 3, 2, 1, 2))
    assert validations == Counter()
    assert DodderingTree(d.tree, d.tags) == d
    assert validations == Counter(DodderingTree=1)


def test_load_map_validates_once(validations, monkeypatch):
    quad_checks = []

    def counting_check(m, _original=planar_map.validate_quadrangulation):
        quad_checks.append(m)
        return _original(m)

    monkeypatch.setattr(planar_map, "validate_quadrangulation", counting_check)
    _, q = sample_rooted_pd(64, np.random.default_rng(6))
    text = save_map(q)
    assert validations == Counter() and quad_checks == []
    loaded = load_map(text)
    assert type(loaded) is RootedQuadrangulation and save_map(loaded) == text
    assert validations == Counter(HalfEdgeMap=1, RootedMap=1)
    assert quad_checks == [loaded.map]
