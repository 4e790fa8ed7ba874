import itertools

import pytest

from conftest import structural_reroot
from quadmap.enumeration import labeled_trees, well_labeled_trees
from quadmap.labeled import (
    Encoding,
    LabeledTree,
    decode,
    encode,
    from_marked,
    is_well_labeled,
    minima_set,
    reroot,
    stabilizer_size,
    to_marked,
    to_positive,
)
from quadmap.trees import Walk, walk_to_tree


EDGE = walk_to_tree(Walk((0, 1, 0)))
CHERRY = walk_to_tree(Walk((0, 1, 0, 1, 0)))


@pytest.mark.parametrize("text", ["1,1,1", "1,1,1\n0,1,0\n0,1,0"])
def test_encoding_from_lines_needs_two_lines(text):
    with pytest.raises(ValueError, match=r"two lines \(labels, walk\)"):
        Encoding.from_lines(text)


def test_encode_hand_cases():
    assert encode(LabeledTree(EDGE, (1, 2))).labels.tolist() == [1, 2, 1]
    assert encode(LabeledTree(EDGE, (1, 1))).labels.tolist() == [1, 1, 1]
    assert encode(LabeledTree(EDGE, (1, 2))).walk.steps.tolist() == [0, 1, 0]


def test_labeled_tree_validation():
    with pytest.raises(ValueError):
        LabeledTree(EDGE, (2, 2))  # root label not 1
    with pytest.raises(ValueError):
        LabeledTree(EDGE, (1, 3))  # adjacent jump of 2


def test_encoding_validation():
    with pytest.raises(ValueError):
        Encoding((1, 2, 2), Walk((0, 1, 0)))  # endpoint not 1
    with pytest.raises(ValueError):
        Encoding((1, 0, 1, 2, 1), Walk((0, 1, 2, 1, 0)))  # jump of 2
    with pytest.raises(ValueError):
        # corners of the root disagree: (0,1,0,1,0) times 0,2 both root
        Encoding((1, 2, 2, 2, 1), Walk((0, 1, 0, 1, 0)))


def test_round_trip_all_of_size_two():
    trees = labeled_trees(2)
    assert len(trees) == 18
    for t in trees:
        assert decode(encode(t)) == t


def test_is_well_labeled():
    assert is_well_labeled(LabeledTree(EDGE, (1, 2)))
    assert not is_well_labeled(LabeledTree(EDGE, (1, 0)))
    assert len(well_labeled_trees(2)) == 9


def test_reroot_identity_and_closure():
    e = encode(LabeledTree(CHERRY, (1, 0, 2)))
    assert reroot(e, 0) == e
    assert reroot(e, 4) == e  # 2n acts as the identity
    with pytest.raises(ValueError):
        reroot(e, 5)
    for theta in (1.0, True, "1"):
        with pytest.raises(ValueError, match="theta: expected an integer"):
            reroot(e, theta)


def test_reroot_hand_cases():
    # cherry with labels (1, 0, 2): walk (0,1,0,1,0), labels (1,0,1,2,1)
    e = Encoding((1, 0, 1, 2, 1), Walk((0, 1, 0, 1, 0)))
    assert reroot(e, 2).walk.steps.tolist() == [0, 1, 0, 1, 0]
    r1 = reroot(e, 1)
    assert r1.walk.steps.tolist() == [0, 1, 2, 1, 0]
    assert r1.labels.tolist() == [1, 2, 3, 2, 1]


@pytest.mark.parametrize("n", [1, 2, 3])
def test_reroot_matches_structural_oracle(n):
    for t in labeled_trees(n):
        e = encode(t)
        for theta in range(2 * n):
            assert decode(reroot(e, theta)) == structural_reroot(t, theta)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_reroot_group_action(n):
    for t in labeled_trees(n):
        e = encode(t)
        for a, b in itertools.product(range(2 * n), repeat=2):
            assert reroot(reroot(e, a), b) == reroot(e, (a + b) % (2 * n))


def test_to_positive():
    assert to_positive(LabeledTree(EDGE, (1, 0))).labels.tolist() == [1, 2]
    for t in well_labeled_trees(2):
        assert to_positive(t) == t  # idempotent on well-labeled trees
    t = decode(Encoding((1, 0, 1, 2, 1), Walk((0, 1, 0, 1, 0))))
    assert encode(to_positive(t)).labels.tolist() == [1, 2, 3, 2, 1]


@pytest.mark.parametrize("n", [2, 3])
def test_to_positive_lands_on_next_minimum(n):
    # positivizing a rerooted tree picks the cyclically next label minimum
    # (fixing the root when it already sits on one)
    for t in labeled_trees(n):
        e = encode(t)
        minima = minima_set(e.labels)
        for theta in range(2 * n):
            nxt = min((m for m in minima if m >= theta), default=minima[0])
            expect = decode(reroot(e, nxt))
            assert to_positive(decode(reroot(e, theta))) == expect


def test_minima_set():
    assert minima_set((1, 1, 1)).tolist() == [0, 1]
    assert minima_set((1, 2, 1)).tolist() == [0]


def test_stabilizer_hand_cases():
    assert stabilizer_size(LabeledTree(EDGE, (1, 1))) == 2
    assert stabilizer_size(LabeledTree(EDGE, (1, 2))) == 1


@pytest.mark.parametrize("n", [1, 2, 3])
def test_fixed_reroot_permutes_all_labeled_trees(n):
    # rerooting at a fixed corner is a bijection of the labeled trees, so
    # the uniform law is invariant under it
    encodings = {encode(t) for t in labeled_trees(n)}
    for theta in range(2 * n):
        image = {reroot(encode(t), theta) for t in labeled_trees(n)}
        assert image == encodings


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_orbit_stabilizer(n):
    for t in labeled_trees(n):
        e = encode(t)
        orbit = {reroot(e, th) for th in range(2 * n)}
        assert len(orbit) * stabilizer_size(t) == 2 * n


def test_marked_hand_cases():
    assert to_marked(LabeledTree(EDGE, (1, 2))).marks.tolist() == [1]
    assert to_marked(LabeledTree(EDGE, (1, 1))).marks.tolist() == [0]


def test_marked_bijection_over_size_two():
    trees = labeled_trees(2)
    marked = {(m.tree.children, m.marks.tobytes()) for m in map(to_marked, trees)}
    assert len(marked) == 18  # 3^n markings per underlying shape
    for t in trees:
        assert from_marked(to_marked(t)) == t


def test_from_marked_rejects_bad_marks():
    from quadmap.labeled import MarkedTree

    with pytest.raises(ValueError):
        MarkedTree(EDGE, (2,))


def test_encoding_serialization():
    e = Encoding((1, 0, 1, 2, 1), Walk((0, 1, 0, 1, 0)))
    assert Encoding.from_lines(e.to_lines()) == e
    assert e.to_lines().splitlines()[0] == "1,0,1,2,1"
