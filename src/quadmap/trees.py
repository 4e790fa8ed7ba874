"""Rooted plane trees and their depth-first encodings.

Node ids are first-visit ranks of the clockwise depth-first traversal
(root = 0), so a tree is fully described by its clockwise contour walk, a
read-only int64 array; the children lists, parents, height process and
corner bookkeeping all derive from it.  Everything here is immutable after
construction, compares and hashes by its arrays, and is safe to share
between concurrent tasks.

The "reverse" direction means the traversal that enumerates every child
list in reversed order; its walk is the clockwise walk read backwards.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass, fields
from functools import cached_property

import numpy as np

from .paths import _contour_node_array, _doddering_rdfw, _int_line, _integer
from .paths import _stable_order, _steps_to_end

__all__ = [
    "PlaneTree",
    "Walk",
    "dfw",
    "walk_to_tree",
    "height_process",
    "visit_order",
    "first_visit_times",
    "same_node",
    "contour_nodes",
    "mirror",
]

_DIRECTIONS = ("clockwise", "reverse")


def _read_only(array: np.ndarray) -> np.ndarray:
    array.flags.writeable = False
    return array


def _trusted(cls, **values):
    """Instance of the frozen dataclass ``cls`` with the fields ``values``,
    for values derived from valid values: skips ``__post_init__``.  Callers
    pass every field in its stored form; an array field is a new int64
    array that no one else writes, and it becomes read-only here."""
    obj = object.__new__(cls)
    for value in values.values():
        if isinstance(value, np.ndarray):
            value.flags.writeable = False
    obj.__dict__.update(values)
    return obj


def _index(value, name: str, size: int) -> int:
    """``value`` as an int in [0, size), else a ``ValueError`` naming ``name``."""
    value = _integer(value, name)
    if not 0 <= value < size:
        raise ValueError(f"{name} {value} out of range 0..{size - 1}")
    return value


_BOOLS = {bool, np.bool_}


def _int64(values, name: str) -> np.ndarray:
    """A read-only one-dimensional int64 copy of ``values``.  As for
    :func:`_integer`, values whose numpy type is not a non-bool integer
    (floats, bools, strings) are a ``ValueError`` naming ``name``, and so
    is an entry that int64 cannot hold.  Numpy reads a sequence mixing
    bools with integers as integers, so such a sequence's entries are
    checked one by one."""
    array = np.asarray(values)
    if array.size and array.dtype.kind not in "iu":
        try:
            np.array(values, dtype=np.int64)
        except OverflowError:  # integers past int64 read as floats or objects
            raise ValueError(f"{name} has an entry outside the int64 range") from None
        except (TypeError, ValueError):
            pass
        raise ValueError(f"{name}: expected an integer array, got {array.dtype} entries")
    if array.dtype.kind == "u" and array.size and array.max() > np.iinfo(np.int64).max:
        raise ValueError(f"{name} has an entry outside the int64 range")
    if array.ndim != 1:
        raise ValueError(f"{name} must be one-dimensional")
    if not isinstance(values, np.ndarray) and not _BOOLS.isdisjoint(map(type, values)):
        raise ValueError(f"{name}: expected an integer array, got a bool entry")
    return _read_only(array.astype(np.int64))


def _int64_lists(lists, name: str) -> tuple[np.ndarray, np.ndarray]:
    """Nested integer lists from outside as their entries, list after list,
    read by :func:`_int64`, and the lists' sizes; a ValueError names ``name``."""
    try:
        sizes = np.fromiter(map(len, lists), dtype=np.int64, count=len(lists))
    except TypeError:
        raise ValueError(f"{name} must be a sequence of integer sequences") from None
    return _int64(list(itertools.chain.from_iterable(lists)), name), sizes


class _ArrayValue:
    """Equality and hashing by field values for frozen dataclasses declared
    with ``eq=False``: array fields compare entry by entry and hash by their
    bytes, so ``==`` gives a bool, as it does for tuples."""

    def __eq__(self, other) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        pairs = ((getattr(self, f.name), getattr(other, f.name)) for f in fields(self))
        return all(np.array_equal(a, b) if isinstance(a, np.ndarray) else a == b for a, b in pairs)

    def __hash__(self) -> int:
        values = (getattr(self, f.name) for f in fields(self))
        return hash(tuple(v.tobytes() if isinstance(v, np.ndarray) else v for v in values))


@dataclass(frozen=True, eq=False)
class Walk(_ArrayValue):
    """Contour process of a plane tree with n >= 1 edges.

    ``steps`` holds the 2n+1 successive depths w(0..2n); both endpoints are
    0, every value is nonnegative and consecutive values differ by exactly 1.
    """

    steps: np.ndarray

    def __post_init__(self) -> None:
        w = _int64(self.steps, "steps")
        object.__setattr__(self, "steps", w)
        if w.size < 3 or w.size % 2 == 0:
            raise ValueError("walk must have odd length 2n+1 with n >= 1")
        if w[0] != 0 or w[-1] != 0:
            raise ValueError("walk must start and end at 0")
        if np.any(np.abs(np.diff(w)) != 1):
            raise ValueError("walk increments must be +-1")
        if w.min() < 0:
            raise ValueError("walk must stay nonnegative")

    @property
    def n(self) -> int:
        """Number of tree edges encoded by the walk."""
        return (self.steps.size - 1) // 2

    def __getitem__(self, i):
        return self.steps[i]

    def __len__(self) -> int:
        return self.steps.size

    def to_line(self) -> str:
        return ",".join(map(str, self.steps.tolist()))

    @classmethod
    def from_line(cls, line: str) -> "Walk":
        return cls(_int_line(line.strip(), "walk line"))


@dataclass(frozen=True, eq=False, init=False)
class PlaneTree(_ArrayValue):
    """Rooted plane tree, stored as its clockwise contour ``walk``.

    Node ids are clockwise first-visit ranks: the clockwise DFS from node 0
    discovers node k exactly at the k-th first visit, so the walk fixes
    ``children``, ``parent`` and ``depth``, which are derived on demand.
    The public constructor takes the children lists, ``children[u]`` naming
    u's children clockwise, and checks that they follow this numbering.
    """

    walk: Walk

    def __init__(self, children) -> None:
        self.__post_init__(children)

    def __post_init__(self, children) -> None:
        # __init__ hands the children over as a dataclass InitVar would, so
        # that this check is timed and counted with the other constructors'
        kids, sizes = _int64_lists(children, "children")
        if sizes.size < 2:
            raise ValueError("a plane tree needs at least one edge")
        ids = np.arange(sizes.size)
        if not np.array_equal(np.sort(kids), ids[1:]):
            raise ValueError("children lists must name every non-root node exactly once")
        parent = np.empty_like(ids)
        parent[kids] = np.repeat(ids, sizes)
        parent[0] = -1
        # with ids in first-visit order the depths in id order are the height
        # process, whose walk _doddering_rdfw builds (up-steps at the first
        # visits 2v - depth(v)); that walk must give the same children back
        valid = np.all(parent < ids)
        if valid:
            depths = _steps_to_end(np.maximum(parent, 0), ids == 0)[1:]
            walk = _doddering_rdfw(depths, np.empty(2 * depths.size + 1, dtype=np.int64))
            valid = walk[-1] == 0 and walk.min() >= 0
        if not (
            valid
            and np.array_equal(_parent_array(walk), parent)
            and np.array_equal(kids, _stable_order(parent[1:]) + 1)
        ):
            raise ValueError("node ids are not clockwise first-visit ranks")
        object.__setattr__(self, "walk", _trusted(Walk, steps=walk))

    @property
    def n(self) -> int:
        """Edge count."""
        return self.walk.n

    @property
    def n_nodes(self) -> int:
        return self.walk.n + 1

    @cached_property
    def parent(self) -> np.ndarray:
        """Parent id per node; the root has parent -1."""
        return _read_only(_parent_array(self.walk.steps))

    @cached_property
    def depth(self) -> np.ndarray:
        """Distance to the root per node."""
        return _read_only(height_process(self))

    @cached_property
    def children(self) -> tuple[tuple[int, ...], ...]:
        """Children ids per node, clockwise."""
        kids = (_stable_order(self.parent[1:]) + 1).tolist()
        ends = np.cumsum(np.bincount(self.parent[1:], minlength=self.n_nodes)).tolist()
        return tuple(tuple(kids[a:b]) for a, b in zip([0] + ends[:-1], ends))

    def to_line(self) -> str:
        return self.walk.to_line()

    @classmethod
    def from_line(cls, line: str) -> "PlaneTree":
        return walk_to_tree(Walk.from_line(line))


def _parent_array(steps: np.ndarray) -> np.ndarray:
    """Parent id per node of the tree with contour ``steps``, -1 for the
    root: the node under the walker just before the node's first visit."""
    up = steps[1:] > steps[:-1]
    return np.concatenate(([-1], _contour_node_array(steps[None])[0, :-1][up]))


def dfw(tree: PlaneTree, direction: str = "clockwise") -> Walk:
    """Depth-first walk (contour process) of the tree, length 2n+1."""
    if direction not in _DIRECTIONS:
        raise ValueError(f"direction must be one of {_DIRECTIONS}, got {direction!r}")
    if direction == "clockwise":
        return tree.walk
    return _trusted(Walk, steps=tree.walk.steps[::-1])


def walk_to_tree(walk: Walk) -> PlaneTree:
    """The plane tree whose clockwise walk is ``walk``."""
    if not isinstance(walk, Walk):
        walk = Walk(walk)
    return _trusted(PlaneTree, walk=walk)


def visit_order(tree: PlaneTree, direction: str = "clockwise") -> np.ndarray:
    """Node ids in first-visit order of the chosen traversal.

    For the clockwise direction this is (0, 1, ..., n) by the id convention;
    the reverse traversal reads the clockwise contour backwards.
    """
    walk = dfw(tree, direction)
    step = 1 if direction == "clockwise" else -1
    return contour_nodes(tree.walk)[::step][first_visit_times(walk)]


def height_process(tree: PlaneTree, direction: str = "clockwise") -> np.ndarray:
    """Depths of the n+1 nodes in first-visit order (length n+1)."""
    walk = dfw(tree, direction)
    return walk.steps[first_visit_times(walk)]


def first_visit_times(walk: Walk) -> np.ndarray:
    """Time of the first visit of the k-th node along the walk.

    ``m(k) + h(k) = 2k`` ties these times to the height process of the same
    traversal, for every tree.
    """
    w = walk.steps
    return np.concatenate(([0], np.flatnonzero(w[1:] > w[:-1]) + 1))


def contour_nodes(walk: Walk) -> np.ndarray:
    """Node id under the walker at each time 0..2n (first-visit ranks)."""
    return _contour_node_array(walk.steps[None])[0]


def same_node(walk: Walk, i: int, j: int) -> bool:
    """True iff times i and j are corners of the same node.

    Characterisation on the contour: the walk's minimum on [i, j] equals
    both endpoint values.
    """
    w = walk.steps
    i, j = _index(i, "corner", w.size), _index(j, "corner", w.size)
    lo, hi = min(i, j), max(i, j)
    return bool(w[lo : hi + 1].min() == w[i] == w[j])


def mirror(tree: PlaneTree) -> PlaneTree:
    """The tree with every child list reversed, ids renumbered canonically."""
    return walk_to_tree(dfw(tree, "reverse"))
