"""Rooted plane trees and their depth-first encodings.

Node ids are first-visit ranks of the clockwise depth-first traversal
(root = 0), so a tree is fully described by the per-node tuples of child
ids in clockwise order.  The contour walk, the height process and corner
bookkeeping all derive from that structure.  Everything here is immutable
after construction and safe to share between concurrent tasks.

The "reverse" direction means the traversal that enumerates every child
list in reversed order; it coincides with the clockwise traversal of the
mirrored tree.
"""
from __future__ import annotations

import operator
from dataclasses import dataclass
from functools import cached_property

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


def _trusted(cls, **fields):
    """Instance of the frozen dataclass ``cls`` with ``fields`` as given, for
    values derived from valid values: skips ``__post_init__``.  Callers pass
    every field in the stored form: tuples of Python ints, and read-only
    int64 arrays for maps."""
    obj = object.__new__(cls)
    for name, value in fields.items():
        object.__setattr__(obj, name, value)
    return obj


def _integer(value, name: str) -> int:
    """``value`` as an int if it is an integer (numpy integers included),
    else a ``ValueError`` naming ``name``: bools, floats and strings are
    not silently converted."""
    if not isinstance(value, bool):
        try:
            return operator.index(value)
        except TypeError:
            pass
    raise ValueError(f"{name}: expected an integer, got {value!r}")


def _check_direction(direction: str) -> None:
    if direction not in _DIRECTIONS:
        raise ValueError(f"direction must be one of {_DIRECTIONS}, got {direction!r}")


@dataclass(frozen=True)
class Walk:
    """Contour process of a plane tree with n >= 1 edges.

    ``steps`` holds the 2n+1 successive depths w(0..2n); both endpoints are
    0, every value is nonnegative and consecutive values differ by exactly 1.
    """

    steps: tuple[int, ...]

    def __post_init__(self) -> None:
        w = self.steps
        if not isinstance(w, tuple):
            object.__setattr__(self, "steps", tuple(int(x) for x in w))
            w = self.steps
        if len(w) < 3 or len(w) % 2 == 0:
            raise ValueError("walk must have odd length 2n+1 with n >= 1")
        if w[0] != 0 or w[-1] != 0:
            raise ValueError("walk must start and end at 0")
        for a, b in zip(w, w[1:]):
            if abs(b - a) != 1:
                raise ValueError("walk increments must be +-1")
            if b < 0:
                raise ValueError("walk must stay nonnegative")

    @property
    def n(self) -> int:
        """Number of tree edges encoded by the walk."""
        return (len(self.steps) - 1) // 2

    def __getitem__(self, i: int) -> int:
        return self.steps[i]

    def __len__(self) -> int:
        return len(self.steps)

    def to_line(self) -> str:
        return ",".join(str(x) for x in self.steps)

    @classmethod
    def from_line(cls, line: str) -> "Walk":
        return cls(tuple(int(tok) for tok in line.strip().split(",")))


@dataclass(frozen=True)
class PlaneTree:
    """Rooted plane tree; ``children[u]`` lists u's children clockwise.

    Node ids must be clockwise first-visit ranks: the clockwise DFS from
    node 0 discovers node k exactly at the k-th first visit.  This is
    checked at construction.
    """

    children: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        kids = tuple(tuple(int(c) for c in cs) for cs in self.children)
        object.__setattr__(self, "children", kids)
        n_nodes = len(kids)
        if n_nodes < 2:
            raise ValueError("a plane tree needs at least one edge")
        # Clockwise DFS from the root must discover ids in increasing order
        # and visit every node exactly once.
        expected = 1
        stack = [iter(kids[0])]
        while stack:
            child = next(stack[-1], None)
            if child is None:
                stack.pop()
                continue
            if child != expected:
                raise ValueError(
                    f"node ids are not clockwise first-visit ranks "
                    f"(expected {expected}, found {child})"
                )
            expected += 1
            if child >= n_nodes:
                raise ValueError("child id out of range")
            stack.append(iter(kids[child]))
        if expected != n_nodes:
            raise ValueError("children lists do not describe a connected tree")

    @property
    def n(self) -> int:
        """Edge count."""
        return len(self.children) - 1

    @property
    def n_nodes(self) -> int:
        return len(self.children)

    @cached_property
    def parent(self) -> tuple[int, ...]:
        """Parent id per node; the root has parent -1."""
        par = [-1] * self.n_nodes
        for u, kids in enumerate(self.children):
            for c in kids:
                par[c] = u
        return tuple(par)

    @cached_property
    def depth(self) -> tuple[int, ...]:
        """Distance to the root per node."""
        dep = [0] * self.n_nodes
        for u in range(1, self.n_nodes):
            dep[u] = dep[self.parent[u]] + 1
        return tuple(dep)

    def to_line(self) -> str:
        return dfw(self).to_line()

    @classmethod
    def from_line(cls, line: str) -> "PlaneTree":
        return walk_to_tree(Walk.from_line(line))


def _ordered_children(tree: PlaneTree, node: int, direction: str):
    kids = tree.children[node]
    return kids if direction == "clockwise" else kids[::-1]


def dfw(tree: PlaneTree, direction: str = "clockwise") -> Walk:
    """Depth-first walk (contour process) of the tree, length 2n+1."""
    _check_direction(direction)
    values = [0]
    stack = [iter(_ordered_children(tree, 0, direction))]
    while stack:
        child = next(stack[-1], None)
        if child is None:
            stack.pop()
            if stack:
                values.append(len(stack) - 1)
        else:
            stack.append(iter(_ordered_children(tree, child, direction)))
            values.append(len(stack) - 1)
    return _trusted(Walk, steps=tuple(values))


def walk_to_tree(walk: Walk) -> PlaneTree:
    """Rebuild the plane tree whose clockwise walk is ``walk``."""
    if not isinstance(walk, Walk):
        walk = Walk(tuple(walk))
    children: list[list[int]] = [[]]
    stack = [0]
    next_id = 1
    for a, b in zip(walk.steps, walk.steps[1:]):
        if b > a:
            children.append([])
            children[stack[-1]].append(next_id)
            stack.append(next_id)
            next_id += 1
        else:
            stack.pop()
    return _trusted(PlaneTree, children=tuple(tuple(cs) for cs in children))


def visit_order(tree: PlaneTree, direction: str = "clockwise") -> tuple[int, ...]:
    """Node ids in first-visit order of the chosen traversal.

    For the clockwise direction this is (0, 1, ..., n) by the id convention;
    the reverse direction carries its own mapping.
    """
    _check_direction(direction)
    order = []
    stack = [0]
    while stack:
        u = stack.pop()
        order.append(u)
        for c in reversed(_ordered_children(tree, u, direction)):
            stack.append(c)
    return tuple(order)


def height_process(tree: PlaneTree, direction: str = "clockwise") -> tuple[int, ...]:
    """Depths of the n+1 nodes in first-visit order (length n+1)."""
    return tuple(tree.depth[u] for u in visit_order(tree, direction))


def first_visit_times(walk: Walk) -> tuple[int, ...]:
    """Time of the first visit of the k-th node along the walk.

    ``m(k) + h(k) = 2k`` ties these times to the height process of the same
    traversal, for every tree.
    """
    times = [0]
    for i, (a, b) in enumerate(zip(walk.steps, walk.steps[1:])):
        if b > a:
            times.append(i + 1)
    return tuple(times)


def contour_nodes(walk: Walk) -> tuple[int, ...]:
    """Node id under the walker at each time 0..2n (first-visit ranks)."""
    nodes = [0]
    stack = [0]
    next_id = 1
    for a, b in zip(walk.steps, walk.steps[1:]):
        if b > a:
            stack.append(next_id)
            next_id += 1
        else:
            stack.pop()
        nodes.append(stack[-1])
    return tuple(nodes)


def same_node(walk: Walk, i: int, j: int) -> bool:
    """True iff times i and j are corners of the same node.

    Characterisation on the contour: the walk's minimum on [i, j] equals
    both endpoint values.
    """
    w = walk.steps
    for corner in (i, j):
        if not 0 <= corner < len(w):
            raise ValueError(f"corner {corner} out of range 0..{len(w) - 1}")
    lo, hi = min(i, j), max(i, j)
    return min(w[lo : hi + 1]) == w[i] == w[j]


def mirror(tree: PlaneTree) -> PlaneTree:
    """The tree with every child list reversed, ids renumbered canonically."""
    return walk_to_tree(dfw(tree, "reverse"))
