"""Labeled plane trees, their (label, walk) encodings and rerooting.

A labeled tree carries an integer per node: the root is labeled 1 and
adjacent labels differ by at most 1.  A tree is well-labeled when every
label is positive.  The encoding pairs the label process read along the
clockwise contour with the contour walk itself; the rerooting operation
acts on encodings as a cyclic-shift group of order 2n, rebasing labels so
the new root is labeled 1.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .paths import _reroot_arrays, _reroot_keys
from .trees import PlaneTree, Walk, _integer, _trusted, contour_nodes, dfw, walk_to_tree

__all__ = [
    "LabeledTree",
    "Encoding",
    "MarkedTree",
    "encode",
    "decode",
    "is_well_labeled",
    "reroot",
    "to_positive",
    "first_min_corner",
    "minima_set",
    "stabilizer_size",
    "to_marked",
    "from_marked",
]


@dataclass(frozen=True)
class LabeledTree:
    """Plane tree plus one integer label per node (root labeled 1)."""

    tree: PlaneTree
    labels: tuple[int, ...]

    def __post_init__(self) -> None:
        labels = tuple(int(x) for x in self.labels)
        object.__setattr__(self, "labels", labels)
        if len(labels) != self.tree.n_nodes:
            raise ValueError("one label per node required")
        if labels[0] != 1:
            raise ValueError("root label must be 1")
        for u in range(1, self.tree.n_nodes):
            if abs(labels[u] - labels[self.tree.parent[u]]) > 1:
                raise ValueError("adjacent labels must differ by at most 1")

    @property
    def n(self) -> int:
        return self.tree.n


@dataclass(frozen=True)
class Encoding:
    """Label process and contour walk of a labeled tree, both on [0, 2n].

    ``labels[i]`` is the label of the node under the walker at time i; the
    two sequences are compatible (corners of one node share a label), which
    is checked at construction.
    """

    labels: tuple[int, ...]
    walk: Walk

    def __post_init__(self) -> None:
        labels = tuple(int(x) for x in self.labels)
        object.__setattr__(self, "labels", labels)
        w = self.walk.steps
        if len(labels) != len(w):
            raise ValueError("label process and walk must have equal length")
        if labels[0] != 1 or labels[-1] != 1:
            raise ValueError("label process must start and end at 1")
        # One pass with a stack: labels must be constant across the visits of
        # each node, and increments stay in {-1, 0, +1}.
        stack = [labels[0]]
        for i in range(1, len(w)):
            if abs(labels[i] - labels[i - 1]) > 1:
                raise ValueError("label increments must be in {-1, 0, +1}")
            if w[i] > w[i - 1]:
                stack.append(labels[i])
            else:
                stack.pop()
                if labels[i] != stack[-1]:
                    raise ValueError("labels disagree between corners of one node")

    @property
    def n(self) -> int:
        return self.walk.n

    def to_lines(self) -> str:
        return ",".join(map(str, self.labels)) + "\n" + self.walk.to_line()

    @classmethod
    def from_lines(cls, text: str) -> "Encoding":
        lines = text.strip().splitlines()
        if len(lines) != 2:
            raise ValueError(f"encoding text must be two lines (labels, walk), got {len(lines)}")
        first, second = lines
        return cls(
            tuple(int(tok) for tok in first.split(",")),
            Walk.from_line(second),
        )


@dataclass(frozen=True)
class MarkedTree:
    """Plane tree with a {-1, 0, +1} mark per edge on its first traversed side.

    ``marks[k]`` sits on the parent-to-child side of node k+1's parent edge;
    the opposite side implicitly carries the negated mark.
    """

    tree: PlaneTree
    marks: tuple[int, ...]

    def __post_init__(self) -> None:
        marks = tuple(int(x) for x in self.marks)
        object.__setattr__(self, "marks", marks)
        if len(marks) != self.tree.n:
            raise ValueError("one mark per edge required")
        if any(m not in (-1, 0, 1) for m in marks):
            raise ValueError("side marks must be in {-1, 0, +1}")


def _encoding_from_arrays(labels: np.ndarray, walk: np.ndarray) -> Encoding:
    """The encoding of one label-process row and one walk row, trusted."""
    steps = _trusted(Walk, steps=tuple(walk.tolist()))
    return _trusted(Encoding, labels=tuple(labels.tolist()), walk=steps)


def encode(tree: LabeledTree) -> Encoding:
    """Encoding of a labeled tree: labels along the clockwise contour."""
    walk = dfw(tree.tree)
    nodes = contour_nodes(walk)
    return _trusted(Encoding, labels=tuple(tree.labels[u] for u in nodes), walk=walk)


def decode(enc: Encoding) -> LabeledTree:
    """Inverse of :func:`encode`."""
    tree = walk_to_tree(enc.walk)
    labels = [0] * tree.n_nodes
    labels[0] = enc.labels[0]
    next_id = 1
    w = enc.walk.steps
    for i in range(1, len(w)):
        if w[i] > w[i - 1]:
            labels[next_id] = enc.labels[i]
            next_id += 1
    return _trusted(LabeledTree, tree=tree, labels=tuple(labels))


def is_well_labeled(tree: LabeledTree) -> bool:
    """True iff every label is at least 1."""
    return min(tree.labels) >= 1


def reroot(enc: Encoding, theta: int) -> Encoding:
    """Encoding of the tree rerooted at corner ``theta``.

    The walk becomes the tree distance to the node at corner theta and the
    labels are shifted so the new root is labeled 1.  Corner arithmetic is
    cyclic of order 2n, so theta = 2n acts as the identity, and
    ``reroot(reroot(e, a), b) == reroot(e, (a + b) % 2n)``.
    """
    two_n, theta = len(enc.labels) - 1, _integer(theta, "theta")
    if not 0 <= theta <= two_n:
        raise ValueError(f"theta must lie in [0, {two_n}]")
    if theta % two_n == 0:
        return enc
    labels, walk = _reroot_arrays(np.array(enc.labels), np.array(enc.walk.steps), theta)
    return _encoding_from_arrays(labels, walk)


def first_min_corner(labels) -> int:
    """Smallest corner in [0, 2n-1] where the label process is minimal."""
    body = labels[: len(labels) - 1]
    return min(range(len(body)), key=lambda i: (body[i], i))


def minima_set(labels) -> tuple[int, ...]:
    """All corners in [0, 2n-1] where the label process attains its minimum."""
    body = tuple(labels[: len(labels) - 1])
    lo = min(body)
    return tuple(i for i, v in enumerate(body) if v == lo)


def to_positive(tree: LabeledTree) -> LabeledTree:
    """Well-labeled representative: reroot at the first label minimum.

    Idempotent on well-labeled input.
    """
    enc = encode(tree)
    return decode(reroot(enc, first_min_corner(enc.labels)))


def stabilizer_size(tree: LabeledTree) -> int:
    """Number of corners theta in [0, 2n-1] whose rerooting fixes the tree."""
    enc = encode(tree)
    keys = _reroot_keys(np.array([enc.labels]), np.array([enc.walk.steps]), np.zeros(1, int))[0]
    return int(np.count_nonzero(np.all(keys == keys[0], axis=1)))


def to_marked(tree: LabeledTree) -> MarkedTree:
    """Strip labels down to the per-edge label increments (first sides)."""
    marks = tuple(
        tree.labels[u] - tree.labels[tree.tree.parent[u]]
        for u in range(1, tree.tree.n_nodes)
    )
    return _trusted(MarkedTree, tree=tree.tree, marks=marks)


def from_marked(marked: MarkedTree) -> LabeledTree:
    """Recover the labels from the side marks; the root is forced to 1."""
    labels = [0] * marked.tree.n_nodes
    labels[0] = 1
    for u in range(1, marked.tree.n_nodes):
        labels[u] = labels[marked.tree.parent[u]] + marked.marks[u - 1]
    return _trusted(LabeledTree, tree=marked.tree, labels=tuple(labels))
