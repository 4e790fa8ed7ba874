"""Labeled plane trees, their (label, walk) encodings and rerooting.

A labeled tree carries an integer per node: the root is labeled 1 and
adjacent labels differ by at most 1.  A tree is well-labeled when every
label is positive.  The encoding pairs the label process read along the
clockwise contour with the contour walk itself; the rerooting operation
acts on encodings as a cyclic-shift group of order 2n, rebasing labels so
the new root is labeled 1.  Labels and marks are read-only int64 arrays.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .paths import _int_line, _reroot_arrays
from .trees import PlaneTree, Walk, _ArrayValue, _int64, _integer, _trusted, contour_nodes

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


@dataclass(frozen=True, eq=False)
class LabeledTree(_ArrayValue):
    """Plane tree plus one integer label per node (root labeled 1)."""

    tree: PlaneTree
    labels: np.ndarray

    def __post_init__(self) -> None:
        labels = _int64(self.labels, "labels")
        object.__setattr__(self, "labels", labels)
        if labels.size != self.tree.n_nodes:
            raise ValueError("one label per node required")
        if labels[0] != 1:
            raise ValueError("root label must be 1")
        if np.any(np.abs(labels[1:] - labels[self.tree.parent[1:]]) > 1):
            raise ValueError("adjacent labels must differ by at most 1")

    @property
    def n(self) -> int:
        return self.tree.n


@dataclass(frozen=True, eq=False)
class Encoding(_ArrayValue):
    """Label process and contour walk of a labeled tree, both on [0, 2n].

    ``labels[i]`` is the label of the node under the walker at time i; the
    two sequences are compatible (corners of one node share a label), which
    is checked at construction.
    """

    labels: np.ndarray
    walk: Walk

    def __post_init__(self) -> None:
        labels = _int64(self.labels, "labels")
        object.__setattr__(self, "labels", labels)
        if not isinstance(self.walk, Walk):
            raise ValueError(f"walk: expected a Walk, got {type(self.walk).__name__}")
        if labels.size != self.walk.steps.size:
            raise ValueError("label process and walk must have equal length")
        if labels[0] != 1 or labels[-1] != 1:
            raise ValueError("label process must start and end at 1")
        if np.any(np.abs(np.diff(labels)) > 1):
            raise ValueError("label increments must be in {-1, 0, +1}")
        # every corner carries the label read at its node's first visit
        if np.any(labels != _node_labels(labels, self.walk.steps)[contour_nodes(self.walk)]):
            raise ValueError("labels disagree between corners of one node")

    @property
    def n(self) -> int:
        return self.walk.n

    def to_lines(self) -> str:
        return ",".join(map(str, self.labels.tolist())) + "\n" + self.walk.to_line()

    @classmethod
    def from_lines(cls, text: str) -> "Encoding":
        lines = text.strip().splitlines()
        if len(lines) != 2:
            raise ValueError(f"encoding text must be two lines (labels, walk), got {len(lines)}")
        first, second = lines
        return cls(_int_line(first.strip(), "labels line"), Walk.from_line(second))


@dataclass(frozen=True, eq=False)
class MarkedTree(_ArrayValue):
    """Plane tree with a {-1, 0, +1} mark per edge on its first traversed side.

    ``marks[k]`` sits on the parent-to-child side of node k+1's parent edge;
    the opposite side implicitly carries the negated mark.
    """

    tree: PlaneTree
    marks: np.ndarray

    def __post_init__(self) -> None:
        marks = _int64(self.marks, "marks")
        object.__setattr__(self, "marks", marks)
        if marks.size != self.tree.n:
            raise ValueError("one mark per edge required")
        if np.any(np.abs(marks) > 1):
            raise ValueError("side marks must be in {-1, 0, +1}")


def _node_labels(labels: np.ndarray, walk: np.ndarray) -> np.ndarray:
    """Node labels in first-visit order of a label process and its contour
    walk, or of (B, 2n+1) stacks of them: the label read at each up-step's
    end, after the root's."""
    n = walk.shape[-1] // 2
    out = np.empty(labels.shape[:-1] + (n + 1,), dtype=np.int64)
    out[..., 0] = labels[..., 0]
    out[..., 1:] = labels[..., 1:][walk[..., 1:] > walk[..., :-1]].reshape(out[..., 1:].shape)
    return out


def encode(tree: LabeledTree) -> Encoding:
    """Encoding of a labeled tree: labels along the clockwise contour."""
    walk = tree.tree.walk
    return _trusted(Encoding, labels=tree.labels[contour_nodes(walk)], walk=walk)


def decode(enc: Encoding) -> LabeledTree:
    """Inverse of :func:`encode`."""
    labels = _node_labels(enc.labels, enc.walk.steps)
    return _trusted(LabeledTree, tree=_trusted(PlaneTree, walk=enc.walk), labels=labels)


def is_well_labeled(tree: LabeledTree) -> bool:
    """True iff every label is at least 1."""
    return bool(tree.labels.min() >= 1)


def reroot(enc: Encoding, theta: int) -> Encoding:
    """Encoding of the tree rerooted at corner ``theta``.

    The walk becomes the tree distance to the node at corner theta and the
    labels are shifted so the new root is labeled 1.  Corner arithmetic is
    cyclic of order 2n, so theta = 2n acts as the identity, and
    ``reroot(reroot(e, a), b) == reroot(e, (a + b) % 2n)``.
    """
    two_n, theta = enc.labels.size - 1, _integer(theta, "theta")
    if not 0 <= theta <= two_n:
        raise ValueError(f"theta must lie in [0, {two_n}]")
    if theta % two_n == 0:
        return enc
    labels, walk = _reroot_arrays(enc.labels, enc.walk.steps, theta)
    return _trusted(Encoding, labels=labels, walk=_trusted(Walk, steps=walk))


def first_min_corner(labels) -> int:
    """Smallest corner in [0, 2n-1] where the label process is minimal."""
    return int(np.argmin(np.asarray(labels)[:-1]))


def minima_set(labels) -> np.ndarray:
    """All corners in [0, 2n-1] where the label process attains its minimum."""
    body = np.asarray(labels)[:-1]
    return np.flatnonzero(body == body.min())


def to_positive(tree: LabeledTree) -> LabeledTree:
    """Well-labeled representative: reroot at the first label minimum.

    Idempotent on well-labeled input.
    """
    enc = encode(tree)
    return decode(reroot(enc, first_min_corner(enc.labels)))


def stabilizer_size(tree: LabeledTree) -> int:
    """Number of corners theta in [0, 2n-1] whose rerooting fixes the tree.

    These corners form a subgroup of the cyclic group of order 2n, so they
    are the multiples of the least of them, p, a divisor of 2n: the least
    divisor of 2n whose rerooting fixes the encoding is p, and the answer
    is 2n / p.
    """
    enc, two_n = encode(tree), 2 * tree.n
    divisors = (p for p in range(1, two_n + 1) if two_n % p == 0)
    return two_n // next(p for p in divisors if reroot(enc, p) == enc)


def to_marked(tree: LabeledTree) -> MarkedTree:
    """Strip labels down to the per-edge label increments (first sides)."""
    labels = tree.labels
    marks = labels[1:] - labels[tree.tree.parent[1:]]
    return _trusted(MarkedTree, tree=tree.tree, marks=marks)


def from_marked(marked: MarkedTree) -> LabeledTree:
    """Recover the labels from the side marks; the root is forced to 1.

    Along the contour the label process gains a node's mark on the step
    into the node and loses it on the step back out.
    """
    walk = marked.tree.walk.steps
    nodes = contour_nodes(marked.tree.walk)
    mark = np.concatenate(([0], marked.marks))  # per node, the root's 0
    change = np.where(walk[1:] > walk[:-1], mark[nodes[1:]], -mark[nodes[:-1]])
    process = np.concatenate(([1], 1 + np.cumsum(change)))
    return _trusted(LabeledTree, tree=marked.tree, labels=_node_labels(process, walk))
