"""Vectorized lattice-path utilities backing the samplers.

Uniform nonnegative walks come from the cycle lemma: a shuffled sequence
of k up-steps and k+1 down-steps has exactly one rotation whose proper
prefix sums stay nonnegative, and rotating a uniform shuffle there is
exactly uniform over the C_k contour walks.  Edge matching pairs each
up-step with the down-step closing the same tree edge, which lets per-edge
quantities (label increments, Gaussian displacements, edge lengths) be
accumulated along the contour without an explicit tree.
"""
from __future__ import annotations

import numpy as np

__all__ = [
    "dyck_walk",
    "dyck_walk_batch",
    "contour_edges",
    "contour_accumulate",
    "uniform_encoding_arrays",
    "doddering_rdfw",
]


def dyck_walk(n: int, rng: np.random.Generator) -> np.ndarray:
    """Uniform contour walk of length 2n+1 (a uniform plane tree with n edges)."""
    return dyck_walk_batch(n, 1, rng)[0]


def dyck_walk_batch(n: int, count: int, rng: np.random.Generator) -> np.ndarray:
    """``count`` independent uniform contour walks, as a (count, 2n+1) array."""
    if n < 1:
        raise ValueError("n must be >= 1")
    steps = np.full((count, 2 * n + 1), -1, dtype=np.int64)
    steps[:, : n] = 1
    steps = rng.permuted(steps, axis=1)
    sums = np.cumsum(steps, axis=1)
    # first argmin marks the unique rotation staying nonnegative until the end
    cut = np.argmin(sums, axis=1) + 1
    idx = (cut[:, None] + np.arange(2 * n)) % (2 * n + 1)
    rotated = np.take_along_axis(steps, idx, axis=1)
    walks = np.zeros((count, 2 * n + 1), dtype=np.int64)
    np.cumsum(rotated, axis=1, out=walks[:, 1:])
    return walks


def contour_edges(walks: np.ndarray) -> np.ndarray:
    """Edge id per contour step; the two steps of one edge share an id.

    ``walks`` has shape (count, 2n+1); the result has shape (count, 2n) with
    ids in [0, count*n).  A step's level is the higher of its two heights.
    Within a fixed level the up- and down-steps alternate along the
    contour, so a stable sort of the steps by the single key
    row * (2n+1) + level (levels are at most n) keeps time order inside
    each (row, level) group, and pairing consecutive entries matches each
    up-step with the down-step closing the same edge.
    """
    count, width = walks.shape
    level = np.maximum(walks[:, :-1], walks[:, 1:])
    key = level + width * np.arange(count)[:, None]
    order = np.argsort(key.ravel(), kind="stable")
    edge = np.empty(order.size, dtype=np.int64)
    edge[order] = np.arange(order.size) // 2
    return edge.reshape(count, width - 1)


def contour_accumulate(
    walks: np.ndarray, edge_values: np.ndarray, start: float | int = 0
) -> np.ndarray:
    """Branch sums of per-edge values along the contour.

    Position (r, t) of the result is ``start`` plus the sum of
    ``edge_values`` over the edges on the path from the root to the node
    under the walker at time t.  Shapes: walks (count, 2n+1), edge_values
    flat of length count*n, result (count, 2n+1).
    """
    steps = np.diff(walks, axis=1)
    edges = contour_edges(walks)
    contrib = np.where(steps > 0, edge_values[edges], -edge_values[edges])
    out = np.empty(walks.shape, dtype=contrib.dtype)
    out[:, 0] = start
    np.cumsum(contrib, axis=1, out=out[:, 1:])
    out[:, 1:] += np.asarray(start, dtype=contrib.dtype)
    return out


def uniform_encoding_arrays(
    n: int, rng: np.random.Generator, count: int = 1
) -> tuple[np.ndarray, np.ndarray]:
    """Encodings of uniform labeled trees: (labels, walks), each (count, 2n+1).

    The underlying trees are exactly uniform over the C_n shapes and the
    per-edge label increments are i.i.d. uniform on {-1, 0, +1}.
    """
    walks = dyck_walk_batch(n, count, rng)
    incs = rng.integers(-1, 2, size=count * n, dtype=np.int64)
    labels = contour_accumulate(walks, incs, start=1)
    return labels, walks


def doddering_rdfw(labels_body: np.ndarray) -> np.ndarray:
    """Reverse depth-first walk of the doddering tree of a label process.

    ``labels_body`` is the positive label process on [0, N]; the result is
    the integer walk of length 2(N+1)+1 whose up-steps occur exactly at the
    first visits m(l) = 2l - labels_body[l-1] of the reverse traversal.
    """
    labs = np.asarray(labels_body, dtype=np.int64)
    non_root = labs.shape[0]  # the tree has N+2 nodes, N+1 of them non-root
    length = 2 * non_root
    first_visit = 2 * np.arange(1, non_root + 1) - labs
    steps = np.full(length, -1, dtype=np.int64)
    steps[first_visit - 1] = 1
    walk = np.zeros(length + 1, dtype=np.int64)
    np.cumsum(steps, axis=0, out=walk[1:])
    return walk
