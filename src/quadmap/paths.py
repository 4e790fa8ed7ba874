"""Vectorized lattice-path utilities backing the samplers.

Uniform nonnegative walks come from the cycle lemma: a shuffled sequence
of k up-steps and k+1 down-steps has exactly one rotation whose proper
prefix sums stay nonnegative, and rotating a uniform shuffle there is
exactly uniform over the C_k contour walks.  Edge matching pairs each
up-step with the down-step closing the same tree edge, which lets per-edge
quantities (label increments, Gaussian displacements, edge lengths) be
accumulated along the contour without an explicit tree.

The walk, edge-matching and branch-sum kernels are linear in the walk
length.  The rotation is one slice of the doubled step row, and the stable
sort that groups the steps by (row, level) runs as numpy's radix sort
whenever its keys fit 16 bits (:func:`_stable_order`, which the map
kernels share): a contour's levels are bounded by its height, typically
about sqrt(n), so a single walk's keys fit unless it climbs past 65535.
"""
from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

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
    doubled = np.concatenate((steps, steps), axis=1)
    rotated = sliding_window_view(doubled, 2 * n, axis=1)[np.arange(count), cut]
    walks = np.zeros((count, 2 * n + 1), dtype=np.int64)
    np.cumsum(rotated, axis=1, out=walks[:, 1:])
    return walks


def _stable_order(keys: np.ndarray) -> np.ndarray:
    """``np.argsort(keys, kind="stable")`` for a 1-D array of nonnegative
    integer keys.  Keys that fit 8 or 16 bits are cast down first, where
    numpy's stable sort is an O(N) radix sort; wider keys sort as they
    are."""
    top = keys.max(initial=0)
    if top < 2**8:
        return np.argsort(keys.astype(np.uint8), kind="stable")
    if top < 2**16:
        return np.argsort(keys.astype(np.uint16), kind="stable")
    return np.argsort(keys, kind="stable")


def _edge_order(walks: np.ndarray) -> np.ndarray:
    """The steps of a (count, 2n+1) stack of contour walks, flat, in
    (row, level, time) order, a step's level being the higher of its two
    heights: one stable sort by the single key row * (2n+1) + level
    (levels are at most n).  Entries 2k and 2k+1 are the up- and
    down-step of edge k (see :func:`contour_edges`)."""
    count, width = walks.shape
    level = np.maximum(walks[:, :-1], walks[:, 1:])
    return _stable_order((level + width * np.arange(count)[:, None]).ravel())


def _contour_node_array(walks: np.ndarray) -> np.ndarray:
    """Array form of :func:`~quadmap.trees.contour_nodes` for a (B, 2n+1)
    stack of walks, each row on its own: the node under the walker is the
    last one first visited at the same level, at or before that time.
    Sorting the times stably by (row, level) puts a first visit at the
    head of every run, so a running maximum of first-visit positions never
    reaches back into the previous run."""
    width = walks.shape[1]
    arrival = np.ones(walks.shape, dtype=bool)
    arrival[:, 1:] = walks[:, 1:] > walks[:, :-1]
    ids = (np.cumsum(arrival, axis=1) - 1).ravel()  # node id, read at its first visit
    by_level = _stable_order((walks + width * np.arange(len(walks))[:, None]).ravel())
    at = np.where(arrival.ravel()[by_level], np.arange(walks.size), 0)
    np.maximum.accumulate(at, out=at)
    nodes = np.empty(walks.size, dtype=np.int64)
    nodes[by_level] = ids[by_level[at]]
    return nodes.reshape(walks.shape)


def _steps_to_end(succ: np.ndarray, last: np.ndarray) -> np.ndarray:
    """List ranking: the number of ``succ`` steps from each element to the
    end of its chain, where ``last`` marks the chain ends (pointer jumping,
    O(log longest chain) passes).  A chain that never reaches an end, which
    only a faulty caller can build, raises ``RuntimeError`` once the passes
    that any chain of ``succ.size`` elements needs are spent."""
    left = (~last).astype(np.int64)
    jump = np.where(last, np.arange(succ.size), succ)
    for _ in range(succ.size.bit_length() + 1):
        ahead = jump[jump]
        if np.array_equal(ahead, jump):
            return left
        left += left[jump]
        jump = ahead
    raise RuntimeError("list ranking: a chain never reaches a marked end")


def contour_edges(walks: np.ndarray) -> np.ndarray:
    """Edge id per contour step; the two steps of one edge share an id.

    ``walks`` has shape (count, 2n+1); the result has shape (count, 2n) with
    ids in [0, count*n).  Within a fixed level the up- and down-steps
    alternate along the contour, starting with an up-step, so in the
    (row, level, time) order of :func:`_edge_order` each pair of
    consecutive entries is an up-step and the down-step closing the same
    edge.  That sort is a radix sort when its keys fit 16 bits, as a
    single walk's do while its height, not its length, stays below 65536.
    """
    order = _edge_order(walks)
    edge = np.empty(order.size, dtype=np.int64)
    edge[order] = np.arange(order.size) // 2
    return edge.reshape(walks.shape[0], walks.shape[1] - 1)


def contour_accumulate(
    walks: np.ndarray, edge_values: np.ndarray, start: float | int = 0
) -> np.ndarray:
    """Branch sums of per-edge values along the contour.

    Position (r, t) of the result is ``start`` plus the sum of
    ``edge_values`` over the edges on the path from the root to the node
    under the walker at time t.  Shapes: walks (count, 2n+1), edge_values
    flat of length count*n, result (count, 2n+1).  Edge k's up-step adds
    its value and its down-step subtracts it; both steps are placed by one
    scatter through :func:`_edge_order`.
    """
    values = np.asarray(edge_values)
    pairs = np.empty(2 * values.size, dtype=values.dtype)
    pairs[0::2] = values
    np.negative(values, out=pairs[1::2])
    contrib = np.empty_like(pairs)
    contrib[_edge_order(walks)] = pairs
    out = np.empty(walks.shape, dtype=contrib.dtype)
    out[:, 0] = start
    np.cumsum(contrib.reshape(out[:, 1:].shape), axis=1, out=out[:, 1:])
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


def _check_label_process(labels) -> np.ndarray:
    """The positive label process ``labels`` on [0, N] as a read-only int64
    array, or a ``ValueError`` naming the rule it breaks: its entries are
    integers, it starts at 1, stays >= 1 and increases by at most 1 per
    step."""
    from .trees import _int64  # trees imports this module

    labs = _int64(labels, "labels")
    if labs.size == 0 or labs[0] != 1:
        raise ValueError("label process must start at 1")
    if labs.min() < 1:
        raise ValueError("label process must stay >= 1")
    if np.any(np.diff(labs) > 1):
        raise ValueError("label process may increase by at most 1 per step")
    return labs


def doddering_rdfw(labels_body) -> np.ndarray:
    """Reverse depth-first walk of the doddering tree of a label process.

    ``labels_body`` is the positive label process on [0, N]; the result is
    the integer walk of length 2(N+1)+1 whose up-steps occur exactly at the
    first visits m(l) = 2l - labels_body[l-1] of the reverse traversal.  A
    process that does not start at 1, drops below 1 or rises by more than
    1 in a step is a ``ValueError``.
    """
    return _doddering_rdfw(_check_label_process(labels_body))


def _doddering_rdfw(labs: np.ndarray) -> np.ndarray:
    """:func:`doddering_rdfw` of an int64 label process already known to be
    positive, to start at 1 and to rise by at most 1 per step."""
    non_root = labs.shape[0]  # the tree has N+2 nodes, N+1 of them non-root
    length = 2 * non_root
    first_visit = 2 * np.arange(1, non_root + 1) - labs
    steps = np.full(length, -1, dtype=np.int64)
    steps[first_visit - 1] = 1
    walk = np.zeros(length + 1, dtype=np.int64)
    np.cumsum(steps, axis=0, out=walk[1:])
    return walk


def _reroot_arrays(
    labels: np.ndarray, walk: np.ndarray, theta
) -> tuple[np.ndarray, np.ndarray]:
    """Array form of :func:`quadmap.labeled.reroot`.

    ``labels`` and ``walk`` are label processes and contour walks of
    length 2n+1, each one alone or a stack along leading axes (the two
    stacks are rerooted independently and need not match), and ``theta``
    is a corner in [0, 2n) or one corner per stacked row.  The labels
    rotate by ``theta`` and shift so the new root is labeled 1.  The new
    walk at time t is the tree distance from the node at corner ``theta``
    to the node at corner theta + t (mod 2n): w(j) + w(theta) - 2 min w
    over the corners between them, read forward from ``theta`` until the
    contour wraps past corner 0 and backward from ``theta`` after that.
    """
    two_n = labels.shape[-1] - 1
    time = np.arange(two_n)
    theta = np.asarray(theta)[..., None]
    corner = (theta + time) % two_n

    def rotate(values: np.ndarray) -> np.ndarray:
        shape = values.shape[:-1] + (two_n,)
        return np.take_along_axis(values[..., :two_n], np.broadcast_to(corner, shape), axis=-1)

    turned = rotate(labels)
    new_labels = np.ones_like(labels)
    np.subtract(turned, turned[..., :1] - 1, out=new_labels[..., :two_n])
    depth = rotate(walk)
    top = depth[..., :1]
    low = np.minimum.accumulate(depth, axis=-1)
    backward = np.minimum(np.minimum.accumulate(depth[..., ::-1], axis=-1)[..., ::-1], top)
    np.copyto(low, backward, where=time > two_n - theta)
    new_walk = np.zeros_like(walk)
    new_walk[..., :two_n] = depth + top - 2 * low
    return new_labels, new_walk


def _reroot_keys(labels: np.ndarray, walks: np.ndarray, shape: np.ndarray) -> np.ndarray:
    """Packed keys of every rerooting of every encoding, as an (N, 2n, c)
    int64 array.

    Encoding i has the label process ``labels[i]`` (an (N, 2n+1) stack)
    and the contour walk ``walks[shape[i]]``, so each rerooted walk is
    computed once per distinct walk.  Entry (i, theta) holds encoding i
    rerooted at corner theta as c int64 columns that compare
    lexicographically as the encodings' (labels, walk) tuples do, so equal
    keys mean equal encodings: the rerooted labels, which lie in
    [1 - n, 1 + n], packed in base 2n+1 and the walk in base n+1 (n <= 6
    gives c = 2).  The rerooted labels, body[(theta + t) % 2n] - body[theta]
    + 1 and then 1, are packed without being formed: the body times the
    packing weights rotated by theta, plus the shift's share.
    """
    two_n = labels.shape[1] - 1
    n = two_n // 2
    label_weights = _digit_weights(two_n + 1, 2 * n + 1)
    walk_weights = _digit_weights(two_n + 1, n + 1)
    spread = label_weights[:two_n].sum(axis=0)
    body = labels[:, :two_n]
    split = label_weights.shape[1]
    keys = np.empty((len(labels), two_n, split + walk_weights.shape[1]), dtype=np.int64)
    for theta in range(two_n):
        packed = body @ np.roll(label_weights[:two_n], theta, axis=0)
        packed += (1 - body[:, theta, None]) * spread + label_weights[two_n]
        keys[:, theta, :split] = packed
        _, new_walks = _reroot_arrays(walks, walks, theta)  # only the walks are read
        keys[:, theta, split:] = (new_walks @ walk_weights)[shape]
    return keys


def _least_keys(keys: np.ndarray) -> np.ndarray:
    """Per row of an (N, K, c) key array, the index of its lexicographically
    least key."""
    least = np.ones(keys.shape[:2], dtype=bool)
    for column in np.moveaxis(keys, 2, 0):
        column = np.where(least, column, np.iinfo(np.int64).max)
        least &= column == column.min(axis=1, keepdims=True)
    return least.argmax(axis=1)


def _digit_weights(width: int, base: int) -> np.ndarray:
    """The (width, c) int64 matrix that packs rows of ``width`` digits, all
    within one run of ``base`` consecutive integers, into c columns:
    ``digits @ weights`` holds as many digits per column, most significant
    first, as keep a column exact in int64 with a factor ``base`` to spare
    for digits of either sign, so comparing the columns lexicographically
    compares the digit rows."""
    per = 1
    while base ** (per + 2) < 2**63:
        per += 1
    t = np.arange(width)
    first = t // per * per  # the first digit of each digit's column
    weights = np.zeros((width, -(-width // per)), dtype=np.int64)
    weights[t, t // per] = base ** (np.minimum(first + per, width) - 1 - t)
    return weights
