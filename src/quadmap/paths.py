"""Vectorized lattice-path utilities backing the samplers.

Uniform nonnegative walks come from fair bits and the cycle lemma.  A row
of 2n+1 fair bits with c ones is balanced to exactly n ones by flipping
|c - n| copies of its surplus symbol, chosen uniformly without
replacement; the fair row's law and the choice are both invariant under
permuting positions, so the balanced row is exactly uniform over the
C(2n+1, n) arrangements (Devroye, "Non-Uniform Random Variate
Generation", 1986).  Read as n up-steps and n+1 down-steps, it has exactly
one rotation whose proper prefix sums stay nonnegative (Dvoretzky and
Motzkin, 1947), and that rotation is exactly uniform over the C_n contour
walks.  Edge matching pairs each up-step with the down-step closing the
same tree edge, which lets per-edge quantities (label increments,
Gaussian displacements, edge lengths) be accumulated along the contour
without an explicit tree.

The walk, edge-matching and branch-sum kernels are linear in the walk
length and keep their temporaries narrow: bits and steps in 8 bits, prefix
sums in 32, and sort keys in 16 (or 8) whenever they fit.  The rotation is
one window of the prefix sums read twice, and the stable sort that groups
the steps by (row, level) runs as numpy's radix sort whenever its keys fit
16 bits (:func:`_key_dtype`): a contour's levels are bounded by its height,
typically about sqrt(n), so a single walk's keys fit unless it climbs past
65535.  Every other grouping is :func:`_stable_order`, one sort of the keys
packed with their indices into 32 or 64 bits.  Branch sums are scattered
into the result itself and summed in place.  One kernel, :func:`_reroot`,
reroots encodings and snake paths alike, by one path at one corner, which
a stack rerooted at one corner per row takes once per distinct corner.
:func:`_reroot_keys` gives every rerooting of an encoding one int64 key,
which orders as the rerooted encodings do.
"""
from __future__ import annotations

import operator

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


def dyck_walk(n: int, rng: np.random.Generator) -> np.ndarray:
    """Uniform contour walk of length 2n+1 (a uniform plane tree with n edges)."""
    return dyck_walk_batch(n, 1, rng)[0]


def dyck_walk_batch(n: int, count: int, rng: np.random.Generator) -> np.ndarray:
    """``count`` independent uniform contour walks, as a (count, 2n+1) array.

    Each row starts as 2n+1 fair bits from ``rng.bytes``.  A row with c
    ones flips |c - n| copies of its surplus symbol, chosen uniformly
    without replacement (:func:`_balanced_bits`); since neither the fair
    bits nor that choice favour any position, the balanced row is exactly
    uniform over the C(2n+1, n) arrangements (Devroye, "Non-Uniform Random
    Variate Generation", 1986), read as n up-steps (ones) and n+1
    down-steps.  The cycle lemma (Dvoretzky and Motzkin, 1947) gives each
    arrangement exactly one rotation whose first 2n prefix sums stay
    nonnegative, the one starting right after its first prefix minimum,
    and every walk with n up-steps is that rotation of exactly 2n+1
    arrangements, so the walks are exactly uniform over the C_n shapes.
    The steps are int8 and their prefix sums int32; a walk is the window
    of 2n prefix sums after its cut, over the row read twice, less the sum
    at the cut.  The walks are int64.
    """
    n, count = _integer(n, "n"), _integer(count, "count")
    if n < 1:
        raise ValueError("n must be >= 1")
    if count < 0:
        raise ValueError("count must be >= 0")
    width = 2 * n + 1
    steps = _balanced_bits(n, count, rng).view(np.int8)
    steps *= 2
    steps -= 1  # a one is an up-step, a zero a down-step
    # prefix sums over the row read twice: the second pass ends 1 lower
    sums = np.empty((count, 2 * width - 1), dtype=np.int32)
    np.cumsum(steps, axis=1, dtype=np.int32, out=sums[:, :width])
    np.subtract(sums[:, : width - 1], 1, out=sums[:, width:])
    rows = np.arange(count)
    cut = np.argmin(sums[:, :width], axis=1) + 1
    walks = np.zeros((count, width), dtype=np.int64)
    window = sliding_window_view(sums, 2 * n, axis=1)[rows, cut]
    np.subtract(window, sums[rows, cut - 1, None], out=walks[:, 1:])
    return walks


def _fair_bits(count: int, width: int, rng: np.random.Generator) -> np.ndarray:
    """A (count, width) uint8 array of i.i.d. fair bits: the first
    count * width bits of ``rng.bytes``, row by row, each byte's most
    significant bit first."""
    size = count * width
    raw = np.frombuffer(rng.bytes(-(-size // 8)), dtype=np.uint8)
    return np.unpackbits(raw, count=size).reshape(count, width)


def _balanced_bits(n: int, count: int, rng: np.random.Generator) -> np.ndarray:
    """``count`` independent rows of 2n+1 bits with exactly n ones each,
    every row uniform over the C(2n+1, n) arrangements, as a (count, 2n+1)
    uint8 array (why it is exact: :func:`dyck_walk_batch`).

    A row of fair bits (:func:`_fair_bits`) with c ones flips |c - n|
    copies of its surplus symbol (one if c > n, zero if c < n), a uniform
    subset of them, picked for all rows at once: each row draws i.i.d.
    ranks among its surplus copies, the ranks of every row are
    deduplicated together, and the rows still short draw again for what
    they miss.  Only equalities between ranks steer the rounds, so the
    picked ranks are a uniform subset; ``flatnonzero`` maps them to
    positions.
    """
    width = 2 * n + 1
    bits = _fair_bits(count, width, rng)
    ones = bits.sum(axis=1, dtype=np.int32).astype(np.int64)
    flips = np.abs(ones - n)
    total = flips.sum()
    if not total:
        return bits
    surplus = (ones > n).view(np.uint8)
    copies = np.where(ones > n, ones, width - ones)  # surplus copies per row
    where = np.flatnonzero(bits == surplus[:, None])  # their flat positions, row by row
    first = np.cumsum(copies) - copies  # each row's first entry of ``where``
    picked = np.empty(0, dtype=np.int64)
    short = flips
    while True:
        row = np.repeat(np.arange(count), short)
        ranks = rng.integers(0, copies[row])
        picked = np.unique(np.concatenate((picked, first[row] + ranks)))
        if picked.size == total:  # no row can hold more than its flips
            break
        short = flips - np.bincount(np.searchsorted(first, picked, "right") - 1, minlength=count)
    bits.reshape(-1)[where[picked]] ^= 1
    return bits


def _key_dtype(top) -> type:
    """The narrowest of uint8, uint16 and int64 that holds the nonnegative
    integer keys up to ``top``; numpy's stable sort of the first two is an
    O(N) radix sort.  Only :func:`_edge_steps` sorts this way: it is the
    scaling experiment's hot path, where the radix sort beats a packed one."""
    if top < 2**8:
        return np.uint8
    if top < 2**16:
        return np.uint16
    return np.int64


def _stable_order(keys: np.ndarray) -> np.ndarray:
    """``np.argsort(keys, kind="stable")`` for a 1-D array of nonnegative
    integer keys: numpy's default sort of the distinct packed keys ``key <<
    b | index``, in uint32 if they fit and else in uint64, whose low b bits
    are the order.  Keys whose packed form passes 64 bits take the stable
    argsort."""
    shift = (keys.size - 1).bit_length()
    top = int(keys.max(initial=0)) << shift | keys.size - 1
    if top >= 2**64:
        return np.argsort(keys, kind="stable")
    dtype = np.uint32 if top < 2**32 else np.uint64
    packed = np.sort(keys.astype(dtype) << shift | np.arange(keys.size, dtype=dtype))
    return (packed & (1 << shift) - 1).astype(np.intp)


def _edge_steps(walks: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The up- and down-step of every edge of a (count, 2n+1) stack of
    contour walks, as two (count, n) arrays of flat positions in a
    (count, 2n+1) array: step t of row r sits at r * (2n+1) + t + 1, where
    it ends.  Entry (r, k) of both is row r's k-th edge in (level, time)
    order (see :func:`contour_edges`).

    One stable sort by the single key row * (2n+1) + level does it, a
    step's level being the higher of its two heights, so at least 1 and at
    most n.  Column 0 is keyed by its row alone, so it heads its row and
    every row's steps fill the sorted positions of its own columns 1..2n.
    The key is built in the dtype of :func:`_key_dtype`, uint16 or narrower
    whenever the stack's keys fit 16 bits.
    """
    count, width = walks.shape
    top = (count - 1) * width + walks.max(initial=0)
    key = np.empty(walks.shape, dtype=_key_dtype(top))
    key[:, 0] = 0
    np.maximum(walks[:, :-1], walks[:, 1:], out=key[:, 1:], casting="unsafe")
    if count > 1:
        key += (width * np.arange(count)).astype(key.dtype)[:, None]
    order = np.argsort(key.reshape(-1), kind="stable").reshape(walks.shape)
    return order[:, 1::2], order[:, 2::2]


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
    (row, level, time) order of :func:`_edge_steps` each pair of
    consecutive entries is an up-step and the down-step closing the same
    edge.  That sort is a radix sort when its keys fit 16 bits, as a
    single walk's do while its height, not its length, stays below 65536.
    The result is a view that skips column 0 of a (count, 2n+1) array.
    """
    ups, downs = _edge_steps(walks)
    ids = np.arange(ups.size).reshape(ups.shape)
    edge = np.empty(walks.shape, dtype=np.int64)
    edge.reshape(-1)[ups] = ids
    edge.reshape(-1)[downs] = ids
    return edge[:, 1:]


def contour_accumulate(
    walks: np.ndarray, edge_values: np.ndarray, start: float | int = 0
) -> np.ndarray:
    """Branch sums of per-edge values along the contour.

    Position (r, t) of the result is ``start`` plus the sum of
    ``edge_values`` over the edges on the path from the root to the node
    under the walker at time t.  Shapes: walks (count, 2n+1), edge_values
    flat of length count*n, result (count, 2n+1).  Edge k's up-step adds
    its value and its down-step subtracts it: the values are scattered
    through :func:`_edge_steps` into the result at the down-steps, negated
    in place, scattered again at the up-steps and summed in place, with no
    scratch array of the result's size.
    """
    values = np.asarray(edge_values)
    ups, downs = _edge_steps(walks)
    if values.size != ups.size:
        raise ValueError("edge_values must hold one value per edge of the walks")
    per_row = values.reshape(ups.shape)
    out = np.empty(walks.shape, dtype=values.dtype)
    out.reshape(-1)[downs] = per_row
    np.negative(out, out=out)
    out.reshape(-1)[ups] = per_row
    np.cumsum(out[:, 1:], axis=1, out=out[:, 1:])
    out[:, 1:] += np.asarray(start, dtype=values.dtype)
    out[:, 0] = start
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
    first_visit = np.arange(2, length + 1, 2)  # 2l, less labs[l-1] below
    first_visit -= labs
    # walk[t] holds the step ending at time t, then the sum of the steps
    walk = np.full(length + 1, -1, dtype=np.int64)
    walk[0] = 0
    walk[first_visit] = 1
    np.cumsum(walk[1:], out=walk[1:])
    return walk


def _reroot(values: np.ndarray, contour: np.ndarray, theta) -> tuple[np.ndarray, np.ndarray]:
    """(values, contour) rows of length m+1 and one dtype, one alone or a
    stack of them, rerooted at one corner ``theta`` in [0, m], or at one
    corner per row of a (B, m+1) stack.  Each contour row must be >= 0 and
    0 at both ends, and each values row equal at both ends.  Returns the
    values rotated to start at the corner less their value there, and the
    new contour c(s) + c(theta) - 2 min c over the corners from theta to
    s = theta + t (mod m): forward from theta up to m, then backward from
    theta down to 0.

    One corner takes two slices per row, one running minimum each (float
    snake paths only ever take this path).  One corner per row takes that
    path once per distinct corner, on the rows rerooted there.
    """
    theta = np.asarray(theta)
    m = values.shape[-1] - 1
    if theta.size != 1:
        new_values, new = np.empty_like(values), np.empty_like(contour)
        for k in np.unique(theta).tolist():
            rows = theta == k
            new_values[rows], new[rows] = _reroot(values[rows], contour[rows], k)
        return new_values, new
    k = theta.item()
    base, top = values[..., k], contour[..., k]
    if values.ndim > 1:  # one row keeps them 0-d, which numpy broadcasts faster
        base, top = base[..., None], top[..., None]
    new_values, new = np.empty_like(values), np.empty_like(contour)
    ahead, behind = new[..., : m - k + 1], new[..., m - k :]
    # forward from k, then backward; the minima go to ``new_values`` before it is filled
    for out, part, step in ((ahead, contour[..., k:], 1), (behind, contour[..., : k + 1], -1)):
        low = new_values[..., : part.shape[-1]]
        np.minimum.accumulate(part[..., ::step], axis=-1, out=low)
        low += low
        np.add(part, top, out=out)
        out -= low[..., ::step]
    np.subtract(values[..., k:], base, out=new_values[..., : m - k + 1])
    np.subtract(values[..., 1 : k + 1], base, out=new_values[..., m - k + 1 :])
    return new_values, new


def _reroot_arrays(labels: np.ndarray, walk: np.ndarray, theta) -> tuple[np.ndarray, np.ndarray]:
    """Array form of :func:`quadmap.labeled.reroot`: :func:`_reroot` of label
    processes and walks, with the labels shifted so the new root is labeled 1."""
    new_labels, new_walk = _reroot(labels, walk, theta)
    new_labels += 1
    return new_labels, new_walk


def _reroot_keys(labels: np.ndarray, walks: np.ndarray, shape: np.ndarray) -> np.ndarray:
    """One int64 key per rerooting of every encoding, as an (N, 2n) array.

    Encoding i has the label process ``labels[i]`` (an (N, 2n+1) stack)
    and the contour walk ``walks[shape[i]]``.  Entry (i, theta) is the key
    of encoding i rerooted at corner theta; keys order as the rerooted
    encodings' (labels, walk) tuples do, so equal keys mean equal
    encodings.  The label steps, shifted to {0, 1, 2}, are the digits of a
    base-3 number X, most significant first, and rerooting at theta
    rotates them, so the rerooted labels read (X mod 3^(2n-theta)) 3^theta
    + X div 3^(2n-theta).  The key is that number shifted left by 2n bits
    plus the rerooted walk's up-steps as 2n bits, most significant first,
    computed corner by corner on the distinct walks only.  Keys are exact
    while 6^(2n) < 2^63, that is for n <= 12.
    """
    two_n = labels.shape[1] - 1
    power = 3 ** np.arange(two_n, dtype=np.int64)  # 3^theta
    rest = 3 * power[::-1]  # 3^(2n - theta)
    number = (np.diff(labels, axis=1) + 1) @ power[::-1]
    keys = number[:, None] % rest * power + number[:, None] // rest
    keys <<= two_n
    bits = 1 << np.arange(two_n - 1, -1, -1, dtype=np.int64)
    ups = np.empty((len(walks), two_n), dtype=np.int64)
    for theta in range(two_n):
        _, new_walks = _reroot(walks, walks, theta)  # only the walks are read
        ups[:, theta] = (new_walks[:, 1:] > new_walks[:, :-1]) @ bits
    keys += ups[shape]
    return keys
