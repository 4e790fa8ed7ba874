"""Rotation-system (half-edge) planar maps.

A map is stored as two permutations of its darts: ``twin`` swaps the two
darts of each edge and ``nxt`` is the rotation successor around the
dart's origin vertex, and ``tail`` names each dart's origin vertex.  The
three are stored once, as read-only one-dimensional int64 arrays: the
public constructor copies the values given, while ``load_map`` and the
library's constructions hand over arrays that they own.  Faces are the
orbits of d -> nxt[twin[d]].  Every ``HalfEdgeMap`` is a connected
genus-0 map: the public constructor, ``from_rotations`` and ``load_map``
enforce connectivity and the Euler relation V - E + F = 2 (stars hooked,
no BFS; faces counted, not listed, a quadrangulation's by its cached f^4
check), and the maps this library derives from valid values
(``quad_of_map``, ``map_of_quad``, the chord bijection) satisfy them by
construction, so they skip the check; the first two compose nxt, twin
and nxt o twin and list no orbit.  Instances are immutable, compare and
hash by their arrays and cache only what their checks compute; BFS
helpers allocate their own scratch and may be called concurrently, and a
map keeps the distances from its last BFS origin.

The per-dart work (validation, orbits, BFS, rooted codes, map text) runs
as numpy kernels over the arrays at every size.  The BFS and code kernels
take only stacks with a leading batch axis, run as the maps' disjoint
union, which is how the exhaustive battery handles its tens of thousands
of small maps in a few calls; a public function over one map is their
batch of one.  Their loops sort nothing: a BFS level dedupes its vertices
by scattered slots, and the dart BFS keeps each dart's first candidate
slot.  A code is big-endian uint32 labels, which order as bytes as the
label sequences do; the text kernel writes one ``save_map`` line.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

from .paths import _int_line, _stable_order, _steps_to_end
from .trees import _ArrayValue, _index, _int64, _int64_lists, _trusted

__all__ = [
    "HalfEdgeMap",
    "RootedMap",
    "PointedMap",
    "RootedQuadrangulation",
    "PointedQuadrangulation",
    "validate_quadrangulation",
    "bfs_distances",
    "radius",
    "profile",
    "rooted_code",
    "pointed_code",
    "canonical_code",
    "quad_of_map",
    "map_of_quad",
    "save_map",
    "load_map",
]


@dataclass(frozen=True, eq=False, init=False)
class HalfEdgeMap(_ArrayValue):
    """Connected genus-0 map given by its twin involution and rotations.

    ``tail[d]`` is the origin vertex of dart d; vertex ids are whatever the
    constructor supplied (``from_rotations`` numbers them by list position).
    The fields are read-only int64 arrays: the constructor stores copies of
    the sequences given, so later writes to them leave the map unchanged.
    """

    twin: np.ndarray
    nxt: np.ndarray
    tail: np.ndarray

    def __init__(self, twin, nxt, tail) -> None:
        for name, values in (("twin", twin), ("nxt", nxt), ("tail", tail)):
            object.__setattr__(self, name, _int64(values, name))
        self.__post_init__()

    def __post_init__(self) -> None:
        # the checks of the stored fields; load_map stores its parsed arrays and calls this
        m = self.twin.size
        if m == 0 or m % 2 or self.nxt.size != m or self.tail.size != m:
            raise ValueError("twin, nxt and tail must have equal positive even length")
        _check_arrays(self)

    # -- basic counts -------------------------------------------------

    @property
    def n_darts(self) -> int:
        return self.twin.size

    @property
    def n_edges(self) -> int:
        return self.twin.size // 2

    @cached_property
    def n_vertices(self) -> int:
        return int(self.tail.max()) + 1

    @cached_property
    def n_faces(self) -> int:
        """n_darts / 4 on a quadrangulation, else counted by smallest darts."""
        if self._quadrangular:
            return self.n_darts // 4
        f = self.nxt[self.twin]
        return int(np.count_nonzero(_cycle_mins(f) == np.arange(f.size)))

    @cached_property
    def _quadrangular(self) -> bool:
        """Every face of degree 4: for f = nxt o twin, f^4 fixes the darts
        of a face of degree L iff L divides 4, and f^2 iff L divides 2."""
        f = self.nxt[self.twin]
        f2 = f[f]
        del f
        ids = np.arange(f2.size)
        return bool(np.array_equal(f2[f2], ids) and not np.any(f2 == ids))

    def head(self, d: int) -> int:
        return int(self.tail[self.twin[_index(d, "dart", self.n_darts)]])

    # -- orbits -------------------------------------------------------

    @cached_property
    def vertex_cycles(self) -> tuple[tuple[int, ...], ...]:
        """Rotation cycle (dart list) per vertex from its smallest dart, indexed by vertex id."""
        darts = _orbit_arrays(self.nxt)[0]
        darts = darts[_stable_order(self.tail[darts])]
        return tuple(_split(darts, np.append(0, np.cumsum(np.bincount(self.tail)))))

    @cached_property
    def faces(self) -> tuple[tuple[int, ...], ...]:
        """Orbits of the face permutation d -> nxt[twin[d]]."""
        return tuple(_split(*_orbit_arrays(self.nxt[self.twin])))

    def degree(self, v: int) -> int:
        return int(np.count_nonzero(self.tail == _index(v, "vertex", self.n_vertices)))

    @classmethod
    def from_rotations(
        cls,
        rotations: Sequence[Sequence[int]],
        twin: Sequence[int] | None = None,
    ) -> "HalfEdgeMap":
        """Build a map from per-vertex dart lists in rotation order.

        With ``twin`` omitted, dart 2e and 2e+1 are the two sides of edge e.
        """
        nxt, tail = _rotation_arrays(rotations)
        return cls(np.arange(nxt.size) ^ 1 if twin is None else twin, nxt, tail)


def _cycle_mins(perm: np.ndarray) -> np.ndarray:
    """Smallest dart of each dart's cycle of the permutation ``perm``.

    Pointer jumping: after pass k, ``low[d]`` is the smallest dart among the
    first 2^k iterates of d; it stops changing exactly when every window
    covers its cycle, so there are O(log longest cycle) passes.
    """
    low, jump = np.arange(perm.size), perm
    while True:
        new = low[jump]
        np.minimum(new, low, out=new)
        if np.array_equal(new, low):
            return low
        low, jump = new, jump[jump]


def _orbit_arrays(perm: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Cycles of the permutation ``perm`` as ``(darts, starts)``: the
    cycles' darts listed cycle after cycle, in order of their smallest dart
    and each starting there, and ``starts[k]`` the position of cycle k (with
    ``starts[-1] == len(perm)``).  A dart's place in its cycle comes from
    list ranking the cycle opened at its smallest dart."""
    low = _cycle_mins(perm)
    left = _steps_to_end(perm, perm == low)
    is_first = low == np.arange(perm.size)
    first = np.flatnonzero(is_first)
    starts = np.zeros(first.size + 1, dtype=np.int64)
    np.cumsum(left[first] + 1, out=starts[1:])
    cycle = np.cumsum(is_first) - 1  # cycle index, read at first darts
    darts = np.empty(perm.size, dtype=np.int64)
    darts[starts[cycle[low]] + left[low] - left] = np.arange(perm.size)
    return darts, starts


def _split(darts: np.ndarray, starts: np.ndarray) -> list[tuple[int, ...]]:
    """The cycles of an ``_orbit_arrays`` result as tuples of Python ints."""
    flat = darts.tolist()
    bounds = starts.tolist()
    return [tuple(flat[a:b]) for a, b in zip(bounds, bounds[1:])]


def _check_arrays(he: HalfEdgeMap) -> None:
    """``HalfEdgeMap``'s checks after the length check, in this order:
    nxt a permutation, twin a fixed-point-free involution, nxt keeping each
    dart's vertex, one rotation cycle per vertex, vertex ids 0..V-1,
    connectivity (``_connected``, no BFS), genus 0."""
    twin, nxt, tail = he.twin, he.nxt, he.tail
    m = twin.size
    ids = np.arange(m)
    if nxt.min() < 0 or nxt.max() >= m or np.any(np.bincount(nxt, minlength=m) != 1):
        raise ValueError("nxt is not a permutation of the darts")
    if twin.min() < 0 or twin.max() >= m or np.any(twin == ids) or np.any(twin[twin] != ids):
        raise ValueError("twin is not a fixed-point-free involution")
    if np.any(tail[nxt] != tail):
        raise ValueError("nxt mixes darts of different vertices")
    low = he.__dict__.pop("_rotation_mins", None)  # load_map's, not kept: 8 B/dart
    owners = tail[(_cycle_mins(nxt) if low is None else low) == ids]  # one tail per rotation cycle
    n_vertices = owners.size
    # distinct ids inside 0..V-1 are exactly 0..V-1
    in_range = owners.min() >= 0 and owners.max() < n_vertices
    if in_range:
        split = np.bincount(owners).max() > 1
    else:
        split = np.unique(owners).size < n_vertices
    if split:
        raise ValueError("vertex split across several rotation cycles")
    if not in_range:
        raise ValueError("vertex ids must be 0..V-1")
    # each vertex is one rotation cycle, so darts connect iff vertices do
    edges = twin > ids  # each edge by its smaller dart
    del ids  # freed before the connectivity rounds
    if not _connected(tail[edges], tail[twin[edges]], n_vertices):
        raise ValueError("map is not connected")
    if n_vertices - m // 2 + he.n_faces != 2:
        raise ValueError("map is not of genus 0")


def _connected(u: np.ndarray, v: np.ndarray, n_vertices: int) -> bool:
    """Whether the edges {u[i], v[i]} connect the vertices 0..n_vertices-1.
    A round hooks each star's root to the least root across its edges and
    compresses the trees to stars (Shiloach and Vishkin 1982): O(log V)
    rounds in practice, whatever the diameter.  A root stays the least
    vertex of its star, so the graph is connected iff every root ends at 0."""
    root = np.arange(n_vertices)
    while True:
        ru, rv = root[u], root[v]
        apart = ru != rv
        if not apart.any():
            return not root.any()
        u, v = u[apart], v[apart]  # two at a time: the old pair dies first
        ru, rv = ru[apart], rv[apart]
        np.minimum.at(root, np.maximum(ru, rv), np.minimum(ru, rv))
        del ru, rv  # dead before the next round's
        jumped = root[root]
        while not np.array_equal(jumped, root):
            root, jumped = jumped, jumped[jumped]


def _rotation_arrays(rotations) -> tuple[np.ndarray, np.ndarray]:
    """(nxt, tail) of per-vertex dart lists in rotation order, which must
    list every dart 0..m-1 once."""
    flat, sizes = _int64_lists(rotations, "rotations")
    if not np.array_equal(np.sort(flat), np.arange(flat.size)):
        raise ValueError("rotations must list every dart 0..m-1 exactly once")
    return _csr_rotation_arrays(flat, sizes)


def _csr_rotation_arrays(flat: np.ndarray, sizes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(nxt, tail) of rotation lists given as one flat array listing every
    dart 0..m-1 once, vertex v's ``sizes[v]`` darts after vertex v - 1's."""
    m = flat.size
    ends = np.cumsum(sizes)
    succ = np.arange(1, m + 1)
    succ[ends[sizes > 0] - 1] = (ends - sizes)[sizes > 0]  # last of a list -> its first
    nxt = np.empty(m, dtype=np.int64)
    tail = np.empty(m, dtype=np.int64)
    nxt[flat] = flat[succ]
    tail[flat] = np.repeat(np.arange(len(sizes)), sizes)
    return nxt, tail


def _array_map(twin: np.ndarray, nxt: np.ndarray, tail: np.ndarray) -> HalfEdgeMap:
    """Map of new one-dimensional int64 arrays, owned by no one else, that a
    library construction made valid (no re-check); they become read-only."""
    return _trusted(HalfEdgeMap, twin=twin, nxt=nxt, tail=tail)


def _union(stack: np.ndarray, size: int) -> np.ndarray:
    """A stack of per-map index arrays (map b in row b, entries in
    [0, size)) as indices into the maps' disjoint union, where map b's
    entries are offset by b * size; the map axis merges into the next.  A
    stack of one map is returned as a view, so it must not be written."""
    if len(stack) > 1:
        stack = stack + size * np.arange(len(stack)).reshape((-1,) + (1,) * (stack.ndim - 1))
    return stack.reshape((-1,) + stack.shape[2:])


def _bfs_arrays(twin: np.ndarray, tail: np.ndarray, n_vertices: int, origin) -> np.ndarray:
    """Frontier BFS over the vertex -> dart CSR of ``tail``, for (B, m)
    stacks of maps with ``n_vertices`` vertices each and one origin per
    map, giving a (B, n_vertices) stack of distances; -1 marks a vertex
    that its map's origin does not reach.  A stack runs as the disjoint
    union of its maps, whose components never meet.  A level dedupes its
    unvisited heads without a sort: each writes its slot to ``owner``, and
    the entries that read their own slot back form the next frontier.
    """
    count = len(twin)
    tail = _union(tail, n_vertices)
    heads = tail[_union(twin, twin.shape[1])]
    total = count * n_vertices
    by_vertex = _stable_order(tail)
    heads = heads[by_vertex]
    first = np.zeros(total + 1, dtype=np.int64)
    np.cumsum(np.bincount(tail, minlength=total), out=first[1:])
    dist = np.full(total, -1, dtype=np.int64)
    owner = np.empty(total, dtype=np.int64)
    frontier = _union(np.asarray(origin), n_vertices)
    dist[frontier] = 0
    level = 0
    while frontier.size:
        level += 1
        lo, sizes = first[frontier], first[frontier + 1] - first[frontier]
        # positions lo[i] .. lo[i] + sizes[i] - 1, concatenated
        pos = np.arange(sizes.sum()) + np.repeat(lo - np.cumsum(sizes) + sizes, sizes)
        seen = heads[pos]
        seen = seen[dist[seen] < 0]
        # whichever write to a vertex wins, exactly one of its entries reads
        # its slot back; the distances do not depend on the frontier's order
        slot = np.arange(seen.size)
        owner[seen] = slot
        frontier = seen[owner[seen] == slot]
        dist[frontier] = level
    return dist.reshape(count, n_vertices)


def _ascii_ints(values: np.ndarray) -> bytes:
    """``",".join(map(str, values))`` in ASCII for a one-dimensional array
    of nonnegative int64 values.  Each value is written as ``width``
    digits, each ``rest - 10 * (rest // 10)``, and a comma; a leading zero
    is a NUL byte, and one ``translate`` deletes them all."""
    width = len(str(int(values.max())))
    rest = values.astype(np.uint32 if width < 10 else np.uint64)
    chars = np.full((rest.size, width + 1), ord(","), dtype=np.uint8)
    for column in range(width - 1, -1, -1):
        quot = rest // 10
        to_ascii = ord("0") if column == width - 1 else np.uint8(ord("0")) * (rest > 0)
        chars[:, column] = rest - 10 * quot + to_ascii
        rest = quot
    return chars.tobytes().translate(None, b"\0")[:-1]


def _rooted_code_arrays(nxt: np.ndarray, twin: np.ndarray, root) -> list[bytes]:
    """:func:`rooted_code` by levels of the dart BFS, for (R, m) stacks of
    maps and one root per row, giving the rows' 2m labels as ``8 * m``
    bytes of big-endian uint32 each.  Four bytes suffice: a map with 2^32
    darts cannot be held in memory (each int64 field would be 32 GiB).

    A level's candidates are its darts' (nxt, twin) images interleaved in
    queue order, each given a slot that grows across levels.  With
    ``np.minimum.at`` each dart keeps its first slot (the roots -1), so the
    candidates holding their dart's claim are the unseen ones, first
    occurrences in order: what the queue appends in that level.  A stack
    runs as the disjoint union of its rows: their searches never meet, so
    each row's darts keep their own queue order, and a stable sort by row
    recovers each row's queue.
    """
    count, m = nxt.shape
    nxt, twin = _union(nxt, m), _union(twin, m)
    level = _union(np.asarray(root), m)
    claim = np.full(nxt.size, np.iinfo(np.int64).max)
    claim[level] = -1
    levels, base = [level], 0
    while level.size:
        cand = np.empty(2 * level.size, dtype=np.int64)
        cand[0::2] = nxt[level]
        cand[1::2] = twin[level]
        slot = np.arange(base, base + cand.size)
        base += cand.size
        np.minimum.at(claim, cand, slot)
        level = cand[claim[cand] == slot]
        levels.append(level)
    order = np.concatenate(levels)
    del claim, levels
    if count > 1:
        order = order[_stable_order(order // m)]
    # labels in 32 bits, gathered with no int64 temporary, stored big-endian
    label = np.empty(nxt.size, dtype=np.uint32)
    label[order] = np.tile(np.arange(m, dtype=np.uint32), count)  # a row reaches all m darts
    parts = np.empty((count, 2 * m), dtype=">u4")
    parts[:, 0::2] = label[nxt][order].reshape(count, m)
    parts[:, 1::2] = label[twin][order].reshape(count, m)
    codes = parts.tobytes()
    return [codes[start:start + 8 * m] for start in range(0, len(codes), 8 * m)]


def _origin_rounds(nxt: np.ndarray, twin: np.ndarray, tail: np.ndarray, origin: int):
    """Rooted codes of each map of (B, m) stacks at every dart leaving the
    vertex ``origin``, in rounds: round k roots a copy of every map at its
    k-th such dart, by increasing dart, so no call stacks more than B
    maps.  Yields each round's rows, darts and codes."""
    rows, darts = np.nonzero(tail == origin)
    kth = np.arange(rows.size) - np.searchsorted(rows, rows)
    for k in range(kth.max() + 1):
        r, d = rows[kth == k], darts[kth == k]
        yield r, d, _rooted_code_arrays(nxt[r], twin[r], d)


def _pointed_code_arrays(nxt: np.ndarray, twin: np.ndarray, tail: np.ndarray, origin: int):
    """:func:`pointed_code` of each map of (B, m) stacks at the vertex
    ``origin``: the least, as bytes, of the rooted codes from its darts at
    the origin."""
    least: dict[int, bytes] = {}
    for rows, _, codes in _origin_rounds(nxt, twin, tail, origin):
        for row, code in zip(rows.tolist(), codes):
            least[row] = min(least.get(row, code), code)
    return [least[row] for row in range(len(tail))]


@dataclass(frozen=True)
class RootedMap:
    """General map with a distinguished oriented edge (root dart)."""

    map: HalfEdgeMap
    root: int

    def __post_init__(self) -> None:
        _index(self.root, "root", self.map.n_darts)

    @property
    def origin(self) -> int:
        """Start vertex of the root dart."""
        return int(self.map.tail[self.root])


@dataclass(frozen=True)
class PointedMap:
    """General map with a distinguished vertex (origin)."""

    map: HalfEdgeMap
    origin: int

    def __post_init__(self) -> None:
        _index(self.origin, "origin", self.map.n_vertices)


def validate_quadrangulation(m: HalfEdgeMap) -> bool:
    """True iff every face has degree 4.

    Connectivity and genus 0 already hold for any ``HalfEdgeMap``.
    Multiple edges are allowed.  The map caches the f^4 check, which
    ``n_faces`` shares, so a checked map runs it once.
    """
    # a genus-0 map whose faces all have even degree is bipartite, so it has
    # no loop; and 4F = 2E darts give E = 2F, so Euler gives V = F + 2
    return m._quadrangular


def _quad_faces(f: np.ndarray) -> np.ndarray:
    """The faces of a quadrangulation, or of a stack's disjoint union, from
    its face permutation f = nxt o twin, as an (F, 4) array: each face the
    4-cycle (d, f(d), f^2(d), f^3(d)) from its least dart d, in increasing
    order of d, which is the ``faces`` order."""
    f2 = f[f]
    f3 = f[f2]
    ids = np.arange(f.size)
    first = np.flatnonzero((ids < f) & (ids < f2) & (ids < f3))
    return np.stack((first, f[first], f2[first], f3[first]), axis=1)


@dataclass(frozen=True)
class RootedQuadrangulation(RootedMap):
    """Quadrangulation with a root dart; n faces, 2n edges, n+2 vertices."""

    def __post_init__(self) -> None:
        super().__post_init__()
        if not validate_quadrangulation(self.map):
            raise ValueError("not a quadrangulation")

    @property
    def n(self) -> int:
        """Face count: E = 2F on a quadrangulation."""
        return self.map.n_edges // 2


@dataclass(frozen=True)
class PointedQuadrangulation(PointedMap):
    """Quadrangulation with a distinguished origin vertex, no root edge."""

    def __post_init__(self) -> None:
        super().__post_init__()
        if not validate_quadrangulation(self.map):
            raise ValueError("not a quadrangulation")

    @property
    def n(self) -> int:
        """Face count: E = 2F on a quadrangulation."""
        return self.map.n_edges // 2


# -- metrics -----------------------------------------------------------


def bfs_distances(m: HalfEdgeMap, origin: int) -> np.ndarray:
    """Graph distance from ``origin`` to every vertex, as a read-only int64
    array indexed by vertex id.  The map keeps the last origin's array, so
    asking again for that origin runs no BFS."""
    origin = _index(origin, "origin", m.n_vertices)
    cached = m.__dict__.get("_origin_distances")
    if cached is None or cached[0] != origin:
        dist = _bfs_arrays(m.twin[None], m.tail[None], m.n_vertices, [origin])[0]
        dist.flags.writeable = False
        cached = (origin, dist)
        object.__setattr__(m, "_origin_distances", cached)  # not a field: == ignores it
    return cached[1]


def radius(q: RootedMap | PointedMap) -> int:
    """Largest distance from the origin to a vertex."""
    return int(bfs_distances(q.map, q.origin).max())


def profile(q: RootedMap | PointedMap) -> list[float]:
    """Cumulative edge proportions by distance.

    Entry j is the fraction of edges whose nearer endpoint lies at distance
    at most j from the origin; the sequence is nondecreasing and its last
    entry equals 1.  That entry is j = radius - 1 on a bipartite map, such
    as a quadrangulation, and j = radius on a map with an edge joining two
    vertices at the largest distance.
    """
    m = q.map
    dist = bfs_distances(m, q.origin)
    near = np.minimum(dist[m.tail[0::2]], dist[m.tail[m.twin[0::2]]])
    return (np.cumsum(np.bincount(near)) / m.n_edges).tolist()


# -- canonical codes ----------------------------------------------------


def rooted_code(m: HalfEdgeMap, root: int) -> bytes:
    """Canonical code of (m, root); equal iff rooted-isomorphic.

    Darts are relabeled breadth-first from the root along the rotation and
    twin permutations, which is invariant under dart renaming; in that order
    each dart's nxt and twin labels follow as ``8 * n_darts`` bytes of
    big-endian uint32, so bytes compare as the label sequences do.
    """
    root = _index(root, "root", m.n_darts)
    return _rooted_code_arrays(m.nxt[None], m.twin[None], [root])[0]


def pointed_code(m: HalfEdgeMap, origin: int) -> bytes:
    """Least of the rooted codes over darts at the origin, as bytes, which
    is the lexicographic minimum of their label sequences."""
    origin = _index(origin, "origin", m.n_vertices)
    return _pointed_code_arrays(m.nxt[None], m.twin[None], m.tail[None], origin)[0]


def canonical_code(obj: RootedMap | PointedMap) -> bytes:
    """Canonical code of a rooted or pointed map (or quadrangulation): the
    big-endian uint32 labels of :func:`rooted_code` or :func:`pointed_code`."""
    if isinstance(obj, PointedMap):
        return pointed_code(obj.map, obj.origin)
    return rooted_code(obj.map, obj.root)


# -- maps <-> quadrangulations ------------------------------------------


def quad_of_map(m: RootedMap | PointedMap):
    """Quadrangulation with one face per corner-wedge of each face of ``m``.

    Every map with n edges yields a quadrangulation with n faces: a new
    vertex is placed in each face of ``m`` and joined to each of its
    corners; the original edges are dropped.  Vertex ids keep the original
    vertices first, then one vertex per face of ``m`` by least dart.
    """
    he = m.map
    # dart d becomes 2d at its vertex and 2d+1 at its face's vertex, whose
    # rotation runs against the boundary; faces are numbered by least dart
    f = he.nxt[he.twin]
    low = _cycle_mins(f)
    nxt = np.empty(2 * he.n_darts, dtype=np.int64)
    nxt[0::2], nxt[2 * f + 1] = 2 * he.nxt, 2 * np.arange(he.n_darts) + 1
    face = he.n_vertices - 1 + np.cumsum(low == np.arange(low.size))[low]
    tail = np.stack((he.tail, face), axis=1).ravel()
    quad = _array_map(np.arange(nxt.size) ^ 1, nxt, tail)
    if isinstance(m, RootedMap):
        return _trusted(RootedQuadrangulation, map=quad, root=2 * m.root)
    return _trusted(PointedQuadrangulation, map=quad, origin=m.origin)


def map_of_quad(q: RootedQuadrangulation | PointedQuadrangulation):
    """Inverse of :func:`quad_of_map`.

    Vertices at even distance from the origin are kept; in each face the
    diagonal between its two even corners becomes an edge of the result.
    """
    if not isinstance(q, (RootedQuadrangulation, PointedQuadrangulation)):
        raise TypeError("map_of_quad needs a rooted or pointed quadrangulation")
    he = q.map
    even = bfs_distances(he, q.origin) % 2 == 0
    # face k's two even corners, in face order, host the darts 2k and 2k+1;
    # corners alternate in parity, so every dart at an even vertex hosts one
    darts = _quad_faces(he.nxt[he.twin]).ravel()
    host = darts[even[he.tail[darts]]]
    attach = np.empty(he.n_darts, dtype=np.int64)
    attach[host] = np.arange(host.size)
    nxt, tail = attach[he.nxt[host]], (np.cumsum(even) - 1)[he.tail[host]]
    out = _array_map(np.arange(nxt.size) ^ 1, nxt, tail)
    if isinstance(q, RootedMap):
        # root on the diagonal of the face on the far side of the root dart
        return _trusted(RootedMap, map=out, root=int(attach[he.nxt[q.root]]))
    return _trusted(PointedMap, map=out, origin=int(np.count_nonzero(even[: q.origin])))


# -- serialization -------------------------------------------------------


def save_map(obj) -> str:
    """Serialize a rooted or pointed map (or quadrangulation) as text.

    Four lines: ``n=<edge count>``, the twin array, the rotation-successor
    array, then either the root dart or ``origin=<vertex>``.  Vertex ids in
    the origin line refer to rotation cycles ordered by their smallest dart,
    so the text round-trips bit-exactly through :func:`load_map`; the map,
    renumbered by those cycles, need not: compare texts or canonical codes.
    """
    m = obj.map
    lines = [f"n={m.n_edges}", *(_ascii_ints(a).decode("ascii") for a in (m.twin, m.nxt))]
    if isinstance(obj, RootedMap):
        lines.append(str(obj.root))
    else:  # the smallest darts of the rotation cycles, ascending, number the vertices
        first = np.flatnonzero(_cycle_mins(m.nxt) == np.arange(m.n_darts))
        lines.append(f"origin={np.searchsorted(first, np.argmax(m.tail == obj.origin))}")
    return "\n".join(lines) + "\n"


def load_map(text: str) -> RootedMap | PointedMap:
    """Parse :func:`save_map` output; returns the matching rooted/pointed type,
    a quadrangulation type whenever the map is one, holding the parsed arrays."""
    lines = text.splitlines()
    # text.strip().splitlines() without copying the text: line breaks are whitespace
    kept = [k for k, line in enumerate(lines) if line and not line.isspace()]
    lines = lines[kept[0] : kept[-1] + 1] if kept else []
    if len(lines) != 4 or not lines[0].lstrip().startswith("n="):
        raise ValueError("malformed map text")
    n_edges = _int_field(lines[0].lstrip()[2:], "edge count")
    mark = lines[3].rstrip()
    twin = _int_line(lines.pop(1), "map text: the twin line")  # each line freed once read
    nxt = _int_line(lines.pop(1), "map text: the rotation line")
    if twin.size != 2 * n_edges:
        raise ValueError("edge count does not match dart arrays")
    if nxt.min() < 0 or nxt.max() >= nxt.size:
        raise ValueError("rotation array entry is not a dart index")
    # vertices are numbered by the smallest darts of their rotation cycles,
    # handed to the cycle check (which a non-permutation nxt never reaches)
    low = _cycle_mins(nxt)
    tail = (np.cumsum(low == np.arange(low.size)) - 1)[low]
    he = _trusted(HalfEdgeMap, twin=twin, nxt=nxt, tail=tail)
    he.__dict__["_rotation_mins"] = low
    he.__post_init__()
    if mark.startswith("origin="):
        general, quad = PointedMap, PointedQuadrangulation
        mark = _int_field(mark[7:], "origin")
    else:
        general, quad = RootedMap, RootedQuadrangulation
        mark = _int_field(mark, "root")
    obj = general(he, mark)
    # the quadrangulation types add only the check made here
    return _trusted(quad, **vars(obj)) if validate_quadrangulation(he) else obj


def _int_field(line: str, name: str) -> int:
    """The one integer of a map text line; else a ValueError naming the line."""
    values = _int_line(line, f"map text: the {name} line")
    if values.size != 1:
        raise ValueError(f"map text: the {name} line is not one integer: {line[:40]!r}")
    return int(values[0])
