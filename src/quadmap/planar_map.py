"""Rotation-system (half-edge) planar maps.

A map is stored as two permutations of its darts: ``twin`` swaps the two
darts of each edge and ``nxt`` is the rotation successor around the dart's
origin vertex.  Faces are the orbits of d -> nxt[twin[d]].  Every
``HalfEdgeMap`` is a connected genus-0 map: the public constructor,
``from_rotations`` and ``load_map`` enforce connectivity and the Euler
relation V - E + F = 2, and the maps this library derives from valid
values (``quad_of_map``, ``map_of_quad``, the chord bijection) satisfy
them by construction, so they skip the check.  Instances are immutable;
BFS helpers allocate their own scratch and may be called concurrently.
"""
from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

from .trees import _trusted

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


@dataclass(frozen=True)
class HalfEdgeMap:
    """Connected genus-0 map given by its twin involution and rotations.

    ``tail[d]`` is the origin vertex of dart d; vertex ids are whatever the
    constructor supplied (``from_rotations`` numbers them by list position).
    """

    twin: tuple[int, ...]
    nxt: tuple[int, ...]
    tail: tuple[int, ...]

    def __post_init__(self) -> None:
        twin = tuple(int(x) for x in self.twin)
        nxt = tuple(int(x) for x in self.nxt)
        tail = tuple(int(x) for x in self.tail)
        object.__setattr__(self, "twin", twin)
        object.__setattr__(self, "nxt", nxt)
        object.__setattr__(self, "tail", tail)
        m = len(twin)
        if m == 0 or m % 2 or len(nxt) != m or len(tail) != m:
            raise ValueError("twin, nxt and tail must have equal positive even length")
        if sorted(nxt) != list(range(m)):
            raise ValueError("nxt is not a permutation of the darts")
        for d in range(m):
            t = twin[d]
            if not 0 <= t < m or t == d or twin[t] != d:
                raise ValueError("twin is not a fixed-point-free involution")
        for d in range(m):
            if tail[nxt[d]] != tail[d]:
                raise ValueError("nxt mixes darts of different vertices")
        # rotation cycles must cover each vertex exactly once
        vertices = set()
        for cyc in _orbits(nxt):
            if tail[cyc[0]] in vertices:
                raise ValueError("vertex split across several rotation cycles")
            vertices.add(tail[cyc[0]])
        if vertices != set(range(len(vertices))):
            raise ValueError("vertex ids must be 0..V-1")
        # connectivity under <nxt, twin>
        reach = [False] * m
        stack = [0]
        reach[0] = True
        while stack:
            d = stack.pop()
            for e in (nxt[d], twin[d]):
                if not reach[e]:
                    reach[e] = True
                    stack.append(e)
        if not all(reach):
            raise ValueError("map is not connected")
        if self.n_vertices - self.n_edges + self.n_faces != 2:
            raise ValueError("map is not of genus 0")

    # -- basic counts -------------------------------------------------

    @property
    def n_darts(self) -> int:
        return len(self.twin)

    @property
    def n_edges(self) -> int:
        return len(self.twin) // 2

    @cached_property
    def n_vertices(self) -> int:
        return max(self.tail) + 1

    @property
    def n_faces(self) -> int:
        return len(self.faces)

    def head(self, d: int) -> int:
        return self.tail[self.twin[d]]

    # -- orbits -------------------------------------------------------

    @cached_property
    def vertex_cycles(self) -> tuple[tuple[int, ...], ...]:
        """Rotation cycle (dart list) per vertex, indexed by vertex id."""
        cycles: list[tuple[int, ...]] = [()] * self.n_vertices
        for cyc in _orbits(self.nxt):
            cycles[self.tail[cyc[0]]] = cyc
        return tuple(cycles)

    @cached_property
    def faces(self) -> tuple[tuple[int, ...], ...]:
        """Orbits of the face permutation d -> nxt[twin[d]]."""
        nxt = self.nxt
        return tuple(_orbits([nxt[t] for t in self.twin]))

    def degree(self, v: int) -> int:
        return len(self.vertex_cycles[v])

    def has_loop(self) -> bool:
        return any(self.tail[d] == self.head(d) for d in range(0, self.n_darts, 2))

    @classmethod
    def from_rotations(
        cls,
        rotations: Sequence[Sequence[int]],
        twin: Sequence[int] | None = None,
    ) -> "HalfEdgeMap":
        """Build a map from per-vertex dart lists in rotation order.

        With ``twin`` omitted, dart 2e and 2e+1 are the two sides of edge e.
        """
        darts = sorted(d for cyc in rotations for d in cyc)
        if darts != list(range(len(darts))):
            raise ValueError("rotations must list every dart 0..m-1 exactly once")
        return cls(*_rotation_arrays(rotations, twin))


def _orbits(perm: Sequence[int]):
    """Cycles of ``perm`` in order of their smallest dart, each starting there."""
    seen = [False] * len(perm)
    for d in range(len(perm)):
        if seen[d]:
            continue
        cyc = []
        e = d
        while not seen[e]:
            seen[e] = True
            cyc.append(e)
            e = perm[e]
        yield tuple(cyc)


def _rotation_arrays(rotations, twin=None) -> tuple[tuple[int, ...], ...]:
    """(twin, nxt, tail) of per-vertex dart lists in rotation order."""
    m = sum(len(cyc) for cyc in rotations)
    nxt = [0] * m
    tail = [0] * m
    for v, cyc in enumerate(rotations):
        for i, d in enumerate(cyc):
            nxt[d] = cyc[(i + 1) % len(cyc)]
            tail[d] = v
    twin = tuple(d ^ 1 for d in range(m)) if twin is None else tuple(twin)
    return twin, tuple(nxt), tuple(tail)


def _rotation_map(rotations) -> HalfEdgeMap:
    """Map of rotations that a library construction made valid (no re-check)."""
    twin, nxt, tail = _rotation_arrays(rotations)
    return _trusted(HalfEdgeMap, twin=twin, nxt=nxt, tail=tail)


@dataclass(frozen=True)
class RootedMap:
    """General map with a distinguished oriented edge (root dart)."""

    map: HalfEdgeMap
    root: int

    def __post_init__(self) -> None:
        if not 0 <= self.root < self.map.n_darts:
            raise ValueError("root dart out of range")

    @property
    def origin(self) -> int:
        """Start vertex of the root dart."""
        return self.map.tail[self.root]


@dataclass(frozen=True)
class PointedMap:
    """General map with a distinguished vertex (origin)."""

    map: HalfEdgeMap
    origin: int

    def __post_init__(self) -> None:
        if not 0 <= self.origin < self.map.n_vertices:
            raise ValueError("origin vertex out of range")


def validate_quadrangulation(m: HalfEdgeMap) -> bool:
    """True iff every face has degree 4 and the map has no loop.

    Connectivity and genus 0 already hold for any ``HalfEdgeMap``.
    Multiple edges are allowed.
    """
    if m.has_loop():
        return False
    # the counts follow: 4F = 2E darts give E = 2F, and Euler gives V = F + 2
    return all(len(f) == 4 for f in m.faces)


@dataclass(frozen=True)
class RootedQuadrangulation(RootedMap):
    """Quadrangulation with a root dart; n faces, 2n edges, n+2 vertices."""

    def __post_init__(self) -> None:
        super().__post_init__()
        if not validate_quadrangulation(self.map):
            raise ValueError("not a quadrangulation")

    @property
    def n(self) -> int:
        """Face count."""
        return self.map.n_faces


@dataclass(frozen=True)
class PointedQuadrangulation(PointedMap):
    """Quadrangulation with a distinguished origin vertex, no root edge."""

    def __post_init__(self) -> None:
        super().__post_init__()
        if not validate_quadrangulation(self.map):
            raise ValueError("not a quadrangulation")

    @property
    def n(self) -> int:
        """Face count."""
        return self.map.n_faces


# -- metrics -----------------------------------------------------------


def bfs_distances(m: HalfEdgeMap, origin: int) -> tuple[int, ...]:
    """Graph distance from ``origin`` to every vertex."""
    dist = [-1] * m.n_vertices
    dist[origin] = 0
    queue = deque([origin])
    while queue:
        v = queue.popleft()
        for d in m.vertex_cycles[v]:
            w = m.head(d)
            if dist[w] < 0:
                dist[w] = dist[v] + 1
                queue.append(w)
    return tuple(dist)


def radius(q: RootedMap | PointedMap) -> int:
    """Largest distance from the origin to a vertex."""
    return max(bfs_distances(q.map, q.origin))


def profile(q: RootedMap | PointedMap) -> list[float]:
    """Cumulative edge proportions by distance.

    Entry j is the fraction of edges whose nearer endpoint lies at distance
    at most j from the origin; the sequence is nondecreasing and its last
    entry (j = radius - 1) equals 1.
    """
    dist = bfs_distances(q.map, q.origin)
    m = q.map
    rad = max(dist)
    counts = [0] * rad
    for d in range(0, m.n_darts, 2):
        counts[min(dist[m.tail[d]], dist[m.head(d)])] += 1
    total = m.n_edges
    out = []
    acc = 0
    for c in counts:
        acc += c
        out.append(acc / total)
    return out


# -- canonical codes ----------------------------------------------------


def rooted_code(m: HalfEdgeMap, root: int) -> bytes:
    """Canonical code of (m, root); equal iff rooted-isomorphic.

    Darts are relabeled breadth-first from the root along the rotation and
    twin permutations, which is invariant under dart renaming.
    """
    label = [-1] * m.n_darts
    label[root] = 0
    order = [root]
    i = 0
    while i < len(order):
        d = order[i]
        i += 1
        for e in (m.nxt[d], m.twin[d]):
            if label[e] < 0:
                label[e] = len(order)
                order.append(e)
    parts = []
    for d in order:
        parts.append(label[m.nxt[d]])
        parts.append(label[m.twin[d]])
    return bytes(",".join(map(str, parts)), "ascii")


def pointed_code(m: HalfEdgeMap, origin: int) -> bytes:
    """Lexicographic minimum of the rooted codes over darts at the origin."""
    return min(rooted_code(m, d) for d in m.vertex_cycles[origin])


def canonical_code(obj: RootedMap | PointedMap) -> bytes:
    """Canonical code of a rooted or pointed map (or quadrangulation)."""
    if isinstance(obj, PointedMap):
        return pointed_code(obj.map, obj.origin)
    return rooted_code(obj.map, obj.root)


# -- maps <-> quadrangulations ------------------------------------------


def quad_of_map(m: RootedMap | PointedMap):
    """Quadrangulation with one face per corner-wedge of each face of ``m``.

    Every map with n edges yields a quadrangulation with n faces: a new
    vertex is placed in each face of ``m`` and joined to each of its
    corners; the original edges are dropped.  Vertex ids keep the original
    vertices first, then one vertex per face of ``m``.
    """
    he = m.map
    rotations: list[list[int]] = [
        [2 * d for d in cyc] for cyc in he.vertex_cycles
    ]
    # the new face vertices sit inside the old faces, so their rotation runs
    # against the boundary orientation
    for face in he.faces:
        rotations.append([2 * d + 1 for d in reversed(face)])
    quad = _rotation_map(rotations)
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
    dist = bfs_distances(he, q.origin)
    # per face: the two darts whose tails are the even-parity corners
    attach: dict[int, int] = {}  # host dart -> new dart id
    for f, face in enumerate(he.faces):
        evens = [d for d in face if dist[he.tail[d]] % 2 == 0]
        attach[evens[0]] = 2 * f
        attach[evens[1]] = 2 * f + 1
    # new rotation around each even vertex: the diagonals in host-dart order
    old_vertices = [v for v in range(he.n_vertices) if dist[v] % 2 == 0]
    new_id = {v: i for i, v in enumerate(old_vertices)}
    rotations = []
    for v in old_vertices:
        rot = [attach[d] for d in he.vertex_cycles[v] if d in attach]
        rotations.append(rot)
    out = _rotation_map(rotations)
    if isinstance(q, RootedMap):
        # root on the diagonal of the face on the far side of the root dart
        return _trusted(RootedMap, map=out, root=attach[he.nxt[q.root]])
    return _trusted(PointedMap, map=out, origin=new_id[q.origin])


# -- serialization -------------------------------------------------------


def _canonical_origin_index(m: HalfEdgeMap, origin: int) -> int:
    """Index of the origin when vertices are numbered by smallest dart."""
    mins = sorted(min(cyc) for cyc in m.vertex_cycles)
    return mins.index(min(m.vertex_cycles[origin]))


def save_map(obj) -> str:
    """Serialize a rooted or pointed map (or quadrangulation) as text.

    Four lines: ``n=<edge count>``, the twin array, the rotation-successor
    array, then either the root dart or ``origin=<vertex>``.  Vertex ids in
    the origin line refer to rotation cycles ordered by their smallest dart,
    so the text round-trips bit-exactly through :func:`load_map`.
    """
    m = obj.map
    lines = [
        f"n={m.n_edges}",
        ",".join(map(str, m.twin)),
        ",".join(map(str, m.nxt)),
    ]
    if isinstance(obj, RootedMap):
        lines.append(str(obj.root))
    else:
        lines.append(f"origin={_canonical_origin_index(m, obj.origin)}")
    return "\n".join(lines) + "\n"


def load_map(text: str) -> RootedMap | PointedMap:
    """Parse :func:`save_map` output; returns the matching rooted/pointed type,
    a quadrangulation type whenever the map is one."""
    lines = text.strip().splitlines()
    if len(lines) != 4 or not lines[0].startswith("n="):
        raise ValueError("malformed map text")
    n_edges = int(lines[0][2:])
    twin = tuple(int(t) for t in lines[1].split(","))
    nxt = tuple(int(t) for t in lines[2].split(","))
    if len(twin) != 2 * n_edges:
        raise ValueError("edge count does not match dart arrays")
    m = len(nxt)
    if any(not 0 <= d < m for d in nxt):
        raise ValueError("rotation array entry is not a dart index")
    # vertices = cycles of nxt, numbered by smallest dart
    tail = [0] * m
    for v, cyc in enumerate(_orbits(nxt)):
        for d in cyc:
            tail[d] = v
    he = HalfEdgeMap(twin, nxt, tuple(tail))
    if lines[3].startswith("origin="):
        general, quad, mark = PointedMap, PointedQuadrangulation, int(lines[3][7:])
    else:
        general, quad, mark = RootedMap, RootedQuadrangulation, int(lines[3])
    obj = general(he, mark)
    # the quadrangulation types add only the check made here
    return _trusted(quad, **vars(obj)) if validate_quadrangulation(he) else obj
