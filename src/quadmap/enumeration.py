"""Exhaustive small-size listings and exact counting identities.

Everything here is exact: listings are complete and duplicate-free, laws
are tables of rationals summing to 1.  Resource bounds keep the whole
module usable inside a test suite (n <= 6 for listings and orbit
decompositions, n <= 4 for law tables).  Counts, orbits and laws come
from array listings of the walks and label processes, one kernel call per
size for the whole family; only the listings that return objects build them.
The pointed laws' tv distance and Walkup's count list nothing: they count
the trees each rerooting fixes, at every n.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from math import comb, isqrt

import numpy as np

from .labeled import Encoding, LabeledTree, _node_labels
from .paths import _reroot_arrays, _reroot_keys, contour_accumulate, contour_edges
from .planar_map import (
    RootedQuadrangulation,
    _array_map,
    _bfs_arrays,
    _pointed_code_arrays,
    _rooted_code_arrays,
)
from .schaeffer import _chord_arrays
from .trees import PlaneTree, Walk, _integer, _trusted

__all__ = [
    "MAX_LISTING_N",
    "MAX_ORBIT_N",
    "MAX_LAW_N",
    "catalan",
    "enumerate_family",
    "plane_trees",
    "labeled_trees",
    "well_labeled_trees",
    "rooted_quads",
    "walkup_count",
    "unrooted_plane_tree_count",
    "Orbit",
    "OrbitDecomposition",
    "orbit_decomposition",
    "PointedLaw",
    "RootedLaw",
    "LawTables",
    "law_tables",
    "tv_distance",
]

MAX_LISTING_N = 6
MAX_ORBIT_N = 6
MAX_LAW_N = 4


def catalan(n: int) -> int:
    n = _integer(n, "n")
    return comb(2 * n, n) // (n + 1)


def _check_bound(n, bound: int) -> int:
    n = _integer(n, "n")
    if n < 1:
        raise ValueError("n must be >= 1")
    if n > bound:
        raise ValueError(f"n={n} exceeds the exhaustive bound {bound}")
    return n


def _walks(n: int) -> np.ndarray:
    """The C_n Dyck walks with n up-steps as a (C_n, 2n+1) int64 array in
    lexicographic order, up-steps first: the 2n-bit words read in
    decreasing order, bit 1 an up-step, kept when their walk stays
    nonnegative and ends at 0."""
    words = np.arange(4**n - 1, -1, -1)
    ups = (words[:, None] >> np.arange(2 * n - 1, -1, -1)) & 1
    walks = np.zeros((words.size, 2 * n + 1), dtype=np.int64)
    np.cumsum(2 * ups - 1, axis=1, out=walks[:, 1:])
    return walks[(walks.min(axis=1) >= 0) & (walks[:, -1] == 0)]


def plane_trees(n: int) -> list[PlaneTree]:
    """All C_n plane trees with n edges."""
    walks = _walks(_check_bound(n, MAX_LISTING_N))
    return [_trusted(PlaneTree, walk=_trusted(Walk, steps=walk)) for walk in walks]


def labeled_trees(n: int) -> list[LabeledTree]:
    """All C_n * 3^n labeled trees with n edges."""
    return _labeled_tree_list(*_encoding_arrays(_check_bound(n, MAX_LISTING_N)))


def well_labeled_trees(n: int) -> list[LabeledTree]:
    """All well-labeled trees with n edges, in :func:`labeled_trees` order."""
    return _labeled_tree_list(*_well_labeled_arrays(_check_bound(n, MAX_LISTING_N)))


def _labeled_tree_list(labels, walks, shape) -> list[LabeledTree]:
    """Labeled trees of :func:`_encoding_arrays` rows, sharing plane tree objects."""
    node_labels = _node_labels(labels, walks[shape])
    trees = plane_trees(len(walks[0]) // 2)
    return [
        _trusted(LabeledTree, tree=trees[s], labels=row)
        for s, row in zip(shape.tolist(), node_labels)
    ]


def _encoding_arrays(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Label processes of all C_n 3^n labeled trees with n edges, as an
    (N, 2n+1) array in :func:`labeled_trees` order, the C_n contour walks,
    and the walk row of each tree.

    Node u's label increment is column u-1 of ``product((-1, 0, 1),
    repeat=n)`` and sits on the edge the contour climbs at node u's first
    visit.  A label process is linear in the increments, so each walk's
    processes are one product with the n processes ``contour_accumulate``
    gives for a single unit increment.
    """
    walks = _walks(n)
    units = np.repeat(walks, n, axis=0)  # row (c, u-1): walk c, unit increment at node u
    climbs = contour_edges(units)[units[:, 1:] > units[:, :-1]].reshape(len(units), n)
    values = np.zeros(len(units) * n, dtype=np.int64)
    values[climbs[np.arange(len(units)), np.tile(np.arange(n), len(walks))]] = 1
    unit_labels = contour_accumulate(units, values).reshape(len(walks), n, 2 * n + 1)
    incs = np.array(list(product((-1, 0, 1), repeat=n)), dtype=np.int64)
    labels = (incs @ unit_labels).reshape(-1, 2 * n + 1)
    labels += 1
    return labels, walks, np.repeat(np.arange(len(walks)), len(incs))


def _well_labeled_arrays(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """:func:`_encoding_arrays` without the rows whose least label is below
    1, so of the well-labeled trees only."""
    labels, walks, shape = _encoding_arrays(n)
    keep = labels.min(axis=1) >= 1
    return labels[keep], walks, shape[keep]


def rooted_quads(n: int):
    """All rooted quadrangulations with n faces (images of the bijection)."""
    labels, walks, shape = _well_labeled_arrays(_check_bound(n, MAX_LISTING_N))
    # each map copies its rows, so that keeping one map keeps no stack alive
    return [
        _trusted(RootedQuadrangulation, map=_array_map(*(a.copy() for a in arrays)), root=1)
        for arrays in zip(*_chord_arrays(labels[:, :-1], walks[shape]))
    ]


_FAMILIES = {
    "plane_trees": plane_trees,
    "labeled_trees": labeled_trees,
    "well_labeled": well_labeled_trees,
    "rooted_quads": rooted_quads,
}

FAMILY_KINDS = tuple(sorted(_FAMILIES))


def enumerate_family(n: int, kind: str) -> list:
    """Complete duplicate-free listing of one combinatorial family."""
    if not isinstance(kind, str) or kind not in _FAMILIES:
        raise ValueError(f"kind must be one of {sorted(_FAMILIES)}, got {kind!r}")
    return _FAMILIES[kind](n)


def _family_counts(n: int) -> dict[str, int]:
    """``len(enumerate_family(n, kind))`` by kind, as row counts."""
    labels, walks, _ = _encoding_arrays(_check_bound(n, MAX_LISTING_N))
    well = int(np.count_nonzero(labels.min(axis=1) >= 1))  # one quad per well-labeled row
    kinds = {"labeled_trees": len(labels), "plane_trees": len(walks)}
    return kinds | {"rooted_quads": well, "well_labeled": well}


# -- unrooted counts -------------------------------------------------------


def unrooted_plane_tree_count(n: int) -> int:
    """Number of rerooting classes of plane trees with n edges (exhaustive)."""
    walks = _walks(_check_bound(n, MAX_LISTING_N))
    keys = _reroot_keys(np.ones_like(walks), walks, np.arange(len(walks)))
    return len(np.unique(keys.min(axis=1)))


def walkup_count(n: int) -> int:
    """Closed-form count of unrooted plane trees with n edges: the
    rerooting orbits of :func:`_stabilizer_counts` with one color."""
    return sum(_stabilizer_counts(n, 1).values())


def _stabilizer_counts(n: int, colors: int) -> dict[int, int]:
    """Rerooting orbits of the C_n colors^n plane trees with n edges and
    ``colors`` labels per edge, by stabilizer order k | 2n (orders with no
    orbit left out).  The rotation of order d fixes C_n colors^n trees at
    d = 1, C(2s, s) colors^s for d | n with s = n/d, C(n, s) colors^s with
    s = (n-1)/2 at d = 2 for odd n, and none otherwise (Walkup 1972,
    Liskovets 1981).  Removing from fix(k) the trees of the stabilizers
    above k, largest first, is the Moebius inversion over k | d | 2n."""
    n = _integer(n, "n")
    if n < 1:
        raise ValueError("n must be >= 1")
    small = [d for d in range(1, isqrt(2 * n) + 1) if 2 * n % d == 0]
    divisors = sorted({*small, *(2 * n // d for d in small)})
    fixed = {d: comb(2 * (n // d), n // d) * colors ** (n // d) for d in divisors[1:] if n % d == 0}
    fixed[1] = catalan(n) * colors**n
    if n % 2:  # the half-turn about a middle edge
        fixed[2] = comb(n, n // 2) * colors ** (n // 2)
    exact: dict[int, int] = {}  # trees by their stabilizer order
    for k in reversed(divisors):
        exact[k] = fixed.get(k, 0) - sum(e for d, e in exact.items() if d % k == 0)
    return {k: e * k // (2 * n) for k, e in sorted(exact.items()) if e}  # orbits of 2n/k trees


# -- rerooting orbits ------------------------------------------------------


@dataclass(frozen=True)
class Orbit:
    """One rerooting class: a representative encoding, the class size and
    the common stabilizer size (their product is 2n)."""

    representative: Encoding
    size: int
    stabilizer: int


@dataclass(frozen=True)
class OrbitDecomposition:
    n: int
    orbits: tuple[Orbit, ...]

    @property
    def n_orbits(self) -> int:
        return len(self.orbits)

    @property
    def total(self) -> int:
        return sum(o.size for o in self.orbits)


def orbit_decomposition(n: int) -> OrbitDecomposition:
    """Rerooting classes of all labeled trees with n edges."""
    n = _check_bound(n, MAX_ORBIT_N)
    labels, walks, shape = _encoding_arrays(n)
    keys = _reroot_keys(labels, walks, shape)
    theta = keys.argmin(axis=1)
    # one tree per orbit, the orbits in order of their least key
    _, first = np.unique(keys[np.arange(len(keys)), theta], return_index=True)
    keys, theta = keys[first], theta[first]
    stabilizers = np.count_nonzero(keys == keys[:, :1], axis=1)
    sizes = 2 * n // stabilizers
    reps = _reroot_arrays(labels[first], walks[shape[first]], theta)
    orbits = tuple(
        Orbit(_trusted(Encoding, labels=lab, walk=_trusted(Walk, steps=walk)), size, stab)
        for lab, walk, size, stab in zip(*reps, sizes.tolist(), stabilizers.tolist())
    )
    return OrbitDecomposition(n, orbits)


# -- exact laws ------------------------------------------------------------


@dataclass(frozen=True)
class PointedLaw:
    """One pointed quadrangulation: canonical code, a couple of readable
    descriptors, and its probability under the uniform and the
    tree-image laws."""

    code: bytes
    origin_degree: int
    radius: int
    p_u: Fraction
    p_s: Fraction


@dataclass(frozen=True)
class RootedLaw:
    """One rooted quadrangulation with its root-degree-weighted probability."""

    code: bytes
    root_degree: int
    p_d: Fraction


@dataclass(frozen=True)
class LawTables:
    n: int
    pointed: tuple[PointedLaw, ...]
    rooted: tuple[RootedLaw, ...]


def law_tables(n: int) -> LawTables:
    """Exact distributions at size n.

    Pointed side: the uniform law and the image of the uniform labeled-tree
    law under positivize-construct-point.  Rooted side: the law weighting
    each rooted quadrangulation by 2n / (C_n 3^n root-degree).
    """
    n = _check_bound(n, MAX_LAW_N)
    total = catalan(n) * 3**n
    labels, walks, shape = _encoding_arrays(n)
    # positivize: reroot every tree at its first label minimum
    body = labels[:, :-1]
    positive, walks = _reroot_arrays(labels, walks[shape], body.argmin(axis=1))
    twin, nxt, tail = _chord_arrays(positive[:, :-1], walks)
    origins = np.zeros(len(labels), dtype=np.int64)  # vertex 0, the root dart's tail
    degrees = np.count_nonzero(tail == 0, axis=1).tolist()
    radii = _bfs_arrays(twin, tail, n + 2, origins).max(axis=1).tolist()
    pointed = _void(_pointed_code_arrays(nxt, twin, tail, 0))
    codes, first, counts = np.unique(pointed, return_index=True, return_counts=True)
    pointed_rows = tuple(
        PointedLaw(code, degrees[i], radii[i], Fraction(1, len(codes)), Fraction(c, total))
        for code, i, c in zip(codes.tolist(), first.tolist(), counts.tolist())
    )
    # well-labeled trees are their own positive representatives
    well = np.flatnonzero(body.min(axis=1) >= 1)
    rooted = _void(_rooted_code_arrays(nxt[well], twin[well], np.ones_like(well)))
    codes, first = np.unique(rooted, return_index=True)
    rooted_rows = tuple(
        RootedLaw(code, degrees[i], Fraction(2 * n, total * degrees[i]))
        for code, i in zip(codes.tolist(), well[first].tolist())
    )
    return LawTables(n, pointed_rows, rooted_rows)


def _void(codes: list[bytes]) -> np.ndarray:
    """Equal-length codes as void items, which compare as their bytes and,
    unlike an ``S`` dtype, keep trailing NUL bytes."""
    return np.frombuffer(b"".join(codes), dtype=f"V{len(codes[0])}")


def tv_distance(n: int) -> Fraction:
    """Total-variation distance between the two pointed laws at size n >= 1:
    an orbit of :func:`_stabilizer_counts` is one pointed map, of uniform
    mass 1/N and tree-image mass 2n / (k C_n 3^n) at stabilizer order k."""
    orbits = _stabilizer_counts(n, 3)
    n, count, total = int(n), sum(orbits.values()), catalan(n) * 3**n
    # over the common denominator 4n N C_n 3^n: a_k orbits of 2n/k trees
    gaps = sum(a * (2 * n // k) * abs(k * total - 2 * n * count) for k, a in orbits.items())
    return Fraction(gaps, 4 * n * count * total)
