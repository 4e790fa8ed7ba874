"""Exhaustive small-size listings and exact counting identities.

Everything here is exact: listings are complete and duplicate-free, laws
are tables of rationals summing to 1.  Resource bounds keep the whole
module usable inside a test suite (n <= 6 for listings, n <= 5 for orbit
decompositions, n <= 4 for law tables).
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from math import comb

from .labeled import (
    Encoding,
    LabeledTree,
    encode,
    is_well_labeled,
    reroot,
    to_positive,
)
from .planar_map import pointed_code, radius, rooted_code
from .schaeffer import point, quad_of_tree
from .trees import PlaneTree, Walk, _trusted, walk_to_tree

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
MAX_ORBIT_N = 5
MAX_LAW_N = 4


def catalan(n: int) -> int:
    return comb(2 * n, n) // (n + 1)


def _check_bound(n: int, bound: int) -> None:
    if n < 1:
        raise ValueError("n must be >= 1")
    if n > bound:
        raise ValueError(f"n={n} exceeds the exhaustive bound {bound}")


def _walks(n: int) -> list[tuple[int, ...]]:
    out: list[tuple[int, ...]] = []

    def extend(prefix: list[int], ups: int, downs: int) -> None:
        if ups == n and downs == n:
            out.append(tuple(prefix))
            return
        if ups < n:
            prefix.append(prefix[-1] + 1)
            extend(prefix, ups + 1, downs)
            prefix.pop()
        if downs < ups:
            prefix.append(prefix[-1] - 1)
            extend(prefix, ups, downs + 1)
            prefix.pop()

    extend([0], 0, 0)
    return out


def plane_trees(n: int) -> list[PlaneTree]:
    """All C_n plane trees with n edges."""
    _check_bound(n, MAX_LISTING_N)
    return [walk_to_tree(_trusted(Walk, steps=w)) for w in _walks(n)]


def labeled_trees(n: int) -> list[LabeledTree]:
    """All C_n * 3^n labeled trees with n edges."""
    _check_bound(n, MAX_LISTING_N)
    out = []
    for tree in plane_trees(n):
        for incs in product((-1, 0, 1), repeat=n):
            labels = [1] * tree.n_nodes
            for u in range(1, tree.n_nodes):
                labels[u] = labels[tree.parent[u]] + incs[u - 1]
            out.append(_trusted(LabeledTree, tree=tree, labels=tuple(labels)))
    return out


def well_labeled_trees(n: int) -> list[LabeledTree]:
    """All well-labeled trees with n edges."""
    return [t for t in labeled_trees(n) if is_well_labeled(t)]


def rooted_quads(n: int):
    """All rooted quadrangulations with n faces (images of the bijection)."""
    return [quad_of_tree(t) for t in well_labeled_trees(n)]


_FAMILIES = {
    "plane_trees": plane_trees,
    "labeled_trees": labeled_trees,
    "well_labeled": well_labeled_trees,
    "rooted_quads": rooted_quads,
}

FAMILY_KINDS = tuple(sorted(_FAMILIES))


def enumerate_family(n: int, kind: str) -> list:
    """Complete duplicate-free listing of one combinatorial family."""
    if kind not in _FAMILIES:
        raise ValueError(f"kind must be one of {sorted(_FAMILIES)}")
    return _FAMILIES[kind](n)


# -- unrooted counts -------------------------------------------------------


def _euler_phi(n: int) -> int:
    out = n
    p = 2
    m = n
    while p * p <= m:
        if m % p == 0:
            while m % p == 0:
                m //= p
            out -= out // p
        p += 1
    if m > 1:
        out -= out // m
    return out


def _reroot_walk(w: tuple[int, ...], theta: int) -> tuple[int, ...]:
    enc = _trusted(Encoding, labels=(1,) * len(w), walk=_trusted(Walk, steps=w))
    return reroot(enc, theta).walk.steps


def unrooted_plane_tree_count(n: int) -> int:
    """Number of rerooting classes of plane trees with n edges (exhaustive)."""
    _check_bound(n, MAX_LISTING_N)
    classes = set()
    for w in _walks(n):
        classes.add(min(_reroot_walk(w, theta) for theta in range(2 * n)))
    return len(classes)


def walkup_count(n: int) -> int:
    """Closed-form count of unrooted plane trees with n edges.

    The formula is exact for n >= 2; at n = 1 it overcounts (it gives 2
    against the single unrooted one-edge tree), so n < 2 is routed to the
    exhaustive oracle instead.
    """
    if n < 2:
        return unrooted_plane_tree_count(n)
    total = Fraction(catalan(n), 2 * n)
    if n % 2 == 1:
        total += Fraction(comb(n + 1, (n + 1) // 2), 4 * n)
    total += Fraction(_euler_phi(n), n)
    for s in range(2, n):
        if n % s == 0:
            total += Fraction(_euler_phi(n // s) * comb(2 * s, s), 2 * n)
    if total.denominator != 1:
        raise ArithmeticError("count did not come out integral")
    return int(total)


# -- rerooting orbits ------------------------------------------------------


def _orbit_key(enc: Encoding) -> tuple:
    return (enc.labels, enc.walk.steps)


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
    _check_bound(n, MAX_ORBIT_N)
    found: dict[tuple, Orbit] = {}
    for tree in labeled_trees(n):
        enc = encode(tree)
        images = [reroot(enc, theta) for theta in range(2 * n)]
        keys = [_orbit_key(e) for e in images]
        rep_key = min(keys)
        if rep_key in found:
            continue
        size = len(set(keys))
        stab = sum(1 for k in keys if k == keys[0])
        assert size * stab == 2 * n
        rep = images[keys.index(rep_key)]
        found[rep_key] = Orbit(rep, size, stab)
    orbits = tuple(found[k] for k in sorted(found))
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

    def pointed_by_code(self) -> dict[bytes, PointedLaw]:
        return {row.code: row for row in self.pointed}


def law_tables(n: int) -> LawTables:
    """Exact distributions at size n.

    Pointed side: the uniform law and the image of the uniform labeled-tree
    law under positivize-construct-point.  Rooted side: the law weighting
    each rooted quadrangulation by 2n / (C_n 3^n root-degree).
    """
    _check_bound(n, MAX_LAW_N)
    total = catalan(n) * 3**n
    image_counts: dict[bytes, int] = {}
    descriptors: dict[bytes, tuple[int, int]] = {}
    for tree in labeled_trees(n):
        pq = point(quad_of_tree(to_positive(tree)))
        code = pointed_code(pq.map, pq.origin)
        image_counts[code] = image_counts.get(code, 0) + 1
        if code not in descriptors:
            descriptors[code] = (pq.map.degree(pq.origin), radius(pq))
    n_pointed = len(image_counts)
    pointed_rows = tuple(
        PointedLaw(
            code,
            descriptors[code][0],
            descriptors[code][1],
            Fraction(1, n_pointed),
            Fraction(image_counts[code], total),
        )
        for code in sorted(image_counts)
    )
    rooted_rows_map: dict[bytes, RootedLaw] = {}
    for tree in well_labeled_trees(n):
        q = quad_of_tree(tree)
        code = rooted_code(q.map, q.root)
        if code in rooted_rows_map:
            continue
        deg = q.map.degree(q.origin)
        rooted_rows_map[code] = RootedLaw(code, deg, Fraction(2 * n, total * deg))
    rooted_rows = tuple(rooted_rows_map[c] for c in sorted(rooted_rows_map))
    assert sum(r.p_s for r in pointed_rows) == 1
    assert sum(r.p_d for r in rooted_rows) == 1
    return LawTables(n, pointed_rows, rooted_rows)


def tv_distance(n: int) -> Fraction:
    """Total-variation distance between the two pointed laws at size n."""
    tables = law_tables(n)
    return sum((abs(row.p_u - row.p_s) for row in tables.pointed), Fraction(0)) / 2
