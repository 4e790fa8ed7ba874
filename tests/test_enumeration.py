import time
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest

from quadmap.enumeration import (
    FAMILY_KINDS,
    _family_counts,
    _stabilizer_counts,
    _void,
    catalan,
    enumerate_family,
    labeled_trees,
    law_tables,
    orbit_decomposition,
    plane_trees,
    rooted_quads,
    tv_distance,
    unrooted_plane_tree_count,
    walkup_count,
    well_labeled_trees,
)
from quadmap.labeled import is_well_labeled
from quadmap.planar_map import _pointed_code_arrays, pointed_code
from quadmap.schaeffer import point


def test_basic_counts():
    assert len(plane_trees(2)) == 2
    assert len(labeled_trees(2)) == 18
    assert len(well_labeled_trees(2)) == 9
    assert len(rooted_quads(2)) == 9
    assert len(rooted_quads(1)) == 2


@pytest.mark.parametrize("n", range(1, 6))
def test_catalan_counts(n):
    assert len(plane_trees(n)) == catalan(n)
    assert len(labeled_trees(n)) == catalan(n) * 3**n


@pytest.mark.parametrize("n", range(1, 6))
def test_bijection_count_identity(n):
    assert len(well_labeled_trees(n)) == len(rooted_quads(n))


def test_enumerate_family_dispatch():
    assert len(enumerate_family(2, "plane_trees")) == 2
    with pytest.raises(ValueError):
        enumerate_family(2, "nonsense")
    with pytest.raises(ValueError):
        enumerate_family(7, "plane_trees")  # beyond the exhaustive bound


@pytest.mark.parametrize("kind", [["plane_trees"], {"x": 1}, None, 3])
def test_enumerate_family_rejects_kinds_that_are_not_names(kind):
    # unhashable kinds once leaked a TypeError from the dict lookup
    with pytest.raises(ValueError, match="kind"):
        enumerate_family(2, kind)


@pytest.mark.parametrize("n", range(1, 6))
def test_family_counts_are_listing_lengths(n):
    counts = _family_counts(n)
    assert sorted(counts) == list(FAMILY_KINDS)
    for kind in FAMILY_KINDS:
        assert counts[kind] == len(enumerate_family(n, kind))


@pytest.mark.parametrize("n", range(1, 6))
def test_well_labeled_trees_are_the_well_labeled_labeled_trees(n):
    trees = labeled_trees(n)
    well = well_labeled_trees(n)
    assert well == [t for t in trees if is_well_labeled(t)]
    # one PlaneTree object per shape, as in labeled_trees
    assert len({id(t.tree) for t in well}) == len({t.tree.walk.steps.tobytes() for t in well})


_EXHAUSTIVE = [
    catalan,
    plane_trees,
    labeled_trees,
    well_labeled_trees,
    rooted_quads,
    lambda n: enumerate_family(n, "plane_trees"),
    unrooted_plane_tree_count,
    walkup_count,
    orbit_decomposition,
    law_tables,
    tv_distance,
]


@pytest.mark.parametrize("bad", [True, 2.0, "2"])
@pytest.mark.parametrize("function", _EXHAUSTIVE)
def test_exhaustive_functions_reject_a_non_integer_n(function, bad):
    with pytest.raises(ValueError, match="^n: expected an integer"):
        function(bad)


@pytest.mark.parametrize("function", _EXHAUSTIVE)
def test_exhaustive_functions_take_numpy_integers(function):
    assert function(np.int64(2)) == function(2)


def test_closed_forms_take_large_numpy_integers():
    assert catalan(np.int64(40)) == catalan(40)
    assert walkup_count(np.int64(40)) == walkup_count(40)


def test_walkup_values():
    assert [walkup_count(n) for n in range(2, 7)] == [1, 2, 3, 6, 14]


@pytest.mark.parametrize("n", range(2, 7))
def test_walkup_matches_orbit_oracle(n):
    assert walkup_count(n) == unrooted_plane_tree_count(n)


def test_walkup_n1_routed_to_oracle():
    # the one-edge tree is fixed by both rerootings, so its single orbit
    # has stabilizer order 2 and the Burnside count needs no special case
    assert walkup_count(1) == 1
    assert unrooted_plane_tree_count(1) == 1


def test_orbit_decomposition_n1():
    dec = orbit_decomposition(1)
    assert dec.n_orbits == 2
    assert sorted((o.size, o.stabilizer) for o in dec.orbits) == [(1, 2), (2, 1)]
    assert dec.total == 3


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_orbit_decomposition_identities(n):
    dec = orbit_decomposition(n)
    assert dec.total == catalan(n) * 3**n
    for orbit in dec.orbits:
        assert orbit.size * orbit.stabilizer == 2 * n
    pointed = {
        pointed_code(point(q).map, point(q).origin) for q in rooted_quads(n)
    }
    assert dec.n_orbits == len(pointed)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_law_table_codes_keep_their_full_length(n):
    # 4n darts, two big-endian 4-byte labels each
    tables = law_tables(n)
    assert {len(row.code) for row in tables.pointed + tables.rooted} == {32 * n}


def test_deduped_codes_keep_trailing_nul_bytes():
    codes = [b"\x00\x01\x00", b"\x00\x01\x01", b"\x00\x00\x00", b"\x00\x01\x00"]
    distinct, first, counts = np.unique(_void(codes), return_index=True, return_counts=True)
    assert distinct.tolist() == [b"\x00\x00\x00", b"\x00\x01\x00", b"\x00\x01\x01"]
    assert first.tolist() == [2, 0, 1] and counts.tolist() == [1, 2, 1]


def test_law_tables_n1():
    tables = law_tables(1)
    by_radius = {row.radius: row for row in tables.pointed}
    assert by_radius[1].p_s == Fraction(1, 3)  # center-pointed path
    assert by_radius[2].p_s == Fraction(2, 3)  # endpoint-pointed path
    assert all(row.p_u == Fraction(1, 2) for row in tables.pointed)
    by_degree = {row.root_degree: row for row in tables.rooted}
    assert by_degree[1].p_d == Fraction(2, 3)
    assert by_degree[2].p_d == Fraction(1, 3)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_laws_sum_to_one(n):
    tables = law_tables(n)
    assert sum(r.p_u for r in tables.pointed) == 1
    assert sum(r.p_s for r in tables.pointed) == 1
    assert sum(r.p_d for r in tables.rooted) == 1


@pytest.mark.parametrize("n", [1, 2, 3])
def test_degree_weighted_law_formula(n):
    # P_D(q) = 2n / (C_n 3^n deg(q)) summing to 1 forces the degree identity
    tables = law_tables(n)
    total = catalan(n) * 3**n
    assert sum(Fraction(1, r.root_degree) for r in tables.rooted) == Fraction(
        total, 2 * n
    )


def _tv_by_tables(n: int) -> Fraction:
    """The tv distance read off ``law_tables``, row by row."""
    tables = law_tables(n)
    return sum((abs(row.p_u - row.p_s) for row in tables.pointed), Fraction(0)) / 2


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_tv_formula_matches_the_law_tables(n):
    assert tv_distance(n) == _tv_by_tables(n)


def _stabilizers(dec) -> Counter:
    return Counter(orbit.stabilizer for orbit in dec.orbits)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_stabilizer_counts_match_the_orbit_decomposition(n):
    assert _stabilizer_counts(n, 3) == _stabilizers(orbit_decomposition(n))


def test_tv_distance_beyond_the_law_tables():
    assert tv_distance(5) == Fraction(6403, 585144)
    assert tv_distance(6) == Fraction(19925, 2942973)
    start = time.perf_counter()
    tv = tv_distance(2**14)
    elapsed = time.perf_counter() - start
    assert isinstance(tv, Fraction) and 0 < tv
    # about 10^-8836, far below a float's range
    assert tv.denominator.bit_length() - tv.numerator.bit_length() > 29000
    assert elapsed < 1.0


def test_tv_distance_values():
    assert tv_distance(1) == Fraction(1, 6)
    # sizes 1 and 2 tie exactly; the drop only happens at size 3
    assert tv_distance(2) == Fraction(1, 6)
    assert tv_distance(3) == Fraction(14, 117)
    assert tv_distance(3) < tv_distance(1)
    assert tv_distance(1) > 0  # equal laws would need all fibers equal


def test_orbit_decomposition_n6():
    dec = orbit_decomposition(6)
    assert dec.total == catalan(6) * 3**6
    assert all(o.size * o.stabilizer == 12 for o in dec.orbits)
    quads = rooted_quads(6)
    assert len(quads) == 24057
    stack = [np.stack([getattr(q.map, name) for q in quads]) for name in ("nxt", "twin", "tail")]
    pointed = set(_pointed_code_arrays(*stack, 0))
    assert dec.n_orbits == len(pointed) == 8074
    assert _stabilizer_counts(6, 3) == _stabilizers(dec) == {1: 7970, 2: 89, 3: 12, 6: 3}
