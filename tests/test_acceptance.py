"""Acceptance suite: one test per criterion, with a printed verdict line.

All tolerances are fixed here, not tuned.  Where a criterion is a
finite-n claim, it is checked against an exact reference rather than
against a limit that the exact laws themselves do not reach:

* criterion 3 (tv): the exact total-variation distances between the two
  pointed laws are 1/6, 1/6, 14/117 and 11/210 for n = 1..4.  The size-2
  orbit sizes (4,4,4,2,2,2) and the 6 pointed maps of criterion 2 force
  tv(2) = tv(1), so the check asserts that tie through its cause, a
  strict decrease over n = 2, 3, 4, and agreement with the orbit-size
  formula 1/2 sum |1/N - size/(C_n 3^n)|.
* criterion 5a (radius): the exact laws of range / n^(1/4) at 2^12 and
  2^14 are 0.184 apart in KS (strip recursion, ``exact_radius_cdf``), so
  a two-sample bound of 0.05 between the sizes cannot hold.  Each pool is
  compared with the exact law at its own size (one-sample KS <= 0.05),
  and the exact distance must shrink from (2^10, 2^12) = 0.225 to
  (2^12, 2^14) = 0.184.
* criterion 5c (snake): the sampler's default head covariance is the
  discrete model's 2/3 times the contour minimum (see ``quadmap.snake``),
  and the two-sample KS against the discrete pool is bounded by 0.08.
* criterion 5d (profile): the exact mean curves (Bouttier-Di
  Francesco-Guitter closed form, ``exact_profile_levels``) are 0.0809,
  0.0581 and 0.0415 apart in sup norm for the size pairs (2^10, 2^12),
  (2^12, 2^14), (2^14, 2^16): the n^(-1/4) rate, with ratio near
  4^(1/4).  Each size's Monte Carlo curve must lie within 0.05 of its
  exact curve, and the exact gaps must shrink.

Criterion 7 checks that the snake sampler realizes ``DEFAULT_HEAD_COV``
times the contour minimum; ``tests/test_snake.py`` ties that constant to
normalized uniform labeled trees.
"""
import time
from fractions import Fraction

import numpy as np
import pytest

from conftest import enumerate_rooted_maps, exact_profile_levels, exact_radius_cdf
from quadmap.enumeration import (
    catalan,
    labeled_trees,
    law_tables,
    orbit_decomposition,
    rooted_quads,
    tv_distance,
    unrooted_plane_tree_count,
    walkup_count,
    well_labeled_trees,
)
from quadmap.harness import (
    class_diameter_samples,
    edge_gap_samples,
    hp_gap_samples,
    ks_statistic,
    profile_curve,
    radius_samples,
    replica_rng,
    sample_rooted_pd,
    snake_radius_samples,
)
from quadmap.labeled import encode, minima_set
from quadmap.planar_map import (
    bfs_distances,
    map_of_quad,
    pointed_code,
    quad_of_map,
    radius,
    rooted_code,
)
from quadmap.schaeffer import (
    assemble,
    canonical_gluing,
    doddering,
    gluer,
    point,
    quad_of_tree,
    tree_of_quad,
)
from quadmap.snake import DEFAULT_HEAD_COV, DISCRETE_HEAD_COV, sample_snake_batch
from quadmap.trees import dfw, first_visit_times, height_process

SEED = 303
REPLICAS = 2000


def _verdict(name: str, ok: bool, detail: str) -> bool:
    print(f"[acceptance] {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    return ok


# -- criterion 1: bijection suite (exact) -----------------------------------


def test_criterion_1_bijection_suite():
    start = time.time()
    for n in range(1, 6):
        trees = well_labeled_trees(n)
        quads = [quad_of_tree(t) for t in trees]
        assert all(tree_of_quad(q) == t for q, t in zip(quads, trees))
        codes = {rooted_code(q.map, q.root) for q in quads}
        assert len(codes) == len(trees)
    for n in range(1, 5):
        for t in well_labeled_trees(n):
            q = quad_of_tree(t)
            d = doddering(encode(t).labels[:-1])
            g = gluer(t)
            built = assemble(d, g, canonical_gluing(d, g))
            assert rooted_code(built.map, built.root) == rooted_code(q.map, q.root)
    for n in range(1, 4):
        maps = enumerate_rooted_maps(n)
        assert len(maps) == len(rooted_quads(n))
        for rm in maps.values():
            back = map_of_quad(quad_of_map(rm))
            assert rooted_code(back.map, back.root) == rooted_code(rm.map, rm.root)
        for q in rooted_quads(n):
            q2 = quad_of_map(map_of_quad(q))
            assert rooted_code(q2.map, q2.root) == rooted_code(q.map, q.root)
    elapsed = time.time() - start
    assert _verdict(
        "criterion 1 (bijection suite)", elapsed < 60.0, f"exact, {elapsed:.1f}s"
    )


# -- criterion 2: counting (exact) -------------------------------------------


def test_criterion_2_counting():
    for n in range(1, 6):
        assert len(labeled_trees(n)) == catalan(n) * 3**n
    assert len(rooted_quads(2)) == 9
    walkup = [walkup_count(n) for n in range(2, 7)]
    assert walkup == [1, 2, 3, 6, 14]
    assert walkup == [unrooted_plane_tree_count(n) for n in range(2, 7)]
    for n in range(1, 5):
        pointed = {
            pointed_code(point(q).map, point(q).origin) for q in rooted_quads(n)
        }
        assert orbit_decomposition(n).n_orbits == len(pointed)
    assert _verdict("criterion 2 (counting)", True, "exact values")


# -- criterion 3: laws (exact rationals) --------------------------------------


def test_criterion_3_laws():
    for n in (1, 2, 3):
        tables = law_tables(n)
        assert sum(r.p_u for r in tables.pointed) == 1
        assert sum(r.p_s for r in tables.pointed) == 1
        assert sum(r.p_d for r in tables.rooted) == 1
        total = catalan(n) * 3**n
        for row in tables.rooted:
            assert row.p_d == Fraction(2 * n, total * row.root_degree)
    assert tv_distance(1) == Fraction(1, 6)
    assert _verdict("criterion 3 (laws)", True, "sums, degree law, tv(1) = 1/6")


def _tv_by_orbits(n: int) -> Fraction:
    """The pointed-law tv distance by the rerooting route: each orbit is
    one pointed map, with tree-image mass size / (C_n 3^n)."""
    decomposition = orbit_decomposition(n)
    total = catalan(n) * 3**n
    uniform = Fraction(1, decomposition.n_orbits)
    return sum(
        (abs(uniform - Fraction(o.size, total)) for o in decomposition.orbits),
        Fraction(0),
    ) / 2


def test_criterion_3_tv_strictly_decreasing():
    values = [tv_distance(n) for n in (1, 2, 3, 4)]
    assert values == [_tv_by_orbits(n) for n in (1, 2, 3, 4)]
    # the tie tv(1) = tv(2) = 1/6 is forced: 6 pointed maps at size 2 and
    # orbit sizes (4,4,4,2,2,2) give 1/2 * 6 * 1/18
    size2 = orbit_decomposition(2)
    assert sorted(o.size for o in size2.orbits) == [2, 2, 2, 4, 4, 4]
    assert size2.n_orbits == len(
        {pointed_code(point(q).map, point(q).origin) for q in rooted_quads(2)}
    ) == 6
    tie = values[0] == values[1] == Fraction(1, 6)
    strict = values[1] > values[2] > values[3]
    assert _verdict(
        "criterion 3 (tv: tie at n = 1, 2; strictly decreasing over 2..4)",
        tie and strict,
        "exact values " + ", ".join(str(v) for v in values)
        + "; orbit-size formula agrees",
    )


# -- criterion 4: structural identities at sampled sizes ----------------------


@pytest.mark.parametrize(
    "n,replicas", [(10, 20), (100, 10), (10**3, 5), (10**4, 3), (10**5, 2)]
)
def test_criterion_4_structural_identities(n, replicas):
    rng = replica_rng(SEED, n, 0)
    for _ in range(replicas):
        tree, quad = sample_rooted_pd(n, rng)
        enc = encode(tree)
        assert quad.map.n_edges == 2 * n
        assert quad.map.n_vertices == n + 2
        assert all(len(f) == 4 for f in quad.map.faces)
        dist = bfs_distances(quad.map, 0)
        assert all(dist[u + 1] == tree.labels[u] for u in range(tree.tree.n_nodes))
        assert radius(quad) == max(tree.labels)
        assert quad.map.degree(0) == len(minima_set(enc.labels))
        body = enc.labels[:-1]
        d = doddering(body)
        assert height_process(d.tree, "reverse") == (0,) + tuple(body)
        walk = dfw(tree.tree, "reverse")
        h = height_process(tree.tree, "reverse")
        m = first_visit_times(walk)
        assert all(m[k] + h[k] == 2 * k for k in range(n + 1))
    if n == 10**5:
        print("[acceptance] criterion 4 (structural identities): PASS "
              "(sampled sizes up to 1e5)")


# -- criterion 5: scaling statistics ------------------------------------------


@pytest.fixture(scope="module")
def radius_pools():
    return {
        "pd12": radius_samples(2**12, REPLICAS, SEED, 0),
        "pd14": radius_samples(2**14, REPLICAS, SEED, 1),
        "ps14": radius_samples(2**14, REPLICAS, SEED + 1, 1),
    }


@pytest.fixture(scope="module")
def snake_pool():
    """Snake head ranges on the 2^14 grid, one stream per replica."""
    return snake_radius_samples(2**14, REPLICAS, SEED + 2)


@pytest.fixture(scope="module")
def radius_laws():
    """Exact CDFs of the integer label range at 2^10, 2^12 and 2^14."""
    return {e: exact_radius_cdf(2**e) for e in (10, 12, 14)}


def _cdf_at(cdf: np.ndarray, k: np.ndarray) -> np.ndarray:
    """The lattice CDF at integers k >= 0; past its last entry, where the
    upper tail is below RADIUS_TAIL, it is taken as 1."""
    return np.where(k < cdf.size, cdf[np.minimum(k, cdf.size - 1)], 1.0)


def _ks_to_law(scaled: np.ndarray, n: int, cdf: np.ndarray) -> float:
    """One-sample KS of draws of range / n^(1/4) against the exact law."""
    scale = n**0.25
    k = np.rint(scaled * scale).astype(np.int64)
    assert np.array_equal(k / scale, scaled)  # the draws sit on the lattice
    top = max(int(k.max()), cdf.size - 1)
    emp = np.cumsum(np.bincount(k, minlength=top + 1)) / k.size
    return float(np.abs(emp - _cdf_at(cdf, np.arange(top + 1))).max())


def _ks_between_laws(cdf_a, n_a: int, cdf_b, n_b: int) -> float:
    """KS distance between the exact laws of range / n^(1/4) at two sizes;
    both CDFs are steps, so the sup is taken over the union of the atoms."""
    atoms_a = np.arange(cdf_a.size) / n_a**0.25
    atoms_b = np.arange(cdf_b.size) / n_b**0.25
    x = np.union1d(atoms_a, atoms_b)

    def at(cdf, atoms):
        k = np.searchsorted(atoms, x, side="right") - 1
        return _cdf_at(cdf, k)

    return float(np.abs(at(cdf_a, atoms_a) - at(cdf_b, atoms_b)).max())


def test_criterion_5a_radius_scaling_stability(radius_pools, radius_laws):
    ks12 = _ks_to_law(radius_pools["pd12"], 2**12, radius_laws[12])
    ks14 = _ks_to_law(radius_pools["pd14"], 2**14, radius_laws[14])
    exact_10_12 = _ks_between_laws(radius_laws[10], 2**10, radius_laws[12], 2**12)
    exact_12_14 = _ks_between_laws(radius_laws[12], 2**12, radius_laws[14], 2**14)
    measured = ks_statistic(radius_pools["pd12"], radius_pools["pd14"])
    assert _verdict(
        "criterion 5a (radius vs exact law at 2^12, 2^14)",
        ks12 <= 0.05 and ks14 <= 0.05 and exact_12_14 < exact_10_12,
        f"KS = {ks12:.4f}, {ks14:.4f}; exact 2^10 vs 2^12 = {exact_10_12:.4f}, "
        f"2^12 vs 2^14 = {exact_12_14:.4f}; two-sample 2^12 vs 2^14 = {measured:.4f}",
    )


def test_criterion_5b_rooted_vs_pointed(radius_pools):
    ks = ks_statistic(radius_pools["pd14"], radius_pools["ps14"])
    assert _verdict("criterion 5b (rooted vs pointed)", ks <= 0.05, f"KS = {ks:.4f}")


def test_criterion_5c_discrete_vs_snake(radius_pools, snake_pool):
    # the pool is drawn at the default coefficient, the discrete model's 2/3
    assert DEFAULT_HEAD_COV == DISCRETE_HEAD_COV
    ks = ks_statistic(radius_pools["pd14"], snake_pool)
    assert _verdict(
        f"criterion 5c (discrete vs snake, head_cov={DEFAULT_HEAD_COV:.4f})",
        ks <= 0.08,
        f"KS = {ks:.4f}",
    )


def _exact_profile(n: int, lambdas: np.ndarray) -> np.ndarray:
    """Exact mean of ``profile_curve``: it interpolates linearly between
    integer levels, so its mean interpolates the exact level means."""
    scale = n**0.25
    levels = exact_profile_levels(n, int(lambdas.max() * scale) + 3)
    return np.interp(
        lambdas * scale + 1.0, np.arange(levels.size), levels, right=1.0
    )


def test_criterion_5d_profile_curves():
    lambdas = np.linspace(0.0, 3.0, 61)
    p12 = profile_curve(2**12, 1000, SEED + 3, lambdas, 0)
    p14 = profile_curve(2**14, 1000, SEED + 3, lambdas, 1)
    exact = {e: _exact_profile(2**e, lambdas) for e in (10, 12, 14, 16)}
    err12 = float(np.abs(p12 - exact[12]).max())
    err14 = float(np.abs(p14 - exact[14]).max())
    gaps = [
        float(np.abs(exact[a] - exact[b]).max())
        for a, b in ((10, 12), (12, 14), (14, 16))
    ]
    measured = float(np.abs(p12 - p14).max())
    assert _verdict(
        "criterion 5d (profile curves vs exact at 2^12, 2^14)",
        err12 <= 0.05 and err14 <= 0.05 and gaps[0] > gaps[1] > gaps[2],
        f"sup |MC - exact| = {err12:.4f}, {err14:.4f}; exact gaps "
        + ", ".join(f"{g:.4f}" for g in gaps)
        + f"; 2^12 vs 2^14 gap measured {measured:.4f}, exact {gaps[1]:.4f}",
    )


# -- criterion 6: vanishing-gap trends ----------------------------------------


def test_criterion_6_vanishing_gaps():
    details = []
    ok = True
    for sampler, name, reps in (
        (hp_gap_samples, "hp_gap", 40),
        (class_diameter_samples, "class_diameter", 40),
        (edge_gap_samples, "edge_gap", 40),
    ):
        lo = float(np.median(sampler(10**3, reps, SEED + 4, size_index=0)))
        hi = float(np.median(sampler(10**5, reps, SEED + 4, size_index=1)))
        ok = ok and hi < lo
        details.append(f"{name} {lo:.3f}->{hi:.3f}")
    assert _verdict("criterion 6 (vanishing gaps)", ok, "; ".join(details))


# -- criterion 7: snake covariance --------------------------------------------


def test_criterion_7_snake_covariance():
    m = 256
    s, t = int(0.3 * m), int(0.7 * m)
    rng = np.random.default_rng(SEED + 5)
    emp = 0.0
    target = 0.0
    draws = 100000
    chunk = 10000
    for _ in range(draws // chunk):
        f, z = sample_snake_batch(m, chunk, rng)
        emp += float((f[:, s] * f[:, t]).sum())
        target += float(z[:, s : t + 1].min(axis=1).sum())
    emp /= draws
    target = DEFAULT_HEAD_COV * target / draws
    rel = abs(emp - target) / target
    assert _verdict(
        "criterion 7 (snake covariance)",
        rel <= 0.05,
        f"cov = {emp:.4f}, target = {target:.4f}, rel err = {rel:.3%}",
    )
