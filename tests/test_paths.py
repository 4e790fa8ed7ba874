import numpy as np
import pytest
import reference_loops as reference

from quadmap.enumeration import MAX_LISTING_N, MAX_ORBIT_N, _encoding_arrays
from quadmap.harness import sample_labeled_uniform, sample_pointed_ps, sample_rooted_pd
from quadmap.labeled import Encoding
from quadmap.paths import (
    _balanced_bits,
    _fair_bits,
    _reroot_arrays,
    _stable_order,
    contour_accumulate,
    contour_edges,
    doddering_rdfw,
    dyck_walk,
    dyck_walk_batch,
    uniform_encoding_arrays,
)
from quadmap.schaeffer import doddering
from quadmap.snake import reroot_path, sample_snake, sample_snake_batch
from quadmap.trees import Walk, dfw


def test_dyck_walk_is_valid_contour():
    rng = np.random.default_rng(1)
    for n in (1, 2, 5, 50, 2000):
        w = dyck_walk(n, rng)
        Walk(tuple(int(x) for x in w))  # validates shape and positivity


def _surplus_signs(n: int, count: int, seed: int) -> set:
    """The signs of c - n over the fair rows that a balanced draw of
    ``count`` rows from ``default_rng(seed)`` starts from (c ones each)."""
    fair = _fair_bits(count, 2 * n + 1, np.random.default_rng(seed))
    ones = fair.sum(axis=1, dtype=np.int64)
    return set(np.sign(ones - n).tolist())


def test_dyck_walk_exact_uniformity():
    # all C_3 = 5 shapes equally likely, from one stacked call whose fair
    # rows had too many ones, too few and exactly n
    rng = np.random.default_rng(2)
    counts = {}
    draws = 25000
    for w in dyck_walk_batch(3, draws, rng):
        counts[tuple(w.tolist())] = counts.get(tuple(w.tolist()), 0) + 1
    assert len(counts) == 5
    expected = draws / 5
    chi2 = sum((c - expected) ** 2 / expected for c in counts.values())
    assert chi2 < 13.28  # 99% quantile, 4 dof
    assert _surplus_signs(3, draws, 2) == {-1, 0, 1}


def test_balanced_bits_uniform_over_arrangements():
    # all C(5, 2) = 10 arrangements of 2 ones among 5 places equally
    # likely, from one stacked call, with both surplus directions flipped
    draws = 50000
    bits = _balanced_bits(2, draws, np.random.default_rng(11))
    counts = np.bincount(bits @ (1 << np.arange(5)), minlength=32)
    assert np.count_nonzero(counts) == 10
    expected = draws / 10
    chi2 = sum((c - expected) ** 2 / expected for c in counts[counts > 0])
    assert chi2 < 21.67  # 99% quantile, 9 dof
    assert _surplus_signs(2, draws, 11) == {-1, 0, 1}


@pytest.mark.parametrize("n, count", [(1, 500), (2, 100), (7, 300), (300, 20), (5000, 3)])
def test_balanced_bits_have_n_ones(n, count):
    bits = _balanced_bits(n, count, np.random.default_rng([n, count]))
    assert bits.shape == (count, 2 * n + 1) and bits.dtype == np.uint8
    assert set(np.unique(bits).tolist()) <= {0, 1}
    assert np.array_equal(bits.sum(axis=1), np.full(count, n))


def test_balanced_bits_flip_only_surplus_copies():
    # each row flips exactly |c - n| of its fair bits, all of them copies
    # of the symbol it has too many of
    n, count = 40, 300
    fair = _fair_bits(count, 2 * n + 1, np.random.default_rng(12))
    bits = _balanced_bits(n, count, np.random.default_rng(12))
    ones = fair.sum(axis=1, dtype=np.int64)
    flipped = bits != fair
    assert np.array_equal(flipped.sum(axis=1), np.abs(ones - n))
    surplus = np.broadcast_to((ones > n)[:, None], fair.shape)
    assert np.array_equal(fair[flipped], surplus[flipped])


def test_contour_edges_match_stack():
    rng = np.random.default_rng(3)
    for _ in range(25):
        n = int(rng.integers(1, 300))
        walks = dyck_walk_batch(n, 2, rng)
        edges = contour_edges(walks)
        for row in range(2):
            steps = np.diff(walks[row])
            stack, match = [], {}
            for i, s in enumerate(steps):
                if s > 0:
                    stack.append(i)
                else:
                    match[stack.pop()] = i
            assert all(edges[row, u] == edges[row, d] for u, d in match.items())
        # ids never shared between rows
        assert not set(edges[0].tolist()) & set(edges[1].tolist())


def _spike(n: int) -> np.ndarray:
    """The walk up n steps then down n: one path of n edges."""
    return np.concatenate((np.arange(n + 1), np.arange(n - 1, -1, -1)))[None, :]


def test_contour_edges_match_lexsort_reference():
    # the former 3-key sort: by row, then level, then time.  Keys fit one
    # byte up to the spike of height 255 and pass it at 256, or through
    # the row offsets of the stacked spikes of height 100
    rng = np.random.default_rng(8)
    batches = [dyck_walk_batch(n, count, rng) for count, n in ((1, 1), (1, 257), (6, 40), (40, 300))]
    spikes = [_spike(255), _spike(256), np.vstack([_spike(100)] * 2), _spike(300), _spike(70000)]
    for walks in batches + spikes:
        count, width = walks.shape
        level = np.maximum(walks[:, :-1], walks[:, 1:])
        order = np.lexsort(
            (
                np.tile(np.arange(width - 1), count),
                level.ravel(),
                np.repeat(np.arange(count), width - 1),
            )
        )
        ref = np.empty(order.size, dtype=np.int64)
        ref[order] = np.repeat(np.arange(order.size // 2), 2)
        assert np.array_equal(contour_edges(walks), ref.reshape(count, width - 1))


@pytest.mark.parametrize("top", [0, 255, 256, 65535, 65536, 2**40])
def test_stable_order_matches_stable_argsort(top):
    # maxima on each side of one byte, packed into 32 and into 64 bits, with
    # ties; the keys that fit one byte are sorted again as uint8, by the
    # counting sort
    rng = np.random.default_rng(top)
    keys = rng.integers(0, min(top, 50) + 1, size=3000)
    keys[rng.integers(keys.size)] = top
    rows = (keys[:1000] + (top + 1) * np.arange(3)[:, None]).ravel()  # stacked rows
    small = (keys[:1000] % 64 + 64 * np.arange(4)[:, None]).ravel()  # stacked, up to 255
    cases = [keys, rows, small, keys[:0]]
    cases += [k.astype(np.uint8) for k in cases if k.max(initial=0) < 2**8]
    for k in cases:
        assert np.array_equal(_stable_order(k), np.argsort(k, kind="stable"))


@pytest.mark.parametrize("size", [1, 2, 3, 100, 2**10 + 1, 2**17])
def test_stable_order_of_packed_keys_matches_stable_argsort(size):
    rng = np.random.default_rng(size)
    for top in (1, size, 2**20):
        keys = rng.integers(0, top, size=size, endpoint=True)
        assert np.array_equal(_stable_order(keys), np.argsort(keys, kind="stable"))


@pytest.mark.parametrize(
    "key, count, at, fallback",
    [
        (2**28 - 1, 16, 15, False),  # the largest packed key is 2^32 - 1: uint32
        (2**28, 16, 0, False),  # 2^32: uint64
        (2**61 - 1, 8, 7, False),  # 2^64 - 1: uint64
        (2**61, 8, 0, True),  # 2^64: past 64 bits, the stable argsort
        (2**62, 5, 4, True),
        (2**62, 8, 7, True),
    ],
)
def test_stable_order_at_the_packing_bounds(key, count, at, fallback, monkeypatch):
    # ties below ``key`` at index ``at``, whose packed key is the largest
    keys = np.resize(np.array([key // 2, 0, 1, key // 2]), count)
    keys[at] = key
    want = np.argsort(keys, kind="stable")
    calls = []
    argsort = np.argsort
    monkeypatch.setattr(np, "argsort", lambda *a, **k: calls.append(k) or argsort(*a, **k))
    assert np.array_equal(_stable_order(keys), want)
    assert calls == ([{"kind": "stable"}] if fallback else [])


def test_stable_order_of_no_keys_and_one_key():
    assert _stable_order(np.zeros(0, dtype=np.int64)).tolist() == []
    assert _stable_order(np.array([2**62])).tolist() == [0]


@pytest.mark.parametrize("n", [1, 2, 200])
@pytest.mark.parametrize("count", [1, 5])
def test_dyck_walk_batch_matches_modular_rotation(n, count):
    fast = np.random.default_rng([n, count])
    slow = np.random.default_rng([n, count])
    assert np.array_equal(dyck_walk_batch(n, count, fast), reference.dyck_walk_batch(n, count, slow))
    assert fast.integers(2**62) == slow.integers(2**62)  # the same draws were used


def test_contour_accumulate_matches_edge_id_reference():
    # sort keys in uint8 for the single walks, and in int64 for the stack,
    # whose row offsets pass 255, and for the spike
    rng = np.random.default_rng(9)
    stacks = [dyck_walk_batch(n, count, rng) for count, n in ((1, 1), (1, 300), (7, 50))]
    for walks in stacks + [_spike(70000)]:
        count, n = walks.shape[0], walks.shape[1] // 2
        ints = rng.integers(-1, 2, size=count * n)
        floats = rng.normal(size=count * n)
        floats[::4] = 0.0
        for values, start in ((ints, 1), (floats, 0.0), (floats, 2.5)):
            fast = contour_accumulate(walks, values, start=start)
            slow = reference.contour_accumulate(walks, values, start=start)
            assert fast.dtype == slow.dtype and fast.tobytes() == slow.tobytes()


def test_contour_accumulate_depth():
    # unit edge values reproduce the walk itself
    rng = np.random.default_rng(4)
    walks = dyck_walk_batch(40, 3, rng)
    ones = np.ones(3 * 40)
    acc = contour_accumulate(walks, ones, start=0)
    assert np.array_equal(acc, walks)


def test_uniform_encoding_arrays_are_encodings():
    rng = np.random.default_rng(5)
    labels, walks = uniform_encoding_arrays(25, rng, count=20)
    for lab, w in zip(labels, walks):
        Encoding(tuple(int(x) for x in lab), Walk(tuple(int(x) for x in w)))


def test_doddering_rdfw_matches_tree():
    rng = np.random.default_rng(6)
    for body in [(1, 2, 1), (1, 1, 1, 1), (1, 2, 3, 2)]:
        fast = doddering_rdfw(np.array(body))
        slow = dfw(doddering(body).tree, "reverse").steps
        assert fast.tolist() == slow.tolist()
    labels, _ = uniform_encoding_arrays(30, rng)
    body = np.roll(labels[0, :60], -int(np.argmin(labels[0, :60])))
    body = body - body[0] + 1
    fast = doddering_rdfw(body)
    slow = dfw(doddering(tuple(int(x) for x in body)).tree, "reverse").steps
    assert fast.tolist() == slow.tolist()


@pytest.mark.parametrize(
    "body, message",
    [((2, 1), "start at 1"), ((1, 0, 1), "stay >= 1"), ((1, 3, 1), "at most 1 per step"), ((), "start at 1")],
)
def test_doddering_rdfw_rejects_bad_label_processes(body, message):
    with pytest.raises(ValueError, match=message):
        doddering_rdfw(np.array(body, dtype=np.int64))


def test_dyck_walk_rejects_bad_sizes():
    rng = np.random.default_rng(7)
    with pytest.raises(ValueError):
        dyck_walk(0, rng)


@pytest.mark.parametrize(
    "draw, name",
    [
        (lambda rng: sample_rooted_pd(2.5, rng), "n"),
        (lambda rng: sample_pointed_ps(2.0, rng), "n"),
        (lambda rng: sample_labeled_uniform(True, rng), "n"),
        (lambda rng: dyck_walk(3.0, rng), "n"),
        (lambda rng: dyck_walk(True, rng), "n"),
        (lambda rng: dyck_walk_batch(3, "2", rng), "count"),
        (lambda rng: dyck_walk_batch(3, -1, rng), "count"),
        (lambda rng: uniform_encoding_arrays(2, rng, 2.0), "count"),
        (lambda rng: sample_snake_batch(8.0, 2, rng), "m"),
        (lambda rng: sample_snake(True, rng), "m"),
    ],
)
def test_samplers_reject_sizes_that_are_not_integers(draw, name):
    # bools and floats are not read as sizes: True once drew a one-edge tree
    with pytest.raises(ValueError, match=f"^{name}"):
        draw(np.random.default_rng(7))


@pytest.mark.parametrize("m", [2, 4, 64, 2**12])
def test_reroot_path_matches_slice_reference(m):
    x = sample_snake(m, np.random.default_rng([41, m]))
    for k in range(m) if m <= 64 else (1, m // 2, m - 1):
        y = reroot_path(x, k / m)
        head, contour = reference.reroot_path(x.head, x.contour, k)
        assert y.head.tobytes() == head.tobytes()
        assert y.contour.tobytes() == contour.tobytes()


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_reroot_per_row_matches_one_corner_and_reference(n):
    # theta = 0 and 2n - 1 are the ends of _reroot's two slices: at 0 the
    # backward slice is corner 0 alone, at 2n - 1 the forward one is the last step
    labels, walks, shape = _encoding_arrays(n)
    walks = walks[shape]
    for theta in range(2 * n):
        per_row = _reroot_arrays(labels, walks, np.full(len(labels), theta))
        one = _reroot_arrays(labels, walks, theta)
        rows = [reference.reroot(Encoding(lab, Walk(w)), theta) for lab, w in zip(labels, walks)]
        expected = (np.array([e.labels for e in rows]), np.array([e.walk.steps for e in rows]))
        for got, again, want in zip(per_row, one, expected):
            assert got.dtype == again.dtype == np.int64
            assert np.array_equal(got, want) and np.array_equal(again, want)


def _random_corners_match_one_corner(labels, walks, rng):
    theta = rng.integers(0, labels.shape[1], len(labels))  # 2n included
    new_labels, new_walks = _reroot_arrays(labels, walks, theta)
    for b in range(len(labels)):
        one_labels, one_walk = _reroot_arrays(labels[b], walks[b], int(theta[b]))
        assert np.array_equal(new_labels[b], one_labels)
        assert np.array_equal(new_walks[b], one_walk)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_reroot_random_corner_per_row_matches_one_corner(n):
    labels, walks, shape = _encoding_arrays(n)
    _random_corners_match_one_corner(labels, walks[shape], np.random.default_rng([47, n]))


def test_reroot_random_corner_per_row_matches_one_corner_large():
    rng = np.random.default_rng(53)
    labels, walks = uniform_encoding_arrays(2**11, rng, count=3)
    assert labels.shape == (3, 2**12 + 1)
    _random_corners_match_one_corner(labels, walks, rng)


def test_reroot_keys_are_exact_at_the_listing_bounds():
    # paths._reroot_keys packs 2n base-3 label digits and 2n walk bits into
    # one int64, exact while 6^(2n) < 2^63
    assert 6 ** (2 * max(MAX_ORBIT_N, MAX_LISTING_N)) < 2**63


def test_reroot_takes_one_corner_in_any_integer_form():
    labels, walks = uniform_encoding_arrays(6, np.random.default_rng(43))
    for row in ((labels[0], walks[0]), (labels, walks)):
        results = [_reroot_arrays(*row, theta) for theta in (5, np.int64(5), np.array([5]))]
        for new_labels, new_walk in results[1:]:
            assert np.array_equal(new_labels, results[0][0])
            assert np.array_equal(new_walk, results[0][1])


def test_public_kernels_return_fresh_arrays():
    # the private kernels write into given rows; the public ones allocate them anew
    rng = np.random.default_rng(61)
    first, second = (uniform_encoding_arrays(40, rng, count=2) for _ in range(2))
    assert not any(np.shares_memory(a, b) for a in first for b in second)
    assert not np.shares_memory(dyck_walk_batch(40, 2, rng), dyck_walk_batch(40, 2, rng))
    walks, values = first[1], rng.normal(size=80)
    assert not np.shares_memory(contour_accumulate(walks, values), contour_accumulate(walks, values))
