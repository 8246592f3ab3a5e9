"""Arm sets: cumulative reward sums under without-replacement pulls.

``LazySource`` holds the arms of one query (``build_arms``), which read
coordinates in the column permutation pi of their ``VectorSet``, drawn by
a ``PositionSampler``, from a cyclic start; an ``AdversarialInstance`` is
its own arm set, its ones-first lists read in stored order.

Several tests use one-hot data: with ``data = diag(values)`` and an all-ones
query, arm i's only nonzero reward sits at column i, so the arms whose sums
change during a call are exactly the columns that call read, and every sum
is exact.

Arm sets answer ``sums(ids, t, done, prior)``: the sums of the arms
``ids`` after ``t`` pulls, extending ``prior``, their sums after ``done``
pulls, and they keep no state between calls.  A test that runs several
rounds holds the search state itself, as the elimination loop does: the
rows in play and, for them, ``running[rows]``, the prior of the next call.
"""

import math
import tracemalloc
import warnings

import numpy as np
import pytest

from bandit_mips.arms import (
    WINDOW_BLOCK,
    LazySource,
    PositionSampler,
    _float32_mean_error,
    exact_sums,
    row_block,
)
from bandit_mips.baselines import naive_topk
from bandit_mips.datasets import AdversarialInstance
from bandit_mips.elimination import (
    EliminationConfig,
    median_elimination_topk,
    pull_batch,
    round_pull_target,
)
from bandit_mips.mips import ObjectiveKind, Query, VectorSet, build_arms, mips_topk, reward_range
from oracles import RowsLazySource, oracle_scan, oracle_topk

IP = ObjectiveKind.INNER_PRODUCT
NSD = ObjectiveKind.NEG_SQ_DISTANCE


def one_hot_arms(values, seed=0, start=0):
    values = np.asarray(values, dtype=float)
    vs = VectorSet(np.diag(values), seed=seed)
    return build_arms(vs, Query(np.ones(values.size)), IP, start)


def columns_read(arms, splits):
    """Pull all rows through the batch sizes ``splits``; the columns each batch read.

    A batch read the columns of the rows it first made nonzero.  Windows
    round what float32 does not hold, and the batch that reaches t = N
    re-sums every row exactly, so only that batch may move a row read before.
    """
    ids, before = np.arange(arms.n), np.zeros(arms.n)
    t = 0
    batches = []
    for count in splits:
        now = arms.sums(ids, t + count, t, before)
        t += count
        batches.append(np.flatnonzero((now != 0) & (before == 0)).tolist())
        if t < arms.list_len:
            assert np.array_equal(now[before != 0], before[before != 0])
        before = now
    return batches, before


def prefix_order(arms, vectors):
    return np.roll(vectors.permuted()[0], -arms.start)


def test_materialized_full_draw_exact_mean():
    vs = VectorSet(np.array([[1.0, 0.0, 0.0, 0.0]]))
    arms = build_arms(vs, Query(np.ones(4)), IP, start=3)
    assert arms.sums(np.array([0]), 4)[0] / 4 == 0.25


def test_empirical_mean_requires_pulls():
    arms, ids = one_hot_arms([1.0, 2.0]), np.arange(2)
    with pytest.raises(ValueError):
        pull_batch(arms, ids, 0, 0, None)
    assert (pull_batch(arms, ids, 2, 0, None) / 2).tolist() == [0.5, 1.0]


def test_stream_source_fixed_order():
    # ones stream out before zeros, so a 3-pull prefix sees only ones
    arms, ids = AdversarialInstance(np.array([0.3]), np.array([3]), 10), np.array([0])
    first = arms.sums(ids, 3)
    assert first[0] / 3 == 1.0
    assert arms.sums(ids, 10, 3, first)[0] / 10 == 0.3


def test_full_draw_recovers_multiset():
    rng = np.random.default_rng(11)
    values = rng.random(40) + 0.5  # nonzero, so every read shows
    for splits in ([40], [13, 27], [1] * 40, [5, 30, 5]):
        arms = one_hot_arms(values, seed=9, start=17)
        batches, final = columns_read(arms, splits)
        assert [len(b) for b in batches] == splits
        assert sorted(c for b in batches for c in b) == list(range(40))
        assert sorted(final.tolist()) == sorted(values.tolist())  # exact: re-summed at t = N


def test_full_draw_multiset_across_window_blocks():
    # batches straddling the block width and the wrap of pi must still read
    # every column once; the integer data is float32-exact, but window sums
    # of cols**2 pass 2^24, so partial sums hold to the rounding bound and
    # only the exhausted ones are exact
    n_cols = 2 * WINDOW_BLOCK + 600
    cols = np.arange(n_cols, dtype=float)
    vs = VectorSet(np.stack([np.ones(n_cols), cols, cols**2]), seed=4)
    for start in (0, n_cols - 300):
        arms = build_arms(vs, Query(np.ones(n_cols)), IP, start)
        assert arms.mean_error > 0.0
        order = prefix_order(arms, vs)
        ids, got, t = np.arange(3), None, 0
        for count in (250, WINDOW_BLOCK + 3, 1, n_cols - WINDOW_BLOCK - 254):
            got = arms.sums(ids, t + count, t, got)
            t += count
            want = vs.data[:, order[:t]].sum(axis=1)
            assert np.all(np.abs(got - want) <= arms.mean_error * t)
        assert t == n_cols
        assert got.tolist() == [n_cols, cols.sum(), (cols**2).sum()]


def test_exhaustion_mean_matches_list_mean():
    rng = np.random.default_rng(13)
    vs = VectorSet(rng.standard_normal((6, 128)))
    q = Query(rng.standard_normal(128))
    for kind, lists in ((IP, vs.data * q.vector), (NSD, -((vs.data - q.vector) ** 2))):
        arms = build_arms(vs, q, kind, start=5)
        means = arms.sums(np.arange(6), 128) / 128
        assert means == pytest.approx(lists.mean(axis=1), rel=1e-9)


def test_overdraw_is_a_hard_error():
    arms, ids = one_hot_arms([1.0, 2.0]), np.arange(2)
    first = arms.sums(ids, 2)
    with pytest.raises(ValueError):
        arms.sums(ids, 3, 2, first)
    with pytest.raises(ValueError):
        AdversarialInstance(np.array([0.5]), np.array([1]), 2).sums(np.array([0]), 3)


def test_pull_batch_overdraw_rejected_before_sampling():
    arms, ids = one_hot_arms([1.0, 2.0, 3.0], start=1), np.arange(3)
    first = arms.sums(ids, 2)
    with pytest.raises(ValueError):
        arms.sums(ids, 4, 2, first)
    # the rejected call read nothing: the same pull count gives the same sums
    assert arms.sums(ids, 2, 2, first).tolist() == first.tolist()


def arm_sets(n):
    """Both arm sets over n arms whose lists have length n."""
    ones = np.arange(1, n + 1)
    inst = AdversarialInstance(ones / n, ones, n)
    return [one_hot_arms(ones.astype(float)), inst.sources()]


@pytest.mark.parametrize("arms", arm_sets(3), ids=["lazy", "adversarial"])
def test_sums_rejects_a_bad_pull_count(arms):
    ids = np.arange(3)
    prior = arms.sums(ids, 2)
    assert arms.sums(ids, 3, 2, prior).tolist() == arms.sums(ids, 3).tolist()
    for done, t in ((2, 1), (0, 4), (-1, 2)):  # done > t, t > N, done < 0
        with pytest.raises(ValueError, match=f"done = {done}, t = {t} outside"):
            arms.sums(ids, t, done, prior)


@pytest.mark.parametrize("arms", arm_sets(5), ids=["lazy", "adversarial"])
def test_sums_is_a_pure_function_of_its_arguments(arms):
    # for LazySource: windows read on the strided view with 5 and 2 arms in
    # play, on the gathered row with 1, and the float64 re-sum at t = N
    steps = ((np.arange(5), 1), (np.array([0, 2]), 2), (np.array([0]), 3), (np.array([0]), 5))
    running, done = np.zeros(5), 0
    for ids, t in steps:
        prior = running[ids]
        before = prior.copy()
        got = arms.sums(ids, t, done, prior)
        assert not np.shares_memory(got, prior)
        assert prior.tolist() == before.tolist()
        assert arms.sums(ids, t, done, prior).tolist() == got.tolist()
        # one-hot sums are exact, so extending the prior equals reading afresh
        assert arms.sums(ids, t).tolist() == got.tolist()
        running[ids], done = got, t


def test_position_sampler_overdraw():
    sampler = PositionSampler(5, seed=2)
    drawn = np.concatenate([sampler.draw(2), sampler.draw(3)])
    assert sorted(drawn.tolist()) == list(range(5))
    with pytest.raises(ValueError):
        sampler.draw(1)
    # the arms' pull count never decreases either
    arms, ids = one_hot_arms([1.0, 2.0, 3.0, 4.0, 5.0]), np.arange(5)
    prior = arms.sums(ids, 5)
    with pytest.raises(ValueError):
        arms.sums(ids, 4, 5, prior)


def test_per_arm_determinism_is_schedule_independent():
    """An arm's sums depend only on (pi, start, t).

    Splitting the pulls into other rounds, or dropping other rows on the
    way, must not change what any single arm sees beyond rounding; the
    elimination loop relies on this to stay reproducible however rounds
    are sized.
    """
    rng = np.random.default_rng(21)
    vs = VectorSet(rng.standard_normal((3, 3000)), seed=17)
    q = Query(rng.standard_normal(3000))
    for kind in (IP, NSD):
        a = build_arms(vs, q, kind, start=2500)
        first = a.sums(np.arange(3), 10)
        second = a.sums(np.array([0, 2]), 1100, 10, first[[0, 2]])
        got_a = a.sums(np.array([2]), 2900, 1100, second[1:])
        b = build_arms(vs, q, kind, start=2500)
        got_b = b.sums(np.arange(3), 2900)[2:]
        # each is within mean_error * t of the exact sum, whatever its windows
        assert abs(got_a - got_b)[0] <= 2.0 * a.mean_error * 2900


@pytest.mark.parametrize("kind", [IP, NSD])
def test_a_search_reads_each_position_once(kind, monkeypatch):
    # each round extends the previous round's sums, so a search's windows
    # tile the cyclic column order from start once, up to its last target;
    # start sits 40 columns before N, so the first window ends at N and the
    # next one wraps to column 0
    rng = np.random.default_rng(40)
    n, dim = 200, 3000
    vs = VectorSet(rng.standard_normal((n, dim)), seed=12)
    draw, windows = LazySource.draw, []

    def spy(self, rows, a, b):
        windows.append((a, b))
        return draw(self, rows, a, b)

    monkeypatch.setattr(LazySource, "draw", spy)
    for frac in (0.4, 0.2, 0.0):
        q = Query(rng.standard_normal(dim))
        lo, hi = reward_range(vs, q, kind)
        config = EliminationConfig(k=5, epsilon=frac * (hi - lo), delta=0.1, range_width=hi - lo)
        arms = LazySource(vs, q, kind, dim - 40)
        windows.clear()
        _, trace = median_elimination_topk(arms, config)
        if frac == 0.0:  # round 1 reaches N: the exact scorer sums every row
            assert trace.max_arm_pulls == dim and windows == []
            continue
        assert windows[:2] == [(dim - 40, dim), (0, windows[1][1])]
        assert sum(b - a for a, b in windows) == trace.max_arm_pulls
        cols = np.concatenate([np.arange(a, b) for a, b in windows])
        assert cols.tolist() == ((dim - 40 + np.arange(trace.max_arm_pulls)) % dim).tolist()


def test_lazy_source_positions_distinct_and_in_range():
    rng = np.random.default_rng(8)
    values = rng.random(30) + 0.5
    vs = VectorSet(np.diag(values), seed=8)
    arms = build_arms(vs, Query(np.ones(30)), IP, start=29)
    batches, _ = columns_read(arms, [12, 18])
    order = prefix_order(arms, vs)
    # each batch reads the next positions of the rotated pi, nothing else
    assert sorted(batches[0]) == sorted(order[:12].tolist())
    assert sorted(batches[1]) == sorted(order[12:].tolist())
    pos = batches[0] + batches[1]
    assert len(set(pos)) == 30
    assert min(pos) >= 0 and max(pos) < 30


def test_lazy_source_rejects_wrong_shape_rewards():
    vs = VectorSet(np.ones((2, 10)))
    with pytest.raises(ValueError):
        build_arms(vs, Query(np.ones(3)), IP)
    with pytest.raises(ValueError):
        LazySource(vs, Query(np.ones(3)), IP, 0)


def test_lazy_source_rejects_an_unknown_objective():
    with pytest.raises(ValueError, match="^unknown objective kind: 'ip'$"):
        LazySource(VectorSet(np.ones((2, 3))), Query(np.ones(3)), "ip", 0)


def test_position_sampler_uniformity_smoke():
    # the first position of pi over a 4-column set should be near-uniform
    counts = np.zeros(4)
    for seed in range(2000):
        counts[VectorSet(np.ones((1, 4)), seed=seed).permuted()[0][0]] += 1
    assert counts.min() > 400  # expected 500 each; crude 4-sigma-ish floor


def test_permutation_is_a_function_of_the_seed():
    rng = np.random.default_rng(22)
    data = rng.standard_normal((5, 300))
    vs = VectorSet(data, seed=3)
    perm, permuted, rounding = vs.permuted()
    assert sorted(perm.tolist()) == list(range(300))
    # the float32 copy of the permuted data, scaled below 1 by a power of two
    scaled = np.ldexp(data[:, perm], -math.frexp(vs.coord_bound)[1])
    assert np.array_equal(permuted, scaled.astype(np.float32))
    assert 0.0 < rounding == np.abs(permuted - scaled).max() <= 2.0**-25
    other = VectorSet(rng.standard_normal((9, 300)), seed=3)
    assert np.array_equal(other.permuted()[0], perm)  # other data, same seed: same pi
    assert not np.array_equal(VectorSet(data, seed=4).permuted()[0], perm)


def test_sums_match_brute_force_however_rounds_split():
    rng = np.random.default_rng(23)
    n, dim = 40, 2500
    vs = VectorSet(rng.standard_normal((n, dim)), seed=5)
    q = Query(rng.standard_normal(dim))
    for kind in (IP, NSD):
        for trial in range(4):
            arms = build_arms(vs, q, kind, start=int(rng.integers(dim)))
            order = prefix_order(arms, vs)
            rows, running = np.arange(n), np.zeros(n)
            t = 0
            while t < dim:
                done, t = t, min(dim, t + int(rng.integers(1, 1500)))
                got = arms.sums(rows, t, done, running[rows])
                running[rows] = got
                cols = order[:t]
                block = vs.data[np.ix_(rows, cols)]
                if kind is IP:
                    want = block @ q.vector[cols]
                else:
                    want = -((block - q.vector[cols]) ** 2).sum(axis=1)
                assert np.all(np.abs(got - want) <= arms.mean_error * t)
                rows = np.sort(rng.choice(rows, size=max(1, rows.size // 2), replace=False))


def test_adversarial_sums_closed_form():
    inst = AdversarialInstance(np.array([0.2, 0.9, 0.0]), np.array([2, 9, 0]), 10)
    arms, ids, got = inst.sources(), np.arange(3), None
    lists = [[1.0] * 2 + [0.0] * 8, [1.0] * 9 + [0.0], [0.0] * 10]  # ones first
    for t in range(11):
        want = [sum(rewards[:t]) for rewards in lists]
        got = arms.sums(ids, t, max(t - 1, 0), got)
        assert got.tolist() == want


# --- the float32 window engine -------------------------------------------------


def dyadic_case(kind, rng, n, dim, data_shift, query_shift):
    """Float32-exact data and a mixed-sign query whose float64 reward sums
    are exact in any order, so a float64 brute force is the exact answer.

    Inner product: 8-bit integer data and a 28-bit query, which float32
    must round, leave every partial sum below 2^46 units.  Distance: 6-bit
    data and a 20-bit query on one scale keep squared gaps below 2^40 units.
    Scaling by powers of two keeps both properties.
    """
    if kind is IP:
        data = rng.integers(-(2**7), 2**7, (n, dim)) * 2.0**data_shift
        query = rng.integers(-(2**27), 2**27, dim) * 2.0 ** (query_shift - 20)
    else:
        data = rng.integers(-(2**5), 2**5, (n, dim)) * 2.0**data_shift
        query = rng.integers(-(2**19), 2**19, dim) * 2.0 ** (data_shift - 14)
    return VectorSet(data, seed=int(rng.integers(2**31))), Query(query)


def spy_on_views(arms):
    """Record, per window ``arms`` evaluates, whether it read the strided view."""
    views = []
    draw = arms.draw

    def spy(rows, a, b):
        views.append(rows is None)
        return draw(rows, a, b)

    arms.draw = spy
    return views


def brute_sums(vs, q, kind, rows, cols):
    block = vs.data[np.ix_(rows, cols)]
    if kind is IP:
        return block @ q.vector[cols]
    return -((block - q.vector[cols]) ** 2).sum(axis=1)


@pytest.mark.parametrize("kind", [IP, NSD])
@pytest.mark.parametrize("data_shift, query_shift", [(0, 0), (-60, -60), (60, -60), (-60, 60), (60, 60)])
def test_float32_means_within_mean_error_and_exact_at_exhaustion(kind, data_shift, query_shift):
    rng = np.random.default_rng([31, data_shift + 100, query_shift + 100, kind is IP])
    n, dim = 40, 2500
    vs, q = dyadic_case(kind, rng, n, dim, data_shift, query_shift)
    assert vs.permuted()[1].dtype == np.float32
    for trial in range(3):
        arms = build_arms(vs, q, kind, start=int(rng.integers(dim)))
        # scaled by powers of two, no window here could overflow float32
        assert 0.0 < arms.mean_error < math.inf
        order = prefix_order(arms, vs)
        views = spy_on_views(arms)
        rows, running, t = np.arange(n), np.zeros(n), 0
        # survivor counts fall from all n rows, where distance windows leave
        # the view, and cross a quarter of n (10) from above, where
        # inner-product windows leave it
        for size in (n, 31, 12, 10, 9, 4, 4, 4, 4, 4):
            rows = np.sort(rng.choice(rows, size=size, replace=False))
            done, t = t, min(dim - 1, t + int(rng.integers(1, 700)))
            views.clear()
            got = arms.sums(rows, t, done, running[rows])
            running[rows] = got
            want = brute_sums(vs, q, kind, rows, order[:t])
            assert np.all(np.abs(got / t - want / t) <= arms.mean_error)
            on_view = size == n if kind is NSD else 4 * size >= n
            assert set(views) <= {on_view}
        got = arms.sums(rows, dim, t, running[rows])
        assert got.tolist() == brute_sums(vs, q, kind, rows, np.arange(dim)).tolist()


@pytest.mark.parametrize("kind", [IP, NSD])
def test_float32_means_within_mean_error_random_data(kind):
    # Gaussian float32 data against a float64 query that float32 rounds
    rng = np.random.default_rng(32)
    n, dim = 30, 3000
    vs = VectorSet(rng.standard_normal((n, dim)).astype(np.float32), seed=6)
    q = Query(rng.standard_normal(dim) * 3.0)
    arms = build_arms(vs, q, kind, start=int(rng.integers(dim)))
    assert arms.mean_error > 0.0
    # the bounds LazySource takes from the set and the query are their
    # largest |entry|; float32 holds the scaled data exactly, and scaling by
    # powers of two leaves the bound as it is unscaled, bit for bit
    assert vs.permuted()[2] == 0.0
    bounds = float(np.abs(vs.data).max()), float(np.abs(q.vector).max())
    assert arms.mean_error == _float32_mean_error(kind, *bounds, 0.0)
    order = prefix_order(arms, vs)
    rows, running, t = np.arange(n), np.zeros(n), 0
    while t < dim - 1:
        done, t = t, min(dim - 1, t + int(rng.integers(1, 900)))
        want = brute_sums(vs, q, kind, rows, order[:t])
        running[rows] = arms.sums(rows, t, done, running[rows])
        assert np.all(np.abs(running[rows] - want) <= arms.mean_error * t)
        rows = np.sort(rng.choice(rows, size=max(1, rows.size * 2 // 3), replace=False))
    want = brute_sums(vs, q, kind, rows, order)
    assert np.allclose(arms.sums(rows, dim, t, running[rows]), want, rtol=1e-12, atol=0.0)


@pytest.mark.parametrize("kind", [IP, NSD])
def test_float32_underflow_stays_within_mean_error(kind):
    # a set spanning 2^166 in magnitude: one entry of 1 sets the scale, and
    # the rest, at 2^-160 steps, fall below float32's least subnormal even
    # scaled, as do their products and squared gaps, where the copy's
    # rounding and the bound's underflow terms cover them
    rng = np.random.default_rng(36)
    n, dim = 8, 1500
    data = rng.integers(-(2**6), 2**6, (n, dim)) * 2.0**-160
    data[3, 7] = 1.0
    vs = VectorSet(data)
    scale = 1.0 if kind is IP else 2.0**-154
    q = Query(rng.standard_normal(dim) * scale)
    arms = build_arms(vs, q, kind, start=int(rng.integers(dim)))
    assert 0.0 < vs.permuted()[2] <= 2.0**-150 and arms.mean_error > 0.0
    order = prefix_order(arms, vs)
    rows, got, done = np.arange(n), None, 0
    for t in (100, 1200, dim - 1):
        want = brute_sums(vs, q, kind, rows, order[:t])
        got = arms.sums(rows, t, done, got)
        assert np.all(np.abs(got - want) <= arms.mean_error * t)
        done = t


@pytest.mark.parametrize("scale", [1.0, 2.0**30, 2.0**-60])
def test_float32_distance_windows_within_mean_error_under_cancellation(scale):
    # float32-exact rows at the common offset 2^10 with dyadic perturbations
    # of 2^-8 steps, against a query next to them that float32 must round
    # (steps of 2^-20): 2 v.q~ and v.v + q~.q~ agree in their leading ~20
    # bits, so the expanded window keeps only what their rounding leaves.
    # Gaps are multiples of 2^-20 below 1/2, so the float64 brute force is
    # exact in any order; all of it scales by powers of two.
    rng = np.random.default_rng([39, int(np.log2(scale)) + 100])
    n, dim, offset = 40, 7500, 2.0**10
    data = (offset + rng.integers(-(2**6), 2**6, (n, dim)) * 2.0**-8) * scale
    query = (offset + rng.integers(-(2**18), 2**18, dim) * 2.0**-20) * scale
    vs, q = VectorSet(data, seed=int(rng.integers(2**31))), Query(query)
    assert vs.permuted()[1].dtype == np.float32
    inexact = 0
    for trial in range(2):
        arms = build_arms(vs, q, NSD, start=int(rng.integers(dim)))
        assert arms.mean_error > 0.0
        order = prefix_order(arms, vs)
        rows, running, t = np.arange(n), np.zeros(n), 0
        for size in (n, 20, 10, 5, 3, 2, 1):  # halving, as the search does
            rows = np.sort(rng.choice(rows, size=size, replace=False))
            done, t = t, t + int(rng.integers(WINDOW_BLOCK // 2, WINDOW_BLOCK + 40))
            got = arms.sums(rows, t, done, running[rows])
            running[rows] = got
            want = brute_sums(vs, q, NSD, rows, order[:t])
            assert np.all(np.abs(got - want) <= arms.mean_error * t)
            inexact += int(np.count_nonzero(got != want))
        got = arms.sums(rows, dim, t, running[rows])
        assert got.tolist() == brute_sums(vs, q, NSD, rows, np.arange(dim)).tolist()
    assert inexact > 0  # the windows did round: the bound, not luck, holds them


def test_gathered_float32_distance_round_allocates_only_the_block():
    # a distance window on gathered float32 rows is evaluated on the block as
    # read: besides it, only vectors of one entry per survivor
    rng = np.random.default_rng(54)
    n, dim, s = 400, 3000, 200
    vs = VectorSet(rng.random((n, dim)).astype(np.float32))
    q = Query(rng.random(dim))
    arms = build_arms(vs, q, NSD, start=11)
    assert arms.mean_error > 0.0
    ids = np.sort(rng.choice(n, s, replace=False))
    prior = arms.sums(ids, 5)
    tracemalloc.start()
    try:
        got = arms.sums(ids, 5 + WINDOW_BLOCK, 5, prior)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    block = s * WINDOW_BLOCK * 4
    assert peak <= block + 64 * s + 4096, (peak, block)
    assert np.allclose(got, arms.sums(ids, 5 + WINDOW_BLOCK), rtol=1e-6)


@pytest.mark.parametrize("kind", [IP, NSD])
def test_inexact_data_means_within_mean_error(kind):
    # one entry float32 cannot hold, in the last row block, beyond its range
    # or below its least subnormal, on sets and mixed-sign queries scaled
    # alike by powers of two: the copy is float32 and a finite eta bounds
    # every window mean.  A scaled set whose reward sums overflow float64 is
    # rejected by reward_range, as the search rejects it; its arms still
    # build, with no error or warning.  One inner-product query alone is
    # scaled by 2^-1040: its bound lies below 2^-1022, so its power-of-two
    # scale 2^-g is past float64's range and only ldexp applies it.
    rng = np.random.default_rng(33)
    n, dim = 150, 40
    exact = rng.standard_normal((n, dim)).astype(np.float32).astype(np.float64)
    scales = [(s, s) for s in (1.0, 2.0**60, 2.0**-60, 2.0**500, 2.0**-500)]
    if kind is IP:
        scales.append((1.0, 2.0**-1040))
    for i, value in ((149, 1.0 + 2.0**-30), (0, 1e39), (80, 1e-46)):
        for scale, q_scale in scales:
            data = exact.copy()
            data[i, 7] = value
            vs = VectorSet(data * scale, seed=2)
            q = Query(rng.standard_normal(dim) * q_scale)
            assert q_scale > 2.0**-1000 or q.coord_bound < 2.0**-1022
            try:
                reward_range(vs, q, kind)
            except ValueError:
                build_arms(vs, q, kind)
                continue
            assert vs.permuted()[1].dtype == np.float32 and vs.permuted()[2] > 0.0
            arms = build_arms(vs, q, kind, start=int(rng.integers(dim)))
            assert 0.0 < arms.mean_error < math.inf
            order = prefix_order(arms, vs)
            rows, running, t = np.arange(n), np.zeros(n), 0
            for size in (n, 100, 30, 7):
                rows = np.sort(rng.choice(rows, size=size, replace=False))
                done, t = t, t + 9
                running[rows] = arms.sums(rows, t, done, running[rows])
                want = brute_sums(vs, q, kind, rows, order[:t])
                assert np.all(np.abs(running[rows] / t - want / t) <= arms.mean_error)


@pytest.mark.parametrize("log2_ratio", [60, 200, 1060])
def test_distance_query_past_float32_range_exhausts_in_round_1(log2_ratio):
    # a distance query 2^60 times the set's bound could overflow a float32
    # window, and at 2^200 its scaled copy overflows float32 itself: eta is
    # inf, round 1 reads every column, and the exact scan answers, warning
    # about nothing; at 2^1060 (subnormal data, a scale of 2^-2114) the
    # later rounds keep the exact sums without rescaling them
    rng = np.random.default_rng(41)
    vs = VectorSet(np.ldexp(rng.standard_normal((50, 300)), -log2_ratio))
    q = Query(rng.standard_normal(300))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert build_arms(vs, q, NSD).mean_error == math.inf
        lo, hi = reward_range(vs, q, NSD)
        ids, trace = mips_topk(vs, q, 4, 0.4 * (hi - lo), 0.1, seed=3, kind=NSD)
    truth = naive_topk(vs, q, 4, NSD)
    assert trace.rounds[0].pull_target == 300
    assert ids == truth.topk_ids
    assert [m.hex() for m in trace.returned_means] == [m.hex() for m in truth.means[ids]]


def round_targets(trace, k, width, dim, mean_error):
    targets, target = [], 0
    for rec in trace.rounds:
        target = max(target, round_pull_target(
            rec.survivors, k, rec.epsilon_round, rec.delta_round, width, dim, mean_error
        ))
        targets.append(target)
    return targets


def test_round_targets_absorb_mean_error():
    rng = np.random.default_rng(34)
    data64 = rng.standard_normal((200, 3000))
    q = Query(rng.standard_normal(3000))
    for data in (data64, data64.astype(np.float32)):
        vs = VectorSet(data)
        lo, hi = reward_range(vs, q, IP)
        eta = build_arms(vs, q, IP).mean_error
        assert eta > 0.0  # float32 windows on every set
        for frac in (0.05, 0.4):
            eps = frac * (hi - lo)
            ids, trace = mips_topk(vs, q, 5, eps, 0.1, seed=3)
            got = [rec.pull_target for rec in trace.rounds]
            assert got == round_targets(trace, 5, hi - lo, 3000, eta)
            unwidened = round_targets(trace, 5, hi - lo, 3000, 0.0)
            assert all(a >= b for a, b in zip(got, unwidened))


def test_float32_radius_too_small_for_the_bound_exhausts_exactly():
    rng = np.random.default_rng(35)
    vs = VectorSet(rng.standard_normal((60, 2000)).astype(np.float32))
    q = Query(rng.standard_normal(2000))
    truth = naive_topk(vs, q, 4).topk_ids
    eta = build_arms(vs, q, IP).mean_error
    # epsilon 0, and a first round whose eps_1/2 = epsilon/8 does not exceed eta
    for eps in (0.0, 8.0 * eta):
        ids, trace = mips_topk(vs, q, 4, eps, 0.1, seed=5)
        assert trace.rounds[0].pull_target == 2000
        assert ids == truth


# --- oracle: the engine in the sums(rows, t) protocol --------------------------


def engine_cases():
    """(vectors, queries, k) on float32-exact and inexact float64 data, n of
    120 and 600; every search halves through a quarter of n."""
    rng = np.random.default_rng(37)
    for n, dim, queries in ((120, 2500, 10), (600, 1300, 3)):
        for exact32 in (True, False):
            data = rng.standard_normal((n, dim))
            if exact32:
                data = data.astype(np.float32).astype(np.float64)
            vs = VectorSet(data, seed=int(rng.integers(2**31)))
            assert vs.permuted()[1].dtype == np.float32
            assert (vs.permuted()[2] == 0.0) == exact32
            yield vs, [Query(rng.standard_normal(dim)) for _ in range(queries)], 5


def test_engine_matches_the_rows_protocol_oracle():
    # eps/w = 1e-7 puts eps_1/2 = eps/8 below eta, so round 1 exhausts
    searches = 0
    for vs, queries, k in engine_cases():
        for q in queries:
            for kind in (IP, NSD):
                lo, hi = reward_range(vs, q, kind)
                for frac in (1.6, 0.4, 0.2, 0.0, 1e-7):
                    config = EliminationConfig(k=k, epsilon=frac * (hi - lo), delta=0.1,
                                               range_width=hi - lo)
                    start = (searches * 7919) % vs.dim
                    args = (vs, q, kind, start)
                    ids, trace = median_elimination_topk(LazySource(*args), config)
                    want_ids, want = oracle_topk(RowsLazySource(*args), config)
                    assert ids == want_ids
                    assert trace.total_pulls == want.total_pulls
                    assert trace.max_arm_pulls == want.max_arm_pulls
                    assert trace.rounds == want.rounds
                    assert [m.hex() for m in trace.returned_means] == [
                        m.hex() for m in want.returned_means
                    ]
                    searches += 1
    assert searches == 2 * 5 * 2 * (10 + 3)  # kinds x epsilons x dtypes x queries


def test_searches_leave_the_permuted_copy_unchanged():
    # a spy on draw sees every window the searches evaluate; with the copy
    # read-only, a write into it would raise, and no window result may
    # share memory with it
    rng = np.random.default_rng(38)
    for dtype in (np.float32, np.float64):
        data = rng.random((80, 1500))
        vs = VectorSet(data.astype(dtype).astype(np.float64) if dtype is np.float32 else data)
        perm, permuted, _ = vs.permuted()
        assert permuted.dtype == np.float32
        before = permuted.copy()
        permuted.flags.writeable = False
        draws = []
        draw = LazySource.draw

        def spy(self, rows, a, b):
            out = draw(self, rows, a, b)
            draws.append(rows is None)
            assert not np.shares_memory(out, self._data)
            return out

        LazySource.draw = spy
        try:
            for kind in (IP, NSD):
                q = Query(rng.random(1500))
                lo, hi = reward_range(vs, q, kind)
                for frac in (1.6, 0.2, 0.0):
                    mips_topk(vs, q, 4, frac * (hi - lo), 0.1, seed=int(rng.integers(99)), kind=kind)
        finally:
            LazySource.draw = draw
        assert True in draws and False in draws  # both the view and gathered rows
        assert np.array_equal(permuted, before)
        assert vs.permuted()[1] is permuted


# --- the exact scorer ----------------------------------------------------------

# row counts on the edges of the row blocks of EDGE_DIM-entry rows
EDGE_DIM = 777
STEP = row_block(EDGE_DIM)
BLOCK_EDGES = [0, 1, STEP - 1, STEP, STEP + 1, 2 * STEP + 2]


@pytest.mark.parametrize("count", BLOCK_EDGES)
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("kind", [IP, NSD])
def test_exact_sums_match_a_row_by_row_scan(kind, dtype, count):
    # every row of a count-row matrix, and count rows gathered from a taller
    # one in any order and with repeats, against an fsum over each row
    rng = np.random.default_rng([50, count])
    dim = EDGE_DIM
    matrix = rng.standard_normal((count, dim)).astype(dtype)
    tall = rng.standard_normal((200, dim)).astype(dtype)
    query = rng.standard_normal(dim)
    for m, rows in ((matrix, None), (tall, rng.integers(0, 200, count))):
        got = exact_sums(m, query, kind, rows)
        want, size = oracle_scan(m, query, kind, rows)
        assert got.dtype == np.float64 and got.shape == (count,)
        assert np.all(np.abs(got - want) <= dim * 2.0**-52 * size)


@pytest.mark.parametrize("count", BLOCK_EDGES)
def test_exact_sums_keep_the_bits_of_the_whole_matrix_forms(count):
    # every row's inner product is one data @ q; distances sum each row as the
    # whole-matrix einsum does; gathered float32 rows against a float64 query
    # sum as the mixed-dtype product of their row_block-row block does (a
    # 1-row block can round otherwise than that row inside a longer product);
    # rows of 5000 entries go in shorter blocks than rows of EDGE_DIM
    rng = np.random.default_rng([51, count])
    for dim in (EDGE_DIM, 5000):
        data, q = rng.standard_normal((count, dim)), rng.standard_normal(dim)
        assert exact_sums(data, q, IP).tolist() == (data @ q).tolist()
        diff = data - q
        want = -np.einsum("ij,ij->i", diff, diff)
        assert exact_sums(data, q, NSD).tolist() == want.tolist()
        rows, f32, step = rng.permutation(count), data.astype(np.float32), row_block(dim)
        blocks = [f32[rows[a : a + step]] @ q for a in range(0, count, step)]
        assert exact_sums(f32, q, IP, rows).tolist() == np.concatenate([[], *blocks]).tolist()
    assert row_block(5000) < STEP


@pytest.mark.parametrize("kind", [IP, NSD])
def test_exhausted_rows_are_scored_over_the_file_order_rows(kind):
    # gathered rows that reach t = N in a later round are the scorer's
    # float64 sums of the file-order rows against the query
    rng = np.random.default_rng(52)
    n, dim = 130, 500
    vs = VectorSet(rng.standard_normal((n, dim)).astype(np.float32))
    q = Query(rng.standard_normal(dim))
    arms = build_arms(vs, q, kind, start=7)
    assert arms.mean_error > 0.0
    ids = np.sort(rng.choice(n, 70, replace=False))
    got = arms.sums(ids, dim, 200, arms.sums(ids, 200))
    assert got.tolist() == exact_sums(vs.data, q.vector, kind, ids).tolist()
    # every row at once, in any order, is naive_topk's one scan
    every = rng.permutation(n)
    assert arms.sums(every, dim).tolist() == exact_sums(vs.data, q.vector, kind)[every].tolist()


@pytest.mark.parametrize("exact32", [True, False])
@pytest.mark.parametrize("kind", [IP, NSD])
@pytest.mark.parametrize("seed", [60, 61, 62, 63])
def test_exact_search_is_the_naive_scan(kind, seed, exact32):
    # epsilon 0, and a first round whose eps_1/2 does not exceed eta, exhaust
    # every row in round 1: ids and means are naive_topk's, bit for bit, on
    # float32-exact and on inexact float64 data alike
    rng = np.random.default_rng(seed)
    n, dim, k = 300, 4000, 7
    data = rng.standard_normal((n, dim))
    if exact32:
        data = data.astype(np.float32).astype(np.float64)
    vs, q = VectorSet(data, seed=seed), Query(rng.standard_normal(dim))
    assert (vs.permuted()[2] == 0.0) == exact32
    truth = naive_topk(vs, q, k, kind)
    eta = build_arms(vs, q, kind).mean_error
    assert eta > 0.0
    for eps in (0.0, 8.0 * eta):
        ids, trace = mips_topk(vs, q, k, eps, 0.1, seed=seed, kind=kind)
        assert trace.rounds[0].pull_target == dim
        assert ids == truth.topk_ids
        assert [m.hex() for m in trace.returned_means] == [m.hex() for m in truth.means[ids]]
