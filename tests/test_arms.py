"""Arm sets: cumulative reward sums under without-replacement pulls.

``LazySource`` holds the arms of one query (``build_arms``), which read
coordinates in the column permutation pi of their ``VectorSet``, drawn by
a ``PositionSampler``, from a cyclic start; an ``AdversarialInstance`` is
its own arm set, its ones-first lists read in stored order.

Several tests use one-hot data: with ``data = diag(values)`` and an all-ones
query, arm i's only nonzero reward sits at column i, so the arms whose sums
change during a call are exactly the columns that call read, and every sum
is exact.
"""

import numpy as np
import pytest

from bandit_mips.arms import WINDOW_BLOCK, LazySource, PositionSampler
from bandit_mips.baselines import naive_topk
from bandit_mips.datasets import AdversarialInstance
from bandit_mips.elimination import elimination_schedule, pull_batch, round_pull_target
from bandit_mips.mips import ObjectiveKind, Query, VectorSet, build_arms, mips_topk, reward_range

IP = ObjectiveKind.INNER_PRODUCT
NSD = ObjectiveKind.NEG_SQ_DISTANCE


def one_hot_arms(values, seed=0, start=0):
    values = np.asarray(values, dtype=float)
    vs = VectorSet(np.diag(values), seed=seed)
    return build_arms(vs, Query(np.ones(values.size)), IP, start)


def columns_read(arms, splits):
    """Pull all rows through the batch sizes ``splits``; the columns each batch read."""
    rows = np.arange(arms.n)
    before = np.zeros(arms.n)
    t = 0
    batches = []
    for count in splits:
        t += count
        now = arms.sums(rows, t)
        batches.append(np.flatnonzero(now != before).tolist())
        before = now
    return batches, before


def prefix_order(arms, vectors):
    return np.roll(vectors.permuted()[0], -arms.start)


def test_materialized_full_draw_exact_mean():
    vs = VectorSet(np.array([[1.0, 0.0, 0.0, 0.0]]))
    arms = build_arms(vs, Query(np.ones(4)), IP, start=3)
    assert arms.sums(np.array([0]), 4)[0] / 4 == 0.25


def test_empirical_mean_requires_pulls():
    arms = one_hot_arms([1.0, 2.0])
    with pytest.raises(ValueError):
        pull_batch(arms, np.arange(2), 0)
    assert pull_batch(arms, np.arange(2), 2).tolist() == [0.5, 1.0]


def test_stream_source_fixed_order():
    # ones stream out before zeros, so a 3-pull prefix sees only ones
    arms = AdversarialInstance(np.array([0.3]), np.array([3]), 10)
    assert arms.sums(np.array([0]), 3)[0] / 3 == 1.0
    assert arms.sums(np.array([0]), 10)[0] / 10 == 0.3


def test_full_draw_recovers_multiset():
    rng = np.random.default_rng(11)
    values = rng.random(40) + 0.5  # nonzero, so every read shows
    for splits in ([40], [13, 27], [1] * 40, [5, 30, 5]):
        arms = one_hot_arms(values, seed=9, start=17)
        batches, final = columns_read(arms, splits)
        assert [len(b) for b in batches] == splits
        assert sorted(c for b in batches for c in b) == list(range(40))
        assert sorted(final.tolist()) == sorted(values.tolist())  # exact: only zeros added


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
        t = 0
        for count in (250, WINDOW_BLOCK + 3, 1, n_cols - WINDOW_BLOCK - 254):
            t += count
            got = arms.sums(np.arange(3), t)
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
    arms = one_hot_arms([1.0, 2.0])
    arms.sums(np.arange(2), 2)
    with pytest.raises(ValueError):
        arms.sums(np.arange(2), 3)
    with pytest.raises(ValueError):
        AdversarialInstance(np.array([0.5]), np.array([1]), 2).sums(np.array([0]), 3)


def test_pull_batch_overdraw_rejected_before_sampling():
    arms = one_hot_arms([1.0, 2.0, 3.0], start=1)
    first = arms.sums(np.arange(3), 2).tolist()
    with pytest.raises(ValueError):
        arms.sums(np.arange(3), 4)
    # the rejected call read nothing: the same pull count gives the same sums
    assert arms.sums(np.arange(3), 2).tolist() == first


def test_pull_batch_arm_id_mismatch():
    # only rows of the previous call may be asked about again
    arms = one_hot_arms([1.0, 2.0, 3.0])
    arms.sums(np.array([0, 2]), 1)
    with pytest.raises(ValueError):
        arms.sums(np.array([1, 2]), 2)


def test_position_sampler_overdraw():
    sampler = PositionSampler(5, seed=2)
    drawn = np.concatenate([sampler.draw(2), sampler.draw(3)])
    assert sorted(drawn.tolist()) == list(range(5))
    with pytest.raises(ValueError):
        sampler.draw(1)
    # the arms' pull count never decreases either
    arms = one_hot_arms([1.0, 2.0, 3.0, 4.0, 5.0])
    arms.sums(np.arange(5), 5)
    with pytest.raises(ValueError):
        arms.sums(np.arange(5), 4)


def test_per_arm_determinism_is_schedule_independent():
    """An arm's sums depend only on (pi, start, t).

    Splitting the pulls into other rounds, or asking about other rows on
    the way, must not change what any single arm sees beyond rounding; the
    elimination loop relies on this to stay reproducible however rounds
    are sized.
    """
    rng = np.random.default_rng(21)
    vs = VectorSet(rng.standard_normal((3, 3000)), seed=17)
    q = Query(rng.standard_normal(3000))
    for kind in (IP, NSD):
        a = build_arms(vs, q, kind, start=2500)
        a.sums(np.arange(3), 10)
        a.sums(np.array([0, 2]), 1100)
        got_a = a.sums(np.array([2]), 2900)
        b = build_arms(vs, q, kind, start=2500)
        got_b = b.sums(np.array([2]), 2900)
        assert got_a == pytest.approx(got_b, rel=1e-9)


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
        LazySource(np.ones((2, 10)), np.ones(3), IP)


def test_position_sampler_uniformity_smoke():
    # the first position of pi over a 4-column set should be near-uniform
    counts = np.zeros(4)
    for seed in range(2000):
        counts[VectorSet(np.ones((1, 4)), seed=seed).permuted()[0][0]] += 1
    assert counts.min() > 400  # expected 500 each; crude 4-sigma-ish floor


def test_permutation_is_a_function_of_the_seed():
    rng = np.random.default_rng(22)
    data = rng.standard_normal((5, 300))
    perm, permuted = VectorSet(data, seed=3).permuted()
    assert sorted(perm.tolist()) == list(range(300))
    assert np.array_equal(permuted, data[:, perm])
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
            rows = np.arange(n)
            t = 0
            while t < dim:
                t = min(dim, t + int(rng.integers(1, 1500)))
                got = arms.sums(rows, t)
                cols = order[:t]
                block = vs.data[np.ix_(rows, cols)]
                if kind is IP:
                    want = block @ q.vector[cols]
                else:
                    want = -((block - q.vector[cols]) ** 2).sum(axis=1)
                assert np.allclose(got, want, rtol=1e-9, atol=1e-9 * dim)
                rows = np.sort(rng.choice(rows, size=max(1, rows.size // 2), replace=False))


def test_adversarial_sums_closed_form():
    inst = AdversarialInstance(np.array([0.2, 0.9, 0.0]), np.array([2, 9, 0]), 10)
    arms = inst.sources()
    for t in range(11):
        want = [inst.reward_list(i)[:t].sum() for i in range(3)]
        assert arms.sums(np.arange(3), t).tolist() == want


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
        # float32 windows unless they could overflow: then float64, exact
        overflows = data_shift == 60 and (kind is NSD or query_shift == 60)
        assert (arms.mean_error == 0.0) == overflows
        order = prefix_order(arms, vs)
        rows, t = np.arange(n), 0
        # survivor counts cross a quarter of n (10) from above
        for size in (n, 31, 12, 10, 9, 4, 4, 4, 4, 4):
            rows = np.sort(rng.choice(rows, size=size, replace=False))
            t = min(dim - 1, t + int(rng.integers(1, 700)))
            got = arms.sums(rows, t)
            want = brute_sums(vs, q, kind, rows, order[:t])
            assert np.all(np.abs(got / t - want / t) <= arms.mean_error)
        got = arms.sums(rows, dim)
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
    order = prefix_order(arms, vs)
    rows, t = np.arange(n), 0
    while t < dim - 1:
        t = min(dim - 1, t + int(rng.integers(1, 900)))
        want = brute_sums(vs, q, kind, rows, order[:t])
        assert np.all(np.abs(arms.sums(rows, t) - want) <= arms.mean_error * t)
        rows = np.sort(rng.choice(rows, size=max(1, rows.size * 2 // 3), replace=False))
    want = brute_sums(vs, q, kind, rows, order)
    assert np.allclose(arms.sums(rows, dim), want, rtol=1e-12, atol=0.0)


@pytest.mark.parametrize("kind", [IP, NSD])
def test_float32_underflow_stays_within_mean_error(kind):
    # float32 subnormal data: products and squared gaps fall below float32's
    # least subnormal, where only the bound's underflow term covers them
    rng = np.random.default_rng(36)
    n, dim = 8, 1500
    vs = VectorSet(rng.integers(-(2**6), 2**6, (n, dim)) * 2.0**-149)
    scale = 1.0 if kind is IP else 2.0**-143
    q = Query(rng.standard_normal(dim) * scale)
    arms = build_arms(vs, q, kind, start=int(rng.integers(dim)))
    assert arms.mean_error > 0.0
    order = prefix_order(arms, vs)
    rows = np.arange(n)
    for t in (100, 1200, dim - 1):
        want = brute_sums(vs, q, kind, rows, order[:t])
        assert np.all(np.abs(arms.sums(rows, t) - want) <= arms.mean_error * t)


def test_inexact_data_gets_a_float64_copy_and_no_rounding_bound():
    rng = np.random.default_rng(33)
    exact = rng.standard_normal((150, 40)).astype(np.float32).astype(np.float64)
    assert VectorSet(exact).permuted()[1].dtype == np.float32
    # one entry float32 cannot hold, in the last row block or beyond its range
    for i, value in ((149, 1.0 + 2.0**-30), (0, 1e39), (80, 1e-46)):
        data = exact.copy()
        data[i, 7] = value
        vs = VectorSet(data, seed=2)
        perm, copy = vs.permuted()
        assert copy.dtype == np.float64 and np.array_equal(copy, data[:, perm])
        for kind in (IP, NSD):
            assert build_arms(vs, Query(rng.standard_normal(40)), kind).mean_error == 0.0


def round_targets(trace, k, epsilon, delta, width, dim, mean_error):
    targets, target = [], 0
    for rec in trace.rounds:
        eps_l, delta_l = elimination_schedule(epsilon, delta, rec.round_index)
        target = max(target, round_pull_target(
            rec.survivors, k, eps_l, delta_l, width, dim, mean_error
        ))
        targets.append(target)
    return targets


def test_round_targets_absorb_mean_error_only_on_float32_copies():
    rng = np.random.default_rng(34)
    data64 = rng.standard_normal((200, 3000))
    q = Query(rng.standard_normal(3000))
    for data in (data64, data64.astype(np.float32)):
        vs = VectorSet(data)
        lo, hi = reward_range(vs, q, IP)
        eta = build_arms(vs, q, IP).mean_error
        assert (eta > 0.0) == (data.dtype == np.float32)
        for frac in (0.05, 0.4):
            eps = frac * (hi - lo)
            ids, trace = mips_topk(vs, q, 5, eps, 0.1, seed=3)
            got = [rec.pull_target for rec in trace.rounds]
            # float64 data: exactly the targets of the unwidened radius
            assert got == round_targets(trace, 5, eps, 0.1, hi - lo, 3000, eta)
            unwidened = round_targets(trace, 5, eps, 0.1, hi - lo, 3000, 0.0)
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
