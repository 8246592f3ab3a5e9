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
from bandit_mips.datasets import AdversarialInstance
from bandit_mips.elimination import pull_batch
from bandit_mips.mips import ObjectiveKind, Query, VectorSet, build_arms

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
    # every column once; integer data keeps every sum exact
    n_cols = 2 * WINDOW_BLOCK + 600
    cols = np.arange(n_cols, dtype=float)
    vs = VectorSet(np.stack([np.ones(n_cols), cols, cols**2]), seed=4)
    for start in (0, n_cols - 300):
        arms = build_arms(vs, Query(np.ones(n_cols)), IP, start)
        order = prefix_order(arms, vs)
        t = 0
        for count in (250, WINDOW_BLOCK + 3, 1, n_cols - WINDOW_BLOCK - 254):
            t += count
            got = arms.sums(np.arange(3), t)
            assert got.tolist() == vs.data[:, order[:t]].sum(axis=1).tolist()
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
