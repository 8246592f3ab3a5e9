"""Round schedule, per-round pull targets, and the halving loop."""

import math
import warnings

import numpy as np
import pytest

from bandit_mips.bounds import shrinkage
from bandit_mips.elimination import (
    EliminationConfig,
    elimination_schedule,
    eliminate,
    median_elimination_topk,
    round_pull_target,
)


# --- schedule ---------------------------------------------------------------


def test_schedule_first_round():
    assert elimination_schedule(0.2, 0.1, 1) == (0.05, 0.05)


def test_schedule_second_round_values():
    eps2, del2 = elimination_schedule(0.4, 0.2, 2)
    assert eps2 == pytest.approx(0.075, abs=1e-15)
    assert del2 == pytest.approx(0.05, abs=1e-15)


def test_schedule_partial_sums_stay_below_budget():
    eps, delta = 0.37, 0.21
    se = sd = 0.0
    for l in range(1, 31):
        e, d = elimination_schedule(eps, delta, l)
        se += e
        sd += d
        assert se <= eps + 1e-12
        assert sd <= delta + 1e-12
    # geometric tails: 30 rounds nearly exhaust both budgets
    assert se == pytest.approx(eps, rel=1e-3)
    assert sd == pytest.approx(delta, rel=1e-6)


# --- round_pull_target ------------------------------------------------------


def brute_force_min_pulls(u, list_len):
    for m in range(1, list_len + 1):
        r = shrinkage(m, list_len)
        if r == 0.0 or m / r >= u:
            return m
    return list_len


def test_round_target_frozen_value():
    # u = 200 * ln(30 / 0.4); closed form 856.11..., scan oracle gives 857
    t = round_pull_target(16, 1, 0.1, 0.05, 1.0, 100_000)
    assert t == 857
    u = (2.0 / 0.1 ** 2) * math.log(2 * 15 / (0.05 * 8))
    assert brute_force_min_pulls(u, 100_000) == 857


def test_round_target_single_excess_log_argument():
    # surviving - k = 1 makes the log argument exactly 2/delta_l
    delta_l = 0.07
    t = round_pull_target(6, 5, 0.25, delta_l, 1.0, 10 ** 6)
    u = (2.0 / 0.25 ** 2) * math.log(2.0 / delta_l)
    assert t == min(max(math.ceil(min((u + 1) / (1 + u / 10 ** 6),
                                      (u + u / 10 ** 6) / (1 + u / 10 ** 6))), 0), 10 ** 6)


def test_round_target_never_exceeds_list_len():
    rng = np.random.default_rng(3)
    for _ in range(100):
        n_sur = int(rng.integers(2, 300))
        k = int(rng.integers(1, n_sur))
        eps = float(rng.uniform(0.01, 1.0))
        dl = float(rng.uniform(0.001, 0.4))
        width = float(rng.uniform(0.1, 10.0))
        list_len = int(rng.integers(2, 5000))
        t = round_pull_target(n_sur, k, eps, dl, width, list_len)
        assert 0 <= t <= list_len


def test_round_target_zero_epsilon_exhausts():
    assert round_pull_target(10, 2, 0.0, 0.1, 1.0, 777) == 777


def test_round_target_requires_excess():
    with pytest.raises(ValueError):
        round_pull_target(3, 3, 0.1, 0.1, 1.0, 100)


# --- eliminate ----------------------------------------------------------------


def kept_ids(means, k, ids=None):
    ids = np.arange(len(means)) if ids is None else np.asarray(ids)
    keep = eliminate(ids, np.asarray(means, dtype=float), k)
    return ids[keep].tolist()


def test_eliminate_removal_counts():
    assert len(kept_ids([0.1, 0.2, 0.3, 0.4, 0.5], 1)) == 3  # ceil(4/2)=2 removed
    assert len(kept_ids([0.1, 0.2, 0.3, 0.4], 1)) == 2  # ceil(3/2)=2 removed


def test_eliminate_drops_smallest_means():
    assert kept_ids([0.9, 0.1, 0.8, 0.2, 0.7], 1) == [0, 2, 4]


def test_eliminate_tie_drops_larger_id_first():
    # means 0.5 and 0.5 tie; the larger arm id goes first
    assert sorted(kept_ids([0.9, 0.5, 0.5, 0.1], 1)) == [0, 1]
    # ids, not positions, break the tie
    assert sorted(kept_ids([0.9, 0.5, 0.5, 0.1], 1, ids=[3, 8, 2, 5])) == [2, 3]


def test_eliminate_single_removal_keeps_tied_pair():
    # only one removal here, so both tied arms survive
    assert sorted(kept_ids([0.9, 0.5, 0.5, 0.1], 2)) == [0, 1, 2]


def test_eliminate_preserves_input_order_and_state():
    ids = np.array([7, 3, 9, 1])
    means = np.array([0.3, 0.9, 0.5, 0.8])
    keep = eliminate(ids, means, 2)
    assert ids[keep].tolist() == [3, 9, 1]
    assert means[keep].tolist() == [0.9, 0.5, 0.8]
    assert ids.tolist() == [7, 3, 9, 1] and means.tolist() == [0.3, 0.9, 0.5, 0.8]


def test_eliminate_requires_more_than_k():
    with pytest.raises(ValueError):
        eliminate(np.arange(2), np.array([0.1, 0.2]), 2)


# --- median_elimination_topk -------------------------------------------------


class MatrixArms:
    """Test-local arms: row i of ``rewards`` is arm i's list, read in stored order.

    Shuffle the rows first for a uniformly random order.  Every call is
    checked against the protocol: rows only shrink and t never decreases.
    The sums are exact.
    """

    mean_error = 0.0

    def __init__(self, rewards):
        rewards = np.asarray(rewards, dtype=float)
        self.n, self.list_len = rewards.shape
        self.prefix = np.concatenate([np.zeros((self.n, 1)), np.cumsum(rewards, axis=1)], axis=1)
        self.rows = set(range(self.n))
        self.t = 0

    def sums(self, rows, t):
        assert set(rows.tolist()) <= self.rows and self.t <= t <= self.list_len
        self.rows, self.t = set(rows.tolist()), t
        return self.prefix[rows, t]


def test_topk_trivial_when_n_at_most_k():
    arms = MatrixArms([[float(i)] * 4 for i in range(3)])
    ids, trace = median_elimination_topk(arms, EliminationConfig(k=3, epsilon=0.1, delta=0.1))
    assert ids == [0, 1, 2]
    assert trace.total_pulls == 0
    assert trace.rounds == []


def test_topk_constant_arms():
    arms = MatrixArms([[1.0] * 50, [0.0] * 50])
    ids, trace = median_elimination_topk(arms, EliminationConfig(k=1, epsilon=0.5, delta=0.3))
    assert ids == [0]
    assert trace.max_arm_pulls <= 50


def test_topk_trace_arithmetic():
    """Per-round bookkeeping: halving counts, cumulative targets, pull sums."""
    rng = np.random.default_rng(5)
    n, list_len, k = 50, 500, 3
    arms = MatrixArms(np.random.default_rng(7).permuted(rng.random((n, list_len)), axis=1))
    ids, trace = median_elimination_topk(arms, EliminationConfig(k=k, epsilon=0.3, delta=0.1))

    assert len(ids) == k
    survivors = [r.survivors for r in trace.rounds]
    assert survivors[0] == n
    for before, after in zip(survivors, survivors[1:]):
        assert after == before - (before - k + 1) // 2
    # cumulative targets never decrease and never pass list_len
    targets = [r.pull_target for r in trace.rounds]
    assert all(b >= a for a, b in zip(targets, targets[1:]))
    assert targets[-1] <= list_len
    assert trace.max_arm_pulls <= list_len
    assert len(trace.rounds) <= math.ceil(math.log2(n)) + 1
    # total pulls equals the sum over rounds of survivors * increment
    expect = 0
    prev = 0
    for r in trace.rounds:
        expect += r.survivors * max(r.pull_target - prev, 0)
        prev = r.pull_target
    assert trace.total_pulls == expect


def test_topk_deterministic_given_seed():
    def run():
        rng = np.random.default_rng(9)
        arms = MatrixArms(np.random.default_rng(4).permuted(rng.random((20, 200)), axis=1))
        return median_elimination_topk(arms, EliminationConfig(k=2, epsilon=0.2, delta=0.1))

    ids1, tr1 = run()
    ids2, tr2 = run()
    assert ids1 == ids2
    assert tr1.total_pulls == tr2.total_pulls
    assert [r.pull_target for r in tr1.rounds] == [r.pull_target for r in tr2.rounds]
    assert tr1.returned_means == tr2.returned_means


def test_topk_adversarial_streams_halving():
    # deterministic streams: survivor counts 50 -> 26 -> 14 -> 8 -> 5 -> 4 -> 3
    rng = np.random.default_rng(2)
    list_len = 500
    lists = []
    for i in range(50):
        ones = int(rng.integers(0, list_len + 1))
        lists.append([1.0] * ones + [0.0] * (list_len - ones))
    ids, trace = median_elimination_topk(
        MatrixArms(lists), EliminationConfig(k=3, epsilon=0.3, delta=0.1)
    )
    assert [r.survivors for r in trace.rounds] == [50, 26, 14, 8, 5, 4]
    assert len(ids) == 3


def test_topk_returned_means_are_empirical():
    # returned ids come by decreasing empirical mean, ties by id, with the
    # means of the final pull count
    arms = MatrixArms([[0.0, 1.0], [1.0, 1.0], [1.0, 0.0], [1.0, 1.0]])
    ids, trace = median_elimination_topk(arms, EliminationConfig(k=2, epsilon=0.0, delta=0.1))
    assert ids == [1, 3]
    assert trace.returned_means == [1.0, 1.0]
    assert trace.max_arm_pulls == 2


def test_topk_empty_arms_rejected():
    with pytest.raises(ValueError):
        median_elimination_topk(MatrixArms(np.zeros((0, 5))), EliminationConfig(k=1, epsilon=0.1, delta=0.1))
    with pytest.raises(ValueError):
        median_elimination_topk(MatrixArms(np.zeros((3, 0))), EliminationConfig(k=1, epsilon=0.1, delta=0.1))


def test_config_validation():
    with pytest.raises(ValueError):
        EliminationConfig(k=0, epsilon=0.1, delta=0.1)
    with pytest.raises(ValueError):
        EliminationConfig(k=1, epsilon=-0.1, delta=0.1)
    with pytest.raises(ValueError):
        EliminationConfig(k=1, epsilon=0.1, delta=0.0)
    with pytest.raises(ValueError):
        EliminationConfig(k=1, epsilon=0.1, delta=1.0)
    with pytest.raises(ValueError):
        EliminationConfig(k=1, epsilon=0.1, delta=0.1, range_width=0.0)


def test_round_target_one_entry_list_exhausts():
    # a one-entry list has nothing to shrink: one pull reads it all
    assert round_pull_target(10, 2, 0.1, 0.1, 1.0, 1) == 1


def test_round_target_underflowing_epsilon_exhausts():
    assert round_pull_target(10, 2, 5e-324, 0.1, 1.0, 300) == 300
    assert round_pull_target(10, 2, 1e-300, 0.1, 1.0, 300) == 300


def test_round_target_at_least_one_pull():
    # (width / eps_l)^2 underflows to 0, so u is 0; the round still pulls once
    assert round_pull_target(10, 2, 1.0, 0.1, 1e-200, 300) == 1
    arms = MatrixArms(np.arange(40.0).reshape(8, 5) * 1e-201)
    config = EliminationConfig(k=2, epsilon=1.0, delta=0.1, range_width=1e-200)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        ids, trace = median_elimination_topk(arms, config)
    assert trace.max_arm_pulls == 1
    assert all(math.isfinite(m) for m in trace.returned_means)
    assert ids == [7, 6]
