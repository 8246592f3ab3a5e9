"""Round schedule, the without-replacement sample size, per-round pull targets,
and the halving loop."""

import math
import re
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest

from bandit_mips import elimination
from bandit_mips.datasets import gen_adversarial
from bandit_mips.elimination import (
    EliminationConfig,
    eliminate,
    median_elimination_topk,
    round_plan,
    round_pull_target,
    sample_size,
    top_ids,
)
from bandit_mips.mips import ObjectiveKind, Query, VectorSet, mips_topk, reward_range
from oracles import oracle_eliminate, oracle_partial_split, oracle_plan, oracle_topk
from pull_scan import brute_force_min_pulls, shrinkage


# --- schedule ---------------------------------------------------------------


def plan_budgets(epsilon, delta):
    """(eps_l, delta_l) of every round of a K = 1 plan over 2^30 arms: 30 rounds."""
    config = EliminationConfig(k=1, epsilon=epsilon, delta=delta)
    return [(r.epsilon_round, r.delta_round) for r in round_plan(2**30, config, 1000, 0.0)]


# the 30 rounds' eps_l = (eps/4)(3/4)^(l-1) would sum to eps (1 - (3/4)^30)
SPENT_30 = 1.0 - 0.75**30


def test_schedule_first_round():
    eps1, del1 = plan_budgets(0.2, 0.1)[0]
    assert eps1 == pytest.approx(0.05 / SPENT_30, rel=1e-15)
    assert del1 == 0.05


def test_schedule_second_round_values():
    eps2, del2 = plan_budgets(0.4, 0.2)[1]
    assert eps2 == pytest.approx(0.075 / SPENT_30, rel=1e-15)
    assert del2 == pytest.approx(0.05, abs=1e-15)


def test_schedule_partial_sums_stay_below_budget():
    eps, delta = 0.37, 0.21
    budgets = plan_budgets(eps, delta)
    assert len(budgets) == 30
    for l in range(1, 31):
        assert math.fsum(e for e, _ in budgets[:l]) <= eps
        assert math.fsum(d for _, d in budgets[:l]) <= delta
    # every round's share of eps is spent, and all but 2^-30 of delta
    assert math.fsum(e for e, _ in budgets) == eps
    assert math.fsum(d for _, d in budgets) == pytest.approx(delta, rel=1e-6)


def plan_configs():
    """(n, config, N, mean_error): a seeded grid of random plans and their edges.

    Each value is an edge one time in five: epsilon 0, subnormal or too
    small to square against the width; a width so small that u underflows
    to 0, or an infinite one; lists of one and two entries; a rounding bound
    that eats some or all rounds' accuracy.  One n in five is small, so that
    n <= K comes up too.
    """
    rng = np.random.default_rng(46)

    def pick(edges, draw):
        return edges[int(rng.integers(len(edges)))] if rng.random() < 0.2 else draw()

    for trial in range(3000):
        n = int(rng.integers(1, 40)) if trial % 5 == 0 else int(rng.integers(1, 5000))
        k = int(rng.integers(1, max(2, n // (1 + trial % 7)) + 1))
        epsilon = pick([0.0, 5e-324, 1e-300], lambda: float(rng.uniform(0.0, 2.0)))
        delta = pick([1e-12, 0.999], lambda: float(rng.uniform(0.001, 0.5)))
        width = pick([1e-200, math.inf], lambda: float(rng.uniform(0.1, 10.0)))
        list_len = pick([1, 2], lambda: int(rng.integers(3, 10**6)))
        mean_error = pick([epsilon / 16.0, epsilon], lambda: 0.0)
        config = EliminationConfig(k=k, epsilon=epsilon, delta=delta, range_width=width)
        yield n, config, list_len, mean_error


def test_round_plan_keeps_its_invariants_and_matches_the_oracle():
    rounds = 0
    for n, config, list_len, mean_error in plan_configs():
        plan = round_plan(n, config, list_len, mean_error)
        assert plan == oracle_plan(n, config, list_len, mean_error)
        if n <= config.k:
            assert plan == []
            continue
        # the budget split: each sum within its budget, and all of a normal eps spent
        spent = math.fsum(r.epsilon_round for r in plan)
        assert spent <= config.epsilon
        if config.epsilon >= sys.float_info.min:
            assert spent >= config.epsilon * (1.0 - 1e-12)
        assert math.fsum(r.delta_round for r in plan) <= config.delta
        # spending more of eps never raises a round's target
        partial = oracle_plan(n, config, list_len, mean_error, oracle_partial_split)
        assert all(r.pull_target <= p.pull_target for r, p in zip(plan, partial))
        # targets in [1, N], never decreasing
        targets = [r.pull_target for r in plan]
        assert all(1 <= t <= list_len for t in targets)
        assert targets == sorted(targets)
        # each round drops ceil((s - K)/2) of its s survivors, ending at K
        sizes = [r.survivors for r in plan] + [config.k]
        assert sizes[0] == n
        assert all(b == a - math.ceil((a - config.k) / 2) for a, b in zip(sizes, sizes[1:]))
        assert [r.round_index for r in plan] == list(range(1, len(plan) + 1))
        assert len(plan) <= math.ceil(math.log2(n)) + 1
        rounds += len(plan)
    assert rounds > 10_000


# --- sample_size: the without-replacement bound ------------------------------
#
# The oracle in ``pull_scan`` re-derives the minimal sufficient pull count by
# scanning m = 1..N directly, so the closed form of ``sample_size`` is never
# trusted on its own word.  The Hoeffding count it shrinks is checked with
# the round targets, below.


def test_shrinkage_first_pull_is_one():
    assert shrinkage(1, 100) == 1.0


def test_shrinkage_full_list_is_zero():
    # (1 - m/N) forces the second branch to exactly 0
    assert shrinkage(100, 100) == 0.0


def test_shrinkage_interior_value():
    # min{1 - 32/100, (1 - 33/100) * (1 + 1/33)}: first branch wins
    assert shrinkage(33, 100) == pytest.approx(0.68, abs=1e-15)
    assert shrinkage(33, 100) == 0.6799999999999999


def test_shrinkage_domain_errors():
    with pytest.raises(ValueError):
        shrinkage(0, 100)
    with pytest.raises(ValueError):
        shrinkage(101, 100)
    with pytest.raises(ValueError):
        shrinkage(1, 1)


def test_shrinkage_nonnegative_everywhere():
    for n in (2, 3, 17, 1000):
        for m in range(1, n + 1):
            assert shrinkage(m, n) >= 0.0


def test_sample_size_zero_u():
    assert sample_size(0.0, 10) == 0.0
    assert sample_size(0.0, 10 ** 6) == 0.0


def test_sample_size_worked_small():
    # min{2/1.1, 1.1/1.1} = 1.0; brute force agrees
    assert sample_size(1.0, 10) == pytest.approx(1.0, abs=1e-12)
    assert brute_force_min_pulls(1.0, 10) == 1


def test_sample_size_worked_medium():
    # min{51/1.5, 50.5/1.5} = 33.666...; ceil 34 matches the scan
    m = sample_size(50.0, 100)
    assert m == pytest.approx(33.666666666666664, abs=1e-12)
    assert math.ceil(m) == 34
    assert brute_force_min_pulls(50.0, 100) == 34


def test_sample_size_infinite_u_exhausts():
    assert sample_size(math.inf, 500) == 500.0


def test_sample_size_negative_u_rejected():
    with pytest.raises(ValueError):
        sample_size(-0.5, 10)
    with pytest.raises(ValueError):
        sample_size(math.nan, 10)


@pytest.mark.parametrize("list_len", [1, 0])
def test_sample_size_needs_two_entries(list_len):
    with pytest.raises(ValueError, match="^list_len must be at least 2$"):
        sample_size(1.0, list_len)


def test_sample_size_monotone_in_u():
    for n in (2, 17, 1000, 99991):
        us = np.linspace(0.0, 4.0 * n, 200)
        ms = [sample_size(float(u), n) for u in us]
        assert all(b >= a - 1e-12 for a, b in zip(ms, ms[1:]))
        assert all(0.0 <= m <= n for m in ms)


def test_sample_size_ceiling_worked_values():
    assert math.ceil(sample_size(0.0, 10)) == 0
    assert math.ceil(sample_size(1e308, 10)) == 10
    assert math.ceil(sample_size(50.0, 100)) == 34


def test_closed_form_overshoots_scan_by_at_most_one():
    # 200 random (u, N) pairs: m* <= clamp(ceil(m(u)), 1, N) <= m* + 1
    rng = np.random.default_rng(7)
    for _ in range(200):
        n = int(rng.integers(2, 2000))
        u = float(rng.uniform(0.0, 3.0 * n))
        star = brute_force_min_pulls(u, n)
        approx = min(max(math.ceil(sample_size(u, n)), 1), n)
        assert star <= approx <= star + 1, (u, n, star, approx)


# --- round_pull_target ------------------------------------------------------


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


@pytest.mark.parametrize(
    "accuracy, tail_delta, width, u",
    [
        (1.0, 1.0 / math.e, 1.0, 0.5),  # the unit case: ln(e) = 1
        (0.5, 1.0 / math.e, 1.0, 2.0),  # half the accuracy: 4 times u
        (0.01, 1.0 / math.e, 1.0, 5000.0),
        (0.01, 1.0 / math.e, 3.0, 45000.0),  # three times the width: 9 times u
        (0.1, 0.05, 1.0, 149.78661367769953),  # a typical cell
    ],
)
def test_round_target_is_the_hoeffding_count_shrunk(accuracy, tail_delta, width, u):
    # one excess arm: the per-tail delta is delta_l/2, and
    # u = ln(1/tail_delta)/2 * (width/accuracy)^2
    t = round_pull_target(2, 1, 2.0 * accuracy, 2.0 * tail_delta, width, 100_000)
    star = brute_force_min_pulls(u, 100_000)
    assert star <= t <= star + 1


def test_round_target_overflowing_count_exhausts():
    # (1 / 1e-300)^2 overflows float64: the count is infinite and the round
    # exhausts, instead of raising OverflowError
    assert round_pull_target(10, 2, 2e-300, 0.1, 1.0, 40) == 40


def test_round_target_with_an_overflowing_inverse_confidence():
    # a per-tail delta below 1/DBL_MAX: 1/delta' overflows, but ln(1/delta')
    # is finite, about 714 here, and so is the count it gives
    star = brute_force_min_pulls(310.0 * math.log(10.0) / 2.0, 100_000)
    assert star <= round_pull_target(2, 1, 2.0, 2e-310, 1.0, 100_000) <= star + 1
    # where (width/accuracy)^2 also underflows to 0 the count is 0, not
    # inf * 0 = NaN: one pull a round
    plan = round_plan(10, EliminationConfig(1, 1.0, 1e-310, 1e-200), 100, 0.0)
    assert [r.pull_target for r in plan] == [1] * len(plan)


def test_round_target_underflowing_delta_exhausts():
    # on a subnormal delta the per-tail share of delta_l = delta/2^l
    # underflows to 0: no count short of N gives certainty, so the round
    # exhausts
    assert round_pull_target(10, 2, 0.1, 5e-324, 1.0, 300) == 300
    plan = round_plan(64, EliminationConfig(k=1, epsilon=0.1, delta=5e-324), 300, 0.0)
    assert [r.pull_target for r in plan] == [300] * 6


def test_round_target_zero_epsilon_exhausts():
    assert round_pull_target(10, 2, 0.0, 0.1, 1.0, 777) == 777


def test_round_target_requires_excess():
    with pytest.raises(ValueError):
        round_pull_target(3, 3, 0.1, 0.1, 1.0, 100)


# --- eliminate ----------------------------------------------------------------


def kept_ids(means, k, ids=None):
    ids = np.arange(len(means)) if ids is None else np.asarray(ids)
    keep = eliminate(np.asarray(means, dtype=float), 1, k)
    return ids[keep].tolist()


def test_eliminate_removal_counts():
    assert len(kept_ids([0.1, 0.2, 0.3, 0.4, 0.5], 1)) == 3  # ceil(4/2)=2 removed
    assert len(kept_ids([0.1, 0.2, 0.3, 0.4], 1)) == 2  # ceil(3/2)=2 removed


def test_eliminate_drops_smallest_means():
    assert kept_ids([0.9, 0.1, 0.8, 0.2, 0.7], 1) == [0, 2, 4]


def test_eliminate_tie_drops_larger_position_first():
    # means 0.5 and 0.5 tie; the larger position goes first
    assert sorted(kept_ids([0.9, 0.5, 0.5, 0.1], 1)) == [0, 1]
    # positions, not the ids they hold, break the tie: the loop lists its
    # survivors in increasing id order, so there the smaller id stays
    means = np.array([0.9, 0.5, 0.5, 0.1])
    assert kept_ids(means, 1, ids=[3, 8, 2, 5]) == [3, 8]
    assert eliminate(means, 1, 1).tolist() == oracle_eliminate(np.arange(4), means, 1).tolist()


def test_eliminate_single_removal_keeps_tied_pair():
    # only one removal here, so both tied arms survive
    assert sorted(kept_ids([0.9, 0.5, 0.5, 0.1], 2)) == [0, 1, 2]


def test_eliminate_preserves_input_order_and_state():
    ids = np.array([7, 3, 9, 1])
    means = np.array([0.3, 0.9, 0.5, 0.8])
    keep = eliminate(means, 1, 2)
    assert ids[keep].tolist() == [3, 9, 1]
    assert means[keep].tolist() == [0.9, 0.5, 0.8]
    assert ids.tolist() == [7, 3, 9, 1] and means.tolist() == [0.3, 0.9, 0.5, 0.8]


def test_eliminate_requires_more_than_k():
    with pytest.raises(ValueError):
        eliminate(np.array([0.1, 0.2]), 1, 2)


# --- median_elimination_topk -------------------------------------------------


class MatrixArms:
    """Test-local arms: row i of ``rewards`` is arm i's list, read in stored order.

    Shuffle the rows first for a uniformly random order.  Every call is
    checked against the protocol: 0 <= done <= t <= list_len, and ``prior``
    holds the exact sums of ``ids`` after ``done`` pulls.  The sums are
    exact.
    """

    mean_error = 0.0

    def __init__(self, rewards):
        rewards = np.asarray(rewards, dtype=float)
        self.n, self.list_len = rewards.shape
        self.prefix = np.concatenate([np.zeros((self.n, 1)), np.cumsum(rewards, axis=1)], axis=1)

    def sums(self, ids, t, done=0, prior=None):
        assert 0 <= done <= t <= self.list_len
        if done:
            assert prior.tolist() == self.prefix[ids, done].tolist()
        return self.prefix[ids, t]


class RowsMatrixArms(MatrixArms):
    """``MatrixArms`` in the former protocol, ``sums(rows, t)``: the oracle's arms."""

    def __init__(self, rewards):
        super().__init__(rewards)
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


def test_topk_runs_on_a_given_plan():
    # a plan made once serves every search on the same values, and its
    # records are shared, not copied
    lists = np.random.default_rng(3).permuted(np.random.default_rng(6).random((30, 300)), axis=1)
    config = EliminationConfig(k=2, epsilon=0.3, delta=0.1)
    plan = round_plan(30, config, 300, 0.0)
    want_ids, want = median_elimination_topk(MatrixArms(lists), config)
    ids, trace = median_elimination_topk(MatrixArms(lists), config, plan)
    assert ids == want_ids
    assert trace.rounds == want.rounds == plan
    assert all(got is rec for got, rec in zip(trace.rounds, plan))
    assert trace.total_pulls == want.total_pulls


@pytest.mark.parametrize("plan_n", [2, 29, 31])
def test_topk_rejects_a_plan_for_another_arm_count(plan_n):
    # plan_n = k plans no round at all
    config = EliminationConfig(k=2, epsilon=0.3, delta=0.1)
    plan = round_plan(plan_n, config, 300, 0.0)
    with pytest.raises(ValueError, match="first round"):
        median_elimination_topk(MatrixArms(np.zeros((30, 300))), config, plan)


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
    with pytest.raises(ValueError):
        EliminationConfig(k=1, epsilon=0.1, delta=0.1, range_width=math.nan)
    for width in ("1", True, None):
        with pytest.raises(TypeError, match="^range_width must be a real number, not "):
            EliminationConfig(k=1, epsilon=0.1, delta=0.1, range_width=width)
    # an infinite width stays accepted: every round exhausts, which is sound
    config = EliminationConfig(k=1, epsilon=0.1, delta=0.1, range_width=math.inf)
    assert [r.pull_target for r in round_plan(8, config, 50, 0.0)] == [50] * 3


def k_callers():
    """Every entry point that takes k, as a function of k over 6 rows."""
    from bandit_mips.baselines import lsh_build, lsh_query, naive_topk
    from bandit_mips.bench import run_compare, run_query, run_validate
    from bandit_mips.fileio import write_dataset
    from bandit_mips.mips import Query, VectorSet, mips_topk

    rng = np.random.default_rng(5)
    vs, q = VectorSet(rng.standard_normal((6, 8))), Query(rng.standard_normal(8))
    index = lsh_build(vs, 2, 3)

    def query_files(k):
        with tempfile.TemporaryDirectory() as tmp:
            data, query = Path(tmp, "d.bin"), Path(tmp, "q.bin")
            write_dataset(data, vs)
            write_dataset(query, VectorSet(q.vector[None, :]))
            return run_query(data, query, k, 0.1, 0.1)

    return {
        "mips_topk": lambda k: mips_topk(vs, q, k, 0.1, 0.1),
        "naive_topk": lambda k: naive_topk(vs, q, k),
        "lsh_query": lambda k: lsh_query(index, vs, q, k),
        "run_validate": lambda k: run_validate([0.3], [0.1], n=6, list_len=20, k=k, runs=1),
        "run_compare": lambda k: run_compare(vs, [q], k, methods=("naive",)),
        "run_query": query_files,
        "EliminationConfig": lambda k: EliminationConfig(k=k, epsilon=0.1, delta=0.1),
    }


@pytest.mark.parametrize("k", [2.0, 2.5, "2", None, True, False])
@pytest.mark.parametrize("caller", sorted(k_callers()))
def test_a_non_integer_k_is_a_type_error_naming_k(caller, k):
    with pytest.raises(TypeError, match="k must be an integer"):
        k_callers()[caller](k)


@pytest.mark.parametrize("k", [0, -1, 7])
@pytest.mark.parametrize(
    "caller", ["mips_topk", "naive_topk", "lsh_query", "run_validate", "run_query"]
)
def test_k_outside_one_to_n_is_a_value_error(caller, k):
    with pytest.raises(ValueError, match=rf"k = {k} must lie in \[1, n\] with n = 6$"):
        k_callers()[caller](k)


@pytest.mark.parametrize("caller", sorted(k_callers()))
def test_a_numpy_integer_k_is_accepted(caller):
    k_callers()[caller](np.int64(2))


def int_callers():
    """Every other integer argument: "entry point.argument" -> (call, lo, hi).

    ``call`` runs the entry point with the argument set to its one
    parameter; lo and hi bound the argument, None where it has no bound.
    """
    from bandit_mips.baselines import lsh_build, lsh_query
    from bandit_mips.bench import run_compare, run_validate
    from bandit_mips.datasets import gen_adversarial, gen_vectors
    from bandit_mips.mips import Query, VectorSet, build_arms, mips_topk

    rng = np.random.default_rng(5)
    rows = rng.standard_normal((6, 8))
    vs, q = VectorSet(rows), Query(rng.standard_normal(8))
    index = lsh_build(vs, 2, 3)

    def validate(**kwargs):
        return run_validate([0.3], [0.1], **{"n": 6, "list_len": 20, "runs": 1, **kwargs})

    def compare(**kwargs):
        return run_compare(vs, [q], 2, **{"methods": ("naive",), **kwargs})

    return {
        "VectorSet.seed": (lambda v: VectorSet(rows, seed=v), 0, None),
        "mips_topk.seed": (lambda v: mips_topk(vs, q, 2, 0.1, 0.1, seed=v), 0, None),
        "build_arms.start": (lambda v: build_arms(vs, q, start=v), None, None),
        "lsh_build.a": (lambda v: lsh_build(vs, v, 3), 1, 63),
        "lsh_build.b": (lambda v: lsh_build(vs, 2, v), 1, None),
        "lsh_build.seed": (lambda v: lsh_build(vs, 2, 3, seed=v), 0, None),
        "lsh_query.b_use": (lambda v: lsh_query(index, vs, q, 2, b_use=v), 1, 3),
        "gen_vectors.n": (lambda v: gen_vectors("gaussian", v, 3), 1, None),
        "gen_vectors.dim": (lambda v: gen_vectors("gaussian", 3, v), 1, None),
        "gen_vectors.seed": (lambda v: gen_vectors("gaussian", 3, 3, v), 0, None),
        "gen_adversarial.n": (lambda v: gen_adversarial(v, 3), 1, None),
        "gen_adversarial.list_len": (lambda v: gen_adversarial(3, v), 1, None),
        "gen_adversarial.seed": (lambda v: gen_adversarial(3, 3, v), 0, None),
        "run_validate.runs": (lambda v: validate(runs=v), 1, None),
        "run_validate.n": (lambda v: validate(n=v), 1, None),
        "run_validate.list_len": (lambda v: validate(list_len=v), 1, None),
        "run_validate.seed": (lambda v: validate(seed=v), None, None),
        "run_compare.lsh_a": (
            lambda v: compare(methods=("lsh",), lsh_a=(v,), lsh_b=(1,)), 1, None
        ),
        "run_compare.lsh_b": (
            lambda v: compare(methods=("lsh",), lsh_a=(2,), lsh_b=(v,)), 1, None
        ),
        "run_compare.seed": (lambda v: compare(seed=v), None, None),
    }


@pytest.mark.parametrize(
    "caller, value",
    [
        (caller, value)
        for caller in sorted(int_callers())
        for value in (2.0, 2.5, "2", None, True, False)
        if (caller, value) != ("lsh_query.b_use", None)  # b_use None reads every table
    ],
)
def test_a_non_integer_argument_is_a_type_error_naming_it(caller, value):
    call, _, _ = int_callers()[caller]
    name = caller.split(".")[1]
    with pytest.raises(TypeError, match=rf"^{name} must be an integer, not "):
        call(value)


@pytest.mark.parametrize(
    "caller", sorted(c for c, (_, lo, _) in int_callers().items() if lo is not None)
)
def test_an_argument_out_of_range_is_a_value_error_naming_it(caller):
    call, lo, hi = int_callers()[caller]
    name = caller.split(".")[1]
    top = "inf" if hi is None else hi
    for value in [lo - 1] if hi is None else [lo - 1, hi + 1]:
        # the message gives the value and the range, whose top may be named
        said = rf"^{name} = {value} must lie in \[{lo}, .*\b{top}\]?$"
        with pytest.raises(ValueError, match=said):
            call(value)


@pytest.mark.parametrize("caller", sorted(int_callers()))
def test_numpy_integers_and_unbounded_negatives_are_accepted(caller):
    call, lo, _ = int_callers()[caller]
    for value in (np.int64(2), np.uint64(2)) + ((-3,) if lo is None else ()):
        call(value)


def real_callers():
    """Every epsilon and delta argument: "entry point.argument" -> (call, name).

    ``call`` runs the entry point with the argument set to its one
    parameter; ``name`` is what its errors call the argument.  The grids
    and sweeps hold the value second, after a valid one, and the
    ``mips_topk`` rows cover the search and both of its exits.
    """
    from bandit_mips.bench import run_compare, run_query, run_validate
    from bandit_mips.fileio import write_dataset
    from bandit_mips.mips import Query, VectorSet, mips_topk

    rng = np.random.default_rng(5)
    vs, q = VectorSet(rng.standard_normal((6, 8))), Query(rng.standard_normal(8))
    zero = Query(np.zeros(8))

    def query_files(epsilon=0.1, delta=0.1):
        with tempfile.TemporaryDirectory() as tmp:
            data, query = Path(tmp, "d.bin"), Path(tmp, "q.bin")
            write_dataset(data, vs)
            write_dataset(query, VectorSet(q.vector[None, :]))
            return run_query(data, query, 2, epsilon, delta)

    def validate(epsilons=(0.3,), deltas=(0.1,)):
        return run_validate(epsilons, deltas, n=6, list_len=20, runs=1)

    def compare(**sweep):
        return run_compare(vs, [q], 2, methods=("median_elimination",), **sweep)

    calls = {
        "EliminationConfig.epsilon": (lambda v: EliminationConfig(1, v, 0.1), "epsilon"),
        "EliminationConfig.delta": (lambda v: EliminationConfig(1, 0.3, v), "delta"),
        "run_query.epsilon": (lambda v: query_files(epsilon=v), "epsilon"),
        "run_query.delta": (lambda v: query_files(delta=v), "delta"),
        "run_validate.epsilons": (lambda v: validate(epsilons=(0.3, v)), "epsilons[1]"),
        "run_validate.deltas": (lambda v: validate(deltas=(0.1, v)), "deltas[1]"),
        "run_compare.me_eps_fracs": (
            lambda v: compare(me_eps_fracs=(0.5, v)), "me_eps_fracs[1]"
        ),
        "run_compare.me_epsilons": (lambda v: compare(me_epsilons=(0.5, v)), "me_epsilons[1]"),
        "run_compare.me_deltas": (lambda v: compare(me_deltas=(0.1, v)), "me_deltas[1]"),
    }
    for exit_name, query, k in (("search", q, 2), ("k=n", q, 6), ("zero-width", zero, 2)):
        calls[f"mips_topk({exit_name}).epsilon"] = (
            lambda v, query=query, k=k: mips_topk(vs, query, k, v, 0.1), "epsilon"
        )
        calls[f"mips_topk({exit_name}).delta"] = (
            lambda v, query=query, k=k: mips_topk(vs, query, k, 0.3, v), "delta"
        )
    return calls


@pytest.mark.parametrize(
    "caller, value",
    [(c, v) for c in sorted(real_callers()) for v in ("0.1", True, False, None, 1j)],
)
def test_a_non_real_epsilon_or_delta_is_a_type_error_naming_it(caller, value):
    # a bool is rejected too, rather than run as 0 or 1
    call, name = real_callers()[caller]
    said = rf"^{re.escape(name)} must be a real number, not {type(value).__name__} "
    with pytest.raises(TypeError, match=said + re.escape(repr(value)) + "$"):
        call(value)


@pytest.mark.parametrize("caller", sorted(real_callers()))
def test_an_epsilon_or_delta_out_of_range_is_a_value_error_naming_it(caller):
    call, name = real_callers()[caller]
    if caller.endswith("delta") or caller.endswith("deltas"):
        values, rule = (0.0, 1.0, -0.5, 7.0, math.nan), r"must lie in \(0, 1\)"
    else:
        values, rule = (-0.1, -math.inf, math.inf, math.nan), "must be finite and >= 0"
    for value in values:
        with pytest.raises(ValueError, match=rf"^{re.escape(name)} = {value!r} {rule}$"):
            call(value)


@pytest.mark.parametrize("caller", sorted(real_callers()))
def test_numpy_and_integer_epsilons_and_deltas_are_accepted(caller):
    call, _ = real_callers()[caller]
    deltas = caller.endswith("delta") or caller.endswith("deltas")
    for value in (np.float64(0.2), np.float32(0.2)) + (() if deltas else (0, np.int64(1))):
        call(value)


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


# --- oracle: the loop as it was before the round plan and the keep masks ----


def oracle_cases():
    """(rewards, config) pairs: continuous means, means tied at the cut,
    +0.0 beside -0.0 means, and k = n - 1."""
    rng = np.random.default_rng(41)
    for trial in range(60):
        n = int(rng.integers(2, 90))
        list_len = int(rng.integers(1, 400))
        k = n - 1 if trial % 4 == 0 else int(rng.integers(1, n))
        style = trial % 3
        if style == 0:
            rewards = rng.random((n, list_len))
        elif style == 1:
            # a few distinct rows, so whole groups of means tie at every cut
            distinct = rng.integers(0, 2, (int(rng.integers(1, 4)), list_len)).astype(float)
            rewards = distinct[rng.integers(0, len(distinct), n)]
        else:
            # all-zero lists, half of them -0.0: means +0.0 and -0.0 tie
            rewards = np.zeros((n, list_len))
            rewards[rng.random(n) < 0.5] = -0.0
            rewards[rng.random(n) < 0.2, 0] = 1.0
        eps = float(rng.choice([0.0, 0.05, 0.3, 1.5]))
        config = EliminationConfig(k=k, epsilon=eps, delta=float(rng.uniform(0.01, 0.5)))
        yield rewards, config


def test_topk_matches_the_oracle_loop():
    cases = 0
    for rewards, config in oracle_cases():
        ids, trace = median_elimination_topk(MatrixArms(rewards), config)
        want_ids, want = oracle_topk(RowsMatrixArms(rewards), config)
        assert ids == want_ids
        # repr tells -0.0 from 0.0
        assert [repr(m) for m in trace.returned_means] == [repr(m) for m in want.returned_means]
        assert trace.rounds == want.rounds
        assert trace.total_pulls == want.total_pulls
        assert trace.max_arm_pulls == want.max_arm_pulls
        cases += 1
    assert cases == 60


def test_eliminate_matches_the_oracle_by_position():
    # small sets, and 511 to 1000 survivors; sums over t pulls tied in
    # groups (float with +0.0 beside -0.0, or integer) or all distinct
    rng = np.random.default_rng(42)
    sizes = set()
    for trial in range(420):
        if trial < 300:
            s = int(rng.integers(2, 60))
        else:
            s = (511, 512, 513, 1000)[trial % 4]
        k = int(rng.integers(1, s))
        t = int(rng.integers(1, 10_000))
        if trial < 300 or trial % 8 < 4:
            sums = rng.integers(-2, 3, s) * t
            if trial % 2:
                sums = sums * 0.5
                sums[sums == 0.0] *= rng.choice([1.0, -1.0], np.count_nonzero(sums == 0.0))
        else:
            sums = rng.standard_normal(s) * t
        given = sums.copy()
        want = oracle_eliminate(np.arange(s), sums / t, k)
        assert eliminate(sums, t, k).tolist() == want.tolist()
        # the input is left as it was, -0.0 included
        assert [repr(x) for x in sums] == [repr(x) for x in given]
        sizes.add(s)
    assert {511, 512, 513, 1000} <= sizes


def test_eliminate_keeps_the_top_ids_of_increasing_ids():
    # one ranking rule: the kept positions are the s - ceil((s - k)/2) best
    # means with ties to the smaller position, at every size from 2 to 1000,
    # on means tied in groups (+0.0 beside -0.0) and on distinct means
    rng = np.random.default_rng(43)
    for s in range(2, 1001):
        k = int(rng.integers(1, s))
        tied = rng.integers(-2, 3, s) * 0.5
        tied[tied == 0.0] *= rng.choice([1.0, -1.0], np.count_nonzero(tied == 0.0))
        for means in (tied, rng.standard_normal(s)):
            kept = s - (s - k + 1) // 2
            want = np.sort(top_ids(means, kept))
            keep = eliminate(means, 1, k)
            assert np.flatnonzero(keep).tolist() == want.tolist()
            assert keep.tolist() == oracle_eliminate(np.arange(s), means, k).tolist()


class NumpyWithout:
    """numpy as ``elimination`` sees it, with the functions ``banned`` raising."""

    def __init__(self, *banned):
        self.banned = banned

    def __getattr__(self, name):
        if name in self.banned:
            raise AssertionError(f"eliminate called np.{name}")
        return getattr(np, name)


def test_eliminate_float_sums_match_the_oracle_with_ties_at_the_pivot(monkeypatch):
    # every size from 2 to 1000, sums over t pulls; copies of the pivot mean
    # are injected, and in half the trials the pivot is shifted to 0.0 and
    # its copies are +0.0 or -0.0.  Float sums take the partition path and
    # never sort, not even the tied positions.
    monkeypatch.setattr(elimination, "np", NumpyWithout("lexsort", "argsort"))
    rng = np.random.default_rng(44)
    for s in range(2, 1001):
        k = int(rng.integers(1, s))
        t = int(rng.integers(1, 10_000))
        means = rng.standard_normal(s)
        drop_count = (s - k + 1) // 2
        pivot = np.sort(means)[drop_count - 1]
        ties = rng.choice(s, int(rng.integers(0, min(s, 8) + 1)), replace=False)
        if s % 2:
            means -= pivot
            means[ties] = rng.choice([0.0, -0.0], ties.size)
        else:
            means[ties] = pivot
        sums = means * t
        given = sums.copy()
        want = oracle_eliminate(np.arange(s), sums / t, k)
        assert eliminate(sums, t, k).tolist() == want.tolist()
        assert [repr(x) for x in sums] == [repr(x) for x in given]


def test_eliminate_tie_heavy_integer_sums_take_the_sort_path(monkeypatch):
    # sums built like the adversarial ones, min(ones, t) over ones-first
    # lists, tie in large groups; they are ranked by one call to top_ids
    monkeypatch.setattr(elimination, "np", NumpyWithout("partition"))
    rng = np.random.default_rng(45)
    for trial in range(200):
        s = int(rng.integers(2, 600))
        list_len = int(rng.integers(1, 60))
        ones = np.floor(rng.random(s) * list_len + 0.5).astype(np.int64)
        t = int(rng.integers(1, list_len + 1))
        sums = np.minimum(ones, t)
        k = int(rng.integers(1, s))
        keep = eliminate(sums, t, k)
        assert keep.tolist() == oracle_eliminate(np.arange(s), sums / t, k).tolist()
        kept = top_ids(sums / t, s - (s - k + 1) // 2)
        assert np.flatnonzero(keep).tolist() == np.sort(kept).tolist()
    # and through the loop, on adversarial instances of the validation grid's shape
    for seed, epsilon in enumerate((0.6, 0.3, 0.1, 0.0)):
        instance = gen_adversarial(500, 5000, seed)
        config = EliminationConfig(k=1, epsilon=epsilon, delta=0.1)
        ids, trace = median_elimination_topk(instance, config)
        want_ids, want = oracle_topk(instance, config)
        assert ids == want_ids and trace.returned_means == want.returned_means
        assert trace.rounds == want.rounds and trace.total_pulls == want.total_pulls


# --- the loop's invariant: survivors in increasing id order -----------------


def spy_on_the_loop(monkeypatch):
    """Lists of the ids of every ``pull_batch`` call and of every ``eliminate`` call."""
    pulled, cuts = [], []
    pull, cut = elimination.pull_batch, elimination.eliminate

    def pull_spy(arms, ids, t, done, prior):
        pulled.append(ids.copy())
        return pull(arms, ids, t, done, prior)

    def cut_spy(sums, t, k):
        cuts.append(t)
        return cut(sums, t, k)

    monkeypatch.setattr(elimination, "pull_batch", pull_spy)
    monkeypatch.setattr(elimination, "eliminate", cut_spy)
    return pulled, cuts


def assert_rounds_pull_increasing_ids(trace, pulled, cuts):
    # eliminate ranks by position, so ties go to the smaller id only while
    # every round lists its survivors in increasing id order; a search of R
    # rounds cuts R - 1 times, the last cut being the answer's top_ids
    assert len(pulled) == len(trace.rounds) and len(cuts) == len(trace.rounds) - 1
    for record, ids in zip(trace.rounds, pulled):
        assert ids.size == record.survivors
        assert (np.diff(ids) > 0).all()
    del pulled[:], cuts[:]


def test_mips_rounds_pull_increasing_ids(monkeypatch):
    # eps/w = 0 exhausts in round 1; the later rounds add no pulls
    pulled, cuts = spy_on_the_loop(monkeypatch)
    rng = np.random.default_rng(46)
    vs = VectorSet(rng.standard_normal((300, 1200)))
    q = Query(rng.standard_normal(1200))
    for kind in ObjectiveKind:
        lo, hi = reward_range(vs, q, kind)
        for frac in (1.6, 0.2, 0.0):
            ids, trace = mips_topk(vs, q, 5, frac * (hi - lo), 0.1, seed=7, kind=kind)
            assert len(trace.rounds) == 9  # 300 survivors halve to 5
            assert_rounds_pull_increasing_ids(trace, pulled, cuts)


def test_adversarial_rounds_pull_increasing_ids(monkeypatch):
    pulled, cuts = spy_on_the_loop(monkeypatch)
    for seed, epsilon in enumerate((0.6, 0.1, 0.0)):
        instance = gen_adversarial(500, 5000, seed)
        config = EliminationConfig(k=3, epsilon=epsilon, delta=0.1)
        ids, trace = median_elimination_topk(instance, config)
        assert_rounds_pull_increasing_ids(trace, pulled, cuts)
        want_ids, want = oracle_topk(instance, config)
        assert ids == want_ids and trace.returned_means == want.returned_means


def test_a_one_round_search_answers_by_top_ids_alone(monkeypatch):
    # n = K + 1 is one round: its cut is the answer's top_ids, and eliminate
    # is never called; rows tie in groups, so the tie rule decides the cut
    def banned(*args):
        raise AssertionError("a one-round search called eliminate")

    monkeypatch.setattr(elimination, "eliminate", banned)
    rng = np.random.default_rng(47)
    for trial in range(40):
        k = int(rng.integers(1, 12))
        distinct = rng.integers(0, 2, (3, int(rng.integers(1, 50)))).astype(float)
        rewards = distinct[rng.integers(0, 3, k + 1)] if trial % 2 else rng.random((k + 1, 30))
        config = EliminationConfig(k=k, epsilon=float(rng.choice([0.0, 0.3])), delta=0.1)
        ids, trace = median_elimination_topk(MatrixArms(rewards), config)
        want_ids, want = oracle_topk(RowsMatrixArms(rewards), config)
        assert len(trace.rounds) == 1
        assert ids == want_ids
        assert [m.hex() for m in trace.returned_means] == [m.hex() for m in want.returned_means]
