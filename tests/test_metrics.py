"""Precision, suboptimality, and the nearest-rank percentile."""

import numpy as np
import pytest

from bandit_mips.metrics import percentile, precision, suboptimality


def test_precision_identical():
    assert precision([1, 2, 3], [3, 2, 1], 3) == 1.0


def test_precision_disjoint():
    assert precision([1, 2], [3, 4], 2) == 0.0


def test_precision_partial():
    assert precision([1, 2, 3, 4, 5], [3, 4, 5, 6, 7], 5) == pytest.approx(0.6)


def test_precision_size_mismatch():
    with pytest.raises(ValueError):
        precision([1, 2], [1, 2, 3], 3)
    with pytest.raises(ValueError):
        precision([1, 1, 2], [1, 2, 3], 3)  # duplicates collapse


def test_suboptimality_exact_topk_is_zero():
    means = [0.1, 0.9, 0.5, 0.7]
    assert suboptimality([1, 3], means, 2) == 0.0


def test_suboptimality_worst_choice():
    assert suboptimality([1], [0.9, 0.4], 1) == pytest.approx(0.5)


@pytest.mark.parametrize("bad", [-1, 3])
def test_suboptimality_rejects_an_id_outside_the_means(bad):
    # -1 would wrap to the best arm, and 3 index past the end
    with pytest.raises(ValueError, match=f"^returned id {bad} outside \\[0, 3\\)$"):
        suboptimality([bad], [0.0, 1.0, 2.0], 1)


def test_suboptimality_nonnegative_random():
    rng = np.random.default_rng(61)
    for _ in range(200):
        n = int(rng.integers(2, 40))
        k = int(rng.integers(1, n + 1))
        means = rng.random(n)
        returned = rng.choice(n, size=k, replace=False).tolist()
        got = suboptimality(returned, means, k)
        # independent sort-based oracle
        kth_best = sorted(means, reverse=True)[k - 1]
        kth_ret = sorted(means[returned], reverse=True)[k - 1]
        assert got == pytest.approx(kth_best - kth_ret, abs=1e-12)
        assert got >= -1e-12


def test_percentile_extremes():
    vals = [5.0, 1.0, 3.0]
    assert percentile(vals, 1.0) == 5.0
    assert percentile(vals, 0.0) == 1.0  # rank clamps to 1


def test_percentile_nearest_rank_midpoint():
    # ceil(0.5 * 4) = 2 so the answer is the 2nd smallest
    assert percentile([1.0, 2.0, 3.0, 4.0], 0.5) == 2.0


def test_percentile_single_element():
    assert percentile([7.0], 0.3) == 7.0


def test_percentile_matches_manual_rule():
    rng = np.random.default_rng(62)
    for _ in range(100):
        vals = rng.random(int(rng.integers(1, 30))).tolist()
        p = float(rng.random())
        srt = sorted(vals)
        rank = max(1, min(len(vals), int(np.ceil(p * len(vals)))))
        assert percentile(vals, p) == srt[rank - 1]


def test_percentile_empty_rejected():
    with pytest.raises(ValueError):
        percentile([], 0.5)


@pytest.mark.parametrize("p", [-0.1, 1.5, float("nan")])
def test_percentile_outside_zero_one_rejected(p):
    with pytest.raises(ValueError, match=r"^p must lie in \[0, 1\]$"):
        percentile([1.0, 2.0], p)


@pytest.mark.parametrize("returned", [[0, 0], [0], [0, 1, 2]])
def test_suboptimality_needs_k_distinct_ids(returned):
    with pytest.raises(ValueError, match="^returned must hold exactly k distinct ids$"):
        suboptimality(returned, [0.1, 0.2, 0.3], 2)
