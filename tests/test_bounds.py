"""The without-replacement sample-size bound, checked against a brute-force scan.

The oracle in ``pull_scan`` re-derives the minimal sufficient pull count by
scanning m = 1..N directly, so the closed form of
``bandit_mips.elimination.sample_size`` is never trusted on its own word.
The Hoeffding count it shrinks is checked with the round targets, in
``test_elimination``.
"""

import math

import numpy as np
import pytest

from bandit_mips.elimination import sample_size
from pull_scan import brute_force_min_pulls, shrinkage


# --- shrinkage -------------------------------------------------------------


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


# --- sample_size -----------------------------------------------------------


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
