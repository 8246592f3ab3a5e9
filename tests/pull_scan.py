"""The without-replacement shrinkage factor and the brute-force pull count
scan that ``elimination.sample_size`` and the round targets are checked against."""


def shrinkage(m: int, list_len: int) -> float:
    """Variance-shrinkage factor for m of ``list_len`` draws without replacement.

    Equals 1 at m = 1, recovering the i.i.d. bound, and 0 at m = N: exhausting
    the list leaves no estimation error at all.

    Raises ValueError outside 1 <= m <= list_len or when list_len < 2.
    """
    if list_len < 2:
        raise ValueError("list_len must be at least 2")
    if not 1 <= m <= list_len:
        raise ValueError("m must be in [1, list_len]")
    n = float(list_len)
    return min(1.0 - (m - 1) / n, (1.0 - m / n) * (1.0 + 1.0 / m))


def brute_force_min_pulls(u, list_len):
    """Smallest m in 1..N with m / shrinkage(m) >= u, by direct scan.

    shrinkage(N) == 0 counts as sufficient: exhausting the list makes the
    empirical mean exact, so any accuracy demand is met vacuously.
    """
    for m in range(1, list_len + 1):
        r = shrinkage(m, list_len)
        if r == 0.0 or m / r >= u:
            return m
    return list_len
