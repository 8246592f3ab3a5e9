"""Result-quality metrics shared by the validation and comparison harnesses."""

from __future__ import annotations

import math
from typing import Iterable, Sequence

import numpy as np

__all__ = ["precision", "suboptimality", "percentile"]


def precision(returned: Iterable[int], truth: Iterable[int], k: int) -> float:
    """Fraction of the true top-K ids present in the returned top-K."""
    returned = set(returned)
    truth = set(truth)
    if len(returned) != k or len(truth) != k:
        raise ValueError("returned and truth must each hold exactly k distinct ids")
    return len(returned & truth) / k


def suboptimality(returned: Iterable[int], true_means: Sequence[float], k: int) -> float:
    """Gap between the K-th best true mean overall and within the returned set.

    Zero iff the returned set is as good as an exact top-K in the K-th-best
    sense; never negative.  An id outside [0, n) is a ValueError naming it.
    """
    returned = list(returned)
    if len(set(returned)) != k:
        raise ValueError("returned must hold exactly k distinct ids")
    means = np.asarray(true_means, dtype=np.float64)
    for i in returned:
        if not 0 <= i < means.size:
            raise ValueError(f"returned id {i} outside [0, {means.size})")
    kth_best = np.partition(means, means.size - k)[means.size - k]
    # the K-th highest of exactly K returned means is their minimum
    kth_returned = means[returned].min()
    return float(kth_best - kth_returned)


def percentile(values: Sequence[float], p: float) -> float:
    """Nearest-rank percentile: ascending sort, 1-based rank ceil(p * len)."""
    if len(values) == 0:
        raise ValueError("values must be non-empty")
    if not 0.0 <= p <= 1.0:
        raise ValueError("p must lie in [0, 1]")
    ordered = sorted(float(v) for v in values)
    rank = min(max(math.ceil(p * len(ordered)), 1), len(ordered))
    return ordered[rank - 1]
