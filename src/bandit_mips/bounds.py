"""Sample-size bounds for mean estimation without replacement.

An arm's rewards live in a fixed finite list of length N.  Pulls draw from
that list without replacement, so the empirical mean of m pulls concentrates
strictly faster than the i.i.d. Hoeffding rate once m is a nontrivial
fraction of N.  The gain enters the tail bound as a variance-shrinkage
factor:

    P(|mean_hat - mean| >= eps) <= 2 exp(-2 m eps^2 / (shrinkage(m, N) (b - a)^2))

with shrinkage(m, N) = min{1 - (m-1)/N, (1 - m/N)(1 + 1/m)}.  Requiring the
exponent to reach a confidence target ln(1/delta) reduces to the scalar
inequality

    m / shrinkage(m, N) >= u,    u = ln(1/delta)/2 * ((b - a)/eps)^2,

where u is exactly the classic with-replacement Hoeffding sample count
(``hoeffding_count``).  ``sample_size`` solves the inequality in closed
form; the least sufficient integer is its ceiling, which brute-force search
confirms overshoots the true minimum by at most one.  The factor itself is
computed only by the tests, for that search.
"""

from __future__ import annotations

import math

__all__ = ["hoeffding_count", "sample_size", "pull_target"]


def hoeffding_count(epsilon: float, delta: float, range_width: float) -> float:
    """With-replacement (Hoeffding) sample count for an (epsilon, delta) estimate.

    Returns ln(1/delta)/2 * (range_width / epsilon)^2 for rewards spanning an
    interval of width ``range_width``.  This is the quantity the
    without-replacement inequality m / shrinkage(m, N) >= u is calibrated
    against; feed it to ``sample_size`` to shrink it for a finite list.
    A ratio range_width / epsilon too large to square in float64 gives
    u = inf, which ``sample_size`` maps to exhaustion.
    """
    if not epsilon > 0.0:
        raise ValueError("epsilon must be positive")
    if not 0.0 < delta < 1.0:
        raise ValueError("delta must lie in (0, 1)")
    if not range_width > 0.0:
        raise ValueError("range_width must be positive")
    try:
        ratio_sq = (range_width / epsilon) ** 2
    except OverflowError:
        ratio_sq = math.inf
    return math.log(1.0 / delta) / 2.0 * ratio_sq


def sample_size(u: float, list_len: int) -> float:
    """Closed-form real m sufficient for the without-replacement bound.

        m(u) = min{ (u + 1) / (1 + u/N),  (u + u/N) / (1 + u/N) }

    Properties (each one is tested):
      - 0 <= m(u) <= N, and m(u) is monotone non-decreasing in u;
      - any integer m >= ceil(m(u)) satisfies m / shrinkage(m, N) >= u;
      - ceil(m(u)) exceeds the least such integer by at most 1.

    u = inf is accepted and maps to N (exhaustive sampling, exact mean).
    """
    if not u >= 0.0:
        raise ValueError("u must be non-negative")
    if list_len < 2:
        raise ValueError("list_len must be at least 2")
    if math.isinf(u):
        return float(list_len)
    n = float(list_len)
    denom = 1.0 + u / n
    return min((u + 1.0) / denom, (u + u / n) / denom)


def pull_target(u: float, list_len: int) -> int:
    """Integer pull count: ceil(sample_size(u, N)) clamped to [0, N]."""
    m = sample_size(u, list_len)
    return min(max(math.ceil(m), 0), list_len)
