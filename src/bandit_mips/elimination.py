"""Round-based halving search for the top-K arms under bounded pulls.

Each round pulls every surviving arm up to a shared cumulative target chosen
so that, with the round's slice of the confidence budget, empirical means
separate the keepers from the half being dropped.  The round accuracy and
confidence follow the fixed schedule

    eps_l = (eps/4) * (3/4)^(l-1),    delta_l = delta / 2^l,

whose sums over all rounds stay within eps and delta.  Every round removes
ceil((s - K)/2) of the s survivors, so the excess over K at least halves and
the loop ends after at most ceil(log2 n) + 1 rounds with exactly K arms.
Per-arm pulls never exceed the list length N: once the target reaches N the
survivors are measured exactly and later rounds add no pulls.

Arms are read through the ``Arms`` protocol: ``sums(rows, t)`` returns the
cumulative reward sums of ``rows`` after ``t`` pulls each.  Every survivor
has the same pull count, so the loop holds no per-arm state beyond an int
array of survivors.  An arm set whose sums carry rounding error declares a
bound ``mean_error`` on it, and each round asks the sampled means for
eps_l/2 - mean_error per tail, so that the computed means still lie within
eps_l/2 of the true ones.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Protocol

import numpy as np

from .bounds import hoeffding_count, pull_target

__all__ = [
    "Arms",
    "EliminationConfig",
    "RoundRecord",
    "EliminationTrace",
    "elimination_schedule",
    "round_pull_target",
    "pull_batch",
    "eliminate",
    "median_elimination_topk",
]


class Arms(Protocol):
    """n arms with reward lists of length ``list_len``, ids 0..n-1.

    ``sums(rows, t)`` returns, for each id in the int array ``rows``, the sum
    of its first ``t`` rewards in a uniformly random without-replacement
    order (0 <= t <= list_len).  Across calls on one object ``rows`` only
    shrinks and ``t`` never decreases, so an implementation may add only
    the new pulls of the current rows.  ``mean_error`` bounds
    |sums(rows, t)/t - exact mean of those t rewards| for every row and
    t < list_len; at t = list_len the sums are exact.
    """

    n: int
    list_len: int
    mean_error: float

    def sums(self, rows: np.ndarray, t: int) -> np.ndarray: ...


@dataclass(slots=True)
class EliminationConfig:
    """Search parameters for one top-K run.

    ``epsilon`` is on the scale of the rewards' mean (suboptimality of the
    returned set stays below it with probability at least 1 - delta) and may
    be 0, which forces exhaustive, exact evaluation.  ``range_width`` is the
    b - a spread the rewards are known to lie in.
    """

    k: int
    epsilon: float
    delta: float
    range_width: float = 1.0

    def __post_init__(self) -> None:
        if self.k < 1:
            raise ValueError("k must be at least 1")
        if self.epsilon < 0.0 or not math.isfinite(self.epsilon):
            raise ValueError("epsilon must be finite and non-negative")
        if not 0.0 < self.delta < 1.0:
            raise ValueError("delta must lie in (0, 1)")
        if self.range_width <= 0.0:
            raise ValueError("range_width must be positive")


@dataclass(slots=True)
class RoundRecord:
    """One elimination round: sizes, budget slice, cumulative pull target."""

    round_index: int
    survivors: int
    epsilon_round: float
    delta_round: float
    pull_target: int


@dataclass(slots=True)
class EliminationTrace:
    rounds: list[RoundRecord] = field(default_factory=list)
    returned: list[int] = field(default_factory=list)
    returned_means: list[float] = field(default_factory=list)
    total_pulls: int = 0
    max_arm_pulls: int = 0
    warning: str | None = None


def elimination_schedule(epsilon: float, delta: float, round_index: int) -> tuple[float, float]:
    """Accuracy and confidence assigned to round ``round_index`` (1-based).

    Geometric splits: sum of eps_l over all rounds equals epsilon, sum of
    delta_l equals delta.
    """
    if round_index < 1:
        raise ValueError("round_index starts at 1")
    eps_l = (epsilon / 4.0) * (0.75 ** (round_index - 1))
    delta_l = delta / (2.0**round_index)
    return eps_l, delta_l


def round_pull_target(
    survivors: int,
    k: int,
    epsilon_round: float,
    delta_round: float,
    range_width: float,
    list_len: int,
    mean_error: float = 0.0,
) -> int:
    """Cumulative per-arm pull count needed by one round.

    The round must, with confidence delta_round spread over the survivors,
    estimate each mean to a = epsilon_round/2 - mean_error per tail, so that
    means computed with up to ``mean_error`` of rounding stay within
    epsilon_round/2; both tails and the union bound fold into a single
    Hoeffding count

        u = (range_width^2 / (2 a^2)) * ln(2(s-K) / (delta_l (floor((s-K)/2)+1)))

    which ``sample_size`` then shrinks for the finite list.  An accuracy
    a <= 0 (eps_l = 0, eps_l/2 underflowing to 0, or no more than the
    rounding bound) and a one-entry list jump straight to exhaustion
    (target N, exact means).  The target is at least one pull, also where u
    underflows to 0 (an accuracy far wider than the range).
    """
    if survivors <= k:
        raise ValueError("survivors must exceed k")
    accuracy = epsilon_round / 2.0 - mean_error
    if accuracy <= 0.0 or list_len == 1:
        return list_len
    excess = survivors - k
    per_tail_delta = delta_round * (excess // 2 + 1) / (2.0 * excess)
    u = hoeffding_count(accuracy, per_tail_delta, range_width)
    return max(pull_target(u, list_len), 1)


def pull_batch(arms: Arms, rows: np.ndarray, t: int) -> np.ndarray:
    """Empirical means of ``rows`` after ``t`` pulls each (t >= 1)."""
    if t < 1:
        raise ValueError("an empirical mean needs at least one pull")
    return arms.sums(rows, t) / t


def eliminate(rows: np.ndarray, means: np.ndarray, k: int) -> np.ndarray:
    """Keep mask over ``rows``: drop the ceil((s - k)/2) least ``means``.

    Ties on the mean drop the larger row id first, making the outcome a pure
    function of (means, ids).  Applying the mask keeps the input order.
    """
    s = rows.size
    if s <= k:
        raise ValueError("survivors must exceed k")
    drop_count = (s - k + 1) // 2
    order = np.lexsort((-rows, means))  # ascending mean, then descending id
    keep = np.ones(s, dtype=bool)
    keep[order[:drop_count]] = False
    return keep


def median_elimination_topk(
    arms: Arms, config: EliminationConfig
) -> tuple[list[int], EliminationTrace]:
    """Return K arm ids whose K-th best true mean is epsilon-close to optimal.

    The guarantee holds with probability at least 1 - delta when each arm's
    rewards are read in uniform order without replacement and lie within
    range_width, and the arms' sums are off by at most ``arms.mean_error``
    per pull.  Returned ids are ordered by decreasing empirical mean
    (ties by id).  The trace carries per-round budgets and targets, total
    pulls across all arms including eliminated ones, and the per-arm
    maximum.

    If there are at most K arms, all of them are returned with zero pulls.
    """
    n, list_len = arms.n, arms.list_len
    if n < 1:
        raise ValueError("need at least one arm")
    if list_len < 1:
        raise ValueError("reward lists must be non-empty")

    trace = EliminationTrace()
    if n <= config.k:
        trace.returned = list(range(n))
        return list(trace.returned), trace

    alive = np.arange(n)
    target = 0
    round_index = 1
    while alive.size > config.k:
        eps_l, delta_l = elimination_schedule(config.epsilon, config.delta, round_index)
        target_prev = target
        target = round_pull_target(
            alive.size, config.k, eps_l, delta_l, config.range_width, list_len, arms.mean_error
        )
        target = max(target, target_prev)  # increments are never negative
        trace.total_pulls += alive.size * (target - target_prev)
        means = pull_batch(arms, alive, target)
        trace.rounds.append(RoundRecord(round_index, alive.size, eps_l, delta_l, target))
        keep = eliminate(alive, means, config.k)
        alive, means = alive[keep], means[keep]
        round_index += 1

    trace.max_arm_pulls = target
    order = np.lexsort((alive, -means))
    trace.returned = alive[order].tolist()
    trace.returned_means = means[order].tolist()
    return list(trace.returned), trace
