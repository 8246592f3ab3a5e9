"""Round-based halving search for the top-K arms under bounded pulls.

Each round pulls every surviving arm up to a shared cumulative target chosen
so that, with the round's slice of the confidence budget, empirical means
separate the keepers from the half being dropped.  This module alone turns
(n, K, eps, delta, range width, N, mean_error) into rounds: ``round_plan``
counts the R rounds first and splits the budget by the fixed schedule

    eps_l = eps * (1/4) (3/4)^(l-1) / (1 - (3/4)^R),    delta_l = delta / 2^l,

whose sums over all rounds are eps and stay within delta (all Median
Elimination needs), and ``round_pull_target`` turns each slice into a
Hoeffding count that ``sample_size`` shrinks for sampling without
replacement.  Every round removes ceil((s - K)/2) of the s survivors, so the
excess over K at least halves and the loop ends after at most
ceil(log2 n) + 1 rounds with exactly K arms.  Per-arm pulls never exceed the
list length N: once the target reaches N the survivors are measured exactly
and later rounds add no pulls.  Survivor counts, budgets and targets never
depend on the sampled means, so the search plans every round before its
first pull.

The loop reads arms through the ``Arms`` protocol and holds the search
state, as in Median Elimination: the int array of survivor ids, which
breaks ties and names the answer, their running sums and their common pull
count.  Each round extends the sums to the round's target, then compacts
ids and sums by the keep mask ``eliminate`` returns: a selection for
real-valued sums, a sort for integer ones.  An arm set whose sums
carry rounding error declares a bound ``mean_error`` on it, and each round
asks the sampled means for eps_l/2 - mean_error per tail, so that the
computed means still lie within eps_l/2 of the true ones.

``checked_int``, ``check_epsilon`` and ``check_delta`` are the package's one
check of an integer argument (k, seeds, sizes, LSH widths), an epsilon and a
delta: a wrong type is a TypeError and a value out of range a ValueError,
each naming the argument.
"""

from __future__ import annotations

import math
import numbers
import operator
from dataclasses import dataclass, field
from typing import Protocol

import numpy as np

__all__ = [
    "Arms",
    "EliminationConfig",
    "RoundRecord",
    "EliminationTrace",
    "sample_size",
    "round_pull_target",
    "round_plan",
    "pull_batch",
    "eliminate",
    "top_ids",
    "median_elimination_topk",
]


class Arms(Protocol):
    """n arms with reward lists of length ``list_len``, ids 0..n-1.

    ``sums(ids, t, done, prior)`` returns, for each arm of the int array
    ``ids``, the sum of its first ``t`` rewards in a uniformly random
    without-replacement order.  ``prior`` holds those arms' sums after
    ``done`` pulls (it may be None when ``done`` is 0), so an
    implementation reads only the pulls ``done..t-1``.  The result is a new
    array, and a call changes neither ``prior`` nor the arm set: the same
    arguments give the same sums.  Pull counts outside
    0 <= done <= t <= list_len raise ValueError.  ``mean_error`` bounds
    |sums/t - exact mean of those t rewards| for every arm and
    t < list_len; at t = list_len the sums are exact.
    """

    n: int
    list_len: int
    mean_error: float

    def sums(
        self, ids: np.ndarray, t: int, done: int = 0, prior: np.ndarray | None = None
    ) -> np.ndarray: ...


def checked_int(
    value, name: str, lo: float = -math.inf, hi: float = math.inf, hi_name: str = ""
) -> int:
    """``value`` as an int, once it is an integer in [lo, hi].

    The one check of every integer argument, which ``name`` names in its
    errors: TypeError for a non-integer such as 2.0, "2" or None (Python and
    numpy integers pass ``operator.index``) and for a bool, which it would
    pass as 0 or 1; ValueError with the value and the range outside
    [lo, hi], calling hi ``hi_name`` when one is given.
    """
    if isinstance(value, bool):
        raise TypeError(f"{name} must be an integer, not bool")
    try:
        value = operator.index(value)
    except TypeError:
        raise TypeError(f"{name} must be an integer, not {type(value).__name__}") from None
    if not lo <= value <= hi:
        top = f"{hi_name}] with {hi_name} = {hi}" if hi_name else f"{hi}]"
        raise ValueError(f"{name} = {value} must lie in [{lo}, {top}")
    return value


def _check_real(value, name: str) -> None:
    # float and int first: they are Real, and the ABC's own check is slower
    if isinstance(value, bool) or not isinstance(value, (float, int, numbers.Real)):
        raise TypeError(f"{name} must be a real number, not {type(value).__name__} {value!r}")


def check_epsilon(value, name: str = "epsilon") -> None:
    """Raise unless ``value`` (not a bool) is a finite real >= 0, naming it ``name``."""
    _check_real(value, name)
    if not (value >= 0.0 and math.isfinite(value)):
        raise ValueError(f"{name} = {value!r} must be finite and >= 0")


def check_delta(value, name: str = "delta") -> None:
    """Raise unless ``value`` (not a bool) is a real in (0, 1), naming it ``name``."""
    _check_real(value, name)
    if not 0.0 < value < 1.0:
        raise ValueError(f"{name} = {value!r} must lie in (0, 1)")


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
        self.k = checked_int(self.k, "k", 1)  # a search over n <= k arms returns them all
        check_epsilon(self.epsilon)
        check_delta(self.delta)
        _check_real(self.range_width, "range_width")
        if not self.range_width > 0.0:
            raise ValueError("range_width must be positive")


@dataclass(slots=True, frozen=True)
class RoundRecord:
    """One elimination round: sizes, budget slice, cumulative pull target.

    Frozen, because the traces of every search run on one plan share it.
    """

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
    range_width: float | None = None  # of the reward range, when mips_topk searches
    setup_ms: float = 0.0  # mips_topk's build_arms time, with a set's first permuted copy


def sample_size(u: float, list_len: int) -> float:
    """Closed-form real m sufficient for the without-replacement bound.

    An arm's rewards live in a fixed list of length N and pulls draw from it
    without replacement, so the empirical mean of m pulls concentrates
    strictly faster than the i.i.d. Hoeffding rate once m is a nontrivial
    fraction of N.  The gain enters the tail bound as a variance-shrinkage
    factor:

        P(|mean_hat - mean| >= eps) <= 2 exp(-2 m eps^2 / (shrinkage(m, N) (b - a)^2))

    with shrinkage(m, N) = min{1 - (m-1)/N, (1 - m/N)(1 + 1/m)}.  Requiring
    the exponent to reach a confidence target ln(1/delta) reduces to the
    scalar inequality

        m / shrinkage(m, N) >= u,    u = ln(1/delta)/2 * ((b - a)/eps)^2,

    where u is exactly the classic with-replacement Hoeffding sample count.
    Its closed-form solution is

        m(u) = min{ (u + 1) / (1 + u/N),  (u + u/N) / (1 + u/N) }

    Properties (each one is tested; only the tests compute the factor, for
    a brute-force scan of m = 1..N):
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

    which ``sample_size`` then shrinks for the finite list.  The round
    exhausts the list (target N, exact means) when nothing short of N can
    meet it: an accuracy a <= 0 (eps_l = 0, eps_l/2 underflowing to 0, or
    no more than the rounding bound), a one-entry list, or a count too
    large for float64 (range_width / a too large to square, or a per-tail
    confidence that underflows to 0).  The target is at least one pull,
    also where u underflows to 0 (an accuracy far wider than the range),
    even with a per-tail confidence so small that its inverse overflows.
    """
    if survivors <= k:
        raise ValueError("survivors must exceed k")
    accuracy = epsilon_round / 2.0 - mean_error
    if accuracy <= 0.0 or list_len == 1:
        return list_len
    excess = survivors - k
    per_tail_delta = delta_round * (excess // 2 + 1) / (2.0 * excess)
    try:
        inverse = 1.0 / per_tail_delta  # -log only where this overflows, keeping u's bits
        log_term = math.log(inverse) if inverse < math.inf else -math.log(per_tail_delta)
        u = log_term / 2.0 * (range_width / accuracy) ** 2
    except (OverflowError, ZeroDivisionError):
        u = math.inf
    return min(max(math.ceil(sample_size(u, list_len)), 1), list_len)


def round_plan(
    n: int, config: EliminationConfig, list_len: int, mean_error: float
) -> list[RoundRecord]:
    """Every round of a search over n > K arms, before any pull.

    With R the number of rounds, round l of R gets the slice

        eps_l = eps (1/4)(3/4)^(l-1) / (1 - (3/4)^R),    delta_l = delta/2^l

    of the budget, and ``round_pull_target`` turns the slice into the
    round's pull count.  Median Elimination's argument needs only that the
    eps_l sum to at most eps and the delta_l to at most delta over rounds
    fixed before the first pull.  R is fixed by then, so the eps_l can sum
    to eps itself; the unnormalised (eps/4)(3/4)^(l-1) left (3/4)^R of eps
    unspent and paid for it with pulls.  eps_l is the difference of the
    rounded eps spent through rounds l and l - 1 (eps itself through round
    R).  From round 2 on, the two lie within a factor 7/4 of each other, so
    each difference is exact and the eps_l sum to exactly eps in floating
    point.  For n <= K there are no rounds and the plan is empty.  Survivor
    counts, budgets and targets depend only on (n, K, epsilon, delta,
    range_width, N, mean_error), never on the sampled means, so the whole
    schedule is known in advance, and searches that share those values can
    share one plan.  Targets never decrease.
    """
    sizes = [n]  # survivors of each round, then K
    while sizes[-1] > config.k:
        sizes.append(sizes[-1] - (sizes[-1] - config.k + 1) // 2)
    rounds = len(sizes) - 1
    plan: list[RoundRecord] = []
    spent, target = 0.0, 0
    for round_index, survivors in enumerate(sizes[:-1], 1):
        # eps spent through this round: the ratio is 1.0 exactly at the last
        budget = config.epsilon * ((1.0 - 0.75**round_index) / (1.0 - 0.75**rounds))
        eps_l, spent = budget - spent, budget
        delta_l = config.delta / (2.0**round_index)
        target = max(
            target,
            round_pull_target(
                survivors, config.k, eps_l, delta_l, config.range_width, list_len, mean_error
            ),
        )
        plan.append(RoundRecord(round_index, survivors, eps_l, delta_l, target))
    return plan


def pull_batch(
    arms: Arms, ids: np.ndarray, t: int, done: int, prior: np.ndarray | None
) -> np.ndarray:
    """Reward sums of the arms ``ids`` after ``t`` pulls each (t >= 1).

    ``prior`` holds their sums after ``done`` pulls, as ``arms.sums`` takes
    them: a round extends the previous round's sums of its survivors.
    """
    if t < 1:
        raise ValueError("an empirical mean needs at least one pull")
    return arms.sums(ids, t, done, prior)


def eliminate(rows: np.ndarray, sums: np.ndarray, t: int, k: int) -> np.ndarray:
    """Keep mask over ``rows``: drop the ceil((s - k)/2) least means ``sums/t``.

    Ties on the mean drop the larger row id first, the ``top_ids`` order
    reversed, making the outcome a pure function of (means, ids).  Applying
    the mask keeps the input order.  Float sums, which do not tie, take one
    ``np.partition``; integer sums, tied in large groups, one ``lexsort``.
    """
    s = rows.size
    if s <= k:
        raise ValueError("survivors must exceed k")
    means = sums / t
    drop_count = (s - k + 1) // 2
    if sums.dtype.kind != "f":
        drop = np.lexsort((-rows, means))[:drop_count]  # ascending mean, then descending id
        keep = np.ones(s, dtype=bool)
        keep[drop] = False
        return keep
    pivot = np.partition(means, drop_count - 1)[drop_count - 1]
    keep = means > pivot
    spare = s - drop_count - np.count_nonzero(keep)  # places left for means at the pivot
    if spare:
        tied = np.flatnonzero(means == pivot)
        keep[tied[np.argsort(rows[tied])[:spare]]] = True
    return keep


def top_ids(scores: np.ndarray, k: int) -> np.ndarray:
    """Positions of the k best ``scores``, best first; ties keep the smaller position.

    The ranking rule of every answer: the search's returned order, the
    exhaustive and LSH baselines' ids and the validation grid's truth.
    Scores listed in increasing id order thus rank tied ids smaller first.
    """
    return np.lexsort((np.arange(len(scores)), -scores))[:k]


def median_elimination_topk(
    arms: Arms, config: EliminationConfig, plan: list[RoundRecord] | None = None
) -> tuple[list[int], EliminationTrace]:
    """Return K arm ids whose K-th best true mean is epsilon-close to optimal.

    The guarantee holds with probability at least 1 - delta when each arm's
    rewards are read in uniform order without replacement and lie within
    range_width, and the arms' sums are off by at most ``arms.mean_error``
    per pull.  Returned ids are ordered by decreasing empirical mean
    (ties by id).  The trace carries per-round budgets and targets, total
    pulls across all arms including eliminated ones, and the per-arm
    maximum.

    ``plan`` is ``round_plan(arms.n, config, arms.list_len,
    arms.mean_error)``, passed by a caller that runs many searches on the
    same values, or None to compute it here.  A plan whose first round does
    not hold all ``arms.n`` arms raises ValueError.

    If there are at most K arms, all of them are returned in id order,
    unranked, with zero pulls and no ``returned_means``.
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

    if plan is None:
        plan = round_plan(n, config, list_len, arms.mean_error)
    elif not plan or plan[0].survivors != n:
        raise ValueError(f"the plan's first round must hold all {n} arms")
    trace.rounds = list(plan)
    alive, sums, target = np.arange(n), None, 0
    for record in trace.rounds:
        t = record.pull_target
        trace.total_pulls += record.survivors * (t - target)
        sums = pull_batch(arms, alive, t, target, sums)
        target = t
        keep = eliminate(alive, sums, t, config.k)
        alive, sums = alive[keep], sums[keep]

    means = sums / target
    trace.max_arm_pulls = target
    order = top_ids(means, config.k)  # alive is increasing, so ties keep the smaller id
    trace.returned = alive[order].tolist()
    trace.returned_means = means[order].tolist()
    return list(trace.returned), trace
