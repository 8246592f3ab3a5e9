"""Earlier versions of the search, kept verbatim as oracles for the tests.

``oracle_plan`` is the round schedule as it was computed before one module
planned a round: each round's target from the former ``bounds`` module's
Hoeffding count, closed-form sample size and clamp, copied here so that it
shares no code with ``round_plan``.  Its budget split is ``oracle_split``,
which spends all of eps over the rounds; ``oracle_partial_split``, the
former ``elimination_schedule``'s, left (3/4)^R of it unspent and stays as
the plan whose targets ``round_plan``'s may not exceed.  ``oracle_topk`` is
the halving loop as it was before the round plan, planning each round with
``oracle_round``, with its ``lexsort`` ``oracle_eliminate`` and
``oracle_pull_batch``, in the former ``Arms`` protocol ``sums(rows, t)``:
the reward sums of an int array ``rows`` that only shrinks across calls.
``RowsLazySource`` is ``LazySource`` in that protocol, with its n-long live
mask and sums; it evaluates windows with ``LazySource.draw``, whose rounding
the float32 tests bound, and keeps its own exact re-sum of the file-order
rows: the whole matrix at once when every row exhausts, else blocks of
gathered rows.  The current code must give bit-identical answers.

``oracle_scan`` is an exact scorer that shares nothing with the package's:
a Python loop over the rows, each summed with ``math.fsum``.
"""

import math

import numpy as np

from bandit_mips.arms import WINDOW_BLOCK, LazySource, ObjectiveKind, row_block
from bandit_mips.elimination import EliminationTrace, RoundRecord


def oracle_scan(matrix, query, kind, rows=None):
    """Reward sums and absolute sums of ``rows`` (None: every row), one row at a time.

    Each row's float64 rewards f(i, j) are summed by ``math.fsum``, which
    rounds the sum once; so a float64 sum in any order of the same rewards,
    or of their products left unrounded by a fused multiply-add, lies within
    dim * 2^-52 absolute sums of it.
    """
    sums, sizes = [], []
    for i in range(len(matrix)) if rows is None else rows:
        row = np.asarray(matrix[i], dtype=np.float64)
        rewards = row * query if kind is ObjectiveKind.INNER_PRODUCT else -((row - query) ** 2)
        sums.append(math.fsum(rewards))
        sizes.append(math.fsum(np.abs(rewards)))
    return np.array(sums), np.array(sizes)


def oracle_rounds(n, k):
    """The number of halving rounds from n arms down to k."""
    rounds = 0
    while n > k:
        n -= (n - k + 1) // 2
        rounds += 1
    return rounds


def oracle_split(round_index, rounds, epsilon, delta):
    """Round ``round_index`` of ``rounds``' (eps_l, delta_l), spending all of eps.

    The eps spent through round l is eps (1 - (3/4)^l) / (1 - (3/4)^R),
    eps itself at l = R, and eps_l is the difference of two such values.
    """

    def spent(l):
        return epsilon if l == rounds else epsilon * ((1.0 - 0.75**l) / (1.0 - 0.75**rounds))

    return spent(round_index) - spent(round_index - 1), delta / (2.0**round_index)


def oracle_partial_split(round_index, rounds, epsilon, delta):
    """The split before it spent all of eps: (eps/4)(3/4)^(l-1) sums to eps (1 - (3/4)^R)."""
    return (epsilon / 4.0) * (0.75 ** (round_index - 1)), delta / (2.0**round_index)


def oracle_round(
    round_index, rounds, survivors, k, epsilon, delta, width, list_len, mean_error,
    split=oracle_split,
):
    """Round ``round_index``'s (eps_l, delta_l, target) before targets are made monotone."""
    eps_l, delta_l = split(round_index, rounds, epsilon, delta)
    accuracy = eps_l / 2.0 - mean_error
    if accuracy <= 0.0 or list_len == 1:
        return eps_l, delta_l, list_len
    excess = survivors - k
    per_tail_delta = delta_l * (excess // 2 + 1) / (2.0 * excess)
    try:
        ratio_sq = (width / accuracy) ** 2
    except OverflowError:
        ratio_sq = math.inf
    u = math.log(1.0 / per_tail_delta) / 2.0 * ratio_sq
    if math.isinf(u):
        m = float(list_len)
    else:
        n = float(list_len)
        m = min((u + 1.0) / (1.0 + u / n), (u + u / n) / (1.0 + u / n))
    return eps_l, delta_l, max(min(max(math.ceil(m), 0), list_len), 1)


def oracle_plan(n, config, list_len, mean_error, split=oracle_split):
    """The ``RoundRecord`` list of a search over n > K arms, one round at a time."""
    plan, survivors, target = [], n, 0
    rounds = oracle_rounds(n, config.k)
    while survivors > config.k:
        eps_l, delta_l, t = oracle_round(
            len(plan) + 1, rounds, survivors, config.k, config.epsilon, config.delta,
            config.range_width, list_len, mean_error, split,
        )
        target = max(target, t)
        plan.append(RoundRecord(len(plan) + 1, survivors, eps_l, delta_l, target))
        survivors -= (survivors - config.k + 1) // 2
    return plan


def oracle_pull_batch(arms, rows, t):
    """Empirical means of ``rows`` after ``t`` pulls each (t >= 1)."""
    if t < 1:
        raise ValueError("an empirical mean needs at least one pull")
    return arms.sums(rows, t) / t


def oracle_eliminate(rows, means, k):
    s = rows.size
    if s <= k:
        raise ValueError("survivors must exceed k")
    drop_count = (s - k + 1) // 2
    order = np.lexsort((-rows, means))  # ascending mean, then descending id
    keep = np.ones(s, dtype=bool)
    keep[order[:drop_count]] = False
    return keep


def oracle_topk(arms, config):
    """The search loop that planned each round after the previous one's pulls."""
    n, list_len = arms.n, arms.list_len
    trace = EliminationTrace()
    if n <= config.k:
        trace.returned = list(range(n))
        return list(trace.returned), trace

    alive = np.arange(n)
    target = 0
    round_index = 1
    rounds = oracle_rounds(n, config.k)
    while alive.size > config.k:
        target_prev = target
        eps_l, delta_l, target = oracle_round(
            round_index, rounds, alive.size, config.k, config.epsilon, config.delta,
            config.range_width, list_len, arms.mean_error,
        )
        target = max(target, target_prev)  # increments are never negative
        trace.total_pulls += alive.size * (target - target_prev)
        means = oracle_pull_batch(arms, alive, target)
        trace.rounds.append(RoundRecord(round_index, alive.size, eps_l, delta_l, target))
        keep = oracle_eliminate(alive, means, config.k)
        alive, means = alive[keep], means[keep]
        round_index += 1

    trace.max_arm_pulls = target
    order = np.lexsort((alive, -means))
    trace.returned = alive[order].tolist()
    trace.returned_means = means[order].tolist()
    return list(trace.returned), trace


class RowsLazySource(LazySource):
    """``LazySource.sums`` and ``draw`` in the ``sums(rows, t)`` protocol."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._sums = np.zeros(self.n)
        self._live = np.ones(self.n, dtype=bool)
        self._pulls = 0

    def sums(self, rows: np.ndarray, t: int) -> np.ndarray:
        """Cumulative reward sums of ``rows`` over the first ``t`` positions."""
        rows = np.asarray(rows, dtype=np.intp)
        if not self._pulls <= t <= self.list_len:
            raise ValueError(
                f"pull count {t} outside [{self._pulls}, {self.list_len}]: "
                "t never decreases and never exceeds the list length"
            )
        if not self._live[rows].all():
            raise ValueError("rows must be a subset of the rows of the previous call")
        done = self._pulls
        if done < t == self.list_len:
            if rows.size == self.n:  # every row: one scan of the whole matrix
                self._sums = self.draw(None, 0, self.list_len, exact=True)
            else:
                step = row_block(self.list_len)
                for i in range(0, rows.size, step):
                    block = rows[i : i + step]
                    self._sums[block] = self.draw(block, 0, self.list_len, exact=True)
            done = t
        # The read rule of the class docstring.  On the view every row's sum
        # advances, dead rows' too; those are never asked about again.
        if self._kind is ObjectiveKind.INNER_PRODUCT:
            on_view = 4 * rows.size >= self.n
        else:
            on_view = rows.size == self.n
        while done < t:
            a = (self.start + done) % self.list_len
            b = min(a + t - done, self.list_len, a + WINDOW_BLOCK)
            if on_view:
                self._sums += self.draw(None, a, b)
            else:
                self._sums[rows] += self.draw(rows, a, b)
            done += b - a
        self._pulls = t
        self._live[:] = False
        self._live[rows] = True
        return self._sums[rows]

    def draw(self, rows: np.ndarray | None, a: int, b: int, exact: bool = False) -> np.ndarray:
        """Reward sums of ``rows`` (None: every row) over columns [a, b).

        The sums are ``LazySource.draw``'s float32 window sums scaled back
        in float64, or with ``exact`` float64 sums of the direct form over
        the file-order rows against the unpermuted query.
        """
        if not exact:
            return np.ldexp(super().draw(rows, a, b), self._shift, dtype=np.float64)
        window = self._rows[:, a:b] if rows is None else self._rows[rows, a:b]
        query = self._query[a:b]
        if self._kind is ObjectiveKind.INNER_PRODUCT:
            return window @ query
        diff = window - query
        return -np.einsum("ij,ij->i", diff, diff)
