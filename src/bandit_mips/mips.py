"""Casting inner-product and nearest-neighbor search as bounded-pull bandits.

Vector i becomes arm i.  For a query q, the reward of arm i at position j is
one coordinate's contribution to the score:

    inner_product:      f(i, j) = v_i[j] * q[j]
    neg_sq_distance:    f(i, j) = -(q[j] - v_i[j])^2

so the arm's true mean over all N positions is score(i)/N (for inner
products, exactly q . v_i / N), and finding the top-K arms by mean is
finding the top-K vectors by score.  Epsilon is therefore on the
per-coordinate mean scale; multiply by N for the equivalent inner-product
gap.

Every arm reads its coordinates in one shared order: a column permutation
pi of the ``VectorSet``, entered at a cyclic offset that the query's seed
picks.  Each arm's first t positions are then a uniform without-replacement
sample, as the bound requires, and a round's new pulls for all survivors
are one contiguous column window of the permuted copy (two where it wraps
around), evaluated with BLAS.  No n x N reward matrix is ever materialized.

The permuted copy is float32 whenever float32 holds every entry of
``data`` exactly (as it does for data read from the binary format), and
float64 otherwise.  On a float32 copy the windows are evaluated in float32
against the query rounded to float32, so every empirical mean may be off by
up to the arm set's ``mean_error`` eta:

    inner_product:      eta = (gamma_B + 3u) Mv Mq       + (Mv + 1) tau
    neg_sq_distance:    eta = (gamma_B + 5u) (Mv + Mq)^2 + 2 (Mv + Mq + 1) tau

with B = ``WINDOW_BLOCK``, u = 2^-24, gamma_B = B u / (1 - B u), tau =
2^-149 for float32 underflow, and Mv, Mq the largest data and query
magnitudes (about 6.1e-5 Mv Mq at B = 1024).  The search pays for it
inside the confidence radius: each round estimates the means to
eps_l/2 - eta per tail instead of eps_l/2, and a round where that is not
positive exhausts.  Rows that reach t = N are re-summed in float64, so
exhausted means, and epsilon = 0 answers, stay exact.  A query whose
float32 windows could overflow (B Mv Mq or B (Mv + Mq)^2 above 2^127) is
evaluated in float64 with eta = 0, as is every query on a float64 copy.
On 1000 x 10^4 float32-exact data the copy takes 40 MB instead of 80 MB.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .arms import ROW_BLOCK, LazySource, ObjectiveKind, PositionSampler
from .elimination import EliminationConfig, EliminationTrace, median_elimination_topk

__all__ = [
    "VectorSet",
    "Query",
    "build_arms",
    "reward_range",
    "true_means",
    "mips_topk",
]


@dataclass
class VectorSet:
    """n dense vectors of a common dimension, float64, plus |entry| bound.

    ``seed`` draws the column permutation pi that bandit queries sample
    coordinates in.  pi and the column-permuted copy of ``data`` are built
    on the first bandit query and cached; ``data`` itself keeps the caller's
    order.  The copy is float32 when that holds ``data`` exactly, float64
    otherwise.
    """

    data: np.ndarray
    coord_bound: float = field(default=0.0, init=False)
    seed: int = 0
    _permuted: tuple[np.ndarray, np.ndarray] | None = field(
        default=None, init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        self.data = np.ascontiguousarray(np.asarray(self.data, dtype=np.float64))
        if self.data.ndim != 2 or self.data.shape[0] < 1 or self.data.shape[1] < 1:
            raise ValueError("data must be a non-empty 2-D matrix")
        # NaN propagates through both reductions and +-inf shows in one.
        lo, hi = float(self.data.min()), float(self.data.max())
        if not (math.isfinite(lo) and math.isfinite(hi)):
            raise ValueError("data entries must be finite")
        self.coord_bound = max(abs(lo), abs(hi))

    @property
    def n(self) -> int:
        return self.data.shape[0]

    @property
    def dim(self) -> int:
        return self.data.shape[1]

    def permuted(self) -> tuple[np.ndarray, np.ndarray]:
        """(pi, data[:, pi]), drawn from ``seed`` and cached on first use.

        The copy is built in row blocks as float32, and in float64 instead
        once a block shows that float32 does not hold ``data`` exactly, so
        no float64 temporary of the copy's size exists beside a float32 one.
        """
        if self._permuted is None:
            perm = PositionSampler(self.dim, self.seed).draw(self.dim)
            self._permuted = (perm, _permuted_copy(self.data, perm))
        return self._permuted


def _permuted_copy(data: np.ndarray, perm: np.ndarray) -> np.ndarray:
    copy = np.empty(data.shape, dtype=np.float32)
    for a in range(0, data.shape[0], ROW_BLOCK):
        block = np.take(data[a : a + ROW_BLOCK], perm, axis=1)
        with np.errstate(over="ignore"):
            copy[a : a + ROW_BLOCK] = block
        if not np.array_equal(copy[a : a + ROW_BLOCK], block):
            break
    else:
        return copy
    del copy
    return np.take(data, perm, axis=1)


@dataclass
class Query:
    vector: np.ndarray
    coord_bound: float = field(default=0.0, init=False)

    def __post_init__(self) -> None:
        self.vector = np.ascontiguousarray(np.asarray(self.vector, dtype=np.float64))
        if self.vector.ndim != 1 or self.vector.size < 1:
            raise ValueError("query must be a non-empty 1-D vector")
        if not np.isfinite(self.vector).all():
            raise ValueError("query entries must be finite")
        self.coord_bound = float(np.abs(self.vector).max())

    @property
    def dim(self) -> int:
        return self.vector.size


def _check_dims(vectors: VectorSet, query: Query) -> None:
    if vectors.dim != query.dim:
        raise ValueError(f"dimension mismatch: data {vectors.dim}, query {query.dim}")


def build_arms(
    vectors: VectorSet,
    query: Query,
    kind: ObjectiveKind = ObjectiveKind.INNER_PRODUCT,
    start: int = 0,
) -> LazySource:
    """The arms of one query over the permuted copy; arm ids are the row indices.

    Arm i's t-th pull reads column ``pi[(start + t - 1) % N]`` of row i.  The
    query is permuted once; the set's permuted copy is built on first use.
    """
    _check_dims(vectors, query)
    perm, permuted = vectors.permuted()
    return LazySource(permuted, query.vector[perm], kind, start, vectors.coord_bound)


def reward_range(vectors: VectorSet, query: Query, kind: ObjectiveKind) -> tuple[float, float]:
    """Interval provably containing every per-coordinate reward f(i, j).

    inner_product: (-Mv*Mq, +Mv*Mq); neg_sq_distance: (-(Mv+Mq)^2, 0), with
    Mv and Mq the coordinate-magnitude bounds.  The interval has zero width
    when all rewards are identical (e.g. an all-zero query); then any K ids
    are 0-optimal.  An interval whose width times N overflows float64, so
    that reward sums could, raises a ValueError.
    """
    _check_dims(vectors, query)
    if kind is ObjectiveKind.INNER_PRODUCT:
        half = vectors.coord_bound * query.coord_bound
        lo, hi = -half, half
    elif kind is ObjectiveKind.NEG_SQ_DISTANCE:
        try:
            spread = (vectors.coord_bound + query.coord_bound) ** 2
        except OverflowError:
            spread = math.inf
        lo, hi = -spread, 0.0
    else:
        raise ValueError(f"unknown objective kind: {kind!r}")
    if not math.isfinite((hi - lo) * vectors.dim):
        raise ValueError(
            "reward range overflows float64 (coordinate bounds "
            f"{vectors.coord_bound:g} and {query.coord_bound:g}); rescale the data"
        )
    return lo, hi


def true_means(vectors: VectorSet, query: Query, kind: ObjectiveKind) -> np.ndarray:
    """Exact per-arm means, i.e. score(i)/dim for every row (O(n*dim)).

    Distances are summed over blocks of rows, so no n x dim difference is
    ever held; each row's sum is the same as over the whole matrix.
    """
    _check_dims(vectors, query)
    if kind is ObjectiveKind.INNER_PRODUCT:
        return vectors.data @ query.vector / vectors.dim
    if kind is ObjectiveKind.NEG_SQ_DISTANCE:
        sq = np.empty(vectors.n)
        for a in range(0, vectors.n, ROW_BLOCK):
            diff = vectors.data[a : a + ROW_BLOCK] - query.vector
            sq[a : a + ROW_BLOCK] = np.einsum("ij,ij->i", diff, diff)
        return -sq / vectors.dim
    raise ValueError(f"unknown objective kind: {kind!r}")


def mips_topk(
    vectors: VectorSet,
    query: Query,
    k: int,
    epsilon: float,
    delta: float,
    seed: int = 0,
    kind: ObjectiveKind = ObjectiveKind.INNER_PRODUCT,
) -> tuple[list[int], EliminationTrace]:
    """Top-K rows by score via the bounded-pull elimination search.

    With probability at least 1 - delta the returned set's K-th best true
    mean is within ``epsilon`` (mean scale) of the K-th best overall, for a
    query chosen independently of the set's column permutation.  ``seed``
    picks the cyclic offset into that permutation.  A degenerate reward
    range (all scores provably equal) short-circuits to the first K ids,
    flagged in ``trace.warning``, after the same epsilon and delta checks.
    """
    if not 1 <= k <= vectors.n:
        raise ValueError("k must lie in [1, n]")
    lo, hi = reward_range(vectors, query, kind)
    if hi == lo:
        EliminationConfig(k=k, epsilon=epsilon, delta=delta)  # validates epsilon and delta
        trace = EliminationTrace(returned=list(range(k)))
        trace.warning = "degenerate reward range: all means equal, returning first k ids"
        return list(range(k)), trace
    config = EliminationConfig(k=k, epsilon=epsilon, delta=delta, range_width=hi - lo)
    start = int(np.random.default_rng(seed).integers(vectors.dim))
    return median_elimination_topk(build_arms(vectors, query, kind, start), config)
