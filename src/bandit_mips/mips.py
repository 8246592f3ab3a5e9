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
picks, splitmix64(seed) mod N.  Each arm's first t positions are then a
uniform without-replacement sample, as the bound requires, and a round's
new pulls for all survivors are one contiguous column window of the
permuted copy (two where it wraps around), read on the strided view of the
copy or from the survivors' gathered rows by ``LazySource``'s read rule.  No
n x N reward matrix is ever materialized.

The permuted copy is float32, scaled by a power of two that brings every
entry below 1 in magnitude.  ``LazySource`` evaluates its windows in
float32, each around one BLAS product (a distance window is expanded as
2 v.q - v.v - q.q on the rows already read), so every empirical mean may
be off by up to its ``mean_error`` eta (about 6.1e-5 Mv Mq for inner
products and 6.1e-5 (Mv + Mq)^2 for distances, with Mv and Mq the largest
data and query magnitudes, plus the copy's measured rounding where float32
does not hold the scaled data), which the search's confidence radius absorbs.
Exhausted means stay exact: the one scorer ``arms.exact_sums`` re-sums
them from the file-order float64 ``data``, the reference order of every
exact answer, so an epsilon = 0 search returns ``naive_topk``'s ids and
means bit for bit.  On 1000 x 10^4 data the copy takes 40 MB, half of
``data``.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .arms import LazySource, ObjectiveKind, PositionSampler, check_dims, check_kind, row_block
from .elimination import (
    EliminationConfig,
    EliminationTrace,
    check_delta,
    check_epsilon,
    checked_int,
    median_elimination_topk,
)

__all__ = [
    "VectorSet",
    "Query",
    "build_arms",
    "reward_range",
    "mips_topk",
]

@dataclass
class VectorSet:
    """n dense vectors of a common dimension, float64, plus |entry| bound.

    ``seed``, a non-negative integer, draws the column permutation pi that
    bandit queries sample coordinates in.  pi and the column-permuted copy
    of ``data`` are built on the first bandit query and cached; ``data``
    itself keeps the caller's order.

    A float64 C-contiguous ``data`` is kept as given; any other input is
    converted into a new float64 matrix, which the bound then scans a row
    block at a time.
    """

    data: np.ndarray
    coord_bound: float = field(default=0.0, init=False)
    seed: int = 0
    _permuted: tuple[np.ndarray, np.ndarray, float] | None = field(
        default=None, init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        self.seed = checked_int(self.seed, "seed", 0)
        self.data = np.ascontiguousarray(self.data, dtype=np.float64)
        if self.data.ndim != 2 or self.data.size == 0:
            raise ValueError("data must be a non-empty 2-D matrix")
        self.coord_bound = _load_rows(self.data, None)

    @classmethod
    def _from_rows(
        cls, shape: tuple[int, int], fill: Callable[[np.ndarray, int], np.ndarray]
    ) -> VectorSet:
        """The set of the n x N matrix that ``fill`` lands a row block at a time.

        ``fill`` is as for ``_load_rows``.  Checks and result are those of
        ``VectorSet`` of the full matrix, which is neither built in another
        dtype nor scanned again.
        """
        vs = cls.__new__(cls)
        vs.data, vs.seed, vs._permuted = np.empty(shape), 0, None
        vs.coord_bound = _load_rows(vs.data, fill)
        return vs

    @property
    def n(self) -> int:
        return self.data.shape[0]

    @property
    def dim(self) -> int:
        return self.data.shape[1]

    def permuted(self) -> tuple[np.ndarray, np.ndarray, float]:
        """(pi, copy, rho), drawn from ``seed`` and cached on first use.

        The copy is data[:, pi] * 2^-e in float32, e = frexp(coord_bound)[1],
        rounded a row block at a time with no float64 temporary of its size;
        rho is its largest rounding error, 0 where float32 holds every scaled entry.
        """
        if self._permuted is None:
            perm = PositionSampler(self.dim, self.seed).draw(self.dim)
            copy, rho = np.empty(self.data.shape, dtype=np.float32), 0.0
            exponent, step = math.frexp(self.coord_bound)[1], row_block(self.dim)
            for a in range(0, self.n, step):
                block = np.take(self.data[a : a + step], perm, axis=1)
                copy[a : a + step] = np.ldexp(block, -exponent, out=block)
                block -= copy[a : a + step]  # exact: each entry's float32 rounding error
                rho = max(rho, float(np.abs(block, out=block).max()))
            self._permuted = (perm, copy, rho)
        return self._permuted


def _load_rows(
    out: np.ndarray, fill: Callable[[np.ndarray, int], np.ndarray] | None
) -> float:
    """Land ``out`` a row block at a time; returns its largest |entry|.

    ``fill(rows, a)``, from a dataset read, writes rows a, a + 1, ... into
    the slice ``rows`` of ``out`` and returns the block it converted them
    from exactly, which is narrower and so faster to scan.  Each block is
    bounded as it lands, while it is in cache, so the bound takes no second
    pass over ``out``.  ``fill`` None bounds rows that are in place already.
    Raises ValueError at the first block with a NaN or an infinite entry.
    """
    bound, step = 0.0, row_block(out.shape[1])
    for a in range(0, out.shape[0], step):
        rows = out[a : a + step]
        block = rows if fill is None else fill(rows, a)
        # NaN propagates through both reductions and +-inf shows in one.
        lo, hi = float(block.min()), float(block.max())
        if not (math.isfinite(lo) and math.isfinite(hi)):
            raise ValueError("data entries must be finite")
        bound = max(bound, abs(lo), abs(hi))
    return bound


@dataclass
class Query:
    vector: np.ndarray
    coord_bound: float = field(default=0.0, init=False)

    def __post_init__(self) -> None:
        self.vector = np.asarray(self.vector, dtype=np.float64, order="C")
        if self.vector.ndim != 1 or self.vector.size < 1:
            raise ValueError("query must be a non-empty 1-D vector")
        if not np.isfinite(self.vector).all():
            raise ValueError("query entries must be finite")
        self.coord_bound = float(np.abs(self.vector).max())

    @property
    def dim(self) -> int:
        return self.vector.size


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
    return LazySource(vectors, query, kind, checked_int(start, "start"))


def reward_range(vectors: VectorSet, query: Query, kind: ObjectiveKind) -> tuple[float, float]:
    """Interval provably containing every per-coordinate reward f(i, j).

    inner_product: (-Mv*Mq, +Mv*Mq); neg_sq_distance: (-(Mv+Mq)^2, 0), with
    Mv and Mq the coordinate-magnitude bounds.  The interval has zero width
    when all rewards are identical (e.g. an all-zero query); then any K ids
    are 0-optimal.  An interval whose width times N overflows float64, so
    that reward sums could, raises a ValueError.
    """
    check_dims(vectors, query)
    check_kind(kind)
    if kind is ObjectiveKind.INNER_PRODUCT:
        half = vectors.coord_bound * query.coord_bound
        lo, hi = -half, half
    else:
        try:
            spread = (vectors.coord_bound + query.coord_bound) ** 2
        except OverflowError:
            spread = math.inf
        lo, hi = -spread, 0.0
    if not math.isfinite((hi - lo) * vectors.dim):
        raise ValueError(
            "reward range overflows float64 (coordinate bounds "
            f"{vectors.coord_bound:g} and {query.coord_bound:g}); rescale the data"
        )
    return lo, hi


_MASK64 = (1 << 64) - 1


def _start_offset(seed: int, list_len: int) -> int:
    """The cyclic start offset that ``seed`` picks: splitmix64(seed) mod N.

    splitmix64 (Steele, Lea and Flood, 2014) mixes the seed, taken mod
    2^64, into 64 well-spread bits in a few integer operations, so nearby
    seeds give unrelated offsets without building a random generator per
    query.  The modulo bias is below N / 2^64.
    """
    z = (checked_int(seed, "seed", 0) + 0x9E3779B97F4A7C15) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (z ^ (z >> 31)) % list_len


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
    (a non-negative integer) picks the cyclic offset into that permutation,
    ``_start_offset(seed, N)``.  Every argument is checked first.  Then
    K = n and a degenerate reward range (all scores provably equal, flagged
    in ``trace.warning``) answer without a search or arms: the first K ids,
    unranked, with no pulls and no ``returned_means``.  A search records the
    range's width and the arms' build time in ``trace.range_width`` and
    ``trace.setup_ms``.
    """
    k = checked_int(k, "k", 1, vectors.n, "n")
    check_epsilon(epsilon)
    check_delta(delta)
    start = _start_offset(seed, vectors.dim)
    lo, hi = reward_range(vectors, query, kind)
    if k == vectors.n or hi == lo:
        trace = EliminationTrace(returned=list(range(k)))
        if hi == lo:
            trace.warning = "degenerate reward range: all means equal, returning first k ids"
        return list(range(k)), trace
    config = EliminationConfig(k=k, epsilon=epsilon, delta=delta, range_width=hi - lo)
    begin = time.perf_counter()
    arms = build_arms(vectors, query, kind, start)
    setup_ms = (time.perf_counter() - begin) * 1e3
    ids, trace = median_elimination_topk(arms, config)
    trace.range_width, trace.setup_ms = hi - lo, setup_ms
    return ids, trace
