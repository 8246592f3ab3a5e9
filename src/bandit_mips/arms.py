"""Arm sets in the ``Arms`` protocol of ``elimination``.

An arm set holds n arms with reward lists of a common length N and answers
``sums(rows, t)``: the reward sums of ``rows`` after ``t`` pulls each.  Every
survivor of the search has the same pull count, so an arm set is a few
arrays, not n objects.  ``mean_error`` bounds how far a mean ``sums/t``
may lie from the exact one through floating-point rounding; the search
widens its radius by it.

``LazySource`` reads the rows of a matrix, computing rewards on demand in
one column order shared by all arms; ``PositionSampler`` draws the random
order that makes those reads uniform without-replacement samples.  The
adversarial instance of ``datasets`` is an arm set of its own: it answers
``sums`` in closed form from its ones-then-zeros lists.
"""

from __future__ import annotations

import enum
import math

import numpy as np

__all__ = ["ObjectiveKind", "WINDOW_BLOCK", "PositionSampler", "LazySource"]

# Widest column window evaluated at once; bounds the temporary of a round to
# survivors x WINDOW_BLOCK floats.
WINDOW_BLOCK = 1024
# Rows per block of an exhaustive float64 re-sum and of building a permuted
# copy; bounds their temporaries to that many rows x N floats.
ROW_BLOCK = 64


class ObjectiveKind(enum.Enum):
    INNER_PRODUCT = "inner_product"
    NEG_SQ_DISTANCE = "neg_sq_distance"


def _float32_mean_error(kind: ObjectiveKind, data_bound: float, query_bound: float) -> float:
    """Bound eta on the rounding error of any mean evaluated in float32.

    The data entries are float32 values bounded by Mv = ``data_bound``; the
    float64 query, bounded by Mq = ``query_bound``, is rounded to float32,
    and each window of at most B = ``WINDOW_BLOCK`` columns is summed in
    float32 in any order, then added up in float64.  With u = 2^-24 and
    gamma_B = B u / (1 - B u), a window sum over c columns is off by at most
    c times

        inner_product:    (gamma_B + 3u) Mv Mq     + (Mv + 1) tau
        neg_sq_distance:  (gamma_B + 5u) (Mv+Mq)^2 + 2 (Mv + Mq + 1) tau

    where tau = 2^-149, float32's least subnormal, covers the query entries
    and products that underflow.  A mean is a sum of windows
    divided by its column count, so the bound holds for every mean; float64
    rounding is not counted, as it is not for float64 data.  Returns inf
    where a float32 window could overflow.
    """
    u, tau = 2.0**-24, 2.0**-149
    gamma = WINDOW_BLOCK * u / (1.0 - WINDOW_BLOCK * u)
    if kind is ObjectiveKind.INNER_PRODUCT:
        scale = data_bound * query_bound
        eta = (gamma + 3.0 * u) * scale + (data_bound + 1.0) * tau
    else:
        spread = data_bound + query_bound
        scale = spread * spread
        eta = (gamma + 5.0 * u) * scale + 2.0 * (spread + 1.0) * tau
    if query_bound > 2.0**127 or WINDOW_BLOCK * scale > 2.0**127:
        return math.inf
    return eta


class PositionSampler:
    """The positions 0..N-1 in one uniformly random order drawn from ``seed``.

    ``draw(count)`` returns the next ``count`` positions of the order, so no
    position repeats and N positions in total are a permutation.
    """

    def __init__(self, list_len: int, seed: int = 0):
        self.list_len = list_len
        self.drawn = 0
        self._order = np.random.default_rng(seed).permutation(list_len)

    def draw(self, count: int) -> np.ndarray:
        if not 0 <= count <= self.list_len - self.drawn:
            raise ValueError(
                f"cannot draw {count} positions, {self.list_len - self.drawn} remain"
            )
        out = self._order[self.drawn : self.drawn + count]
        self.drawn += count
        return out


class LazySource:
    """The rows of ``data`` as arms, rewards computed on demand.

    Arm i's reward at column j is ``data[i, j] * query[j]``, or with
    ``NEG_SQ_DISTANCE`` ``-(data[i, j] - query[j])^2``.  Every arm reads the
    columns in the cyclic order start, start + 1, ..., so a round's new
    pulls for all survivors are one contiguous column window (two where it
    wraps), evaluated in blocks of at most ``WINDOW_BLOCK`` columns.  The
    reads are uniform without-replacement samples when the columns are in
    uniformly random order (``mips.build_arms`` permutes them).  Cumulative
    sums are kept for the rows asked about last.

    ``data`` is float64 or float32.  On float32 data the windows are
    evaluated in float32 against the query rounded to float32, and
    ``mean_error`` is ``_float32_mean_error`` of ``coord_bound`` (the largest
    |entry|, computed when not given); where that bound is infinite the
    windows are evaluated in float64 instead, and ``mean_error`` is 0.
    Rows that reach t = N with a nonzero ``mean_error`` are re-summed in
    float64, so exhausted means carry no float32 rounding.  While at least a
    quarter of the rows survive, a window is evaluated for every row on the
    strided view of ``data``, which BLAS reads faster than it gathers the
    survivors' rows.
    """

    def __init__(
        self,
        data: np.ndarray,
        query: np.ndarray,
        kind: ObjectiveKind,
        start: int = 0,
        coord_bound: float | None = None,
    ):
        data = np.asarray(data)
        if data.dtype != np.float32:
            data = data.astype(np.float64, copy=False)
        query = np.asarray(query, dtype=np.float64)
        if data.ndim != 2 or query.shape != data.shape[1:]:
            raise ValueError(f"query shape {query.shape} does not fit data {data.shape}")
        if kind not in (ObjectiveKind.INNER_PRODUCT, ObjectiveKind.NEG_SQ_DISTANCE):
            raise ValueError(f"unknown objective kind: {kind!r}")
        self._data, self._query, self._kind = data, query, kind
        self._window_query = query
        self.mean_error = 0.0
        if data.dtype == np.float32:
            if coord_bound is None:
                coord_bound = float(np.abs(data).max())
            eta = _float32_mean_error(kind, coord_bound, float(np.abs(query).max()))
            if math.isfinite(eta):
                self.mean_error, self._window_query = eta, query.astype(np.float32)
        self.n, self.list_len = data.shape
        self.start = start % self.list_len
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
        if self.mean_error and done < t == self.list_len:
            for i in range(0, rows.size, ROW_BLOCK):
                block = rows[i : i + ROW_BLOCK]
                self._sums[block] = self.draw(block, 0, self.list_len, exact=True)
            done = t
        # On the view every row's sum advances, dead rows' too; those are never
        # asked about again.
        on_view = 4 * rows.size >= self.n
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

        The sums are in the window dtype, or with ``exact`` in float64 (the
        float64 query promotes a float32 window, which holds its entries
        exactly).
        """
        window = self._data[:, a:b] if rows is None else self._data[rows, a:b]
        query = (self._query if exact else self._window_query)[a:b]
        if self._kind is ObjectiveKind.INNER_PRODUCT:
            return window @ query
        diff = window - query
        return -np.einsum("ij,ij->i", diff, diff)
