"""Arm sets in the ``Arms`` protocol of ``elimination``.

An arm set holds n arms with reward lists of a common length N and answers
``sums(rows, t)``: the reward sums of ``rows`` after ``t`` pulls each.  Every
survivor of the search has the same pull count, so an arm set is a few
arrays, not n objects.

``LazySource`` reads the rows of a matrix, computing rewards on demand in
one column order shared by all arms; ``PositionSampler`` draws the random
order that makes those reads uniform without-replacement samples.  The
adversarial instance of ``datasets`` is an arm set of its own: it answers
``sums`` in closed form from its ones-then-zeros lists.
"""

from __future__ import annotations

import enum

import numpy as np

__all__ = ["ObjectiveKind", "WINDOW_BLOCK", "PositionSampler", "LazySource"]

# Widest column window evaluated at once; bounds the temporary of a round to
# survivors x WINDOW_BLOCK floats.
WINDOW_BLOCK = 1024


class ObjectiveKind(enum.Enum):
    INNER_PRODUCT = "inner_product"
    NEG_SQ_DISTANCE = "neg_sq_distance"


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
    """

    def __init__(self, data: np.ndarray, query: np.ndarray, kind: ObjectiveKind, start: int = 0):
        if data.ndim != 2 or query.shape != data.shape[1:]:
            raise ValueError(f"query shape {query.shape} does not fit data {data.shape}")
        if kind not in (ObjectiveKind.INNER_PRODUCT, ObjectiveKind.NEG_SQ_DISTANCE):
            raise ValueError(f"unknown objective kind: {kind!r}")
        self._data, self._query, self._kind = data, query, kind
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
        every_row = rows.size == self.n
        done = self._pulls
        while done < t:
            a = (self.start + done) % self.list_len
            b = min(a + t - done, self.list_len, a + WINDOW_BLOCK)
            if every_row:
                self._sums += self.draw(None, a, b)
            else:
                self._sums[rows] += self.draw(rows, a, b)
            done += b - a
        self._pulls = t
        self._live[:] = False
        self._live[rows] = True
        return self._sums[rows]

    def draw(self, rows: np.ndarray | None, a: int, b: int) -> np.ndarray:
        """Reward sums of ``rows`` (None: every row) over columns [a, b)."""
        window = self._data[:, a:b] if rows is None else self._data[rows, a:b]
        if self._kind is ObjectiveKind.INNER_PRODUCT:
            return window @ self._query[a:b]
        diff = window - self._query[a:b]
        return -np.einsum("ij,ij->i", diff, diff)

