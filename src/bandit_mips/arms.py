"""Arm sets in the ``Arms`` protocol of ``elimination``.

An arm set keeps no search state: the search loop holds the survivors and
their running sums.  ``check_pulls`` is the one check of a ``sums`` call,
shared by every arm set.

``LazySource`` reads the rows of a matrix, computing rewards on demand in
one column order shared by all arms; ``PositionSampler`` draws the random
order that makes those reads uniform without-replacement samples.  The
adversarial instance of ``datasets`` is an arm set of its own: it answers
``sums`` in closed form from its ones-then-zeros lists.

``exact_sums``, the one exact scorer, sums the file-order float64 data
against the query, the one reference order of every exact answer:
``naive_topk`` and its means, the LSH rerank and exhausted search rows.
"""

from __future__ import annotations

import enum
import math

import numpy as np

__all__ = ["ObjectiveKind", "WINDOW_BLOCK", "PositionSampler", "LazySource"]

# Widest column window evaluated at once; bounds the temporary of a round to
# survivors x WINDOW_BLOCK floats.  It enters eta (``_float32_mean_error``),
# so it stays apart from ``row_block``.
WINDOW_BLOCK = 1024


def row_block(dim: int) -> int:
    """Rows a block of every pass over a set's rows of ``dim`` entries: 2^16 / dim.

    The passes are the read and bound, the permuted copy, ``exact_sums`` and
    LSH's row norms.  2^16 entries keep a block's largest temporary at 512 kB
    in float64, so it is still in cache when it is reduced; narrow rows go in
    tall blocks, so the per-block overhead stays small beside the work.
    """
    return max(1, (1 << 16) // dim)


class ObjectiveKind(enum.Enum):
    INNER_PRODUCT = "inner_product"
    NEG_SQ_DISTANCE = "neg_sq_distance"


def check_kind(kind) -> None:
    """Raise ValueError unless ``kind`` is an ``ObjectiveKind``."""
    if not isinstance(kind, ObjectiveKind):
        raise ValueError(f"unknown objective kind: {kind!r}")


def check_dims(vectors, query) -> None:
    """Raise ValueError unless the ``VectorSet`` and the ``Query`` share a dimension."""
    if vectors.dim != query.dim:
        raise ValueError(f"dimension mismatch: data {vectors.dim}, query {query.dim}")


def exact_sums(
    matrix: np.ndarray, query: np.ndarray, kind: ObjectiveKind, rows: np.ndarray | None = None
) -> np.ndarray:
    """Float64 reward sums over all columns of ``rows`` (None: every row) of ``matrix``.

    Inner products of every row are one ``matrix @ query``; distances and
    gathered rows go in ``row_block``-row blocks.  Overflow raises ValueError.
    """
    check_kind(kind)
    ip = kind is ObjectiveKind.INNER_PRODUCT
    out = np.empty(len(matrix) if rows is None else rows.size)
    step = max(out.size, 1) if rows is None and ip else row_block(matrix.shape[1])
    with np.errstate(over="ignore", invalid="ignore"):
        for a in range(0, out.size, step):
            block = matrix[a : a + step] if rows is None else matrix[rows[a : a + step]]
            if ip:
                out[a : a + step] = block @ query
            else:
                diff = block - query
                out[a : a + step] = -np.einsum("ij,ij->i", diff, diff)
                del diff  # freed before the next block's difference is made
    if not np.isfinite(out).all():
        raise ValueError("an exact score overflows float64: rescale the data")
    return out


def _float32_mean_error(kind: ObjectiveKind, mv: float, mq: float, rho: float) -> float:
    """Bound eta on the rounding error of any mean evaluated in float32.

    In the units of ``LazySource``'s scaled copy and query, the data v are
    bounded by Mv = ``mv`` and held as float32 entries c with |c - v| <= rho,
    so a = Mv + rho bounds |c|; the float64 query, bounded by Mq = ``mq``, is
    rounded to float32 (q~).  Each window of at most B = ``WINDOW_BLOCK``
    columns is evaluated in float32, its sums in any order, and the window
    sums are added up in float64.  With u = 2^-24, gamma_B = B u / (1 - B u),
    tau = 2^-149 (float32's least subnormal) and s = a + Mq, a window sum
    over c columns is off by at most c times

        inner_product:    (gamma_B + 3u) a Mq + (a + 1) tau + rho Mq
        neg_sq_distance:  (gamma_B + 5u) s^2  + (2 s + 3) tau + 2 rho s

    A distance window is fl(fl(2 P - Q) - R) for the float32 sums P of
    c q~, Q of c^2 and R of q~^2.  A float32 result is x (1 + e) + d with
    |e| <= u and |d| <= tau / 2, where d = 0 for sums and differences, and
    doubling is exact.  Let m = (1 + u) Mq + tau / 2 bound |q~|, so that
    (a + m)^2 bounds 2|c q~| + c^2 + q~^2.  Per column:

    - P, Q and R, each a sum of c rounded terms in any order, are off by
      gamma_c times their absolute sums plus (1 + gamma_B) tau / 2 each:
      gamma_B (a + m)^2 + 2 (1 + gamma_B) tau for 2 P - Q - R;
    - the two subtractions add at most (2u + u^2) (|2 P - Q| + R), where
      the computed |2 P - Q| + R is at most (1 + gamma_B) ((a + m)^2 + 2 tau);
    - rounding q to q~ moves -(c - q)^2 by |q~ - q| |2c - q - q~|, at most
      (u Mq + tau / 2) (2 s + u Mq + tau / 2);
    - c for v moves -(c - q)^2 by |c - v| |c + v - 2q| <= 2 rho s.

    As a + m <= (1 + u) s + tau / 2, the s^2 terms add up to
    (gamma_B + 4u + 4u gamma_B + O(u^2)) s^2 <= (gamma_B + 5u) s^2, and the
    tau terms to (1 + O(gamma_B)) s tau + 2 (1 + gamma_B) (1 + u)^2 tau +
    O(tau^2) <= (2 s + 3) tau.  The inner-product window is one float32 sum
    of c q~: gamma_B a m + (1 + gamma_B) tau / 2 for the sum, u a Mq + a tau / 2
    for rounding q and rho Mq for c.  The tau terms cover every entry,
    product and sum that the scaling leaves below float32's normal range.

    A mean is a sum of windows divided by its column count, so the bound
    holds for every mean; float64 rounding is not counted, as it is not for
    the exact sums.  Returns inf where a float32 window could overflow;
    below that (B a Mq, or B s^2, at most 2^127) every float32 partial sum,
    2 P included, stays finite.  As ``LazySource`` scales, a and, for inner
    products, Mq are below 2, so only a distance query some 2^58 times the
    set's bound gets inf.
    """
    u, tau = 2.0**-24, 2.0**-149
    gamma = WINDOW_BLOCK * u / (1.0 - WINDOW_BLOCK * u)
    a = mv + rho
    if kind is ObjectiveKind.INNER_PRODUCT:
        scale = a * mq
        eta = (gamma + 3.0 * u) * scale + (a + 1.0) * tau + rho * mq
    else:
        spread = a + mq
        scale = spread * spread
        eta = (gamma + 5.0 * u) * scale + (2.0 * spread + 3.0) * tau + 2.0 * rho * spread
    if WINDOW_BLOCK * scale > 2.0**127:
        return math.inf
    return eta


def check_pulls(done: int, t: int, list_len: int) -> None:
    """Raise ValueError unless 0 <= done <= t <= list_len, before any read."""
    if not 0 <= done <= t <= list_len:
        raise ValueError(
            f"pull counts done = {done}, t = {t} outside 0 <= done <= t <= {list_len}"
        )


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
    """The rows of the ``VectorSet`` ``vectors`` as the arms of a ``Query``.

    Arm i's reward at column j is ``data[i, j] * query[j]``, or with
    ``NEG_SQ_DISTANCE`` ``-(data[i, j] - query[j])^2``, for the set's permuted
    copy ``data`` (``VectorSet.permuted``) and the query permuted alike.
    Every arm reads the columns in the cyclic order start, start + 1, ...,
    so a round's new pulls for all arms in play are one contiguous column
    window (two where it wraps), evaluated in blocks of at most
    ``WINDOW_BLOCK`` columns.  The columns are in uniformly random order, so
    the reads are uniform without-replacement samples.  The object keeps no
    search state: ``sums`` reads only the windows of the new pulls and
    returns a new array.

    Windows are evaluated in float32 on the copy, the data scaled by 2^-e,
    against the query scaled by 2^-g and rounded to float32: g = e for
    distances, and for inner products g = frexp(Mq)[1], Mq the largest
    |query entry|.  A call adds up its window sums in float64 and scales
    them back by 2^(e + g) once, which commutes with every rounding in the
    normal range: with rho = 0 the sums are those of the data unscaled.
    ``mean_error`` is ``_float32_mean_error`` of the scaled bounds and rho,
    scaled back alike; where it is inf (a distance query so far beyond the
    set that a window could overflow) round 1 exhausts.  Rows that reach
    t = N are re-summed by ``exact_sums`` from the set's file-order rows
    against the unpermuted query, ``naive_topk``'s reference order, so
    exhausted means carry no float32 rounding; when every row exhausts at
    once the call is ``naive_topk``'s own scan.

    A window W is one BLAS product ``W @ q`` for inner products.  A distance
    window is expanded on the block already read, as 2 (W @ q) - (the row
    sums of W * W) - q . q: the same product, one row-wise sum of squares
    and one scalar, with no difference temporary.

    Read rule: a window is evaluated either for every row on the strided
    view of ``data``, then gathered by ``ids``, or for the gathered rows
    ``ids``.  Inner-product windows use the view while ``ids`` holds at
    least a quarter of the rows, as BLAS reads it with its threads faster
    than it gathers the rows.  Distance windows use the view only while
    ``ids`` holds every row, and gather from the first elimination on: their
    sums of squares run on one thread, so on the view they would cost as
    much for every eliminated row as for a survivor.  A BLAS product may sum
    a row in another order on the view, so a window sum can differ in its
    last bits; ``mean_error`` bounds any summation order, so the rule moves
    answers only within the guarantee.  No matrix is ever written.
    """

    def __init__(self, vectors, query, kind: ObjectiveKind, start: int):
        check_kind(kind)
        check_dims(vectors, query)
        perm, self._data, rounding = vectors.permuted()
        # file-order rows and query, for exact sums; the permuted query for windows
        self._rows, self._query, self._kind = vectors.data, query.vector, kind
        e, f = math.frexp(vectors.coord_bound)[1], math.frexp(query.coord_bound)[1]
        g = f if kind is ObjectiveKind.INNER_PRODUCT else e
        self._shift = shift = e + g
        # the scaled bounds, and eta scaled back: inf where they pass float64
        mq = math.ldexp(query.coord_bound, -g) if f - g <= 1024 else math.inf
        eta = _float32_mean_error(kind, math.ldexp(vectors.coord_bound, -e), mq, rounding)
        self.mean_error = math.ldexp(eta, shift) if math.frexp(eta)[1] + shift <= 1024 else math.inf
        # float32 can overflow only where eta is inf, and then no window is read
        scaled = query.vector[perm] if math.isfinite(eta) else np.zeros_like(query.vector)
        self._window_query = np.ldexp(scaled, -g, out=scaled).astype(np.float32)  # exact scaling
        self.n, self.list_len = self._data.shape
        self.start = start % self.list_len

    def sums(
        self, ids: np.ndarray, t: int, done: int = 0, prior: np.ndarray | None = None
    ) -> np.ndarray:
        """Reward sums of the arms ``ids`` over the first ``t`` positions.

        ``prior`` holds their sums over the first ``done`` positions (unread
        when ``done`` is 0); its copy gains the windows of positions
        ``done..t-1``.
        """
        check_pulls(done, t, self.list_len)
        if done == t:  # no new pulls: exact sums of exhausted rows are not rescaled
            return np.zeros(ids.size) if done == 0 else prior.copy()
        if t == self.list_len:
            every = ids.size == self.n  # as in round 1: naive_topk's scan, rows=None
            sums = exact_sums(self._rows, self._query, self._kind, None if every else ids)
            return sums[ids] if every else sums
        sums = np.zeros(ids.size) if done == 0 else np.ldexp(prior, -self._shift)
        ip = self._kind is ObjectiveKind.INNER_PRODUCT  # the read rule of the class docstring
        on_view = 4 * ids.size >= self.n if ip else ids.size == self.n
        while done < t:
            a = (self.start + done) % self.list_len
            b = min(a + t - done, self.list_len, a + WINDOW_BLOCK)
            sums += self.draw(None, a, b)[ids] if on_view else self.draw(ids, a, b)
            done += b - a
        return np.ldexp(sums, self._shift, out=sums)

    def draw(self, rows: np.ndarray | None, a: int, b: int) -> np.ndarray:
        """Float32 reward sums, times 2^-(e + g), of ``rows`` (None: every row) over [a, b)."""
        window = self._data[:, a:b] if rows is None else self._data[rows, a:b]
        query = self._window_query[a:b]
        if self._kind is ObjectiveKind.INNER_PRODUCT:
            return window @ query
        # -sum (w - q)^2 = 2 w.q - w.w - q.q on the block already read,
        # with no difference temporary; mean_error bounds its rounding
        return 2.0 * (window @ query) - np.vecdot(window, window) - query @ query
