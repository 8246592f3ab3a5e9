"""Exhaustive search (the correctness oracle) and a sign-projection LSH baseline.

``naive_topk`` scores every vector against the query with ``arms.exact_sums``
over the file-order float64 data, the reference order of every exact answer,
and is both the truth oracle for precision measurements and the cost
denominator for speedups (ops = n * dim scalar multiplies, exactly).

The LSH baseline answers maximum inner product queries through the standard
reduction to near-neighbor search on the unit sphere: scale all data vectors
by the maximum norm so they fit in the unit ball, append the coordinate
sqrt(1 - ||v||^2) to make them unit length, and append 0 to the (normalized)
query; cosine neighbors of the lifted query are then inner-product winners
of the original data.  Hashing is sign-of-random-projection with an AND
width of ``a`` bits per table and an OR construction across ``b`` tables;
query-time candidates are the union of the query's buckets, reranked by
``exact_sums`` in row blocks, so no copy of the candidate rows is made.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .arms import check_dims, exact_sums, row_block
from .elimination import checked_int, top_ids
from .mips import ObjectiveKind, Query, VectorSet

__all__ = ["ExactResult", "naive_topk", "LshIndex", "LshResult", "lsh_build", "lsh_query"]

# Rows per hashing product: tall enough for BLAS to run near its peak, short
# enough that the (rows, b*a) projections stay a small temporary.  It sizes a
# GEMM over a view of the rows, not a copy of them, so it stays apart from
# ``arms.row_block``.
HASH_BLOCK = 256


@dataclass(slots=True)
class ExactResult:
    """Exact top-K: ids in descending score order, their scores, op count,
    and every row's exact mean, score / N."""

    topk_ids: list[int]
    topk_scores: np.ndarray
    ops: int
    means: np.ndarray


def naive_topk(
    vectors: VectorSet,
    query: Query,
    k: int,
    kind: ObjectiveKind = ObjectiveKind.INNER_PRODUCT,
) -> ExactResult:
    """Score all n rows exactly, return the K best (score ties keep the smaller id)."""
    k = checked_int(k, "k", 1, vectors.n, "n")
    check_dims(vectors, query)
    scores = exact_sums(vectors.data, query.vector, kind)
    order, ops = top_ids(scores, k), vectors.n * vectors.dim
    return ExactResult(
        topk_ids=order.tolist(), topk_scores=scores[order], ops=ops, means=scores / vectors.dim
    )


@dataclass
class LshIndex:
    """Sign-projection index over the lifted (dim+1)-space.

    ``planes[t]`` holds table t's ``a`` unit projection directions and
    ``keys[i, t]`` row i's bucket key in table t.  Table t is seeded by
    (seed, t) alone, so for a fixed seed the same table is rebuilt
    identically regardless of how many tables an index has.  Growing b
    therefore only ever adds candidates.
    """

    a: int
    b: int
    seed: int
    scale: float
    planes: np.ndarray  # (b, a, dim+1)
    keys: np.ndarray  # (n, b) int64
    dim: int
    n: int


@dataclass(slots=True)
class LshResult:
    ids: list[int]
    scores: np.ndarray
    candidates: int
    ops: int  # candidates * dim reranking + b * a * (dim + 1) hashing
    padded: bool


def _lift_query(q: np.ndarray) -> np.ndarray:
    lifted = np.concatenate([q, [0.0]])
    with np.errstate(over="ignore"):
        norm = np.linalg.norm(lifted)
    if not np.isfinite(norm):
        raise ValueError("the query norm overflows float64: scale the query down")
    return lifted / norm if norm > 0.0 else lifted


def _keys(proj: np.ndarray, a: int) -> np.ndarray:
    """Bucket keys (m, b) int64 of projections (m, b*a) on every table's a planes."""
    return (proj > 0.0).reshape(len(proj), -1, a) @ (1 << np.arange(a, dtype=np.int64))


def lsh_build(vectors: VectorSet, a: int, b: int, seed: int = 0) -> LshIndex:
    """Hash all rows into b tables of a sign bits each.

    A lifted row (v/s, sqrt(1 - |v|^2/s^2)) projects on a plane p as
    (v . p[:dim]) / s + lift * p[dim], so each block of ``HASH_BLOCK`` rows
    is multiplied by all b*a planes at once as it stands, divided by s, and
    given the rank-one lift term: no lifted copy of the data, nor a buffer
    for one, is ever made.  The signs are those of the lifted rows up to
    rounding: a projection within rounding of 0 may take either sign, and
    near float64 underflow (row norms below about 2^-900) the unscaled
    product may round differently from dividing the rows first.  A bucket
    key of ``a`` sign bits must fit in int64, so ``a`` lies in [1, 63].
    Raises ValueError when a row norm overflows float64.
    """
    a, b = checked_int(a, "a", 1, 63), checked_int(b, "b", 1)
    seed = checked_int(seed, "seed", 0)
    data, n, dim = vectors.data, vectors.n, vectors.dim
    step = row_block(dim)
    norms = np.empty(n)
    with np.errstate(over="ignore"):
        for r in range(0, n, step):
            norms[r : r + step] = np.linalg.norm(data[r : r + step], axis=1)
    if not np.isfinite(norms).all():
        raise ValueError("a row norm overflows float64: scale the data down to index it")
    scale = float(norms.max())
    if scale == 0.0:
        raise ValueError("cannot index all-zero data")
    lifts = np.sqrt(np.maximum(0.0, 1.0 - (norms / scale) ** 2))
    planes = np.empty((b, a, dim + 1))
    for t in range(b):  # one table at a time, so no temporary of all planes
        rng = np.random.default_rng(np.random.SeedSequence([seed, t]))
        rng.standard_normal(out=planes[t])
        planes[t] /= np.linalg.norm(planes[t], axis=1, keepdims=True)
    flat = planes.reshape(b * a, dim + 1)
    keys = np.empty((n, b), dtype=np.int64)
    for r in range(0, n, HASH_BLOCK):
        proj = data[r : r + HASH_BLOCK] @ flat[:, :dim].T
        proj /= scale
        proj += lifts[r : r + HASH_BLOCK, None] * flat[:, dim]
        keys[r : r + HASH_BLOCK] = _keys(proj, a)
    return LshIndex(
        a=a, b=b, seed=seed, scale=scale, planes=planes, keys=keys, dim=dim, n=n,
    )


def lsh_query(
    index: LshIndex,
    vectors: VectorSet,
    query: Query,
    k: int,
    b_use: int | None = None,
) -> LshResult:
    """Union the query's buckets, rerank candidates exactly, pad if short.

    ``b_use`` restricts the lookup to the first b_use tables (their hashes
    are identical to a standalone index with b = b_use, see LshIndex), which
    lets one index serve a whole OR-width sweep; a non-integer such as 2.0
    raises TypeError, as k does.  Padding fills with the smallest ids not
    already present and sets the flag.
    """
    check_dims(vectors, query)
    if index.n != vectors.n or index.dim != vectors.dim:
        raise ValueError("index was built over a different vector set")
    k = checked_int(k, "k", 1, index.n, "n")
    b = index.b if b_use is None else checked_int(b_use, "b_use", 1, index.b, "index.b")
    planes = index.planes[:b].reshape(b * index.a, index.dim + 1)
    qkeys = _keys(_lift_query(query.vector)[None, :] @ planes.T, index.a)
    hit = (index.keys[:, :b] == qkeys).any(axis=1)
    cands = np.flatnonzero(hit)
    n_cands = int(cands.size)
    ops = n_cands * index.dim + b * index.a * (index.dim + 1)

    ip, padded = ObjectiveKind.INNER_PRODUCT, n_cands < k
    scores = exact_sums(vectors.data, query.vector, ip, cands)
    order = top_ids(scores, k)  # cands is increasing, so ties keep the smaller id
    filler = np.flatnonzero(~hit)[: max(k - n_cands, 0)]
    ids = np.concatenate([cands[order], filler])
    scores = np.concatenate([scores[order], exact_sums(vectors.data, query.vector, ip, filler)])
    return LshResult(ids=ids.tolist(), scores=scores, candidates=n_cands, ops=ops, padded=padded)
