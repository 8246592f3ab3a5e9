"""Exact search and the hashing baseline.

naive_topk is the correctness oracle for everything else, so it gets the
double-computation treatment: an independent re-implementation with a
different loop order must agree exactly on random instances.
"""

import tracemalloc
import warnings

import numpy as np
import pytest

from bandit_mips.arms import row_block
from bandit_mips.baselines import HASH_BLOCK, lsh_build, lsh_query, naive_topk
from bandit_mips.mips import ObjectiveKind, Query, VectorSet, mips_topk

IP = ObjectiveKind.INNER_PRODUCT
NSD = ObjectiveKind.NEG_SQ_DISTANCE


def reference_topk(data, q, k):
    """Independent oracle: per-pair Python-loop summation, insertion ranking."""
    n, dim = data.shape
    scores = []
    for i in range(n):
        s = 0.0
        for j in range(dim):
            s += float(data[i][j]) * float(q[j])
        scores.append(s)
    order = sorted(range(n), key=lambda i: (-scores[i], i))
    return order[:k], [scores[i] for i in order[:k]]


def test_naive_one_hot():
    vs = VectorSet(np.eye(5))
    res = naive_topk(vs, Query(np.eye(5)[2]), 1)
    assert res.topk_ids == [2]
    assert res.topk_scores[0] == pytest.approx(1.0)


def test_naive_k_equals_n_sorted():
    vs = VectorSet(np.array([[1.0], [3.0], [2.0]]))
    res = naive_topk(vs, Query(np.array([1.0])), 3)
    assert res.topk_ids == [1, 2, 0]
    assert res.topk_scores.tolist() == [3.0, 2.0, 1.0]


# Small integers: every score is exact in float32 and float64 alike, so
# duplicated rows tie exactly under every method and objective.
TIED_BASE = np.array([
    [2, -1, 0, 3, 1, -2],
    [1, 2, -3, 0, 2, 1],
    [-2, 0, 1, 1, -1, 3],
    [3, 1, 2, -1, 0, 0],
    [0, -3, 1, 2, 2, -1],
])
TIED_ROWS = [3, 0, 1, 0, 2, 1, 4, 0, 3, 1, 2, 3]  # base row of each data row
TIED_QUERY = np.array([1, 2, -1, 1, 0, -2])


def _ties_answer(method, kind, k):
    vs = VectorSet(TIED_BASE[TIED_ROWS].astype(float))
    query = Query(TIED_QUERY.astype(float))
    if method == "naive":
        return naive_topk(vs, query, k, kind).topk_ids
    if method == "lsh":
        res = lsh_query(lsh_build(vs, 1, 64, seed=0), vs, query, k)
        assert res.candidates == vs.n  # every tied row is reranked
        return res.ids
    return mips_topk(vs, query, k, 0.0, 0.1, seed=3, kind=kind)[0]


@pytest.mark.parametrize(
    "method, kind",
    [("naive", IP), ("naive", NSD), ("lsh", IP), ("mips", IP), ("mips", NSD)],
)
def test_naive_tie_break_smaller_id(method, kind):
    """Exactly tied scores rank the smaller id first, under every method."""
    scores = []
    for row in TIED_ROWS:
        v = TIED_BASE[row].tolist()
        if kind is IP:
            scores.append(sum(a * b for a, b in zip(v, TIED_QUERY.tolist())))
        else:
            scores.append(-sum((a - b) ** 2 for a, b in zip(v, TIED_QUERY.tolist())))
    ranked = sorted(range(len(TIED_ROWS)), key=lambda i: (-scores[i], i))
    assert len(set(scores)) < len(scores)  # the data do tie
    for k in (1, 2, 4, 7, 11):
        assert _ties_answer(method, kind, k) == ranked[:k], k


def test_naive_ops_exact():
    vs = VectorSet(np.ones((7, 13)))
    assert naive_topk(vs, Query(np.ones(13)), 2).ops == 7 * 13


def test_naive_k_exceeds_n():
    vs = VectorSet(np.ones((2, 2)))
    with pytest.raises(ValueError):
        naive_topk(vs, Query(np.ones(2)), 3)


def test_naive_matches_independent_reimplementation():
    rng = np.random.default_rng(41)
    for trial in range(100):
        n = int(rng.integers(1, 21))
        dim = int(rng.integers(1, 7))
        k = int(rng.integers(1, n + 1))
        data = rng.standard_normal((n, dim))
        q = rng.standard_normal(dim)
        got = naive_topk(VectorSet(data), Query(q), k)
        want_ids, want_scores = reference_topk(data, q, k)
        assert got.topk_ids == want_ids, trial
        assert got.topk_scores.tolist() == pytest.approx(want_scores, rel=1e-12)


def test_naive_distance_objective_matches_sort():
    rng = np.random.default_rng(42)
    data = rng.standard_normal((15, 4))
    q = rng.standard_normal(4)
    res = naive_topk(VectorSet(data), Query(q), 3, kind=NSD)
    want = np.argsort(np.linalg.norm(data - q, axis=1), kind="stable")[:3]
    assert res.topk_ids == want.tolist()


@pytest.mark.parametrize("kind", [IP, NSD])
def test_naive_scores_are_exact_bit_for_bit(kind):
    # the exact scores, not means * dim: (x/N)*N rounds x
    rng = np.random.default_rng(43)
    data = rng.standard_normal((200, 1000))
    for _ in range(10):
        q = rng.standard_normal(1000)
        res = naive_topk(VectorSet(data), Query(q), 50, kind)
        if kind is IP:
            exact = data @ q
        else:
            diff = data - q
            exact = -np.einsum("ij,ij->i", diff, diff)
        assert res.topk_scores.tolist() == exact[res.topk_ids].tolist()


# --- LSH ---------------------------------------------------------------------


def test_lsh_single_vector_single_bucket():
    vs = VectorSet(np.array([[0.5, 0.5]]))
    index = lsh_build(vs, a=4, b=3, seed=0)
    assert index.keys.shape == (1, 3)
    for t in range(3):
        assert np.flatnonzero(index.keys[:, t] == index.keys[0, t]).tolist() == [0]


def test_lsh_lift_unit_norm_appends_zero():
    # a max-norm row lifts to appended coordinate sqrt(1 - 1) = 0
    vs = VectorSet(np.array([[1.0, 0.0], [0.5, 0.0]]))
    index = lsh_build(vs, a=2, b=1, seed=0)
    assert index.scale == pytest.approx(1.0)
    # smoke: query path works and returns k ids
    res = lsh_query(index, vs, Query(np.array([1.0, 0.1])), 1)
    assert len(res.ids) == 1


def test_lsh_candidates_monotone_in_b():
    """OR-construction can only add candidates: for fixed a and seed, the
    candidate count is non-decreasing in the number of tables consulted."""
    rng = np.random.default_rng(43)
    vs = VectorSet(rng.standard_normal((300, 32)))
    index = lsh_build(vs, a=6, b=20, seed=5)
    for qi in range(5):
        q = Query(rng.standard_normal(32))
        counts = [lsh_query(index, vs, q, 5, b_use=b).candidates for b in range(1, 21)]
        assert all(y >= x for x, y in zip(counts, counts[1:]))


def test_lsh_prefix_tables_match_standalone_build():
    # consulting b_use tables of a larger index equals building with b=b_use
    rng = np.random.default_rng(44)
    vs = VectorSet(rng.standard_normal((120, 16)))
    q = Query(rng.standard_normal(16))
    big = lsh_build(vs, a=5, b=12, seed=9)
    small = lsh_build(vs, a=5, b=4, seed=9)
    r_prefix = lsh_query(big, vs, q, 7, b_use=4)
    r_small = lsh_query(small, vs, q, 7)
    assert r_prefix.ids == r_small.ids
    assert r_prefix.candidates == r_small.candidates


def test_lsh_query_checks_the_query_dimension_and_the_index():
    rng = np.random.default_rng(46)
    vs = VectorSet(rng.standard_normal((20, 8)))
    index = lsh_build(vs, 2, 3)
    # a wrong query width is named before numpy's matmul can fail on it
    with pytest.raises(ValueError, match="^dimension mismatch: data 8, query 9$"):
        lsh_query(index, vs, Query(np.ones(9)), 2)
    other = VectorSet(rng.standard_normal((21, 8)))
    with pytest.raises(ValueError, match="^index was built over a different vector set$"):
        lsh_query(index, other, Query(np.ones(8)), 2)


def test_lsh_query_rejects_a_non_integer_b_use():
    rng = np.random.default_rng(45)
    vs = VectorSet(rng.standard_normal((50, 8)))
    q = Query(rng.standard_normal(8))
    index = lsh_build(vs, a=2, b=3, seed=2)
    for b_use in (2.0, 2.5):
        with pytest.raises(TypeError, match="b_use must be an integer, not float"):
            lsh_query(index, vs, q, 3, b_use=b_use)
    got, want = lsh_query(index, vs, q, 3, b_use=np.int64(2)), lsh_query(index, vs, q, 3, b_use=2)
    assert want.candidates > 0
    assert (got.ids, got.candidates) == (want.ids, want.candidates)
    said = r"^b_use = 4 must lie in \[1, index\.b\] with index\.b = 3$"
    with pytest.raises(ValueError, match=said):
        lsh_query(index, vs, q, 3, b_use=4)


def test_lsh_recall_improves_with_more_tables():
    rng = np.random.default_rng(45)
    vs = VectorSet(rng.standard_normal((400, 24)))
    index = lsh_build(vs, a=8, b=50, seed=1)
    hits1 = hits50 = 0
    for qi in range(20):
        q = Query(rng.standard_normal(24))
        truth = set(naive_topk(vs, q, 5).topk_ids)
        hits1 += len(set(lsh_query(index, vs, q, 5, b_use=1).ids) & truth)
        hits50 += len(set(lsh_query(index, vs, q, 5, b_use=50).ids) & truth)
    assert hits50 >= hits1


def test_lsh_empty_union_pads_with_flag():
    # one vector per bucket at a=30 bits makes misses likely; force the
    # degenerate path with a query orthogonal to everything
    vs = VectorSet(np.array([[1.0, 0.0, 0.0], [0.9, 0.1, 0.0]]))
    index = lsh_build(vs, a=24, b=1, seed=2)
    res = lsh_query(index, vs, Query(np.array([0.0, 0.0, 1.0])), 2)
    assert sorted(res.ids) == [0, 1]
    if res.candidates < 2:
        assert res.padded
    assert len(res.ids) == 2


def test_lsh_ops_audit():
    rng = np.random.default_rng(46)
    vs = VectorSet(rng.standard_normal((100, 10)))
    index = lsh_build(vs, a=4, b=6, seed=3)
    q = Query(rng.standard_normal(10))
    res = lsh_query(index, vs, q, 3)
    assert res.ops == res.candidates * 10 + 6 * 4 * 11


def test_lsh_rerank_is_exact_over_candidates():
    rng = np.random.default_rng(47)
    vs = VectorSet(rng.standard_normal((200, 12)))
    q = Query(rng.standard_normal(12))
    index = lsh_build(vs, a=2, b=8, seed=4)
    res = lsh_query(index, vs, q, 5)
    if not res.padded:
        scores = vs.data[res.ids] @ q.vector
        assert scores.tolist() == pytest.approx(sorted(scores, reverse=True))
        assert res.scores.tolist() == pytest.approx(scores.tolist())


def test_lsh_query_makes_no_copy_of_the_candidates():
    # hundreds of candidates are reranked a row block at a time, so the peak
    # stays within a few blocks; a copy of the candidate rows takes them all
    rng = np.random.default_rng(9)
    n, dim = 600, 4000
    vs = VectorSet(rng.standard_normal((n, dim)))
    index = lsh_build(vs, a=1, b=4, seed=0)
    q = Query(rng.standard_normal(dim))
    tracemalloc.start()
    try:
        res = lsh_query(index, vs, q, 5)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert res.candidates >= 300
    assert peak < 3 * row_block(dim) * dim * 8, (peak, res.candidates * dim * 8)


def test_lsh_all_zero_data_rejected():
    with pytest.raises(ValueError):
        lsh_build(VectorSet(np.zeros((3, 2))), a=2, b=1, seed=0)


def test_lsh_build_validates_widths():
    vs = VectorSet(np.ones((2, 2)))
    with pytest.raises(ValueError):
        lsh_build(vs, a=0, b=1, seed=0)
    with pytest.raises(ValueError):
        lsh_build(vs, a=1, b=0, seed=0)


def test_lsh_build_rejects_key_overflow():
    # a = 64 would need the key weight 1 << 63, which wraps int64
    vs = VectorSet(np.random.default_rng(6).standard_normal((20, 5)))
    with pytest.raises(ValueError):
        lsh_build(vs, a=64, b=1, seed=0)
    index = lsh_build(vs, a=63, b=1, seed=0)  # largest key 2**63 - 1 still fits
    assert index.keys.dtype == np.int64
    assert (index.keys >= 0).all()


def divide_then_stack(data):
    """The whole matrix lifted at once: (data / scale, sqrt(1 - (norm/scale)^2))."""
    norms = np.linalg.norm(data, axis=1)
    scale = float(norms.max())
    extra = np.sqrt(np.maximum(0.0, 1.0 - (norms / scale) ** 2))
    return np.hstack([data / scale, extra[:, None]]), scale


def assert_full_matrix_lift(data, a=7, b=5, seed=11):
    """The index is the one the whole lifted matrix gives, key for key."""
    n, dim = data.shape
    index = lsh_build(VectorSet(data), a=a, b=b, seed=seed)
    lifted, scale = divide_then_stack(data)
    planes = np.stack([
        np.random.default_rng(np.random.SeedSequence([seed, t])).standard_normal((a, dim + 1))
        for t in range(b)
    ])
    planes /= np.linalg.norm(planes, axis=2, keepdims=True)
    bits = (lifted @ planes.reshape(b * a, dim + 1).T > 0.0).reshape(n, b, a)
    keys = bits @ (1 << np.arange(a, dtype=np.int64))
    assert index.scale == scale
    assert np.array_equal(index.planes, planes)
    assert index.keys.dtype == np.int64
    assert np.array_equal(index.keys, keys)


def scaled_gaussian_rows(n, dim, seed):
    rng = np.random.default_rng(seed)
    return rng.standard_normal((n, dim)) * rng.uniform(0.1, 3.0, size=(n, 1))


@pytest.mark.parametrize("n", [1, 63, 64, 65, 130, 255, 256, 257])
def test_lsh_block_lift_matches_full_matrix_lift(n):
    # lsh_build takes norms and hashes a row block at a time, never lifting
    # a row; n straddles the boundaries of both kinds of block
    dim = 1023
    assert row_block(dim) == 64
    assert HASH_BLOCK == 256
    assert_full_matrix_lift(scaled_gaussian_rows(n, dim, 100 + n))


@pytest.mark.parametrize("row_scale", [2.0**-400, 2.0**400])
def test_lsh_full_matrix_lift_at_extreme_row_scales(row_scale):
    # the projections are divided by the scale after the product, which must
    # neither underflow nor overflow where dividing the rows first does not
    assert_full_matrix_lift(scaled_gaussian_rows(130, 8191, 99) * row_scale)


def test_lsh_build_holds_no_lifted_copy():
    # the largest temporary is one norm block of row_block rows, under half
    # of these 300 rows; a lifted copy would be more than all of them
    data = np.random.default_rng(8).standard_normal((300, 4000))
    vs = VectorSet(data)
    tracemalloc.start()
    try:
        lsh_build(vs, a=4, b=3, seed=0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 0.5 * data.nbytes, (peak, data.nbytes)


def test_lsh_build_normalises_planes_one_table_at_a_time():
    # the planes are the largest array built; normalising them all at once
    # would add a temporary as large, one table at a time adds one table's
    data = np.random.default_rng(11).standard_normal((20, 20000))
    vs = VectorSet(data)
    a, b = 8, 8
    tracemalloc.start()
    try:
        index = lsh_build(vs, a=a, b=b, seed=0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    table = a * (vs.dim + 1) * 8
    assert peak < index.planes.nbytes + 2 * table, (peak, index.planes.nbytes, table)


def test_lsh_build_rejects_overflowing_row_norms():
    # the entries are finite, but the squares in a norm overflow: with an
    # infinite scale every key would be 0 and every query miss
    data = np.random.default_rng(9).standard_normal((50, 20)) * 1e200
    vs = VectorSet(data)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="overflow"):
            lsh_build(vs, 4, 3)


def test_lsh_query_rejects_overflowing_query_norm():
    rng = np.random.default_rng(10)
    vs = VectorSet(rng.standard_normal((50, 20)))
    index = lsh_build(vs, 4, 3)
    query = Query(rng.standard_normal(20) * 1e200)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="overflow"):
            lsh_query(index, vs, query, 3)


def per_table_union(data, q, planes, b_use):
    """Independent oracle: rows sharing the query's key in any of the first
    b_use tables, one table at a time, keys as Python-int bit sums."""
    lifted = divide_then_stack(data)[0]
    lifted_q = np.append(q, 0.0)

    def key(bits):
        return sum(1 << j for j, bit in enumerate(bits) if bit > 0)

    union = set()
    for t in range(b_use):
        q_key = key(np.sign(lifted_q @ planes[t].T))
        row_signs = np.sign(lifted @ planes[t].T)
        union |= {i for i in range(len(data)) if key(row_signs[i]) == q_key}
    return union


def test_lsh_candidates_equal_per_table_union():
    rng = np.random.default_rng(48)
    kinds = {"empty": 0, "short": 0, "reranked": 0}
    for trial in range(40):
        n = int(rng.integers(5, 80))
        dim = int(rng.integers(1, 10))
        a = int(rng.integers(1, 9))
        b = int(rng.integers(1, 6))
        b_use = int(rng.integers(1, b + 1))
        k = int(rng.integers(1, n // 2 + 1))
        data = rng.standard_normal((n, dim))
        q = rng.standard_normal(dim)
        vs = VectorSet(data)
        index = lsh_build(vs, a=a, b=b, seed=trial)
        res = lsh_query(index, vs, Query(q), k, b_use=b_use)
        union = per_table_union(data, q, index.planes, b_use)
        assert res.candidates == len(union), trial
        members = sorted(union)
        ranked, _ = reference_topk(data[members], q, k)
        want = [members[i] for i in ranked]
        # short unions pad with the smallest ids outside the union
        want += [i for i in range(n) if i not in union][: k - len(want)]
        assert res.ids == want, trial
        assert res.padded == (len(union) < k), trial
        kinds["empty" if not union else "short" if len(union) < k else "reranked"] += 1
    # every branch is exercised, padding after a non-empty union included
    assert min(kinds.values()) >= 3, kinds
