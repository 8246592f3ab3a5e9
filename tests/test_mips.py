"""Inner-product and distance objectives cast as bounded reward lists."""

import tracemalloc
import warnings

import numpy as np
import pytest

from bandit_mips.arms import row_block
from bandit_mips.baselines import naive_topk
from bandit_mips.mips import (
    ObjectiveKind,
    Query,
    VectorSet,
    _start_offset,
    build_arms,
    mips_topk,
    reward_range,
)

IP = ObjectiveKind.INNER_PRODUCT
NSD = ObjectiveKind.NEG_SQ_DISTANCE


def exact_means(vectors, query, kind):
    """Every row's exact mean, score / N, as ``naive_topk`` reports it."""
    return naive_topk(vectors, query, 1, kind).means


def test_build_arms_inner_product_rewards():
    vs = VectorSet(np.array([[1.0, 2.0, 3.0]]))
    q = Query(np.array([1.0, 1.0, 1.0]))
    arms = build_arms(vs, q, IP, start=1)
    order = np.roll(vs.permuted()[0], -1)
    ids = np.array([0])
    # each pull adds the reward v[j] * q[j] of the next position of the order
    got = [arms.sums(ids, t)[0] for t in (1, 2, 3)]
    assert got == pytest.approx(np.cumsum(vs.data[0, order]).tolist())
    assert got[-1] == pytest.approx(6.0)
    assert exact_means(vs, q, IP)[0] == pytest.approx(2.0)


def test_build_arms_identical_vector_zero_distance():
    v = np.array([[0.3, -0.7, 2.0]])
    vs, q = VectorSet(v), Query(v[0])
    arms = build_arms(vs, q, NSD)
    ids = np.array([0])
    assert [arms.sums(ids, t)[0] for t in (1, 2, 3)] == [0.0, 0.0, 0.0]
    assert exact_means(vs, q, NSD)[0] == 0.0


def test_exact_means_match_naive_oracle():
    rng = np.random.default_rng(31)
    vs = VectorSet(rng.standard_normal((5, 4)))
    q = Query(rng.standard_normal(4))
    means = exact_means(vs, q, IP)
    # brute force, one arm at a time
    for i in range(5):
        assert means[i] == pytest.approx(float(vs.data[i] @ q.vector) / 4, rel=1e-12)


def test_lazy_source_means_match_brute_force():
    rng = np.random.default_rng(32)
    vs = VectorSet(rng.standard_normal((8, 125)))
    q = Query(rng.standard_normal(125))
    for kind in (IP, NSD):
        means = build_arms(vs, q, kind, start=2).sums(np.arange(8), 125) / 125
        for got, want in zip(means, exact_means(vs, q, kind)):
            assert got == pytest.approx(want, rel=1e-9, abs=1e-12)


def test_reward_range_inner_product_width():
    vs = VectorSet(np.array([[1.0, -0.5]]))
    q = Query(np.array([0.5, 1.0]))
    lo, hi = reward_range(vs, q, IP)
    assert (lo, hi) == (-1.0, 1.0)  # M_v = M_q = 1 so width 2


def test_reward_range_degenerate_zero_query():
    # a zero query zeroes every product; zero data and query every distance
    zero = Query(np.zeros(2))
    for vs, kind in ((VectorSet(np.array([[1.0, 2.0]])), IP), (VectorSet(np.zeros((1, 2))), NSD)):
        lo, hi = reward_range(vs, zero, kind)
        assert hi - lo == 0.0


def test_reward_range_contains_all_rewards():
    rng = np.random.default_rng(33)
    vs = VectorSet(rng.standard_normal((10, 8)) * 3.0)
    q = Query(rng.standard_normal(8) * 2.0)
    for kind in (IP, NSD):
        lo, hi = reward_range(vs, q, kind)
        if kind is IP:
            all_rewards = vs.data * q.vector
        else:
            all_rewards = -((q.vector - vs.data) ** 2)
        assert all_rewards.min() >= lo - 1e-12
        assert all_rewards.max() <= hi + 1e-12


def test_argmax_invariance_distance_objective():
    # ranking by neg-squared-distance mean equals ascending Euclidean distance
    rng = np.random.default_rng(34)
    vs = VectorSet(rng.standard_normal((20, 6)))
    q = Query(rng.standard_normal(6))
    by_mean = np.argsort(-exact_means(vs, q, NSD), kind="stable")
    dists = np.linalg.norm(vs.data - q.vector, axis=1)
    by_dist = np.argsort(dists, kind="stable")
    assert by_mean.tolist() == by_dist.tolist()


def test_no_reward_matrix_materialization():
    """Coarse allocation bound: a query whose first round reads every
    coordinate of every arm (epsilon 0) must not allocate anything near the
    n*N product matrix (8 MB here) beyond the cached permuted copy."""
    rng = np.random.default_rng(35)
    vs = VectorSet(rng.standard_normal((100, 10_000)))
    vs.permuted()  # the one n*N copy, built on first use and kept
    q = Query(rng.standard_normal(10_000))
    for kind in (IP, NSD):
        tracemalloc.start()
        base = tracemalloc.get_traced_memory()[0]
        ids, trace = mips_topk(vs, q, 3, epsilon=0.0, delta=0.1, seed=1, kind=kind)
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        assert trace.rounds[0].pull_target == 10_000  # round 1 exhausts
        assert peak - base < 2_000_000  # well under n * N * 8 bytes


def test_permuted_copy_built_on_first_bandit_query():
    rng = np.random.default_rng(38)
    data = rng.standard_normal((30, 50))
    vs = VectorSet(data)
    q = Query(rng.standard_normal(50))
    naive_topk(vs, q, 3)
    exact_means(vs, q, NSD)
    assert vs._permuted is None  # no second n x N array before a bandit query
    mips_topk(vs, q, 3, epsilon=0.1, delta=0.1)
    assert vs._permuted is not None
    assert np.array_equal(vs.data, data)  # the caller's order is kept


def test_exact_means_distance_matches_whole_matrix_form():
    # the row-blocked scan gives the same bits as the one-shot difference
    rng = np.random.default_rng(39)
    for data in (rng.random((200, 301)), rng.standard_normal((129, 40))):
        vs, q = VectorSet(data), Query(rng.standard_normal(data.shape[1]))
        diff = data - q.vector
        whole = -np.einsum("ij,ij->i", diff, diff) / data.shape[1]
        assert np.array_equal(exact_means(vs, q, NSD), whole)


def test_mips_topk_dim_one_exhausts():
    rng = np.random.default_rng(40)
    vs = VectorSet(rng.standard_normal((10, 1)))
    q = Query(np.array([0.7]))
    for kind in (IP, NSD):
        ids, trace = mips_topk(vs, q, 3, epsilon=0.1, delta=0.1, kind=kind)
        assert trace.max_arm_pulls == 1
        assert ids == naive_topk(vs, q, 3, kind).topk_ids


def test_mips_topk_tiny_epsilon_exhausts():
    rng = np.random.default_rng(41)
    vs = VectorSet(rng.standard_normal((30, 50)))
    q = Query(rng.standard_normal(50))
    ids, trace = mips_topk(vs, q, 4, epsilon=1e-300, delta=0.1)
    assert trace.max_arm_pulls == 50
    assert ids == naive_topk(vs, q, 4).topk_ids


def test_mips_topk_tiny_reward_range_pulls_once():
    # a reward range far narrower than epsilon underflows the Hoeffding count
    rng = np.random.default_rng(42)
    vs = VectorSet(rng.standard_normal((30, 50)) * 1e-170)
    q = Query(rng.standard_normal(50))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        ids, trace = mips_topk(vs, q, 4, epsilon=0.1, delta=0.1)
    assert trace.max_arm_pulls == 1
    assert all(np.isfinite(trace.returned_means))
    assert len(set(ids)) == 4


def test_reward_range_overflow_rejected():
    vs = VectorSet(np.array([[1e200, 1.0], [2.0, -1e200]]))
    q = Query(np.array([1e200, 3.0]))
    for kind in (IP, NSD):
        with pytest.raises(ValueError, match="overflows"):
            reward_range(vs, q, kind)
        with pytest.raises(ValueError, match="overflows"):
            mips_topk(vs, q, 1, epsilon=0.1, delta=0.1, kind=kind)


def test_mips_topk_one_hot_argmax():
    # q = e_1 gives arm 1 the only nonzero mean; small epsilon isolates it
    vs = VectorSet(np.eye(6))
    q = Query(np.eye(6)[1])
    ids, trace = mips_topk(vs, q, 1, epsilon=0.05, delta=0.1, seed=3)
    assert ids == [1]
    assert trace.warning is None
    assert naive_topk(vs, q, 1).topk_ids == [1]


def test_mips_topk_n_equals_k():
    rng = np.random.default_rng(36)
    vs = VectorSet(rng.standard_normal((4, 5)))
    q = Query(rng.standard_normal(5))
    ids, trace = mips_topk(vs, q, 4, epsilon=0.5, delta=0.1)
    assert ids == [0, 1, 2, 3]
    assert trace.total_pulls == 0
    # no pulls, so no permuted copy either
    assert vs._permuted is None


def test_mips_topk_degenerate_falls_back_with_warning():
    vs = VectorSet(np.zeros((3, 4)))
    q = Query(np.ones(4))
    ids, trace = mips_topk(vs, q, 2, epsilon=0.1, delta=0.1)
    assert ids == [0, 1]
    assert trace.warning is not None
    assert trace.total_pulls == 0


@pytest.mark.parametrize(
    "epsilon, delta",
    [(-5.0, 0.1), (float("nan"), 0.1), (float("inf"), 0.1), (0.1, 0.0), (0.1, 7.0)],
)
def test_mips_topk_degenerate_validates_epsilon_and_delta(epsilon, delta):
    # the first-k fallback and the k = n answer apply the search's own
    # epsilon and delta checks
    with pytest.raises(ValueError):
        mips_topk(VectorSet(np.zeros((3, 4))), Query(np.ones(4)), 2, epsilon, delta)
    with pytest.raises(ValueError):
        mips_topk(VectorSet(np.eye(3, 4)), Query(np.ones(4)), 3, epsilon, delta)


def test_start_offset_is_a_spread_function_of_the_seed():
    dim = 10_000
    offsets = [_start_offset(seed, dim) for seed in range(4000)]
    assert offsets == [_start_offset(seed, dim) for seed in range(4000)]
    assert all(0 <= o < dim for o in offsets)
    assert len(set(offsets[:10])) == 10
    # expected 1000 per quarter; 800 is over 7 standard deviations below
    assert np.bincount(np.array(offsets) * 4 // dim, minlength=4).min() >= 800
    assert _start_offset(np.int64(7), dim) == _start_offset(7, dim)
    assert _start_offset(2**64 + 7, dim) == _start_offset(7, dim)
    assert all(_start_offset(seed, 1) == 0 for seed in range(5))
    with pytest.raises(ValueError):
        _start_offset(-1, dim)


def test_mips_topk_same_seed_same_answer():
    rng = np.random.default_rng(44)
    data = rng.standard_normal((300, 2000))
    q = Query(rng.standard_normal(2000))
    lo, hi = reward_range(VectorSet(data), q, IP)
    for seed in (0, 1, 2**63 + 5):
        runs = [mips_topk(VectorSet(data), q, 3, 0.3 * (hi - lo), 0.1, seed=seed) for _ in range(2)]
        (ids_a, trace_a), (ids_b, trace_b) = runs
        assert ids_a == ids_b
        assert trace_a.returned_means == trace_b.returned_means
        assert trace_a.total_pulls == trace_b.total_pulls


def test_mips_topk_dimension_mismatch():
    vs = VectorSet(np.ones((2, 3)))
    with pytest.raises(ValueError):
        mips_topk(vs, Query(np.ones(4)), 1, epsilon=0.1, delta=0.1)


@pytest.mark.parametrize("answer", ["search", "k=n", "zero-width"])
@pytest.mark.parametrize("seed, error", [(-1, ValueError), (2.5, TypeError)])
def test_mips_topk_checks_the_seed_whether_or_not_it_searches(answer, seed, error):
    # the no-search exits reject the seeds a search rejects
    vs = VectorSet(np.eye(3, 4))
    query, k = {
        "search": (Query(np.ones(4)), 2),
        "k=n": (Query(np.ones(4)), 3),
        "zero-width": (Query(np.zeros(4)), 2),
    }[answer]
    with pytest.raises(error, match="^seed "):
        mips_topk(vs, query, k, 0.1, 0.1, seed=seed)


@pytest.mark.parametrize("kind", list(ObjectiveKind))
def test_mips_topk_trace_reports_range_width_and_set_up(kind):
    rng = np.random.default_rng(47)
    vs = VectorSet(rng.standard_normal((40, 300)))
    q = Query(rng.standard_normal(300))
    lo, hi = reward_range(vs, q, kind)
    _, first = mips_topk(vs, q, 3, 0.3 * (hi - lo), 0.1, kind=kind)
    # the set's first search builds its permuted copy inside build_arms
    assert first.range_width == hi - lo
    assert first.setup_ms > 0.0
    _, later = mips_topk(vs, q, 3, 0.3 * (hi - lo), 0.1, kind=kind)
    assert later.range_width == hi - lo and later.setup_ms >= 0.0
    # no search: K = n, and a zero-width range (a zero inner-product
    # query), which alone is flagged
    cases = [(q, 40, False)] + ([(Query(np.zeros(300)), 3, True)] if kind is IP else [])
    for query, k, warned in cases:
        ids, trace = mips_topk(VectorSet(vs.data), query, k, 0.1, 0.1, kind=kind)
        assert ids == list(range(k))
        assert (trace.range_width, trace.setup_ms) == (None, 0.0)
        assert (trace.warning is not None) == warned


def test_query_must_be_a_non_empty_vector():
    # a 0-d scalar is not promoted to a one-entry vector
    for vector in (np.ones((2, 2)), np.empty(0), 1.0, np.float64(2.0), np.array(3.0)):
        with pytest.raises(ValueError, match="^query must be a non-empty 1-D vector$"):
            Query(vector)


@pytest.mark.parametrize("call", [reward_range, exact_means])
def test_an_unknown_objective_is_named(call):
    vs, q = VectorSet(np.ones((2, 3))), Query(np.ones(3))
    with pytest.raises(ValueError, match="^unknown objective kind: 'ip'$"):
        call(vs, q, "ip")


def test_mips_topk_k_bounds():
    vs = VectorSet(np.ones((2, 3)))
    q = Query(np.array([1.0, 0.0, 0.0]))
    with pytest.raises(ValueError):
        mips_topk(vs, q, 0, epsilon=0.1, delta=0.1)
    with pytest.raises(ValueError):
        mips_topk(vs, q, 3, epsilon=0.1, delta=0.1)


def test_mips_topk_tight_epsilon_high_precision_desk_scale():
    """Mean-scale epsilon 0.3 on a 10^4-dim Gaussian instance forces pull
    targets to the list length, so the search degrades to exact computation
    and matches the oracle top-5."""
    rng = np.random.default_rng(37)
    vs = VectorSet(rng.standard_normal((200, 10_000)))
    q = Query(rng.standard_normal(10_000))
    ids, trace = mips_topk(vs, q, 5, epsilon=0.3, delta=0.1, seed=11)
    truth = set(naive_topk(vs, q, 5).topk_ids)
    assert len(set(ids) & truth) / 5 >= 0.8
    assert trace.max_arm_pulls <= 10_000


def test_vectorset_validation():
    with pytest.raises(ValueError):
        VectorSet(np.array([[np.inf, 1.0]]))
    with pytest.raises(ValueError):
        VectorSet(np.array([[1.0, -np.inf]]))
    with pytest.raises(ValueError):
        VectorSet(np.array([[1.0, np.nan], [0.0, 2.0]]))
    assert VectorSet(np.array([[-3.0, 1.0]])).coord_bound == 3.0
    with pytest.raises(ValueError):
        VectorSet(np.ones(3))  # needs 2-D
    # a bad seed is caught here, not at the first bandit query
    with pytest.raises(ValueError, match="seed"):
        VectorSet(np.ones((2, 2)), seed=-1)
    with pytest.raises(TypeError, match="seed"):
        VectorSet(np.ones((2, 2)), seed=1.5)
    assert VectorSet(np.ones((2, 2)), seed=np.uint64(3)).permuted()[0].size == 2
    with pytest.raises(ValueError):
        Query(np.array([np.nan]))


def _vectorset_inputs(n, dim):
    rng = np.random.default_rng(n)
    wide = rng.standard_normal((n, 2 * dim)) * 3.0
    ints = rng.integers(-(10**6), 10**6, size=(n, dim))
    ints[-1, -1] = 2**62 + 1  # rounds on the way to float64
    return {
        "float32": wide[:, :dim].astype(np.float32),
        "int64": ints,
        "fortran": np.asfortranarray(wide[:, :dim]),
        "strided": wide[:, ::2],
    }


@pytest.mark.parametrize("n, dim", [(1, 1024), (63, 1024), (64, 1024), (65, 1024), (130, 1024),
                                    (3 * 4096 + 5, 16)])
@pytest.mark.parametrize("kind", ["float32", "int64", "fortran", "strided"])
def test_vectorset_converts_blockwise_like_whole_matrix(n, dim, kind):
    # the matrix and bound are built a row block at a time; both must be
    # bit for bit those of converting the whole input at once; narrow rows
    # go in tall blocks, and the last set spans three and a partial one
    assert row_block(dim) == {1024: 64, 16: 4096}[dim]  # n straddles the block boundaries
    x = _vectorset_inputs(n, dim)[kind]
    want = np.ascontiguousarray(np.asarray(x, np.float64))
    vs = VectorSet(x)
    assert vs.data.dtype == np.float64 and vs.data.flags.c_contiguous
    assert vs.data.shape == want.shape
    assert vs.data.tobytes() == want.tobytes()
    assert vs.coord_bound == float(np.abs(want).max())


@pytest.mark.parametrize("n", [1, 63, 64, 65, 130])
def test_vectorset_keeps_float64_c_contiguous_input(n):
    x = np.random.default_rng(n).standard_normal((n, 8192))
    x[-1, 0] = -7.5
    vs = VectorSet(x)
    assert vs.data is x
    assert vs.coord_bound == 7.5
    x[-1, -1] = np.inf  # a non-finite entry in the last block is still seen
    with pytest.raises(ValueError, match="finite"):
        VectorSet(x)
    with pytest.raises(ValueError, match="finite"):
        VectorSet(x.astype(np.float32))


def test_coord_bound_is_not_an_init_argument():
    # the bound is always derived from the entries, so it cannot be passed
    with pytest.raises(TypeError):
        VectorSet(np.ones((2, 2)), coord_bound=5.0)
    with pytest.raises(TypeError):
        Query(np.ones(2), coord_bound=5.0)
    assert Query(np.array([0.5, -2.0])).coord_bound == 2.0
