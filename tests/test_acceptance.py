"""Acceptance gate: one test per shipping criterion, named so the verbose
pytest report reads as the checklist.  Tolerances are stated inline; every
expected value is produced by an oracle independent of the code under test
(brute-force scans, double computation, or byte comparison).  Criterion 1
also has a negative control that weakens the search and expects the grid
to fail, so a pass shows the gate can tell.

Criterion 1 runs the full desk-scale grid and is the slowest piece together
with criterion 7's four comparison sweeps; the whole module stays in the
minutes range single-threaded.
"""

import math
import time

import numpy as np
import pytest

from bandit_mips import elimination
from bandit_mips.baselines import naive_topk
from bandit_mips.bench import ME, run_compare, run_validate
from bandit_mips.cli import main
from bandit_mips.datasets import gen_vectors
from bandit_mips.elimination import sample_size
from bandit_mips.mips import ObjectiveKind, Query, VectorSet, build_arms, mips_topk
from dominance import me_dominates
from pull_scan import brute_force_min_pulls as brute

EPSILONS = (0.1, 0.2, 0.3, 0.4, 0.5, 0.6)
DELTAS = (0.05, 0.1, 0.2, 0.3)
VALIDATE_RUNS = 20


@pytest.fixture(scope="module")
def validate_report():
    start = time.perf_counter()
    report = run_validate(
        EPSILONS, DELTAS, n=500, list_len=5000, k=1, runs=VALIDATE_RUNS, seed=0,
    )
    return report, time.perf_counter() - start


def test_criterion_1_pac_validation_grid(validate_report):
    """(1-delta)-percentile suboptimality <= epsilon in all 24 cells,
    n=500, N=5000, 20 runs per cell, under 10 minutes."""
    report, elapsed_s = validate_report
    assert len(report.cells) == len(EPSILONS) * len(DELTAS)
    bad = [
        (c.epsilon, c.delta, c.percentile_suboptimality)
        for c in report.cells
        if not (c.passed and c.percentile_suboptimality <= c.epsilon)
    ]
    assert bad == [], f"failing cells (eps, delta, percentile): {bad}"
    assert report.all_passed
    # per-cell PAC failure fraction stays within binomial slack of delta
    for c in report.cells:
        slack = 2.0 * math.sqrt(c.delta * (1.0 - c.delta) / VALIDATE_RUNS)
        assert c.failure_fraction <= c.delta + slack, (c.epsilon, c.delta)
    assert elapsed_s < 600.0, "grid exceeded the 10 minute budget"


def test_criterion_1_gate_fails_on_halved_pull_targets(monkeypatch):
    """Negative control for criterion 1: with every round's pull target
    halved, the unchanged grid (seed 0) must fail.  Measured: dividing the
    targets by 2 fails 14 of 24 cells, by 1.2 fails 4, by 1.1 fails none;
    on a 0.01 grid of divisors, 1.13 is the smallest that fails a cell."""
    honest = elimination.round_pull_target

    def halved(*args, **kwargs):
        return max(1, math.ceil(honest(*args, **kwargs) / 2))

    monkeypatch.setattr(elimination, "round_pull_target", halved)
    report = run_validate(
        EPSILONS, DELTAS, n=500, list_len=5000, k=1, runs=VALIDATE_RUNS, seed=0,
    )
    assert report.all_passed is False


def test_criterion_2_pull_bound_never_violated(validate_report):
    """Max per-arm pulls <= N across every run of the criterion-1 grid."""
    report, _ = validate_report
    assert len(report.records) == 24 * VALIDATE_RUNS
    violations = [
        r.params for r in report.records if r.params["max_arm_pulls"] > 5000
    ]
    assert violations == []
    assert all(r.pulls_total <= 500 * 5000 for r in report.records)


def test_criterion_3_sample_size_oracle():
    """Closed-form pull count vs brute-force minimal m: within +1 on 200
    random (u, N) pairs, exact on the two worked cases."""

    assert min(max(math.ceil(sample_size(1.0, 10)), 1), 10) == brute(1.0, 10) == 1
    assert min(max(math.ceil(sample_size(50.0, 100)), 1), 100) == brute(50.0, 100) == 34

    rng = np.random.default_rng(2024)
    for _ in range(200):
        n = int(rng.integers(2, 3000))
        u = float(rng.uniform(0.0, 3.0 * n))
        star = brute(u, n)
        approx = min(max(math.ceil(sample_size(u, n)), 1), n)
        assert star <= approx <= star + 1, (u, n, star, approx)


def test_criterion_4_oracle_equivalence():
    """naive_topk equals an independent re-implementation exactly on 100
    random instances (n <= 50, N <= 200); exhausted arm means match brute
    force within 1e-9 relative."""

    def reference(data, q, k):
        scores = []
        for i in range(data.shape[0]):
            acc = 0.0
            for j in range(data.shape[1]):
                acc += float(data[i][j]) * float(q[j])
            scores.append(acc)
        return sorted(range(len(scores)), key=lambda i: (-scores[i], i))[:k]

    rng = np.random.default_rng(331)
    for trial in range(100):
        n = int(rng.integers(1, 51))
        dim = int(rng.integers(1, 201))
        k = int(rng.integers(1, n + 1))
        data = rng.standard_normal((n, dim))
        q = rng.standard_normal(dim)
        vs, query = VectorSet(data), Query(q)
        assert naive_topk(vs, query, k).topk_ids == reference(data, q, k), trial

        if trial % 10 == 0:  # exhaustive arm-mean audit on a tenth of them
            brute_means = data @ q / dim
            arms = build_arms(vs, query, ObjectiveKind.INNER_PRODUCT, start=trial)
            means = arms.sums(np.arange(n), dim) / dim
            for arm_id in range(n):
                assert means[arm_id] == pytest.approx(
                    brute_means[arm_id], rel=1e-9, abs=1e-12
                )


def test_criterion_5_exhaustion_exactness():
    """1000 randomized small arms: full draw returns the reward list as an
    exact multiset and the empirical mean within 1e-9 relative.

    Arms read their lists in the order of the pi prefix, so the multiset
    check runs on one-hot data: with rows diag(values) and an all-ones
    query, arm i's only nonzero reward sits at column i, the arms a batch
    first makes nonzero are the columns that batch read, and each final sum
    is values[i] exactly."""
    rng = np.random.default_rng(88)
    for arm_id in range(1000):
        length = int(rng.integers(1, 30))
        values = rng.standard_normal(length)
        seed = int(rng.integers(2 ** 31))
        start = int(rng.integers(length))
        ones = Query(np.ones(length))

        one_hot = VectorSet(np.diag(values), seed=seed)
        order = np.roll(one_hot.permuted()[0], -start)
        arms = build_arms(one_hot, ones, ObjectiveKind.INNER_PRODUCT, start)
        ids = np.arange(length)
        before = np.zeros(length)
        t = 0
        while t < length:
            batch = int(rng.integers(1, length - t + 1))
            now = arms.sums(ids, t + batch, t, before)
            # this batch read exactly the next positions of the pi prefix.
            # Windows round values float32 does not hold, and the batch that
            # reaches t = N re-sums every row exactly, so only that batch may
            # move rows read before.
            assert sorted(np.flatnonzero((now != 0) & (before == 0)).tolist()) == sorted(
                order[t : t + batch].tolist()
            )
            if t + batch < length:
                assert np.array_equal(now[before != 0], before[before != 0])
            before, t = now, t + batch
        assert sorted(now.tolist()) == sorted(values.tolist())  # exact: re-summed at t = N

        twin = build_arms(VectorSet(values[None, :], seed=seed), ones,
                          ObjectiveKind.INNER_PRODUCT, start)
        assert twin.sums(np.array([0]), length)[0] / length == pytest.approx(
            values.mean(), rel=1e-9, abs=1e-15
        )


def test_criterion_6_validate_determinism(tmp_path):
    """Two `validate` CLI executions with one master seed: byte-identical
    JSONL results files."""
    args = [
        "validate", "--epsilons", "0.2,0.4", "--deltas", "0.1,0.2",
        "--n", "60", "--dim", "600", "--runs", "5", "--seed", "424242",
    ]
    out_a, out_b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    assert main(args + ["--out", str(out_a)]) == 0
    assert main(args + ["--out", str(out_b)]) == 0
    bytes_a, bytes_b = out_a.read_bytes(), out_b.read_bytes()
    assert len(bytes_a) > 0
    assert bytes_a == bytes_b


def test_criterion_7_bandit_beats_lsh_at_matched_speedups():
    """Gaussian and uniform desk scale (n=1000, N=10^4), top-5 and top-10,
    20 queries: bandit precision >= LSH precision at every LSH curve point
    with op-speedup >= 5x."""
    problems = []
    for dist in ("gaussian", "uniform"):
        vectors = gen_vectors(dist, 1000, 10_000, seed=41)
        queries = [
            Query(gen_vectors(dist, 1, 10_000, seed=1000 + i).data[0])
            for i in range(20)
        ]
        for k in (5, 10):
            report = run_compare(vectors, queries, k, seed=9)
            ok, failures = me_dominates(report.curve, min_speedup=5.0)
            if not ok:
                problems.append((dist, k, failures))
            # sanity on the same sweep: naive reference present, bandit
            # never exceeds the total pull budget
            for rec in report.records:
                if rec.method == ME:
                    assert rec.pulls_total <= 1000 * 10_000
                    assert rec.ops_naive / rec.pulls_total >= 1.0
    assert problems == [], problems


def test_criterion_8_degenerate_handling():
    """epsilon -> 0 yields exact answers (precision 1.0 vs naive); n <= K
    returns every id with zero pulls."""
    rng = np.random.default_rng(55)
    data = rng.standard_normal((40, 300))
    q = rng.standard_normal(300)
    vs, query = VectorSet(data), Query(q)
    ids, trace = mips_topk(vs, query, 5, epsilon=0.0, delta=0.1, seed=1)
    truth = naive_topk(vs, query, 5).topk_ids
    assert set(ids) == set(truth)
    assert trace.max_arm_pulls == 300  # exhaustion is what makes it exact

    all_ids, trivial = mips_topk(vs, query, 40, epsilon=0.5, delta=0.1)
    assert all_ids == list(range(40))
    assert trivial.total_pulls == 0
