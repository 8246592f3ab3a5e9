"""Experiment runners: PAC validation, method comparison, single queries.

Speedups are reported two ways.  Op-count speedup divides the exhaustive
cost n*N by the work the method actually did (reward pulls for the bandit,
hash + rerank multiplies for LSH); it is deterministic and is what the
acceptance checks gate on.  Wall-clock speedup divides measured times and is
recorded for orientation only.  ``run_validate`` writes wall_ms as 0.0
unless asked, so its results file is byte-identical across reruns with one
master seed.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from functools import partial

import numpy as np

from .baselines import lsh_build, lsh_query, naive_topk
from .datasets import gen_adversarial
from .elimination import EliminationConfig, median_elimination_topk
from .fileio import (
    CURVE_FIELDS,
    RESULT_FIELDS,
    read_dataset,
    read_query,
    write_curve,
    write_results,
)
from .metrics import percentile, precision, suboptimality
from .mips import ObjectiveKind, Query, VectorSet, mips_topk, reward_range, true_means

__all__ = [
    "RunRecord",
    "ValidateCell",
    "ValidateReport",
    "CompareReport",
    "derive_seed",
    "top_ids",
    "run_validate",
    "run_compare",
    "run_query",
    "me_dominates",
]

ME = "median_elimination"
LSH = "lsh"
NAIVE = "naive"


def derive_seed(*parts: int) -> int:
    """Deterministic 64-bit seed from integer parts (order matters)."""
    mixed = np.random.SeedSequence([int(p) & 0xFFFFFFFFFFFFFFFF for p in parts])
    return int(mixed.generate_state(1, np.uint64)[0])


def top_ids(means, k: int) -> list[int]:
    """Ids of the k largest means; ties keep the smaller id."""
    means = np.asarray(means, dtype=np.float64)
    order = np.lexsort((np.arange(means.size), -means))[:k]
    return [int(i) for i in order]


@dataclass(slots=True)
class RunRecord:
    """One method execution on one instance, in results-file shape."""

    method: str
    params: dict
    k: int
    epsilon: float | None
    delta: float | None
    seed: int
    returned: list[int]
    precision: float
    suboptimality: float
    pulls_total: int
    ops_naive: int
    wall_ms: float

    @property
    def speedup_ops(self) -> float:
        if self.pulls_total == 0:
            return math.inf
        return self.ops_naive / self.pulls_total

    def row(self) -> dict:
        return {key: getattr(self, key) for key in RESULT_FIELDS}


@dataclass(slots=True)
class ValidateCell:
    epsilon: float
    delta: float
    percentile_suboptimality: float
    failure_fraction: float  # fraction of runs with suboptimality > epsilon
    passed: bool


@dataclass(slots=True)
class ValidateReport:
    records: list[RunRecord]
    cells: list[ValidateCell]
    all_passed: bool


def run_validate(
    epsilons,
    deltas,
    *,
    n: int = 500,
    list_len: int = 5000,
    k: int = 1,
    runs: int = 20,
    seed: int = 0,
    out=None,
    record_wall: bool = False,
) -> ValidateReport:
    """Adversarial-instance PAC check over an (epsilon, delta) grid.

    Every cell runs ``runs`` fresh adversarial instances and passes when the
    (1 - delta)-percentile of the observed suboptimalities is at most
    epsilon.  Records carry wall_ms = 0.0 unless ``record_wall`` so that the
    results file is a pure function of the master seed.
    """
    epsilons = list(epsilons)
    deltas = list(deltas)
    if not epsilons or not deltas or runs < 1:
        raise ValueError("need at least one epsilon, one delta, and one run")
    if not 1 <= k <= n:
        raise ValueError(f"k = {k} must lie in [1, n] with n = {n}")
    records: list[RunRecord] = []
    cells: list[ValidateCell] = []
    for ei, eps in enumerate(epsilons):
        for di, delta in enumerate(deltas):
            subopts: list[float] = []
            for r in range(runs):
                instance_seed = derive_seed(seed, 1, ei, di, r)
                # Recorded for the results file; the fixed-order lists draw no randomness.
                algorithm_seed = derive_seed(seed, 2, ei, di, r)
                instance = gen_adversarial(n, list_len, instance_seed)
                config = EliminationConfig(k=k, epsilon=eps, delta=delta, range_width=1.0)
                start = time.perf_counter()
                ids, trace = median_elimination_topk(instance.sources(), config)
                wall_ms = (time.perf_counter() - start) * 1e3 if record_wall else 0.0
                sub = suboptimality(ids, instance.list_means, k)
                subopts.append(sub)
                records.append(
                    RunRecord(
                        method=ME,
                        params={
                            "n": n,
                            "list_len": list_len,
                            "instance_seed": instance_seed,
                            "algorithm_seed": algorithm_seed,
                            "rounds": len(trace.rounds),
                            "max_arm_pulls": trace.max_arm_pulls,
                        },
                        k=k,
                        epsilon=eps,
                        delta=delta,
                        seed=seed,
                        returned=ids,
                        precision=precision(ids, top_ids(instance.list_means, k), k),
                        suboptimality=sub,
                        pulls_total=trace.total_pulls,
                        ops_naive=n * list_len,
                        wall_ms=wall_ms,
                    )
                )
            cell_percentile = percentile(subopts, 1.0 - delta)
            cells.append(
                ValidateCell(
                    epsilon=eps,
                    delta=delta,
                    percentile_suboptimality=cell_percentile,
                    failure_fraction=sum(s > eps for s in subopts) / runs,
                    passed=cell_percentile <= eps,
                )
            )
    report = ValidateReport(
        records=records,
        cells=cells,
        all_passed=all(c.passed for c in cells),
    )
    if out is not None:
        write_results(out, (rec.row() for rec in records))
    return report


@dataclass(slots=True)
class CompareReport:
    records: list[RunRecord]
    curve: list[dict]


def run_compare(
    vectors: VectorSet,
    queries: list[Query],
    k: int,
    *,
    methods=(NAIVE, ME, LSH),
    me_epsilons=None,
    me_eps_fracs=(0.1, 0.2, 0.4, 0.8, 1.2, 1.6, 2.4, 3.2),
    me_deltas=(0.1,),
    lsh_a=(4, 8, 16),
    lsh_b=(1, 5, 15, 50),
    seed: int = 0,
    kind: ObjectiveKind = ObjectiveKind.INNER_PRODUCT,
    out=None,
) -> CompareReport:
    """Precision-versus-speedup sweep of the configured methods.

    The bandit sweeps epsilon: either ``me_epsilons`` (absolute, mean scale)
    or, by default, ``me_eps_fracs`` interpreted as fractions of each
    query's reward-range width, which keeps one knob meaningful across
    queries of different magnitudes.  LSH sweeps the (a, b) grid, building
    one index per ``a`` at the largest ``b`` and answering smaller OR-widths
    from the first b columns of its key matrix (identical hashes by
    construction).  Index build time, and the column-permuted copy of the
    data that every bandit query reads, are excluded from query costs,
    matching how preprocessing-free and preprocessing-heavy methods are
    usually contrasted.  LSH ranks by inner product, so it is rejected with
    the distance objective.

    Curve points aggregate over all queries: mean precision against the
    exact top-K, total naive ops over total spent ops, total naive wall time
    over total spent wall time.  The exhaustive reference pass that times
    the naive side runs after one untimed warm-up search.
    """
    known = {NAIVE, ME, LSH}
    methods = tuple(methods)
    unknown = set(methods) - known
    if unknown:
        raise ValueError(f"unknown methods: {sorted(unknown)}")
    if not queries:
        raise ValueError("need at least one query")
    if LSH in methods and kind != ObjectiveKind.INNER_PRODUCT:
        raise ValueError(
            f"{LSH} ranks by inner product and cannot answer the {kind.value} objective; "
            f"leave {LSH} out of the methods"
        )
    eps_label = "eps_frac" if me_epsilons is None else "epsilon"
    eps_name = "me_" + eps_label + "s"
    eps_values = [float(e) for e in (me_eps_fracs if me_epsilons is None else me_epsilons)]
    me_deltas = list(me_deltas)
    lsh_a = sorted({int(a) for a in lsh_a})
    lsh_b = sorted({int(b) for b in lsh_b})
    sweep_lists = {
        ME: {eps_name: eps_values, "me_deltas": me_deltas},
        LSH: {"lsh_a": lsh_a, "lsh_b": lsh_b},
    }
    # Checked before any search runs; on a zero-width query an epsilon
    # fraction scales to a valid 0, so only this check can see a bad one.
    rules = {
        eps_name: (lambda v: math.isfinite(v) and v >= 0.0, "be finite and >= 0"),
        "me_deltas": (lambda v: 0.0 < v < 1.0, "lie in (0, 1)"),
        "lsh_a": (lambda v: v >= 1, "be at least 1"),
        "lsh_b": (lambda v: v >= 1, "be at least 1"),
    }
    for method in methods:
        for name, values in sweep_lists.get(method, {}).items():
            if not values:
                raise ValueError(f"{name} is empty; {method} needs at least one value")
            valid, rule = rules[name]
            for value in values:
                if not valid(value):
                    raise ValueError(f"{name} holds {value!r}; it must {rule}")
    ops_naive = vectors.n * vectors.dim

    truth_ids: list[list[int]] = []
    naive_s = 0.0
    naive_topk(vectors, queries[0], k, kind)  # warm-up, so the timed pass is not cold
    if ME in methods:
        vectors.permuted()  # the bandit's one-time set-up, untimed like the LSH builds
    for query in queries:
        start = time.perf_counter()
        truth_ids.append(naive_topk(vectors, query, k, kind).topk_ids)
        naive_s += time.perf_counter() - start
    means_per_query = [true_means(vectors, query, kind) for query in queries]

    # A runner answers one query: (ids, ops, params, epsilon, delta, seed).
    def naive(qi, query):
        ids = naive_topk(vectors, query, k, kind).topk_ids
        return ids, ops_naive, {"query": qi}, None, None, seed

    def bandit(di, vi, delta, value, qi, query):
        eps = value
        if eps_label == "eps_frac":
            lo, hi = reward_range(vectors, query, kind)
            eps = value * (hi - lo)
        run_seed = derive_seed(seed, 3, di, vi, qi)
        ids, trace = mips_topk(vectors, query, k, eps, delta, seed=run_seed, kind=kind)
        if trace.total_pulls > ops_naive:
            raise AssertionError("bandit exceeded the pull bound n*N")
        params = {
            eps_label: value,
            "query": qi,
            "rounds": len(trace.rounds),
            "max_arm_pulls": trace.max_arm_pulls,
        }
        return ids, trace.total_pulls, params, eps, delta, run_seed

    def lsh(index, b, qi, query):
        res = lsh_query(index, vectors, query, k, b_use=b)
        params = {
            "a": index.a,
            "b": b,
            "query": qi,
            "candidates": res.candidates,
            "padded": res.padded,
        }
        return list(res.ids), res.ops, params, None, None, index.seed

    def sweep():
        """(method, sort key, knob, runner) per curve point; one LSH index alive at a time."""
        if NAIVE in methods:
            yield NAIVE, (NAIVE, 0.0, 0.0), "exhaustive", naive
        if ME in methods:
            for di, delta in enumerate(me_deltas):
                for vi, value in enumerate(eps_values):
                    knob = f"{eps_label}={value:g},delta={delta:g}"
                    yield ME, (ME, float(delta), value), knob, partial(bandit, di, vi, delta, value)
        if LSH in methods:
            for a in lsh_a:
                index = lsh_build(vectors, a, lsh_b[-1], seed=derive_seed(seed, 4, a))
                for b in lsh_b:
                    yield LSH, (LSH, float(a), float(b)), f"a={a},b={b}", partial(lsh, index, b)

    records: list[RunRecord] = []
    curve: list[tuple[tuple, dict]] = []  # (sort key, row)
    for method, key, knob, run in sweep():
        group: list[RunRecord] = []
        for qi, query in enumerate(queries):
            start = time.perf_counter()
            ids, ops, params, eps, delta, run_seed = run(qi, query)
            wall_ms = (time.perf_counter() - start) * 1e3
            group.append(
                RunRecord(
                    method=method,
                    params=params,
                    k=k,
                    epsilon=eps,
                    delta=delta,
                    seed=run_seed,
                    returned=ids,
                    precision=precision(ids, truth_ids[qi], k),
                    suboptimality=suboptimality(ids, means_per_query[qi], k),
                    pulls_total=ops,
                    ops_naive=ops_naive,
                    wall_ms=wall_ms,
                )
            )
        records.extend(group)
        values = (
            method,
            knob,
            float(np.mean([g.precision for g in group])),
            ops_naive * len(group) / max(sum(g.pulls_total for g in group), 1),
            naive_s / max(sum(g.wall_ms for g in group) / 1e3, 1e-12),
        )
        curve.append((key, dict(zip(CURVE_FIELDS, values))))

    curve.sort(key=lambda pair: pair[0])
    curve_rows = [row for _, row in curve]
    if out is not None:
        write_curve(out, curve_rows)
    return CompareReport(records=records, curve=curve_rows)


def me_dominates(curve_rows, min_speedup: float = 5.0) -> tuple[bool, list[str]]:
    """Does the bandit match or beat LSH precision at every matched speedup?

    For each LSH curve point at op-speedup s >= min_speedup there must be a
    bandit point at op-speedup >= s whose precision is at least as high.
    Returns (ok, list of violation descriptions).
    """
    me_points = [
        (row["speedup_ops"], row["precision"]) for row in curve_rows if row["method"] == ME
    ]
    failures: list[str] = []
    for row in curve_rows:
        if row["method"] != LSH or row["speedup_ops"] < min_speedup:
            continue
        matched = [p for s, p in me_points if s >= row["speedup_ops"]]
        if not matched:
            failures.append(
                f"no bandit point at speedup >= {row['speedup_ops']:.1f} ({row['knob']})"
            )
        elif max(matched) < row["precision"] - 1e-12:
            failures.append(
                f"lsh {row['knob']} at speedup {row['speedup_ops']:.1f}: "
                f"precision {row['precision']:.3f} > best matched bandit {max(matched):.3f}"
            )
    return not failures, failures


def run_query(
    data_path,
    query_path,
    k: int,
    epsilon: float,
    delta: float,
    seed: int = 0,
    kind: ObjectiveKind = ObjectiveKind.INNER_PRODUCT,
) -> dict:
    """Answer one query from files; returns a printable result summary.

    Estimated scores are empirical mean times dimension, i.e. the bandit's
    estimate of the full inner product.
    """
    vectors = read_dataset(data_path)
    query = read_query(query_path)
    start = time.perf_counter()
    ids, trace = mips_topk(vectors, query, k, epsilon, delta, seed=seed, kind=kind)
    wall_ms = (time.perf_counter() - start) * 1e3
    pulls = trace.total_pulls
    ops_naive = vectors.n * vectors.dim
    return {
        "ids": ids,
        "estimated_scores": [m * vectors.dim for m in trace.returned_means] or None,
        "k": k,
        "epsilon": epsilon,
        "delta": delta,
        "seed": seed,
        "objective": kind.value,
        "rounds": len(trace.rounds),
        "pulls_total": pulls,
        "ops_naive": ops_naive,
        "speedup_ops": ops_naive / pulls if pulls else math.inf,
        "wall_ms": wall_ms,
        "warning": trace.warning,
    }
