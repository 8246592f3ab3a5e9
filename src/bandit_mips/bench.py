"""Experiment runners: PAC validation, method comparison, single queries.

Speedups are reported two ways.  Op-count speedup divides the exhaustive
cost n*N by the op count (reward pulls for the bandit, fewer than the
entries it evaluates where a round reads the strided view; hash + rerank
multiplies for LSH); it is deterministic and is what the acceptance checks
gate on.  Wall-clock speedup divides measured times and is recorded for
orientation only.  ``run_validate`` writes wall_ms as 0.0 unless asked, so
its results file is byte-identical across reruns with one master seed.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from functools import partial

import numpy as np

from .baselines import lsh_build, lsh_query, naive_topk
from .datasets import AdversarialInstance, gen_adversarial
from .elimination import (
    EliminationConfig,
    check_delta,
    check_epsilon,
    checked_int,
    median_elimination_topk,
    round_plan,
    top_ids,
)
from .fileio import (
    CURVE_FIELDS,
    RESULT_FIELDS,
    read_dataset,
    read_query,
    write_curve,
    write_results,
)
from .metrics import percentile, precision, suboptimality
from .mips import ObjectiveKind, Query, VectorSet, mips_topk, reward_range

__all__ = [
    "RunRecord",
    "ValidateCell",
    "ValidateReport",
    "CompareReport",
    "derive_seed",
    "run_validate",
    "run_compare",
    "run_query",
]

ME = "median_elimination"
LSH = "lsh"
NAIVE = "naive"


def _check_grid(eps_name: str, epsilons: list, delta_name: str, deltas: list) -> None:
    """Reject an empty axis, and apply the epsilon and delta rules to every entry."""
    for name, axis, check in (eps_name, epsilons, check_epsilon), (delta_name, deltas, check_delta):
        if not axis:
            raise ValueError(f"{name} is empty; the grid needs at least one value")
        for i, value in enumerate(axis):
            check(value, f"{name}[{i}]")


def derive_seed(*parts: int) -> int:
    """Deterministic 64-bit seed from integer parts (order matters)."""
    parts = [checked_int(p, f"derive_seed part {i}") for i, p in enumerate(parts)]
    mixed = np.random.SeedSequence([p & 0xFFFFFFFFFFFFFFFF for p in parts])
    return int(mixed.generate_state(1, np.uint64)[0])


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
    results file is a pure function of the master seed.  The runs of a cell
    share its search parameters, so the cell's round plan is made once.
    The whole grid is checked before the first cell runs.
    """
    epsilons, deltas = list(epsilons), list(deltas)
    _check_grid("epsilons", epsilons, "deltas", deltas)
    runs, seed = checked_int(runs, "runs", 1), checked_int(seed, "seed")
    n, list_len = checked_int(n, "n", 1), checked_int(list_len, "list_len", 1)
    k = checked_int(k, "k", 1, n, "n")
    records: list[RunRecord] = []
    cells: list[ValidateCell] = []
    for ei, eps in enumerate(epsilons):
        for di, delta in enumerate(deltas):
            config = EliminationConfig(k=k, epsilon=eps, delta=delta, range_width=1.0)
            plan = round_plan(n, config, list_len, AdversarialInstance.mean_error)
            subopts: list[float] = []
            for r in range(runs):
                instance_seed = derive_seed(seed, 1, ei, di, r)
                instance = gen_adversarial(n, list_len, instance_seed)
                start = time.perf_counter()
                ids, trace = median_elimination_topk(instance.sources(), config, plan)
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
    report = ValidateReport(records, cells, all_passed=all(c.passed for c in cells))
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
    usually contrasted.

    Curve points aggregate over all queries: mean precision against the
    exact top-K, total naive ops over total spent ops, total naive wall time
    over total spent wall time.  The exhaustive reference pass that times
    the naive side runs after one untimed warm-up search; its one scan per
    query gives both the exact top-K and the true means that suboptimality
    is measured against.
    """
    methods = tuple(methods)
    unknown = set(methods) - {NAIVE, ME, LSH}
    if unknown:
        raise ValueError(f"unknown methods: {sorted(unknown)}")
    if not queries:
        raise ValueError("need at least one query")
    if LSH in methods and kind != ObjectiveKind.INNER_PRODUCT:
        raise ValueError(
            f"{LSH} ranks by inner product and cannot answer the {kind.value} objective; "
            f"leave {LSH} out of the methods"
        )
    seed = checked_int(seed, "seed")
    eps_label = "eps_frac" if me_epsilons is None else "epsilon"
    eps_name = "me_" + eps_label + "s"
    eps_values = list(me_eps_fracs if me_epsilons is None else me_epsilons)
    me_deltas = list(me_deltas)
    lsh_a = sorted({checked_int(a, "lsh_a", 1) for a in lsh_a})
    lsh_b = sorted({checked_int(b, "lsh_b", 1) for b in lsh_b})
    for name, values in (("lsh_a", lsh_a), ("lsh_b", lsh_b)) if LSH in methods else ():
        if not values:
            raise ValueError(f"{name} is empty; {LSH} needs at least one value")
    if ME in methods:
        # Checked before any search runs; on a zero-width query an epsilon
        # fraction scales to a valid 0, so only this check can see a bad one.
        _check_grid(eps_name, eps_values, "me_deltas", me_deltas)
    ops_naive = vectors.n * vectors.dim

    exact = []  # per query: the exact top-K and every row's true mean
    naive_s = 0.0
    naive_topk(vectors, queries[0], k, kind)  # warm-up, so the timed pass is not cold
    if ME in methods:
        vectors.permuted()  # the bandit's one-time set-up, untimed like the LSH builds
    for query in queries:
        start = time.perf_counter()
        exact.append(naive_topk(vectors, query, k, kind))
        naive_s += time.perf_counter() - start

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
                for vi, value in enumerate(map(float, eps_values)):
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
                    precision=precision(ids, exact[qi].topk_ids, k),
                    suboptimality=suboptimality(ids, exact[qi].means, k),
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
    estimate of the full inner product.  ``range_width`` (the width that
    ``epsilon``, an absolute mean-scale accuracy, is measured against) and
    ``setup_ms`` (the arms' build, with the set's permuted copy) are the
    trace's: None and 0.0 where ``mips_topk`` answers without a search.
    ``wall_ms`` is the rest of ``mips_topk``'s time.
    """
    vectors, query = read_dataset(data_path), read_query(query_path)
    start = time.perf_counter()
    ids, trace = mips_topk(vectors, query, k, epsilon, delta, seed=seed, kind=kind)
    wall_ms = (time.perf_counter() - start) * 1e3 - trace.setup_ms
    pulls = trace.total_pulls
    ops_naive = vectors.n * vectors.dim
    return {
        "ids": ids,
        "estimated_scores": [m * vectors.dim for m in trace.returned_means] or None,
        "k": k,
        "epsilon": epsilon,
        "range_width": trace.range_width,
        "delta": delta,
        "seed": seed,
        "objective": kind.value,
        "rounds": len(trace.rounds),
        "pulls_total": pulls,
        "ops_naive": ops_naive,
        "speedup_ops": ops_naive / pulls if pulls else math.inf,
        "setup_ms": trace.setup_ms,
        "wall_ms": wall_ms,
        "warning": trace.warning,
    }
