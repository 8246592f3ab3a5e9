"""Experiment drivers: the validation grid and the comparison sweep."""

import math
from types import SimpleNamespace

import numpy as np
import pytest

from bandit_mips import bench
from bandit_mips.bench import (
    LSH,
    ME,
    NAIVE,
    RunRecord,
    derive_seed,
    me_dominates,
    run_compare,
    run_query,
    run_validate,
    top_ids,
)
from bandit_mips.datasets import gen_vectors
from bandit_mips.fileio import read_curve, read_results, write_dataset, write_query
from bandit_mips.mips import ObjectiveKind, Query, VectorSet


def test_derive_seed_deterministic_and_sensitive():
    assert derive_seed(3, 1, 4) == derive_seed(3, 1, 4)
    assert derive_seed(3, 1, 4) != derive_seed(3, 1, 5)
    assert derive_seed(0) != derive_seed(1)


def test_top_ids_tie_break():
    assert top_ids(np.array([0.5, 0.9, 0.5, 0.9]), 3) == [1, 3, 0]


def test_run_record_speedup():
    rec = RunRecord(
        method=ME, params={}, k=1, epsilon=0.1, delta=0.1, seed=0,
        returned=[0], precision=1.0, suboptimality=0.0,
        pulls_total=250, ops_naive=1000, wall_ms=0.0,
    )
    assert rec.speedup_ops == pytest.approx(4.0)
    assert rec.row()["pulls_total"] == 250


# --- run_validate ------------------------------------------------------------


def test_validate_small_grid_mechanics(tmp_path):
    out = tmp_path / "v.jsonl"
    report = run_validate(
        [0.3, 0.6], [0.1, 0.3], n=40, list_len=400, runs=5, seed=123, out=out,
    )
    assert len(report.cells) == 4
    assert len(report.records) == 4 * 5
    for cell in report.cells:
        assert cell.passed == (cell.percentile_suboptimality <= cell.epsilon)
        assert 0.0 <= cell.failure_fraction <= 1.0
    # the results file mirrors the in-memory records
    rows = read_results(out)
    assert len(rows) == 20
    assert rows[0]["method"] == ME
    assert all(row["wall_ms"] == 0.0 for row in rows)


def test_validate_pull_bound_and_trace_params():
    report = run_validate([0.4], [0.2], n=30, list_len=300, runs=4, seed=5)
    for rec in report.records:
        assert rec.params["max_arm_pulls"] <= 300
        assert rec.pulls_total <= 30 * 300
        assert rec.suboptimality >= 0.0


def test_validate_zero_epsilon_degenerate_cell():
    # epsilon 0 forces exhaustion: exact means, zero suboptimality
    report = run_validate([0.0], [0.2], n=12, list_len=60, runs=3, seed=9)
    (cell,) = report.cells
    assert cell.percentile_suboptimality == 0.0
    assert cell.passed
    for rec in report.records:
        assert rec.suboptimality == 0.0
        assert rec.params["max_arm_pulls"] == 60


@pytest.mark.parametrize("k", [0, 4])
def test_validate_k_outside_one_to_n_rejected(k):
    # rejected before any instance is drawn, with both values in the message
    with pytest.raises(ValueError, match=rf"k = {k}\b.*n = 3\b"):
        run_validate([0.3], [0.1], n=3, list_len=10, k=k, runs=1)


def test_validate_deterministic_records():
    a = run_validate([0.3], [0.1], n=25, list_len=250, runs=4, seed=77)
    b = run_validate([0.3], [0.1], n=25, list_len=250, runs=4, seed=77)
    assert [r.row() for r in a.records] == [r.row() for r in b.records]


# --- run_compare -------------------------------------------------------------


@pytest.fixture(scope="module")
def small_instance():
    vs = gen_vectors("gaussian", 30, 120, seed=8)
    queries = [Query(gen_vectors("gaussian", 1, 120, seed=100 + i).data[0])
               for i in range(3)]
    return vs, queries


def test_compare_naive_reference_rows(small_instance, tmp_path):
    vs, queries = small_instance
    out = tmp_path / "curve.csv"
    rep = run_compare(
        vs, queries, 3,
        me_eps_fracs=(0.5, 2.0), lsh_a=(2, 4), lsh_b=(1, 4), seed=3, out=out,
    )
    naive_rows = [r for r in rep.records if r.method == NAIVE]
    assert len(naive_rows) == len(queries)
    for r in naive_rows:
        assert r.precision == 1.0
        assert r.suboptimality == 0.0
        assert r.speedup_ops == pytest.approx(1.0)
    (naive_curve,) = [r for r in rep.curve if r["method"] == NAIVE]
    assert naive_curve["knob"] == "exhaustive"
    assert naive_curve["precision"] == pytest.approx(1.0)
    assert naive_curve["speedup_ops"] == pytest.approx(1.0)
    # out= persists the curve, not the per-run records
    saved = read_curve(out)
    assert [(r["method"], r["knob"]) for r in saved] == [
        (r["method"], r["knob"]) for r in rep.curve
    ]


def test_compare_me_pull_bound_and_speedup(small_instance):
    vs, queries = small_instance
    rep = run_compare(vs, queries, 2, methods=(NAIVE, ME), me_eps_fracs=(0.3, 1.0), seed=4)
    for r in rep.records:
        if r.method == ME:
            assert r.pulls_total <= vs.n * vs.dim
            assert r.speedup_ops >= 1.0
            assert 0.0 <= r.precision <= 1.0


def test_compare_curve_sorted_by_method_then_knob(small_instance):
    vs, queries = small_instance
    rep = run_compare(vs, queries, 2, me_eps_fracs=(2.0, 0.5), lsh_a=(4, 2), lsh_b=(4, 1), seed=5)
    methods = [r["method"] for r in rep.curve]
    assert methods == sorted(methods)
    lsh_knobs = [r["knob"] for r in rep.curve if r["method"] == LSH]
    assert lsh_knobs == ["a=2,b=1", "a=2,b=4", "a=4,b=1", "a=4,b=4"]
    me_knobs = [r["knob"] for r in rep.curve if r["method"] == ME]
    assert me_knobs == sorted(me_knobs, key=lambda s: float(s.split("=")[1].split(",")[0]))


def test_compare_absolute_epsilons(small_instance):
    vs, queries = small_instance
    rep = run_compare(vs, queries, 2, methods=(NAIVE, ME), me_epsilons=(0.05,), seed=6)
    me_rows = [r for r in rep.records if r.method == ME]
    assert all(r.epsilon == 0.05 for r in me_rows)
    (knob,) = {r["knob"] for r in rep.curve if r["method"] == ME}
    assert knob.startswith("epsilon=0.05")


def _knob(rec):
    """The curve knob a record belongs to, rebuilt from its params."""
    if rec.method == NAIVE:
        return "exhaustive"
    if rec.method == ME:
        return f"eps_frac={rec.params['eps_frac']:g},delta={rec.delta:g}"
    return f"a={rec.params['a']},b={rec.params['b']}"


def test_compare_curve_rows_aggregate_their_records(small_instance):
    vs, queries = small_instance
    rep = run_compare(
        vs, queries, 3,
        me_eps_fracs=(0.5, 2.0), me_deltas=(0.1, 0.3), lsh_a=(2, 4), lsh_b=(1, 4), seed=3,
    )
    ops_naive = vs.n * vs.dim
    groups = {}
    for rec in rep.records:
        groups.setdefault((rec.method, _knob(rec)), []).append(rec)
    assert sorted(groups) == sorted((row["method"], row["knob"]) for row in rep.curve)
    assert len(rep.curve) == 1 + 2 * 2 + 2 * 2
    for row in rep.curve:
        group = groups[(row["method"], row["knob"])]
        assert [rec.params["query"] for rec in group] == list(range(len(queries)))
        assert row["precision"] == pytest.approx(
            sum(rec.precision for rec in group) / len(group), rel=1e-12
        )
        assert row["speedup_ops"] == pytest.approx(
            ops_naive * len(queries) / sum(rec.pulls_total for rec in group), rel=1e-12
        )
    (naive_row,) = [row for row in rep.curve if row["method"] == NAIVE]
    assert naive_row["precision"] == 1.0
    assert naive_row["speedup_ops"] == 1.0


@pytest.mark.parametrize(
    "kwargs, name",
    [
        ({"methods": (ME,), "me_eps_fracs": ()}, "me_eps_fracs"),
        ({"methods": (ME,), "me_epsilons": ()}, "me_epsilons"),
        ({"methods": (ME,), "me_deltas": ()}, "me_deltas"),
        ({"methods": (LSH,), "lsh_a": ()}, "lsh_a"),
        ({"methods": (LSH,), "lsh_b": ()}, "lsh_b"),
    ],
)
def test_compare_empty_sweep_list_rejected(small_instance, kwargs, name):
    vs, queries = small_instance
    with pytest.raises(ValueError, match=name):
        run_compare(vs, queries, 2, **kwargs)
    # an empty list of a method that is not selected is never read
    others = tuple(m for m in (NAIVE, ME, LSH) if m not in kwargs["methods"])
    rep = run_compare(vs, queries, 2, **{**kwargs, "methods": others})
    assert {row["method"] for row in rep.curve} == set(others)


def test_compare_lsh_rejected_with_distance_objective(small_instance):
    vs, queries = small_instance
    with pytest.raises(ValueError, match="lsh.*inner product.*neg_sq_distance"):
        run_compare(vs, queries, 2, kind=ObjectiveKind.NEG_SQ_DISTANCE)
    rep = run_compare(
        vs, queries, 2, methods=(NAIVE, ME), me_eps_fracs=(0.5,),
        kind=ObjectiveKind.NEG_SQ_DISTANCE,
    )
    assert {row["method"] for row in rep.curve} == {NAIVE, ME}


def test_compare_reference_pass_is_warm(small_instance, monkeypatch):
    # a slow first search must not inflate the exhaustive row's wall speedup;
    # on a fake clock the first search takes 0.2 s and every later one 0.02 s
    real, clock = bench.naive_topk, [0.0]

    def slow_first(*args):
        clock[0] += 0.02 if clock[0] else 0.2
        return real(*args)

    monkeypatch.setattr(bench, "naive_topk", slow_first)
    monkeypatch.setattr(bench, "time", SimpleNamespace(perf_counter=lambda: clock[0]))
    vs, queries = small_instance
    rep = run_compare(vs, queries[:2], 2, methods=(NAIVE,))
    (row,) = rep.curve
    assert 0.5 <= row["speedup_wall"] <= 2.0


def test_compare_builds_permuted_copy_before_timing(small_instance, monkeypatch):
    # the bandit's one-time column-permuted copy is set-up, not a query cost
    vs, queries = VectorSet(small_instance[0].data), small_instance[1]
    real, copy_ready = bench.mips_topk, []

    def spy(vectors, *args, **kwargs):
        copy_ready.append(vectors._permuted is not None)
        return real(vectors, *args, **kwargs)

    monkeypatch.setattr(bench, "mips_topk", spy)
    run_compare(vs, queries, 2, methods=(ME,), me_eps_fracs=(0.5,))
    assert copy_ready == [True] * len(queries)


def test_compare_zero_query_takes_the_first_k(small_instance):
    # a zero query's reward range has zero width, so every fraction is epsilon 0
    vs = small_instance[0]
    rep = run_compare(vs, [Query(np.zeros(vs.dim))], 3, methods=(NAIVE, ME),
                      me_eps_fracs=(0.5, 1.0))
    bandit = [r for r in rep.records if r.method == ME]
    assert len(bandit) == 2
    for r in bandit:
        assert r.epsilon == 0.0
        assert r.returned == [0, 1, 2]
        assert r.pulls_total == 0


@pytest.mark.parametrize(
    "kwargs, name",
    [
        ({"me_eps_fracs": (0.5, -1.0)}, "me_eps_fracs"),
        ({"me_eps_fracs": (math.nan,)}, "me_eps_fracs"),
        ({"me_epsilons": (-0.1,)}, "me_epsilons"),
        ({"me_epsilons": (math.inf,)}, "me_epsilons"),
    ],
)
def test_compare_bad_epsilon_rejected_before_any_query(small_instance, monkeypatch, kwargs, name):
    # on a zero query every fraction scales to epsilon 0, so only an up-front
    # check can see a bad one; no search may run before it
    searched = []
    monkeypatch.setattr(bench, "naive_topk", lambda *args: searched.append(args))
    vs = small_instance[0]
    with pytest.raises(ValueError, match=name):
        run_compare(vs, [Query(np.zeros(vs.dim))], 3, methods=(NAIVE, ME), **kwargs)
    assert searched == []


@pytest.mark.parametrize(
    "kwargs, name, value",
    [
        ({"me_deltas": (0.1, 7.0)}, "me_deltas", "7.0"),
        ({"me_deltas": (0.0,)}, "me_deltas", "0.0"),
        ({"me_deltas": (math.nan,)}, "me_deltas", "nan"),
        ({"methods": (NAIVE, LSH), "lsh_a": (0, 4)}, "lsh_a", "0"),
        ({"methods": (NAIVE, LSH), "lsh_b": (-2,)}, "lsh_b", "-2"),
    ],
)
def test_compare_bad_delta_or_lsh_width_rejected_before_any_query(
    small_instance, monkeypatch, kwargs, name, value
):
    searched = []
    monkeypatch.setattr(bench, "naive_topk", lambda *args: searched.append(args))
    vs, queries = small_instance
    with pytest.raises(ValueError, match=rf"{name} holds {value}\b"):
        run_compare(vs, queries, 2, **{"methods": (NAIVE, ME), **kwargs})
    assert searched == []


def test_compare_unknown_method_rejected(small_instance):
    vs, queries = small_instance
    with pytest.raises(ValueError):
        run_compare(vs, queries, 2, methods=("annoy",))


def test_compare_deterministic(small_instance):
    vs, queries = small_instance
    a = run_compare(vs, queries, 2, me_eps_fracs=(0.5,), lsh_a=(3,), lsh_b=(2,), seed=11)
    b = run_compare(vs, queries, 2, me_eps_fracs=(0.5,), lsh_a=(3,), lsh_b=(2,), seed=11)
    key = lambda rep: [(r["method"], r["knob"], r["precision"], r["speedup_ops"]) for r in rep.curve]
    assert key(a) == key(b)


# --- me_dominates ------------------------------------------------------------


def curve_row(method, knob, prec, speed):
    return {"method": method, "knob": knob, "precision": prec,
            "speedup_ops": speed, "speedup_wall": 0.0}


def test_dominates_pass():
    curve = [
        curve_row(ME, "epsilon=1", 0.6, 12.0),
        curve_row(ME, "epsilon=2", 0.2, 50.0),
        curve_row(LSH, "a=4,b=1", 0.5, 10.0),
        curve_row(LSH, "a=8,b=1", 0.1, 45.0),
    ]
    ok, failures = me_dominates(curve, 5.0)
    assert ok and failures == []


def test_dominates_fails_when_lsh_wins():
    curve = [
        curve_row(ME, "epsilon=1", 0.3, 12.0),
        curve_row(LSH, "a=4,b=1", 0.5, 10.0),
    ]
    ok, failures = me_dominates(curve, 5.0)
    assert not ok
    assert len(failures) == 1


def test_dominates_ignores_slow_lsh_points():
    curve = [
        curve_row(ME, "epsilon=1", 0.1, 20.0),
        curve_row(LSH, "a=2,b=9", 0.99, 1.2),  # below the 5x gate
    ]
    ok, _ = me_dominates(curve, 5.0)
    assert ok


def test_dominates_requires_matched_me_point():
    # no ME point at or beyond the LSH speedup counts as a failure
    curve = [
        curve_row(ME, "epsilon=1", 0.9, 6.0),
        curve_row(LSH, "a=8,b=1", 0.05, 40.0),
    ]
    ok, failures = me_dominates(curve, 5.0)
    assert not ok
    assert "no" in failures[0] or "matched" in failures[0]


# --- run_query ---------------------------------------------------------------


def test_run_query_matches_naive(tmp_path):
    rng = np.random.default_rng(71)
    data = rng.standard_normal((12, 30))
    q = rng.standard_normal(30)
    dpath, qpath = tmp_path / "d.bin", tmp_path / "q.bin"
    write_dataset(dpath, VectorSet(data))
    write_query(qpath, Query(q))
    out = run_query(dpath, qpath, 3, epsilon=1e-9, delta=0.1, seed=2)
    # float32 storage perturbs scores, so compare against the stored matrix
    from bandit_mips.baselines import naive_topk
    from bandit_mips.fileio import read_dataset, read_query

    truth = naive_topk(read_dataset(dpath), read_query(qpath), 3).topk_ids
    assert out["ids"] == truth
    assert out["speedup_ops"] >= 1.0
    assert out["warning"] is None
    assert len(out["estimated_scores"]) == 3


def test_run_query_degenerate_zero_query(tmp_path):
    dpath, qpath = tmp_path / "d.bin", tmp_path / "q.bin"
    write_dataset(dpath, VectorSet(np.ones((4, 3))))
    write_query(qpath, Query(np.zeros(3)))
    out = run_query(dpath, qpath, 2, epsilon=0.1, delta=0.1)
    assert out["ids"] == [0, 1]
    assert out["warning"] is not None
