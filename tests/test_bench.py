"""Experiment drivers: the validation grid and the comparison sweep."""

import csv
import hashlib
import json
import math
from types import SimpleNamespace

import numpy as np
import pytest

from bandit_mips import arms, baselines, bench, elimination
from bandit_mips.baselines import naive_topk
from bandit_mips.bench import (
    LSH,
    ME,
    NAIVE,
    RunRecord,
    derive_seed,
    run_compare,
    run_query,
    run_validate,
)
from bandit_mips.datasets import gen_vectors
from bandit_mips.elimination import top_ids
from bandit_mips.fileio import write_dataset
from bandit_mips.mips import ObjectiveKind, Query, VectorSet, mips_topk, reward_range
from dominance import me_dominates


def test_derive_seed_deterministic_and_sensitive():
    assert derive_seed(3, 1, 4) == derive_seed(3, 1, 4)
    assert derive_seed(3, 1, 4) != derive_seed(3, 1, 5)
    assert derive_seed(0) != derive_seed(1)


@pytest.mark.parametrize(
    "parts, index",
    [((1.5, 2), 0), ((3, 2.0), 1), ((3, 1, "4"), 2), ((None,), 0), ((True, 2), 0), ((3, False), 1)],
)
def test_derive_seed_rejects_a_non_integer_part(parts, index):
    # int() used to truncate it: derive_seed(1.5, 2) was derive_seed(1, 2),
    # and derive_seed(True, 2) too
    with pytest.raises(TypeError, match=rf"^derive_seed part {index} must be an integer, not "):
        derive_seed(*parts)
    assert derive_seed(np.int64(3), 1) == derive_seed(3, 1)


def test_top_ids_tie_break():
    assert top_ids(np.array([0.5, 0.9, 0.5, 0.9]), 3).tolist() == [1, 3, 0]
    # +0.0 and -0.0 tie; k may equal the length
    signed_zeros = np.array([0.0, -0.0, 1.0, -0.0, 0.0, -1.0])
    assert top_ids(signed_zeros, 6).tolist() == [2, 0, 1, 3, 4, 5]
    assert top_ids(-signed_zeros, 6).tolist() == [5, 0, 1, 3, 4, 2]


def test_run_record_speedup():
    rec = RunRecord(
        method=ME, params={}, k=1, epsilon=0.1, delta=0.1, seed=0,
        returned=[0], precision=1.0, suboptimality=0.0,
        pulls_total=250, ops_naive=1000, wall_ms=0.0,
    )
    assert rec.ops_naive / rec.pulls_total == pytest.approx(4.0)
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
    rows = [json.loads(line) for line in out.read_text().splitlines()]
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


def test_validate_plans_each_cell_once(monkeypatch):
    # every run of a cell searches on the same plan, made through
    # round_pull_target once per round, not once per run
    calls = []
    honest = elimination.round_pull_target

    def spy(*args, **kwargs):
        calls.append(args)
        return honest(*args, **kwargs)

    monkeypatch.setattr(elimination, "round_pull_target", spy)
    report = run_validate([0.2, 0.4], [0.1, 0.3], n=40, list_len=400, runs=5, seed=11)
    rounds = [rec.params["rounds"] for rec in report.records]
    per_cell = rounds[::5]
    assert all(r == per_cell[c // 5] for c, r in enumerate(rounds))
    assert min(per_cell) > 1
    assert len(calls) == sum(per_cell)


@pytest.mark.parametrize("k", [0, 4])
def test_validate_k_outside_one_to_n_rejected(k):
    # rejected before any instance is drawn, with both values in the message
    with pytest.raises(ValueError, match=rf"k = {k}\b.*n = 3\b"):
        run_validate([0.3], [0.1], n=3, list_len=10, k=k, runs=1)


@pytest.mark.parametrize(
    "epsilons, deltas, error",
    [
        ([0.1, -1.0], [0.1], ValueError),
        ([0.1], [0.1, 0.2, 1.5], ValueError),
        ([0.1, 0.2], [0.1, "0.2"], TypeError),
        ([True], [0.1], TypeError),
    ],
)
def test_validate_checks_the_whole_grid_before_any_search(monkeypatch, epsilons, deltas, error):
    # a bad value anywhere in the grid, a bool included, raises before the
    # first cell draws an instance
    searched = []
    monkeypatch.setattr(bench, "gen_adversarial", lambda *args: searched.append(args))
    with pytest.raises(error, match=r"^(epsilons|deltas)\[\d\] "):
        run_validate(epsilons, deltas, n=50, list_len=100, runs=5)
    assert searched == []


def test_validate_empty_grid_rejected():
    for epsilons, deltas, name in (([], [0.1], "epsilons"), ([0.1], [], "deltas")):
        with pytest.raises(ValueError, match=rf"^{name} is empty; the grid needs at least one"):
            run_validate(epsilons, deltas, n=5, list_len=10, runs=1)


def test_validate_deterministic_records():
    a = run_validate([0.3], [0.1], n=25, list_len=250, runs=4, seed=77)
    b = run_validate([0.3], [0.1], n=25, list_len=250, runs=4, seed=77)
    assert [r.row() for r in a.records] == [r.row() for r in b.records]


def test_validate_jsonl_is_byte_identical(tmp_path):
    # The results file is a pure function of its arguments.  A change that
    # alters adversarial answers on purpose re-records this hash, and says
    # why, in CHANGES.md.
    out = tmp_path / "v.jsonl"
    run_validate([0.1, 0.3, 0.5], [0.05, 0.2], n=500, list_len=5000, runs=20, seed=7, out=out)
    digest = hashlib.sha256(out.read_bytes()).hexdigest()
    assert digest == "027bcca1c0e558981191f36297f5f207ec48bba770010015430995a16733960b"


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
        assert r.ops_naive / r.pulls_total == pytest.approx(1.0)
    (naive_curve,) = [r for r in rep.curve if r["method"] == NAIVE]
    assert naive_curve["knob"] == "exhaustive"
    assert naive_curve["precision"] == pytest.approx(1.0)
    assert naive_curve["speedup_ops"] == pytest.approx(1.0)
    # out= persists the curve, not the per-run records
    with open(out, newline="") as fh:
        saved = list(csv.DictReader(fh))
    assert [(r["method"], r["knob"]) for r in saved] == [
        (r["method"], r["knob"]) for r in rep.curve
    ]


def test_compare_me_pull_bound_and_speedup(small_instance):
    vs, queries = small_instance
    rep = run_compare(vs, queries, 2, methods=(NAIVE, ME), me_eps_fracs=(0.3, 1.0), seed=4)
    for r in rep.records:
        if r.method == ME:
            assert r.pulls_total <= vs.n * vs.dim
            assert r.ops_naive / r.pulls_total >= 1.0
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
    # the delta rule names the bad entry of the list, the last one here,
    # and words its range apart from the integer check of the LSH widths
    if name == "me_deltas":
        said = rf"\[{len(kwargs[name]) - 1}\] = {value} must lie in \(0, 1\)"
    else:
        said = rf" = {value} must lie in \[1, inf\]"
    with pytest.raises(ValueError, match=rf"^{name}{said}$"):
        run_compare(vs, queries, 2, **{"methods": (NAIVE, ME), **kwargs})
    assert searched == []


@pytest.mark.parametrize(
    "kwargs, name, value",
    [
        ({"me_eps_fracs": (0.5, "0.5")}, "me_eps_fracs", "'0.5'"),
        ({"me_eps_fracs": (True,)}, "me_eps_fracs", "True"),
        ({"me_epsilons": (0.1, None)}, "me_epsilons", "None"),
        ({"me_epsilons": (1j,)}, "me_epsilons", "1j"),
        ({"me_deltas": ("0.1",)}, "me_deltas", "'0.1'"),
        ({"me_deltas": (False,)}, "me_deltas", "False"),
    ],
)
def test_compare_non_real_sweep_value_rejected_before_any_query(
    small_instance, monkeypatch, kwargs, name, value
):
    # a string used to run through float() or fail a comparison unnamed;
    # the message names the bad entry, the last one here, and its type
    searched = []
    monkeypatch.setattr(bench, "naive_topk", lambda *args: searched.append(args))
    vs, queries = small_instance
    bad = kwargs[name][-1]
    said = rf"\[{len(kwargs[name]) - 1}\] must be a real number, not {type(bad).__name__} {value}"
    with pytest.raises(TypeError, match=rf"^{name}{said}$"):
        run_compare(vs, queries, 2, methods=(NAIVE, ME), **kwargs)
    assert searched == []


def test_compare_unknown_method_rejected(small_instance):
    vs, queries = small_instance
    with pytest.raises(ValueError):
        run_compare(vs, queries, 2, methods=("annoy",))


def test_compare_needs_a_query(small_instance):
    with pytest.raises(ValueError, match="^need at least one query$"):
        run_compare(small_instance[0], [], 2)


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
    write_dataset(qpath, VectorSet(q[None, :]))
    out = run_query(dpath, qpath, 3, epsilon=1e-9, delta=0.1, seed=2)
    # float32 storage perturbs scores, so compare against the stored matrix
    from bandit_mips.baselines import naive_topk
    from bandit_mips.fileio import read_dataset, read_query

    truth = naive_topk(read_dataset(dpath), read_query(qpath), 3).topk_ids
    assert out["ids"] == truth
    assert out["speedup_ops"] >= 1.0
    assert out["warning"] is None
    assert len(out["estimated_scores"]) == 3


def test_run_query_reports_the_range_width_epsilon_is_measured_against(tmp_path):
    from bandit_mips.fileio import read_dataset, read_query

    rng = np.random.default_rng(73)
    dpath, qpath, zero = tmp_path / "d.bin", tmp_path / "q.bin", tmp_path / "z.bin"
    write_dataset(dpath, VectorSet(rng.standard_normal((12, 30))))
    write_dataset(qpath, VectorSet(rng.standard_normal((1, 30))))
    write_dataset(zero, VectorSet(np.zeros((1, 30))))
    for kind in ObjectiveKind:
        lo, hi = reward_range(read_dataset(dpath), read_query(qpath), kind)
        out = run_query(dpath, qpath, 3, epsilon=0.1, delta=0.1, kind=kind)
        assert out["range_width"] == hi - lo > 0.0
    # no search runs at K = n or on a zero-width range
    assert run_query(dpath, qpath, 12, epsilon=0.1, delta=0.1)["range_width"] is None
    assert run_query(dpath, zero, 3, epsilon=0.1, delta=0.1)["range_width"] is None


def test_run_query_degenerate_zero_query(tmp_path):
    dpath, qpath = tmp_path / "d.bin", tmp_path / "q.bin"
    write_dataset(dpath, VectorSet(np.ones((4, 3))))
    write_dataset(qpath, VectorSet(np.zeros((1, 3))))
    out = run_query(dpath, qpath, 2, epsilon=0.1, delta=0.1)
    assert out["ids"] == [0, 1]
    assert out["warning"] is not None


def test_run_query_times_the_permuted_copy_apart_from_the_search(tmp_path, monkeypatch):
    # the copy is built in the search's build_arms, which mips_topk times
    # as trace.setup_ms; run_query reports it apart from the rest
    seen = []

    def spy(vectors, *args, **kwargs):
        result = mips_topk(vectors, *args, **kwargs)
        seen.append((vectors._permuted is not None, result[1].setup_ms))
        return result

    monkeypatch.setattr(bench, "mips_topk", spy)
    rng = np.random.default_rng(72)
    dpath, qpath, zero = tmp_path / "d.bin", tmp_path / "q.bin", tmp_path / "z.bin"
    write_dataset(dpath, VectorSet(rng.standard_normal((12, 30))))
    write_dataset(qpath, VectorSet(rng.standard_normal((1, 30))))
    write_dataset(zero, VectorSet(np.zeros((1, 30))))
    out = run_query(dpath, qpath, 3, epsilon=0.1, delta=0.1, seed=2)
    ((built, setup_ms),) = seen
    assert built and out["setup_ms"] == setup_ms > 0.0 and out["wall_ms"] > 0.0
    # K = n and a zero-width range answer without arms: no copy, no set-up
    for path, k in ((qpath, 12), (zero, 3)):
        seen.clear()
        out = run_query(dpath, path, k, epsilon=0.1, delta=0.1)
        assert seen == [(False, 0.0)]
        assert out["setup_ms"] == 0.0
        assert out["ids"] == list(range(k))  # unranked: no means to rank by
        assert out["estimated_scores"] is None
    with pytest.raises(ValueError):
        run_query(dpath, qpath, 13, epsilon=0.1, delta=0.1)
    with pytest.raises(TypeError, match="k must be an integer"):
        run_query(dpath, qpath, 2.0, epsilon=0.1, delta=0.1)


def test_run_query_leaves_every_check_and_exit_to_mips_topk(tmp_path, monkeypatch):
    # run_query reads, searches and summarises: it keeps no copy of the
    # k check, the reward range or the permuted copy's build
    for name in ("checked_int", "reward_range"):
        monkeypatch.setattr(bench, name, None)
    builds = []
    honest = VectorSet.permuted
    monkeypatch.setattr(VectorSet, "permuted", lambda self: builds.append(1) or honest(self))
    rng = np.random.default_rng(74)
    dpath, qpath = tmp_path / "d.bin", tmp_path / "q.bin"
    write_dataset(dpath, VectorSet(rng.standard_normal((12, 30))))
    write_dataset(qpath, VectorSet(rng.standard_normal((1, 30))))
    out = run_query(dpath, qpath, 3, epsilon=0.1, delta=0.1)
    assert builds == [1]  # the search's own build_arms
    assert out["range_width"] > 0.0 and out["setup_ms"] > 0.0
    out = run_query(dpath, qpath, 12, epsilon=0.1, delta=0.1)
    assert builds == [1]
    assert out["range_width"] is None and out["setup_ms"] == 0.0


def test_compare_scans_each_query_once_for_truth_and_means(small_instance, monkeypatch):
    # naive-only distance compare of 5 queries: one warm-up scan, one
    # reference scan per query (its ids and its means) and one timed
    # exhaustive run per query; a separate true-means pass would add 5.
    # The spy stands in for the scorer in every module that imports it.
    vs = small_instance[0]
    queries = [Query(gen_vectors("uniform", 1, vs.dim, seed=200 + i).data[0]) for i in range(5)]
    real, scans = baselines.exact_sums, []

    def spy(matrix, query, kind, rows=None):
        scans.append(rows is None and matrix is vs.data)
        return real(matrix, query, kind, rows)

    monkeypatch.setattr(baselines, "exact_sums", spy)
    monkeypatch.setattr(arms, "exact_sums", spy)
    rep = run_compare(vs, queries, 3, methods=(NAIVE,), kind=ObjectiveKind.NEG_SQ_DISTANCE)
    assert scans == [True] * 11
    for rec, query in zip(rep.records, queries):
        assert rec.suboptimality == 0.0
        assert rec.returned == naive_topk(vs, query, 3, ObjectiveKind.NEG_SQ_DISTANCE).topk_ids
