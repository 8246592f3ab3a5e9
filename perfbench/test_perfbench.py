"""Self-tests of the benchmark: tiny smoke runs of every workload, negative
controls for the checker, and traced names that do not exist.

    python3 -m pytest perfbench
"""

from __future__ import annotations

import dataclasses
import io
import json
import math
import os
from contextlib import redirect_stdout
from pathlib import Path

import numpy as np
import pytest

import run
import workloads
from tracing import Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

TINY = {
    "mips-gaussian-k5": dataclasses.replace(
        workloads.WORKLOADS["mips-gaussian-k5"], n=60, dim=400
    ),
    "nn-uniform-k10": dataclasses.replace(
        workloads.WORKLOADS["nn-uniform-k10"], n=60, dim=400
    ),
    "pac-adversarial": dataclasses.replace(
        workloads.WORKLOADS["pac-adversarial"], epsilons=(0.2, 0.5), deltas=(0.1, 0.3),
        n=40, list_len=300, runs=3, exhaustive_runs=2,
    ),
}


@pytest.fixture(scope="module")
def library():
    probe = workloads.SpeedProbe()
    lib, imports = workloads.load_library(ROOT / "src", probe, reps=2)
    return lib, imports, probe


def run_tiny(library, name, trace, tmp_path, seed=3):
    lib, imports, probe = library
    return workloads.run(name, lib, imports, probe, seed, 0.05, trace, tmp_path,
                         spec=TINY[name])


def test_benchmark_json_matches_metric_tables():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} == set(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == workloads.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == workloads.PER_LAYER


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_smoke_every_metric_present(library, name, trace, tmp_path):
    outcome = run_tiny(library, name, trace, tmp_path)
    expected = workloads.PER_LAYER if trace else workloads.END_TO_END
    assert set(outcome.metrics) == set(expected)
    assert all(math.isfinite(v) for v in outcome.metrics.values())
    assert outcome.checker.attempted > 0
    assert outcome.checker.failed == 0, outcome.checker.messages
    if not trace:
        assert all(v > 0 for v in outcome.metrics.values())
    else:
        assert (tmp_path / f"trace-{name}.jsonl").stat().st_size > 0


def test_command_prints_result_line_with_units(monkeypatch):
    monkeypatch.setitem(workloads.WORKLOADS, "pac-adversarial", TINY["pac-adversarial"])
    out = io.StringIO()
    with redirect_stdout(out):
        status = run.main(["--workload", "pac-adversarial", "--seed", "1",
                           "--seconds", "0.05", "--trace", "0"])
    assert status == 0
    result = json.loads(out.getvalue().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert {name: m["unit"] for name, m in result["metrics"].items()} == workloads.END_TO_END


def test_blas_threads_ignore_inherited_values(monkeypatch):
    for var, value in zip(run.BLAS_THREAD_VARS, ("1", "64", "x")):
        monkeypatch.setenv(var, value)
    run.set_blas_threads()
    cores = str(len(os.sched_getaffinity(0)))
    assert [os.environ[var] for var in run.BLAS_THREAD_VARS] == [cores] * 3


def test_unknown_workload_prints_no_result(capsys):
    assert run.main(["--workload", "nope", "--seed", "1", "--seconds", "1"]) == 2
    assert capsys.readouterr().out == ""


# --- negative controls --------------------------------------------------------


def test_checker_flags_corrupted_id_lists():
    assert workloads.topk_problems([3, 1, 4, 0, 2], 5, 10) == []
    assert workloads.topk_problems([3, 1, 4, 0], 5, 10)
    assert workloads.topk_problems([3, 1, 4, 4, 2], 5, 10)
    assert workloads.topk_problems([3, 1, 4, 10, 2], 5, 10)
    assert workloads.topk_problems([3, 1, 4, -1, 2], 5, 10)


def test_checker_flags_corrupted_pull_counts():
    assert workloads.pull_problems(1000, 100, n=10, dim=100) == []
    assert workloads.pull_problems(1001, 100, n=10, dim=100)
    assert workloads.pull_problems(500, 101, n=10, dim=100)


def test_checker_compares_exact_ids_with_its_own_argsort():
    scores = np.array([0.1, 0.9, 0.5, 0.7, 0.3])
    assert workloads.exact_problems([1, 3, 2], scores, 3) == []
    assert workloads.exact_problems([1, 3, 4], scores, 3)  # 4 is not in the top 3
    assert workloads.exact_problems([3, 1, 2], scores, 3)  # wrong order
    tied = np.array([0.9, 0.5, 0.5, 0.1])
    assert workloads.exact_problems([0, 2], tied, 2) == []  # a tie may go either way


def test_run_counts_a_corrupted_bandit_answer(library, tmp_path, monkeypatch):
    lib = library[0]
    honest = lib.mips_topk

    def corrupted(*args, **kwargs):
        ids, trace = honest(*args, **kwargs)
        return [ids[0]] * len(ids), trace

    monkeypatch.setattr(lib, "mips_topk", corrupted)
    outcome = run_tiny(library, "mips-gaussian-k5", False, tmp_path)
    assert outcome.checker.failed > 0
    assert outcome.report["failed_fraction"] > 0


def test_run_counts_a_corrupted_pull_count(library, tmp_path, monkeypatch):
    lib = library[0]
    honest = lib.run_validate

    def corrupted(*args, **kwargs):
        report = honest(*args, **kwargs)
        report.records[0].pulls_total = report.records[0].ops_naive + 1
        return report

    monkeypatch.setattr(lib, "run_validate", corrupted)
    outcome = run_tiny(library, "pac-adversarial", False, tmp_path)
    assert outcome.checker.failed > 0


# --- tracing ------------------------------------------------------------------


class _Layer:
    def outer(self):
        return self.inner() + 1

    def inner(self):
        return 1


def test_tracer_self_time_and_unwrap():
    tracer = Tracer()
    original = _Layer.inner
    assert tracer.wrap(_Layer, "outer", "outer")
    assert tracer.wrap(_Layer, "inner", "inner")
    assert _Layer().outer() == 2
    tracer.unwrap_all()
    assert _Layer.inner is original
    assert tracer.calls == {"inner": 1, "outer": 1}
    outer_span, inner_span = sorted(tracer.spans, key=lambda s: s[0] != "outer")
    assert inner_span[4] == outer_span[3]  # parent of inner is outer
    assert tracer.self_time["outer"] == pytest.approx(
        tracer.total["outer"] - tracer.total["inner"]
    )


def test_missing_traced_name_gives_absent_metric(library, tmp_path, monkeypatch):
    tracer = Tracer()
    assert not tracer.wrap(_Layer, "gone", "layer.gone")
    assert tracer.missing == {"layer.gone"}

    gone = {
        "arms.PositionSampler.draw": ("arms", "GoneSampler.draw"),
        "elimination.eliminate": ("no_such_module", "eliminate"),
    }
    renamed = tuple(
        (*gone.get(span, (module, path)), span, observe)
        for module, path, span, observe in workloads.TRACED
    )
    monkeypatch.setattr(workloads, "TRACED", renamed)
    outcome = run_tiny(library, "mips-gaussian-k5", True, tmp_path)
    absent = {"arms.sample_ms", "arms.densified_arms", "elimination.eliminate_ms"}
    assert set(outcome.metrics) == set(workloads.PER_LAYER) - absent
    assert outcome.checker.failed == 0
