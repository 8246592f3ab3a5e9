"""Command-line surface: subcommands, formats, exit codes."""

import csv
import json

import numpy as np
import pytest

from bandit_mips.cli import main
from bandit_mips.fileio import read_dataset, write_dataset
from bandit_mips.mips import VectorSet


def test_gen_then_query_round_trip(tmp_path, capsys):
    data = tmp_path / "d.bin"
    query = tmp_path / "q.bin"
    assert main(["gen", "--out", str(data), "--n", "20", "--dim", "30", "--seed", "1"]) == 0
    assert main(["gen", "--out", str(query), "--n", "1", "--dim", "30", "--seed", "2"]) == 0
    capsys.readouterr()

    code = main([
        "query", "--data", str(data), "--query", str(query),
        "--k", "3", "--epsilon", "0", "--delta", "0.1",
    ])
    assert code == 0
    out = json.loads(capsys.readouterr().out)
    assert len(out["ids"]) == 3
    assert out["speedup_ops"] >= 1.0

    vs = read_dataset(data)
    assert vs.n == 20 and vs.dim == 30


def test_gen_csv_suffix_writes_text(tmp_path):
    path = tmp_path / "d.csv"
    assert main(["gen", "--out", str(path), "--n", "3", "--dim", "4"]) == 0
    assert read_dataset(path).data.shape == (3, 4)
    assert "," in path.read_text().splitlines()[0]


def test_query_csv_format(tmp_path, capsys):
    data, query = tmp_path / "d.bin", tmp_path / "q.bin"
    rng = np.random.default_rng(0)
    write_dataset(data, VectorSet(rng.standard_normal((8, 12))))
    write_dataset(query, VectorSet(rng.standard_normal((1, 12))))
    capsys.readouterr()
    code = main([
        "query", "--data", str(data), "--query", str(query),
        "--k", "2", "--format", "csv",
    ])
    assert code == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "id,estimated_score"
    assert len(lines) == 3
    # K = n answers without means: every id in id order, no score
    code = main([
        "query", "--data", str(data), "--query", str(query),
        "--k", "8", "--format", "csv",
    ])
    assert code == 0
    assert capsys.readouterr().out == "id,estimated_score\r\n" + "".join(
        f"{i},\r\n" for i in range(8)
    )


def test_validate_passing_grid_exit_zero(tmp_path, capsys):
    out = tmp_path / "v.jsonl"
    code = main([
        "validate", "--epsilons", "0.5", "--deltas", "0.3",
        "--n", "30", "--dim", "300", "--runs", "4", "--seed", "3",
        "--out", str(out),
    ])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["all_passed"] is True
    assert len(payload["cells"]) == 1
    assert len(out.read_text().splitlines()) == 4


def test_validate_k_exceeds_n_exit_two(capsys):
    code = main([
        "validate", "--n", "3", "--k", "5", "--dim", "10",
        "--epsilons", "0.3", "--deltas", "0.1", "--runs", "1",
    ])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:")
    assert "k = 5" in captured.err and "n = 3" in captured.err


def test_validate_failing_cell_exit_one(monkeypatch, capsys):
    # a genuinely failing cell is unreachable at sane parameters (tight
    # epsilon just forces exhaustion, which is exact), so the exit-code
    # contract is checked against a stubbed report
    import bandit_mips.cli as cli_mod
    from bandit_mips.bench import ValidateCell, ValidateReport

    def fake_validate(*args, **kwargs):
        cell = ValidateCell(
            epsilon=0.1, delta=0.1, percentile_suboptimality=0.5,
            failure_fraction=1.0, passed=False,
        )
        return ValidateReport(records=[], cells=[cell], all_passed=False)

    monkeypatch.setattr(cli_mod, "run_validate", fake_validate)
    code = main(["validate", "--epsilons", "0.1", "--deltas", "0.1"])
    assert code == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["all_passed"] is False
    assert payload["cells"][0]["passed"] is False


def test_validate_csv_format(capsys):
    code = main([
        "validate", "--epsilons", "0.6", "--deltas", "0.3",
        "--n", "20", "--dim", "100", "--runs", "3", "--format", "csv",
    ])
    assert code == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0].startswith("epsilon,delta,percentile_suboptimality")
    assert len(lines) == 2


def test_compare_small_sweep(tmp_path, capsys):
    data = tmp_path / "d.bin"
    curve_path = tmp_path / "curve.csv"
    main(["gen", "--out", str(data), "--n", "15", "--dim", "60", "--seed", "5"])
    capsys.readouterr()
    code = main([
        "compare", "--data", str(data), "--queries", "2", "--k", "2",
        "--eps-fracs", "0.5,2.0", "--lsh-a", "2", "--lsh-b", "1,3",
        "--seed", "6", "--out", str(curve_path),
    ])
    assert code == 0
    with open(curve_path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    methods = {r["method"] for r in rows}
    assert methods == {"naive", "median_elimination", "lsh"}
    stdout_lines = capsys.readouterr().out.strip().splitlines()
    assert stdout_lines[0] == "method,knob,precision,speedup_ops,speedup_wall"
    assert len(stdout_lines) == len(rows) + 1


def test_compare_generates_when_no_data(capsys):
    code = main([
        "compare", "--n", "12", "--dim", "50", "--queries", "2", "--k", "1",
        "--eps-fracs", "1.0", "--lsh-a", "2", "--lsh-b", "2",
        "--format", "json",
    ])
    assert code == 0
    rows = json.loads(capsys.readouterr().out)
    assert any(r["method"] == "naive" for r in rows)


@pytest.mark.parametrize(
    "flags, name",
    [
        (["--methods", "me", "--eps-fracs", ""], "me_eps_fracs"),
        (["--deltas", ""], "me_deltas"),
        (["--methods", "lsh", "--lsh-a", ""], "lsh_a"),
        (["--lsh-b", ""], "lsh_b"),
    ],
)
def test_compare_empty_sweep_list_exit_two(flags, name, capsys):
    code = main(["compare", "--n", "12", "--dim", "50", "--queries", "2", "--k", "1", *flags])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:") and name in captured.err


@pytest.mark.parametrize("flag", ["--eps-fracs=0.5,-1", "--epsilons=nan"])
def test_compare_bad_epsilon_exit_two(flag, capsys):
    code = main(["compare", "--n", "12", "--dim", "50", "--queries", "2", "--k", "1", flag])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:") and "must be finite" in captured.err


@pytest.mark.parametrize(
    "flags, name",
    [
        pytest.param(
            ["--deltas=0.1,7"], "me_deltas[1] = 7.0 must lie in (0, 1)", id="me_deltas-7.0"
        ),
        (["--lsh-b=0"], "lsh_b = 0 must lie in [1, inf]"),
    ],
)
def test_compare_bad_delta_or_lsh_width_exit_two(flags, name, capsys):
    code = main(["compare", "--n", "12", "--dim", "50", "--queries", "2", "--k", "1", *flags])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:") and name in captured.err


def test_compare_unset_sweep_flags_take_run_compare_defaults(monkeypatch):
    import bandit_mips.cli as cli_mod
    from bandit_mips.bench import CompareReport

    seen = {}

    def spy(*args, **kwargs):
        seen.clear()
        seen.update(kwargs)
        return CompareReport(records=[], curve=[])

    monkeypatch.setattr(cli_mod, "run_compare", spy)
    base = ["compare", "--n", "12", "--dim", "50", "--queries", "2"]
    assert main(base) == 0
    sweep = {"methods", "me_epsilons", "me_eps_fracs", "me_deltas", "lsh_a", "lsh_b"}
    assert not sweep & seen.keys()
    assert main([*base, "--methods", "me", "--deltas", "0.2", "--lsh-a", "2", "--lsh-b", "3"]) == 0
    assert (seen["methods"], seen["me_deltas"], seen["lsh_a"], seen["lsh_b"]) == (
        ["median_elimination"], [0.2], [2], [3]
    )


def test_compare_lsh_with_distance_objective_exit_two(capsys):
    code = main([
        "compare", "--n", "12", "--dim", "50", "--queries", "2", "--k", "1",
        "--objective", "neg_sq_distance",
    ])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:") and "inner product" in captured.err
    code = main([
        "compare", "--n", "12", "--dim", "50", "--queries", "2", "--k", "1",
        "--objective", "neg_sq_distance", "--methods", "naive,me", "--format", "json",
    ])
    assert code == 0
    assert {r["method"] for r in json.loads(capsys.readouterr().out)} == {
        "naive", "median_elimination"
    }


def test_missing_file_exit_two(tmp_path, capsys):
    code = main([
        "query", "--data", str(tmp_path / "nope.bin"),
        "--query", str(tmp_path / "nope2.bin"), "--k", "1",
    ])
    assert code == 2
    assert "error:" in capsys.readouterr().err


def test_corrupt_file_exit_two(tmp_path, capsys):
    bad = tmp_path / "bad.bin"
    bad.write_bytes(b"not a dataset")
    code = main(["compare", "--data", str(bad), "--queries", "1"])
    assert code == 2
    assert "error:" in capsys.readouterr().err


def test_unknown_method_usage_error(tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["compare", "--methods", "annoy"])
    assert exc.value.code == 2


def test_methods_skip_blank_parts(monkeypatch):
    import bandit_mips.cli as cli_mod
    from bandit_mips.bench import CompareReport

    seen = []

    def spy(*args, **kwargs):
        seen.append(kwargs["methods"])
        return CompareReport(records=[], curve=[])

    monkeypatch.setattr(cli_mod, "run_compare", spy)
    assert main(["compare", "--n", "4", "--dim", "3", "--queries", "1",
                 "--methods", "me,, naive,"]) == 0
    assert seen == [["median_elimination", "naive"]]


@pytest.mark.parametrize("text", ["", ",", " , "])
def test_methods_need_at_least_one(text, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["compare", "--methods", text])
    assert exc.value.code == 2
    assert "need at least one method" in capsys.readouterr().err


def test_bad_float_list_usage_error():
    with pytest.raises(SystemExit) as exc:
        main(["validate", "--epsilons", "0.1,zebra"])
    assert exc.value.code == 2
