"""Benchmark command line.

Subcommands: ``gen`` writes a synthetic dataset or query file, ``query``
answers one top-K query from files, ``validate`` runs the adversarial PAC
grid, ``compare`` sweeps methods on a dataset and emits trade-off curves.

Exit codes: 0 success, 1 a validation cell failed (for CI gating), 2 usage
or I/O errors.

Accuracy flags are on the per-coordinate mean scale: a returned set is
epsilon-good when its K-th best mean q.v/dim is within epsilon of optimal.
Multiply by --dim to express the same gap on the raw inner-product scale
(epsilon_ip = epsilon * dim).
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from dataclasses import asdict, fields

from .bench import LSH, ME, NAIVE, ValidateCell, run_compare, run_query, run_validate
from .datasets import VECTOR_DISTS, gen_vectors
from .fileio import CURVE_FIELDS, DatasetFormatError, read_dataset, write_dataset
from .mips import ObjectiveKind, Query

_METHOD_ALIASES = {"me": ME, ME: ME, "lsh": LSH, "naive": NAIVE}


def _number_list(cast):
    """argparse type: a comma-separated list of ``cast`` values (blank parts skipped)."""

    def parse(text: str) -> list:
        try:
            return [cast(part) for part in text.split(",") if part.strip()]
        except ValueError as exc:
            raise argparse.ArgumentTypeError(
                f"not a comma-separated {cast.__name__} list: {text!r}"
            ) from exc

    return parse


_floats = _number_list(float)
_ints = _number_list(int)


def _methods(text: str) -> list[str]:
    out = []
    for part in text.split(","):
        part = part.strip().lower()
        if not part:
            continue
        if part not in _METHOD_ALIASES:
            raise argparse.ArgumentTypeError(f"unknown method {part!r} (me, lsh, naive)")
        out.append(_METHOD_ALIASES[part])
    if not out:
        raise argparse.ArgumentTypeError("need at least one method")
    return out


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bandit-mips",
        description="Bounded-pull bandit search for maximum inner products, with baselines.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_gen = sub.add_parser("gen", help="write a synthetic dataset (use --n 1 for a query file)")
    p_gen.add_argument("--out", required=True, help="output path (.csv for text, else binary)")
    p_gen.add_argument("--n", type=int, default=1000, help="number of vectors")
    p_gen.add_argument("--dim", type=int, default=10000, help="vector dimension")
    p_gen.add_argument("--dist", choices=VECTOR_DISTS, default="gaussian")
    p_gen.add_argument("--seed", type=int, default=0)

    p_query = sub.add_parser("query", help="answer one top-K query from dataset + query files")
    p_query.add_argument("--data", required=True)
    p_query.add_argument("--query", required=True)
    p_query.add_argument("--k", type=int, default=5)
    p_query.add_argument(
        "--epsilon", type=float, default=0.1,
        help="mean-scale accuracy; epsilon_ip = epsilon * dim (0 = exact)",
    )
    p_query.add_argument("--delta", type=float, default=0.1, help="failure probability")
    p_query.add_argument(
        "--seed", type=int, default=0,
        help="picks the start offset into the data set's column permutation",
    )
    p_query.add_argument(
        "--objective", choices=[k.value for k in ObjectiveKind], default="inner_product"
    )
    p_query.add_argument("--format", choices=("json", "csv"), default="json")

    p_val = sub.add_parser("validate", help="adversarial PAC grid; exit 1 if any cell fails")
    p_val.add_argument("--epsilons", type=_floats, default=[0.1, 0.2, 0.3, 0.4, 0.5, 0.6])
    p_val.add_argument("--deltas", type=_floats, default=[0.05, 0.1, 0.2, 0.3])
    p_val.add_argument("--n", type=int, default=500, help="number of arms")
    p_val.add_argument("--dim", type=int, default=5000, help="reward-list length")
    p_val.add_argument("--k", type=int, default=1)
    p_val.add_argument("--runs", type=int, default=20)
    p_val.add_argument("--seed", type=int, default=0)
    p_val.add_argument("--out", help="JSONL results path")
    p_val.add_argument(
        "--record-wall", action="store_true",
        help="store real wall times (makes the results file non-reproducible)",
    )
    p_val.add_argument("--format", choices=("json", "csv"), default="json",
                       help="stdout format for the per-cell summary")

    p_cmp = sub.add_parser("compare", help="precision/speedup sweep of me, lsh, naive")
    p_cmp.add_argument("--data", help="dataset path; omit to generate with --n/--dim/--dist")
    p_cmp.add_argument("--n", type=int, default=1000)
    p_cmp.add_argument("--dim", type=int, default=10000)
    p_cmp.add_argument("--dist", choices=VECTOR_DISTS, default="gaussian")
    p_cmp.add_argument("--queries", type=int, default=20, help="number of random queries")
    p_cmp.add_argument("--k", type=int, default=5)
    grid = p_cmp.add_mutually_exclusive_group()
    grid.add_argument(
        "--epsilons", type=_floats, default=None,
        help="absolute mean-scale epsilon sweep for the bandit",
    )
    grid.add_argument(
        "--eps-fracs", type=_floats, default=None,
        help="epsilon sweep as fractions of each query's reward-range width (default grid)",
    )
    p_cmp.add_argument("--deltas", type=_floats)
    p_cmp.add_argument("--lsh-a", type=_ints, help="AND widths")
    p_cmp.add_argument("--lsh-b", type=_ints, help="OR widths")
    p_cmp.add_argument("--methods", type=_methods, help="me, lsh, naive (default: all)")
    p_cmp.add_argument(
        "--objective", choices=[k.value for k in ObjectiveKind], default="inner_product"
    )
    p_cmp.add_argument("--seed", type=int, default=0)
    p_cmp.add_argument("--out", help="curve CSV path")
    p_cmp.add_argument("--format", choices=("json", "csv"), default="csv",
                       help="stdout format for curve rows")
    return parser


def _print_rows(fmt: str, rows: list[dict], header, json_payload=None) -> None:
    """Print ``json_payload`` (default: the rows) as JSON, or the rows as CSV under ``header``."""
    if fmt == "json":
        print(json.dumps(rows if json_payload is None else json_payload, indent=2))
        return
    writer = csv.DictWriter(sys.stdout, fieldnames=header)
    writer.writeheader()
    writer.writerows(rows)


def _cmd_gen(args) -> int:
    write_dataset(args.out, gen_vectors(args.dist, args.n, args.dim, args.seed))
    print(f"wrote {args.n}x{args.dim} {args.dist} dataset to {args.out}")
    return 0


def _cmd_query(args) -> int:
    result = run_query(
        args.data,
        args.query,
        args.k,
        args.epsilon,
        args.delta,
        seed=args.seed,
        kind=ObjectiveKind(args.objective),
    )
    if args.format == "json":
        print(json.dumps(result, indent=2))
    else:
        writer = csv.writer(sys.stdout)
        writer.writerow(["id", "estimated_score"])
        scores = result["estimated_scores"] or [None] * len(result["ids"])
        for arm_id, score in zip(result["ids"], scores):
            writer.writerow([arm_id, score])
    return 0


def _cmd_validate(args) -> int:
    report = run_validate(
        args.epsilons,
        args.deltas,
        n=args.n,
        list_len=args.dim,
        k=args.k,
        runs=args.runs,
        seed=args.seed,
        out=args.out,
        record_wall=args.record_wall,
    )
    cells = [asdict(c) for c in report.cells]
    _print_rows(
        args.format,
        cells,
        [f.name for f in fields(ValidateCell)],
        {"cells": cells, "all_passed": report.all_passed},
    )
    if args.out:
        print(f"wrote {len(report.records)} run records to {args.out}", file=sys.stderr)
    return 0 if report.all_passed else 1


def _cmd_compare(args) -> int:
    if args.data:
        vectors = read_dataset(args.data)
    else:
        vectors = gen_vectors(args.dist, args.n, args.dim, args.seed)
    queries = [
        Query(gen_vectors(args.dist, 1, vectors.dim, args.seed + 1 + qi).data[0])
        for qi in range(args.queries)
    ]
    # Unset sweep flags take run_compare's default grid.
    sweep = {
        "methods": args.methods,
        "me_epsilons": args.epsilons,
        "me_eps_fracs": args.eps_fracs,
        "me_deltas": args.deltas,
        "lsh_a": args.lsh_a,
        "lsh_b": args.lsh_b,
    }
    report = run_compare(
        vectors,
        queries,
        args.k,
        seed=args.seed,
        kind=ObjectiveKind(args.objective),
        out=args.out,
        **{name: value for name, value in sweep.items() if value is not None},
    )
    _print_rows(args.format, report.curve, CURVE_FIELDS)
    if args.out:
        print(f"wrote {len(report.curve)} curve rows to {args.out}", file=sys.stderr)
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "gen": _cmd_gen,
        "query": _cmd_query,
        "validate": _cmd_validate,
        "compare": _cmd_compare,
    }
    try:
        return handlers[args.command](args)
    except (DatasetFormatError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
