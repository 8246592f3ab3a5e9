"""The dominance check of acceptance criterion 7, over ``run_compare`` curve rows."""

from bandit_mips.bench import LSH, ME


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
