"""Bounded-pull bandit search for maximum inner products and nearest neighbors.

A query against n vectors of dimension N is treated as a bandit over n arms
whose rewards are single coordinate products; arms are pulled without
replacement, in one column order shared by all arms, so at most N pulls per
arm ever make sense and the bound tells the search when an empirical mean is
trustworthy.  A round-based halving loop then finds the top-K vectors while
reading far fewer than n*N coordinates when the accuracy budget allows it.
"""

from .arms import LazySource, PositionSampler
from .baselines import ExactResult, LshIndex, LshResult, lsh_build, lsh_query, naive_topk
from .bench import (
    CompareReport,
    RunRecord,
    ValidateCell,
    ValidateReport,
    me_dominates,
    run_compare,
    run_query,
    run_validate,
)
from .bounds import hoeffding_count, pull_target, sample_size, shrinkage
from .datasets import AdversarialInstance, DatasetSpec, gen_adversarial, gen_vectors
from .elimination import (
    Arms,
    EliminationConfig,
    EliminationTrace,
    RoundRecord,
    elimination_schedule,
    eliminate,
    median_elimination_topk,
    pull_batch,
    round_pull_target,
)
from .fileio import (
    DatasetFormatError,
    read_dataset,
    read_query,
    read_results,
    write_dataset,
    write_query,
    write_results,
)
from .metrics import percentile, precision, suboptimality
from .mips import (
    ObjectiveKind,
    Query,
    VectorSet,
    build_arms,
    mips_topk,
    reward_range,
    true_means,
)

__version__ = "0.1.0"

__all__ = [
    "PositionSampler",
    "LazySource",
    "shrinkage",
    "hoeffding_count",
    "sample_size",
    "pull_target",
    "Arms",
    "EliminationConfig",
    "EliminationTrace",
    "RoundRecord",
    "elimination_schedule",
    "round_pull_target",
    "pull_batch",
    "eliminate",
    "median_elimination_topk",
    "ObjectiveKind",
    "VectorSet",
    "Query",
    "build_arms",
    "reward_range",
    "true_means",
    "mips_topk",
    "ExactResult",
    "LshIndex",
    "LshResult",
    "naive_topk",
    "lsh_build",
    "lsh_query",
    "DatasetSpec",
    "AdversarialInstance",
    "gen_vectors",
    "gen_adversarial",
    "DatasetFormatError",
    "read_dataset",
    "write_dataset",
    "read_query",
    "write_query",
    "read_results",
    "write_results",
    "precision",
    "suboptimality",
    "percentile",
    "RunRecord",
    "ValidateCell",
    "ValidateReport",
    "CompareReport",
    "run_validate",
    "run_compare",
    "run_query",
    "me_dominates",
]
