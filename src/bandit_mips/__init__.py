"""Bounded-pull bandit search for maximum inner products and nearest neighbors.

A query against n vectors of dimension N is treated as a bandit over n arms
whose rewards are single coordinate products; arms are pulled without
replacement, in one column order shared by all arms, so at most N pulls per
arm ever make sense and the bound tells the search when an empirical mean is
trustworthy.  A round-based halving loop then finds the top-K vectors while
reading far fewer than n*N coordinates when the accuracy budget allows it.
"""

from . import arms, baselines, bench, bounds, datasets, elimination, fileio, metrics, mips
from .arms import *
from .baselines import *
from .bench import *
from .bounds import *
from .datasets import *
from .elimination import *
from .fileio import *
from .metrics import *
from .mips import *

__version__ = "0.1.0"

# Each module declares its own public names; the package exports them all.
__all__ = [
    *arms.__all__,
    *bounds.__all__,
    *elimination.__all__,
    *mips.__all__,
    *baselines.__all__,
    *datasets.__all__,
    *fileio.__all__,
    *metrics.__all__,
    *bench.__all__,
]
