"""Synthetic instance generators: dense vector sets and adversarial reward lists.

Everything here is a pure function of its arguments, seed included, and each
generator rejects arguments it cannot realize: ``checked_int`` takes sizes
(>= 1) and seeds (>= 0).  ``gen_vectors(dist, n, dim, seed)`` draws an
n x dim matrix for a ``dist`` in ``VECTOR_DISTS``: Gaussian entries are
standard normal; uniform entries are Uniform[0, 1).

The adversarial generator draws each arm's target mean r uniformly from
[0, 1] and realizes it as a deterministic list of round(r * N) ones followed
by zeros, consumed in that fixed order.  Front-loading the ones makes every
empirical mean an overestimate for as long as possible, and arms stay
mutually indistinguishable until the pull count passes their ones count,
which is the stress case for an elimination rule that trusts early means.
Using a rounded count instead of per-position coin flips pins each list mean
to within 1/(2N) of r, so measured suboptimality reflects the algorithm, not
generator noise.  The instance is itself the arm set of a search: its
``sums(ids, t, done, prior)`` reads every list front (ones) to back, in
closed form, ``min(ones, t)``, so it needs no ``prior``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .arms import check_pulls
from .elimination import checked_int
from .mips import VectorSet

__all__ = ["AdversarialInstance", "gen_vectors", "gen_adversarial"]

VECTOR_DISTS = ("gaussian", "uniform")


@dataclass(slots=True)
class AdversarialInstance:
    """Per-arm target means and their realized ones-then-zeros reward lists.

    The instance is an arm set in the ``Arms`` protocol of ``elimination``;
    its integer sums are exact, and it keeps no search state, so one
    instance serves any number of searches.
    """

    mean_error = 0.0

    target_means: np.ndarray  # r per arm, in [0, 1]
    ones: np.ndarray          # round(r * list_len) per arm
    list_len: int
    list_means: np.ndarray = field(init=False)  # exact realized means

    def __post_init__(self) -> None:
        self.list_means = self.ones / self.list_len

    @property
    def n(self) -> int:
        return self.target_means.size

    def sums(
        self, ids: np.ndarray, t: int, done: int = 0, prior: np.ndarray | None = None
    ) -> np.ndarray:
        """Reward sums of the arms ``ids`` after ``t`` pulls each: min(ones, t)."""
        check_pulls(done, t, self.list_len)
        return np.minimum(self.ones[ids], t)

    def sources(self) -> AdversarialInstance:
        """The arms of a search: the instance itself."""
        return self


def gen_vectors(dist: str, n: int, dim: int, seed: int = 0) -> VectorSet:
    if dist not in VECTOR_DISTS:
        raise ValueError(f"unknown dist: {dist!r}")
    n, dim = checked_int(n, "n", 1), checked_int(dim, "dim", 1)
    rng = np.random.default_rng(checked_int(seed, "seed", 0))
    if dist == "gaussian":
        data = rng.standard_normal((n, dim))
    else:
        data = rng.random((n, dim))
    return VectorSet(data)


def gen_adversarial(n: int, list_len: int, seed: int = 0) -> AdversarialInstance:
    n, list_len = checked_int(n, "n", 1), checked_int(list_len, "list_len", 1)
    rng = np.random.default_rng(checked_int(seed, "seed", 0))
    targets = rng.random(n)
    ones = np.floor(targets * list_len + 0.5).astype(np.int64)
    return AdversarialInstance(target_means=targets, ones=ones, list_len=list_len)
