"""Synthetic instance generators: dense vector sets and adversarial reward lists.

Everything here is a pure function of its arguments, seed included.  Gaussian
entries are standard normal; uniform entries are Uniform[0, 1).

The adversarial generator draws each arm's target mean r uniformly from
[0, 1] and realizes it as a deterministic list of round(r * N) ones followed
by zeros, consumed in that fixed order.  Front-loading the ones makes every
empirical mean an overestimate for as long as possible, and arms stay
mutually indistinguishable until the pull count passes their ones count,
which is the stress case for an elimination rule that trusts early means.
Using a rounded count instead of per-position coin flips pins each list mean
to within 1/(2N) of r, so measured suboptimality reflects the algorithm, not
generator noise.  The instance is itself the arm set of a search: its
``sums`` reads every list front (ones) to back, in closed form.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .mips import VectorSet

__all__ = ["DatasetSpec", "AdversarialInstance", "gen_vectors", "gen_adversarial"]

VECTOR_DISTS = ("gaussian", "uniform")


@dataclass(slots=True, frozen=True)
class DatasetSpec:
    dist: str
    n: int
    dim: int
    seed: int = 0

    def __post_init__(self) -> None:
        if self.dist not in VECTOR_DISTS:
            raise ValueError(f"unknown dist: {self.dist!r}")
        if self.n < 1 or self.dim < 1:
            raise ValueError("n and dim must be positive")


@dataclass(slots=True)
class AdversarialInstance:
    """Per-arm target means and their realized ones-then-zeros reward lists.

    The instance is an arm set in the ``Arms`` protocol of ``elimination``.
    """

    target_means: np.ndarray  # r per arm, in [0, 1]
    ones: np.ndarray          # round(r * list_len) per arm
    list_len: int
    list_means: np.ndarray = field(init=False)  # exact realized means

    def __post_init__(self) -> None:
        self.list_means = self.ones / self.list_len

    @property
    def n(self) -> int:
        return self.target_means.size

    def reward_list(self, arm_id: int) -> np.ndarray:
        out = np.zeros(self.list_len)
        out[: int(self.ones[arm_id])] = 1.0
        return out

    def sums(self, rows: np.ndarray, t: int) -> np.ndarray:
        """Reward sums of ``rows`` after ``t`` pulls each: min(ones, t)."""
        if not 0 <= t <= self.list_len:
            raise ValueError(f"pull count {t} outside [0, {self.list_len}]")
        return np.minimum(self.ones[rows], t)

    def sources(self) -> AdversarialInstance:
        """The arms of a search: the instance itself."""
        return self


def gen_vectors(spec: DatasetSpec) -> VectorSet:
    rng = np.random.default_rng(spec.seed)
    if spec.dist == "gaussian":
        data = rng.standard_normal((spec.n, spec.dim))
    else:
        data = rng.random((spec.n, spec.dim))
    return VectorSet(data)


def gen_adversarial(n: int, list_len: int, seed: int = 0) -> AdversarialInstance:
    if n < 1 or list_len < 1:
        raise ValueError("n and list_len must be positive")
    rng = np.random.default_rng(seed)
    targets = rng.random(n)
    ones = np.floor(targets * list_len + 0.5).astype(np.int64)
    return AdversarialInstance(target_means=targets, ones=ones, list_len=list_len)
