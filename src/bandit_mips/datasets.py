"""Synthetic instance generators: dense vector sets and adversarial reward lists.

Everything here is a pure function of its spec, seed included.  Gaussian
entries are standard normal; uniform entries are Uniform[0, 1).

The adversarial generator draws each arm's target mean r uniformly from
[0, 1] and realizes it as a deterministic list of round(r * N) ones followed
by zeros, consumed in that fixed order.  Front-loading the ones makes every
empirical mean an overestimate for as long as possible, and arms stay
mutually indistinguishable until the pull count passes their ones count,
which is the stress case for an elimination rule that trusts early means.
Using a rounded count instead of per-position coin flips pins each list mean
to within 1/(2N) of r, so measured suboptimality reflects the algorithm, not
generator noise.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .arms import StreamSource
from .mips import VectorSet

__all__ = ["DatasetSpec", "AdversarialInstance", "gen_vectors", "gen_adversarial"]

VECTOR_DISTS = ("gaussian", "uniform")


@dataclass(slots=True)
class DatasetSpec:
    dist: str
    n: int
    dim: int
    seed: int = 0

    def __post_init__(self) -> None:
        if self.dist not in VECTOR_DISTS + ("adversarial",):
            raise ValueError(f"unknown dist: {self.dist!r}")
        if self.n < 1 or self.dim < 1:
            raise ValueError("n and dim must be positive")


@dataclass(slots=True)
class AdversarialInstance:
    """Per-arm target means and their realized ones-then-zeros reward lists."""

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

    def sources(self) -> StreamSource:
        """The arms of a search, each list read front (ones) to back."""
        return StreamSource(self.ones, self.list_len)


def gen_vectors(spec: DatasetSpec) -> VectorSet:
    if spec.dist not in VECTOR_DISTS:
        raise ValueError("gen_vectors requires dist gaussian or uniform")
    rng = np.random.default_rng(spec.seed)
    if spec.dist == "gaussian":
        data = rng.standard_normal((spec.n, spec.dim))
    else:
        data = rng.random((spec.n, spec.dim))
    return VectorSet(data)


def gen_adversarial(spec: DatasetSpec) -> AdversarialInstance:
    if spec.dist != "adversarial":
        raise ValueError("gen_adversarial requires dist adversarial")
    rng = np.random.default_rng(spec.seed)
    targets = rng.random(spec.n)
    ones = np.floor(targets * spec.dim + 0.5).astype(np.int64)
    return AdversarialInstance(target_means=targets, ones=ones, list_len=spec.dim)
