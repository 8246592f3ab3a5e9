"""Synthetic generators: adversarial reward streams and vector matrices."""

import numpy as np
import pytest

from bandit_mips.datasets import AdversarialInstance, gen_adversarial, gen_vectors


def read_list(inst, arm):
    """Arm ``arm``'s rewards in the order a search reads them: its sums' increments."""
    ids = np.array([arm])
    return np.diff([inst.sums(ids, t)[0] for t in range(inst.list_len + 1)]).tolist()


def test_adversarial_rounding_rule():
    # target 0.3, N=10: floor(0.3*10 + 0.5) = 3 ones, then zeros
    inst = AdversarialInstance(np.array([0.3]), np.array([3]), 10)
    assert read_list(inst, 0) == [1.0] * 3 + [0.0] * 7


def test_adversarial_endpoints():
    inst = AdversarialInstance(np.array([0.0, 1.0]), np.array([0, 8]), 8)
    assert read_list(inst, 0) == [0.0] * 8
    assert read_list(inst, 1) == [1.0] * 8


def test_gen_adversarial_deterministic():
    a, b = gen_adversarial(20, 50, seed=99), gen_adversarial(20, 50, seed=99)
    assert a.target_means.tolist() == b.target_means.tolist()
    assert a.ones.tolist() == b.ones.tolist()


def test_gen_adversarial_targets_uniform_and_counts_rounded():
    inst = gen_adversarial(500, 200, seed=7)
    assert inst.target_means.min() >= 0.0 and inst.target_means.max() < 1.0
    want = np.floor(inst.target_means * 200 + 0.5).astype(int)
    assert inst.ones.tolist() == want.tolist()


def test_adversarial_list_mean_close_to_target():
    # rounding the ones count moves the realized mean by at most 1/(2N)
    inst = gen_adversarial(300, 64, seed=3)
    realized = inst.ones / 64
    assert np.max(np.abs(realized - inst.target_means)) <= 1 / (2 * 64) + 1e-12


def test_adversarial_sources_stream_ones_first():
    inst = gen_adversarial(5, 30, seed=1)
    arms, ids, got = inst.sources(), np.arange(5), None
    for t in range(31):
        # every pull up to an arm's ones count reads a one, every later one a zero
        got = arms.sums(ids, t, max(t - 1, 0), got)
        assert got.tolist() == np.minimum(inst.ones, t).tolist()
    assert (arms.sums(ids, 30, 30, got) / 30).tolist() == inst.list_means.tolist()


def test_gen_vectors_deterministic():
    args = ("gaussian", 2, 3, 5)
    assert np.array_equal(gen_vectors(*args).data, gen_vectors(*args).data)


def test_gen_vectors_gaussian_clt():
    vs = gen_vectors("gaussian", 1000, 1000, seed=2)
    # sample mean of 10^6 standard normals: |mean| < 5/sqrt(10^6)
    assert abs(vs.data.mean()) < 5e-3
    assert vs.data.std() == pytest.approx(1.0, abs=0.01)


def test_gen_vectors_uniform_support():
    vs = gen_vectors("uniform", 50, 40, seed=4)
    assert vs.data.min() >= 0.0
    assert vs.data.max() < 1.0


def test_spec_validation():
    with pytest.raises(ValueError):
        gen_vectors("poisson", 2, 2)
    with pytest.raises(ValueError):
        gen_vectors("gaussian", 0, 2)
    with pytest.raises(ValueError):
        gen_vectors("gaussian", 2, 0)
    with pytest.raises(ValueError, match="unknown dist"):
        gen_vectors("adversarial", 2, 2)
    with pytest.raises(ValueError):
        gen_adversarial(0, 2)
    with pytest.raises(ValueError):
        gen_adversarial(2, 0)
