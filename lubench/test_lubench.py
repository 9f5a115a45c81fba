"""Tests of the benchmark's own truth checks and instance generation.

    python3 -m pytest lubench
"""

import numpy as np
import pytest

import truth
from instances import (
    conjugate_pair,
    density,
    floored_factor,
    haar_unitary,
    kron_chain,
    rng_for,
    rotate,
    triple_product,
)
from workloads import WORKLOADS


@pytest.mark.parametrize("n, rank", [(2, 2), (3, 1), (4, 2), (5, 1)])
def test_triple_product_is_lu_invariant_and_odd_under_conjugation(n, rank):
    rng = rng_for(7, n, rank)
    g = floored_factor(n, rank, rng)
    rotated = rotate(g, [haar_unitary(rng) for _ in range(n)])
    for i, j in [(0, 1), (0, n - 1)]:
        value = triple_product(g, n, i, j)
        assert abs(value) > 1e-12
        assert triple_product(rotated, n, i, j) == pytest.approx(value, rel=1e-8, abs=1e-15)
        assert triple_product(g.conj(), n, i, j) == pytest.approx(-value, rel=1e-8, abs=1e-15)


def test_conjugate_pairs_are_separated():
    inst = conjugate_pair(3, 1, rng_for(3, 1))
    assert truth.invariants_separate(inst.ga, inst.gb, inst.n)
    twin = rotate(inst.ga, [haar_unitary(rng_for(3, 2, k)) for k in range(3)])
    assert not truth.invariants_separate(inst.ga, twin, inst.n)


def test_perturbed_witness_fails_the_residual_check():
    rng = rng_for(5)
    n = 3
    g = floored_factor(n, 2, rng)
    us = [haar_unitary(rng) for _ in range(n)]
    a, b = density(g), density(rotate(g, us))
    assert truth.witness_ok(a, b, us)

    # a unitary perturbation of 1e-6 on one factor moves the residual far above tol
    h = np.array([[0.0, 1.0], [1.0, 0.0]])
    nudge = np.cos(1e-6) * np.eye(2) - 1j * np.sin(1e-6) * h
    bent = [us[0] @ nudge] + us[1:]
    assert truth.is_unitary(bent[0])
    assert not truth.witness_ok(a, b, bent)

    # a non-unitary witness fails even before the residual
    assert not truth.witness_ok(a, b, [us[0] * (1 + 1e-6)] + us[1:])


def test_witness_residual_uses_the_kronecker_order():
    us = [haar_unitary(rng_for(9, k)) for k in range(2)]
    assert np.allclose(kron_chain(us), np.kron(us[0], us[1]))


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_same_seed_gives_identical_instances(workload):
    first, second = WORKLOADS[workload](4), WORKLOADS[workload](4)
    assert [i.label for i in first] == [i.label for i in second]
    for x, y in zip(first, second):
        assert np.array_equal(x.ga, y.ga) and np.array_equal(x.gb, y.gb)
        assert (x.truth, x.fallback, x.known_fault) == (y.truth, y.fallback, y.known_fault)
    other = WORKLOADS[workload](5)
    assert any(not np.array_equal(x.gb, y.gb) for x, y in zip(first, other))
