"""The mixed-qubit threshold: near-degenerate pairs and its scaling with tol.

A qubit counts as maximally mixed when its marginal eigenvalue gap is below
traceform.mixed_gap, which follows from tol, n and the factor errors.  Too
low a threshold trusts frames that rounding has turned, and equivalent
near-degenerate pairs are rejected; too high a one treats the qubits of
generic pairs as mixed, and their certificates are lost.
"""

import math

import numpy as np
import pytest

from luequiv import EngineConfig, decide_lu_equivalence, from_pure_amplitudes
from luequiv.linalg import make_rng
from luequiv.oracle import apply_local_unitaries, haar_local_unitary, random_state_with_bloch_floor

NEAR_DEGENERATE_EPS = (1e-11, 3e-11, 1e-10, 1e-9, 1e-8, 1e-7, 1e-6)


def near_degenerate_pairs():
    """cos t |0...0> + sin t |1...1>, t = pi/4 + eps, against 10 Haar-rotated copies each."""
    for n in (2, 3, 4):
        for eps in NEAR_DEGENERATE_EPS:
            amp = np.zeros(2**n, dtype=complex)
            amp[0], amp[-1] = math.cos(math.pi / 4 + eps), math.sin(math.pi / 4 + eps)
            state = from_pure_amplitudes(amp)
            for s in range(10):
                rng = make_rng(1000 * n + 10 * s)
                yield state, apply_local_unitaries(state, [haar_local_unitary(rng) for _ in range(n)])


@pytest.mark.parametrize("fallback,certified", [(False, 30), (True, 195)])
def test_near_degenerate_pairs_are_never_rejected(fallback, certified):
    # every pair is equivalent; with a threshold of 1e-10, 102 of the 210
    # were rejected by the trace form, with and without the fallback
    outcomes = [
        decide_lu_equivalence(a, b, EngineConfig(fallback=fallback)).outcome
        for a, b in near_degenerate_pairs()
    ]
    assert len(outcomes) == 210
    assert "not_equivalent" not in outcomes
    assert outcomes.count("equivalent") == certified


def bloch_floored_pairs():
    """Generic pairs, every marginal Bloch norm at least 0.02, up to n = 10."""
    for n, rank, draws in ((3, 1, 4), (6, 1, 4), (8, 1, 4), (10, 1, 8), (3, 2, 3), (6, 2, 3)):
        for s in range(draws):
            a = random_state_with_bloch_floor(n, 500 + 10 * n + s, rank=rank, min_bloch=0.02)
            rng = make_rng(900 + 10 * n + s)
            yield a, apply_local_unitaries(a, [haar_local_unitary(rng) for _ in range(n)])


@pytest.mark.parametrize("tol", [1e-12, 1e-9, 1e-6])
def test_bloch_floored_pairs_have_no_mixed_qubits_at_any_tol(tol):
    # a threshold that grows with tol, or one that grows too fast with n as
    # tol shrinks, would mark some of these qubits mixed
    for a, b in bloch_floored_pairs():
        verdict = decide_lu_equivalence(a, b, EngineConfig(tol=tol))
        assert verdict.mixed_qubits == ()
        assert verdict.outcome == "equivalent"
        assert verdict.witness.residual <= tol
