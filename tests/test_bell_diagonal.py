"""Two qubits with both marginals maximally mixed, decided in closed form.

The signed SVDs of the 3x3 correlation matrices take both states to a common
Bell-diagonal form, so the fallback returns a witness without a search
(fallback_evaluations == 0).  Residuals are recomputed with a plain
Kronecker chain.  Also the kernels the closed form and the block step
share: the SO(3) -> SU(2) map and the 16 x 16 map from W to K + K^T.
"""

import numpy as np
import pytest

from luequiv import (
    EngineConfig,
    apply_local_unitaries,
    decide_lu_equivalence,
    haar_local_unitary,
    make_rng,
    validate_state,
)
from luequiv.engine import (
    BY_GLOBAL_SPECTRUM,
    EQUIVALENT,
    NOT_EQUIVALENT,
    _K_MAP,
    _QUATERNION,
    _su2_of_rotation,
)
from luequiv.linalg import PAULIS
from tests.conftest import I2, bell_state, direct_residual, kron_chain

FALLBACK = EngineConfig(fallback=True)
BELL_BASIS = np.array([[1, 0, 0, 1], [1, 0, 0, -1], [0, 1, 1, 0], [0, 1, -1, 0]]) / np.sqrt(2)


def bell_diagonal(weights) -> np.ndarray:
    return sum(w * np.outer(beta, beta) for w, beta in zip(weights, BELL_BASIS)).astype(complex)


def correlation_state(t) -> np.ndarray:
    """(I + sum_ij T_ij sigma_i x sigma_j) / 4: both marginals maximally mixed."""
    return (np.eye(4) + np.einsum("ij,iab,jcd->acbd", t, PAULIS[1:], PAULIS[1:]).reshape(4, 4)) / 4


def rotated_pair(rho: np.ndarray, seed: int):
    """rho and its image under two Haar unitaries drawn from make_rng(seed)."""
    rng = make_rng(seed)
    u = kron_chain([haar_local_unitary(rng) for _ in range(2)])
    return validate_state(rho), validate_state(u @ rho @ u.conj().T)


def rotation_of(u: np.ndarray) -> np.ndarray:
    """O with U sigma_i U^dag = sum_j O[j, i] sigma_j, read off by traces."""
    return np.array(
        [[np.trace(PAULIS[j] @ u @ PAULIS[i] @ u.conj().T).real / 2 for i in (1, 2, 3)] for j in (1, 2, 3)]
    )


def assert_closed_form(a, b):
    verdict = decide_lu_equivalence(a, b, FALLBACK)
    assert verdict.outcome == EQUIVALENT
    assert verdict.mixed_qubits == (1, 2)
    assert verdict.diagnostics["fallback_evaluations"] == 0
    assert direct_residual(a, b, verdict.witness.unitaries) <= 1e-9


@pytest.mark.parametrize("s", range(16))
def test_bell_diagonal_draws_certify_without_a_search(s):
    # draw 12 exhausted the search's whole budget (120 000 evaluations)
    assert_closed_form(*rotated_pair(bell_diagonal(make_rng(s).dirichlet(np.ones(4))), 1000 + s))


def test_pure_bell_state_with_all_singular_values_equal():
    # T = diag(1, -1, 1): every signed SVD frame is as good as another
    rng = make_rng(71)
    bell = bell_state()
    assert_closed_form(bell, apply_local_unitaries(bell, [haar_local_unitary(rng) for _ in range(2)]))


def test_rank_deficient_correlation_matrix():
    # d_3 = 0: the third columns of P and Q are free up to sign
    a, b = rotated_pair(correlation_state(np.diag([0.5, -0.3, 0.0])), 72)
    assert_closed_form(a, b)


def test_noise_of_half_tol_still_certifies():
    a, b = rotated_pair(bell_diagonal(make_rng(73).dirichlet(np.ones(4))), 74)
    rng = make_rng(75)
    e = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    e = e + e.conj().T
    e -= np.trace(e) / 4 * np.eye(4)
    e *= FALLBACK.tol / 2 / np.linalg.norm(e)
    assert_closed_form(a, validate_state(b.matrix + e))


def test_reflected_correlation_matrix_stays_rejected_by_the_spectrum():
    # T and -T have the same singular values but opposite det, and the
    # global spectrum tells them apart before any witness is sought
    rng = make_rng(76)
    p, q = (rotation_of(haar_local_unitary(rng)) for _ in range(2))
    t = p @ np.diag([0.5, 0.3, 0.1]) @ q.T
    a, b = validate_state(correlation_state(t)), validate_state(correlation_state(-t))
    verdict = decide_lu_equivalence(a, b, FALLBACK)
    assert verdict.outcome == NOT_EQUIVALENT
    assert verdict.reason == BY_GLOBAL_SPECTRUM


def test_one_mixed_qubit_still_runs_the_search():
    # qubit 1 is maximally mixed, qubit 2 is not: no closed form applies
    phi = BELL_BASIS[0]
    rho = 0.6 * np.outer(phi, phi) + 0.4 * np.kron(I2 / 2, np.diag([1.0, 0.0]))
    a, b = rotated_pair(rho.astype(complex), 77)
    verdict = decide_lu_equivalence(a, b, FALLBACK)
    assert verdict.outcome == EQUIVALENT
    assert verdict.mixed_qubits == (1,)
    assert verdict.diagnostics["fallback_evaluations"] > 0
    assert direct_residual(a, b, verdict.witness.unitaries) <= 1e-9


def test_su2_of_rotation_inverts_the_adjoint_map():
    rng = make_rng(78)
    for _ in range(200):
        u = haar_local_unitary(rng)
        special = u / np.sqrt(np.linalg.det(u))
        v = _su2_of_rotation(rotation_of(u))
        assert min(np.linalg.norm(v - special), np.linalg.norm(v + special)) <= 1e-12
        assert np.linalg.norm(v @ v.conj().T - I2) <= 1e-12
        assert abs(np.linalg.det(v) - 1) <= 1e-12


def test_k_map_matches_the_einsum_formula():
    rng = make_rng(79)
    for _ in range(50):
        w = rng.normal(size=(2, 2, 2, 2)) + 1j * rng.normal(size=(2, 2, 2, 2))
        k = np.einsum("mjil,aji,bml->ab", w, _QUATERNION, _QUATERNION.conj()).real
        mapped = (w.reshape(16) @ _K_MAP).real.reshape(4, 4)
        assert np.max(np.abs(mapped - (k + k.T))) <= 1e-14
