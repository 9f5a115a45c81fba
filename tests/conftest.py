"""Shared fixtures and independent helpers for the test suite.

Helpers here deliberately avoid the library's own decision path where a
test needs an independent route: residuals are recomputed with plain
numpy matrix algebra, never through the engine's witness bookkeeping.
"""

import numpy as np
import pytest

from luequiv import (
    NQubitState,
    apply_local_unitaries,
    from_pure_amplitudes,
    haar_local_unitary,
    make_rng,
    random_mixed_state,
    random_pure_state,
    validate_state,
)

I2 = np.eye(2, dtype=complex)
SX = np.array([[0, 1], [1, 0]], dtype=complex)
SY = np.array([[0, -1j], [1j, 0]], dtype=complex)
SZ = np.array([[1, 0], [0, -1]], dtype=complex)


def kron_chain(mats):
    out = np.array([[1.0 + 0j]])
    for m in mats:
        out = np.kron(out, m)
    return out


def direct_residual(state_a: NQubitState, state_b: NQubitState, unitaries) -> float:
    """Frobenius residual of b - (U1x...xUn) a (...)^dag, plain numpy only."""
    u = kron_chain(unitaries)
    delta = state_b.matrix - u @ state_a.matrix @ u.conj().T
    return float(np.linalg.norm(delta))


def bell_state() -> NQubitState:
    amp = np.zeros(4, dtype=complex)
    amp[0] = amp[3] = 2 ** -0.5
    return from_pure_amplitudes(amp)


def ghz_state(n: int = 3) -> NQubitState:
    amp = np.zeros(2 ** n, dtype=complex)
    amp[0] = amp[-1] = 2 ** -0.5
    return from_pure_amplitudes(amp)


def w_state() -> NQubitState:
    amp = np.zeros(8, dtype=complex)
    amp[0b001] = amp[0b010] = amp[0b100] = 3 ** -0.5
    return from_pure_amplitudes(amp)


def schmidt_state(theta: float) -> NQubitState:
    amp = np.zeros(4, dtype=complex)
    amp[0] = np.cos(theta)
    amp[3] = np.sin(theta)
    return from_pure_amplitudes(amp)


def lu_equivalent_pair(n: int, seed: int, rank: int = 1):
    """A state, its image under Haar local unitaries, and those unitaries."""
    rng = make_rng(seed)
    if rank == 1:
        state = random_pure_state(n, rng)
    else:
        state = random_mixed_state(n, rank, rng)
    unitaries = [haar_local_unitary(rng) for _ in range(n)]
    rotated = apply_local_unitaries(state, unitaries)
    return state, rotated, unitaries


@pytest.fixture
def rng():
    return make_rng(1234)


def random_hermitian(n_dim: int, rng) -> np.ndarray:
    g = rng.normal(size=(n_dim, n_dim)) + 1j * rng.normal(size=(n_dim, n_dim))
    return (g + g.conj().T) / 2


def dense_only(matrix) -> NQubitState:
    """A validated density matrix kept without a factor, so every stage of a
    decision runs on the matrix; the spectrum comes from eigvalsh of the
    whole matrix, as validate_state takes it for a state it keeps dense."""
    state = validate_state(matrix)
    eigs = np.linalg.eigvalsh(state.matrix)
    spectrum = np.where(eigs < 0.0, 0.0, eigs)[::-1].copy()
    return NQubitState(n=state.n, purity=state.purity, spectrum=spectrum, dense=state.matrix)


def dephased(state: NQubitState) -> NQubitState:
    """Diagonal part of the density matrix, same marginal spectra class."""
    return validate_state(np.diag(np.diag(state.matrix)))
