"""Rank-r decisions on the factors: entries read row by row, QR residuals.

A decision between two states with factors G and H reads the phase
equations from the rows of G_t G_t^dag and H_t H_t^dag and takes every
residual from the factors, so it forms no 2**n x 2**n array.  These tests
hold that path to the dense one (dense_only states, which keep no factor)
at n = 5..8, where the heaviest entries no longer lie in a few rows, and
measure what a rank-2 n = 10 decision allocates.
"""

import tracemalloc

import numpy as np
import pytest

import luequiv.engine
from luequiv import (
    decide_lu_equivalence,
    haar_local_unitary,
    make_rng,
    random_mixed_state,
    random_pure_state,
    validate_state,
)
from luequiv.engine import EQUIVALENT, NOT_EQUIVALENT
from luequiv.linalg import conjugate_local
from tests.conftest import dense_only, direct_residual

TOL = 1e-9


def rotated(matrix: np.ndarray, rng) -> np.ndarray:
    n = matrix.shape[0].bit_length() - 1
    return conjugate_local(matrix, [haar_local_unitary(rng) for _ in range(n)])


def assert_same_decision(ma: np.ndarray, mb: np.ndarray):
    """The factor path and the dense path give the same verdict; returns both."""
    a, b = validate_state(ma), validate_state(mb)
    assert a.factor is not None and b.factor is not None
    fac = decide_lu_equivalence(a, b)
    den = decide_lu_equivalence(dense_only(ma), dense_only(mb))
    assert (fac.outcome, fac.reason) == (den.outcome, den.reason)
    if fac.outcome == EQUIVALENT:
        assert direct_residual(a, b, fac.witness.unitaries) <= TOL
    elif "phase_branches" in den.diagnostics:
        assert fac.diagnostics["phase_branches"] == den.diagnostics["phase_branches"]
        fr, dr = fac.diagnostics["phase_residual"], den.diagnostics["phase_residual"]
        assert abs(fr - dr) <= 1e-12
    return fac, den


def mixed_pairs():
    for n in (5, 6, 7, 8):
        for rank in (2, 3, 4):
            yield n, rank


@pytest.mark.parametrize("n,rank", list(mixed_pairs()))
def test_rotated_pairs_match_the_dense_path(n, rank):
    for s in range(2):
        rng = make_rng(2000 + 100 * n + 10 * rank + s)
        a = random_mixed_state(n, rank, rng)
        fac, _ = assert_same_decision(a.matrix, rotated(a.matrix, rng))
        assert fac.outcome == EQUIVALENT


def moved(matrix: np.ndarray, rank: int, distance: float, rng) -> np.ndarray:
    """matrix with its rank-r factor moved, about distance away in Frobenius norm."""
    values, vectors = np.linalg.eigh(matrix)
    g = vectors[:, -rank:] * np.sqrt(np.clip(values[-rank:], 0.0, None))
    x = rng.normal(size=g.shape) + 1j * rng.normal(size=g.shape)

    def at(eps):
        h = g + eps * x
        m = h @ h.conj().T
        return m / np.trace(m).real

    first = np.linalg.norm(at(1e-7) - matrix)
    return at(1e-7 * distance / first)


@pytest.mark.parametrize("n,rank", [(5, 2), (6, 3), (7, 4), (8, 2)])
def test_noisy_pairs_match_the_dense_path(n, rank):
    for s in range(2):
        rng = make_rng(3000 + 100 * n + 10 * rank + s)
        a = random_mixed_state(n, rank, rng)
        exact = rotated(a.matrix, rng)
        mb = moved(exact, rank, 0.45 * TOL, rng)
        assert np.linalg.norm(mb - exact) <= TOL / 2
        assert_same_decision(a.matrix, mb)


@pytest.mark.parametrize("n,rank", list(mixed_pairs()))
def test_conjugate_pairs_match_the_dense_path(n, rank):
    # equal spectra and marginal spectra, so the phase branches decide
    for s in range(2):
        rng = make_rng(4000 + 100 * n + 10 * rank + s)
        a = random_mixed_state(n, rank, rng)
        fac, den = assert_same_decision(a.matrix, rotated(a.matrix.conj(), rng))
        assert fac.reason == "by_trace_form"
        assert den.diagnostics["phase_branches"] >= 1


@pytest.mark.parametrize("n", [5, 6, 7, 8])
def test_modulus_bound_rejection_matches_the_dense_path(n):
    # 3 tol of noise within the range, off-diagonal in the eigenbasis: the
    # global spectrum moves at second order, the entry moduli at first
    rng = make_rng(5000 + n)
    a = random_mixed_state(n, 2, rng)
    mb = rotated(a.matrix, rng)
    v = np.linalg.eigh(mb)[1][:, -2:]
    e = np.outer(v[:, 0], v[:, 1].conj())
    e = e + e.conj().T
    mb = mb + 3 * TOL * e / np.linalg.norm(e)
    fac, den = assert_same_decision(a.matrix, mb)
    assert (den.outcome, den.reason) == (NOT_EQUIVALENT, "by_trace_form")
    assert den.diagnostics["phase_branches"] == 0
    assert den.diagnostics["phase_min_modulus"] is None
    assert fac.diagnostics["phase_min_modulus"] is None


def unpinned(n: int, seed: int) -> np.ndarray:
    """A rank-2 state whose entries flipping qubit n are all about 1e-4 light.

    G = [sqrt(p) psi x |0> + delta phi x |1>, sqrt(1 - p) psi x |1>] with phi
    orthogonal to psi, so qubit n's marginal stays diagonal and every entry
    that flips qubit n is delta sqrt(p) psi_x conj(phi_y): the heaviest
    entries all leave qubit n's phase unpinned.
    """
    rng = make_rng(seed)
    psi = random_pure_state(n - 1, rng).amplitudes
    phi = random_pure_state(n - 1, rng).amplitudes
    phi = phi - np.vdot(psi, phi) * psi
    phi /= np.linalg.norm(phi)
    p, delta = 0.7, 1e-4
    zero, one = np.array([1.0, 0.0]), np.array([0.0, 1.0])
    g = np.stack(
        [
            np.sqrt(p) * np.kron(psi, zero) + delta * np.kron(phi, one),
            np.sqrt(1 - p) * np.kron(psi, one),
        ],
        axis=1,
    )
    m = g @ g.conj().T
    return m / np.trace(m).real


@pytest.mark.parametrize("n", [5, 6, 7, 8])
@pytest.mark.parametrize("conjugate", [False, True])
def test_unpinned_heavy_entries_scan_the_blocks(monkeypatch, n, conjugate):
    scans = []
    above = luequiv.engine._RowEntries.above

    def counting(self, floor):
        scans.append(floor)
        return above(self, floor)

    monkeypatch.setattr(luequiv.engine._RowEntries, "above", counting)
    rng = make_rng(6000 + n)
    ma = unpinned(n, 6100 + n)
    fac, _ = assert_same_decision(ma, rotated(ma.conj() if conjugate else ma, rng))
    assert len(scans) == 1
    assert fac.outcome == (NOT_EQUIVALENT if conjugate else EQUIVALENT)


def test_rank_two_decision_at_ten_qubits_builds_no_dense_array():
    # one 2**10 x 2**10 complex matrix is 16 MB; the decision stays under a
    # quarter of that
    rng = make_rng(31)
    a = random_mixed_state(10, 2, rng)
    b = validate_state(rotated(a.matrix, rng))
    tracemalloc.start()
    try:
        verdict = decide_lu_equivalence(a, b)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert verdict.outcome == EQUIVALENT
    assert verdict.diagnostics["phase_status"] == "matched"
    assert verdict.witness.residual <= TOL
    assert peak < 4 * 2**20
