"""Trace-form construction: marginal eigenframes and the rotated state."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from luequiv import (
    local_eigenframes,
    reduced_qubit,
    to_trace_form,
    validate_state,
)
from luequiv.oracle import apply_local_unitaries, haar_local_unitary
from luequiv.traceform import DEFAULT_TOL, mixed_gap
from tests.conftest import (
    ghz_state,
    lu_equivalent_pair,
    schmidt_state,
    w_state,
)


def test_diagonal_product_state_is_fixed_point():
    # already in trace form: frames are identity, state unchanged
    rho = np.kron(np.diag([0.8, 0.2]), np.diag([0.7, 0.3])).astype(complex)
    state = validate_state(rho)
    tf = to_trace_form(state)
    assert np.allclose(tf.state.matrix, rho, atol=1e-13)
    for frame in tf.frames:
        assert np.allclose(frame.v, np.eye(2), atol=1e-13)
        assert not frame.maximally_mixed


def test_schmidt_pi_8_eigenvalues():
    # frozen: cos^2(pi/8) = 0.8535533905932737
    state = schmidt_state(np.pi / 8)
    frames = local_eigenframes(state)
    for frame in frames:
        assert frame.eigenvalues[0] == pytest.approx(0.8535533905932737, abs=1e-12)
        assert frame.eigenvalues[1] == pytest.approx(0.1464466094067262, abs=1e-12)
        assert not frame.maximally_mixed


def test_frames_are_one_indexed_and_ordered():
    state, rotated, _ = lu_equivalent_pair(3, seed=5)
    frames = local_eigenframes(rotated)
    assert [f.qubit for f in frames] == [1, 2, 3]
    for frame in frames:
        assert frame.eigenvalues[0] >= frame.eigenvalues[1]


def test_trace_form_marginals_are_diagonal():
    state, rotated, _ = lu_equivalent_pair(3, seed=42)
    tf = to_trace_form(rotated)
    for qubit in (1, 2, 3):
        marginal = reduced_qubit(tf.state, qubit)
        off = abs(marginal[0, 1])
        assert off < 1e-10
        # descending diagonal
        assert marginal[0, 0].real >= marginal[1, 1].real - 1e-12


def test_trace_form_preserves_global_spectrum():
    state, rotated, _ = lu_equivalent_pair(3, seed=13, rank=3)
    tf = to_trace_form(rotated)
    before = np.linalg.eigvalsh(rotated.matrix)
    after = np.linalg.eigvalsh(tf.state.matrix)
    assert np.allclose(before, after, atol=1e-11)


def test_trace_form_reuses_spectrum_and_is_hermitian():
    # the trace form is a unitary conjugate: its cached spectrum and purity
    # are the input's, and its matrix is Hermitian to the last bit
    state, rotated, _ = lu_equivalent_pair(3, seed=13, rank=3)
    tf = to_trace_form(rotated)
    assert np.array_equal(tf.state.spectrum, rotated.spectrum)
    assert tf.state.purity == rotated.purity
    assert np.array_equal(tf.state.matrix, tf.state.matrix.conj().T)
    assert not tf.state.matrix.flags.writeable


def test_ghz_frames_flag_maximally_mixed():
    tf = to_trace_form(ghz_state(3))
    assert all(f.maximally_mixed for f in tf.frames)
    # degenerate marginals leave the frame at identity
    for frame in tf.frames:
        assert np.allclose(frame.v, np.eye(2))
    assert np.allclose(tf.state.matrix, ghz_state(3).matrix)


def test_mixed_gap_follows_tol_n_and_factor_errors():
    u = np.finfo(float).eps
    assert mixed_gap(3, 1e-9, 0.0) == 8 * u / 1e-9
    assert mixed_gap(3, 1e-12, 0.0) == pytest.approx(1000 * mixed_gap(3, 1e-9, 0.0), rel=1e-15)
    # a factor error counts at the partial-trace bound 2^((n-1)/2)
    assert mixed_gap(5, 1e-9, 1e-14) == pytest.approx((8 * u + 4 * 1e-14) / 1e-9, rel=1e-15)


@pytest.mark.parametrize("eps,mixed_by_default", [(1e-9, True), (1e-7, True), (1e-5, False)])
def test_qubits_below_the_gap_are_mixed(eps, mixed_by_default):
    # cos t |00> + sin t |11> at t = pi/4 - eps/2, both marginal gaps
    # sin(eps), turned off the computational frames
    state = apply_local_unitaries(
        schmidt_state(np.pi / 4 - eps / 2), [haar_local_unitary(k) for k in (3, 4)]
    )
    gap = float(np.sin(eps))
    for threshold, mixed in ((gap * 0.99, False), (gap * 1.01, True)):
        for frame in local_eigenframes(state, threshold):
            assert frame.maximally_mixed == mixed
            assert mixed == np.array_equal(frame.v, np.eye(2))
    # without a gap, the state alone is read at the default tol: 1.8e-6
    assert mixed_gap(2, DEFAULT_TOL, 0.0) == pytest.approx(1.776e-6, rel=1e-3)
    for frames in (local_eigenframes(state), to_trace_form(state).frames):
        assert [f.maximally_mixed for f in frames] == [mixed_by_default] * 2


def test_trace_form_deterministic():
    _, rotated, _ = lu_equivalent_pair(3, seed=97)
    t1 = to_trace_form(rotated)
    t2 = to_trace_form(rotated)
    assert np.array_equal(t1.state.matrix, t2.state.matrix)
    for f1, f2 in zip(t1.frames, t2.frames):
        assert np.array_equal(f1.v, f2.v)


def test_lu_equivalent_pair_shares_trace_form_spectra():
    # the two trace forms have identical marginal eigenvalues
    state, rotated, _ = lu_equivalent_pair(2, seed=31)
    ta = to_trace_form(state)
    tb = to_trace_form(rotated)
    for fa, fb in zip(ta.frames, tb.frames):
        assert np.allclose(fa.eigenvalues, fb.eigenvalues, atol=1e-10)


def test_frame_bloch_matches_marginal():
    state, _, _ = lu_equivalent_pair(2, seed=8)
    frames = local_eigenframes(state)
    for frame in frames:
        marginal = reduced_qubit(state, frame.qubit)
        # V diag(eigs) V^dag reconstructs the marginal
        rebuilt = frame.v @ np.diag(frame.eigenvalues) @ frame.v.conj().T
        assert np.allclose(rebuilt, marginal, atol=1e-12)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10 ** 6), n=st.integers(1, 4))
def test_trace_form_idempotent(seed, n):
    # applying the construction twice changes nothing further
    rng = np.random.Generator(np.random.Philox(seed))
    amp = rng.normal(size=2 ** n) + 1j * rng.normal(size=2 ** n)
    from luequiv import from_pure_amplitudes

    state = from_pure_amplitudes(amp)
    once = to_trace_form(state)
    twice = to_trace_form(once.state)
    assert np.allclose(once.state.matrix, twice.state.matrix, atol=1e-9)
