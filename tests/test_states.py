"""State validation, marginals, and Bloch vectors."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from luequiv import (
    StateValidationError,
    bloch_vector,
    from_pure_amplitudes,
    global_spectrum,
    make_rng,
    random_mixed_state,
    random_pure_state,
    reduced_qubit,
    validate_state,
)
from luequiv.states import MAX_PURE_QUBITS, MAX_QUBITS, qubit_marginals
from tests.conftest import SX, SY, SZ, dense_only, ghz_state, w_state


def test_validate_accepts_pure_qubit():
    state = validate_state(np.array([[1, 0], [0, 0]], dtype=complex))
    assert state.n == 1
    assert state.purity == pytest.approx(1.0)
    assert np.allclose(state.spectrum, [1.0, 0.0])


def test_validate_rejects_bad_trace():
    with pytest.raises(StateValidationError) as err:
        validate_state(np.diag([0.5, 0.6]).astype(complex))
    assert err.value.check == "trace"
    assert err.value.residual == pytest.approx(0.1)


def test_validate_rejects_negative_eigenvalue():
    with pytest.raises(StateValidationError) as err:
        validate_state(np.diag([1.2, -0.2]).astype(complex))
    assert err.value.check == "psd"


def test_validate_rejects_non_hermitian():
    m = np.array([[0.5, 0.3], [0.0, 0.5]], dtype=complex)
    with pytest.raises(StateValidationError) as err:
        validate_state(m)
    assert err.value.check == "hermiticity"


def test_validate_rejects_non_square_and_non_power_of_two():
    with pytest.raises(StateValidationError):
        validate_state(np.ones((2, 3), dtype=complex))
    with pytest.raises(StateValidationError):
        validate_state(np.eye(3, dtype=complex) / 3)


def test_validate_rejects_nonfinite():
    m = np.diag([np.inf, 0.0]).astype(complex)
    with pytest.raises(StateValidationError) as err:
        validate_state(m)
    assert err.value.check == "finite"


def test_validate_rejects_too_many_qubits():
    dim = 2 ** (MAX_QUBITS + 1)
    with pytest.raises(StateValidationError):
        validate_state(np.eye(dim, dtype=complex) / dim)


def test_from_pure_amplitudes_normalizes():
    state = from_pure_amplitudes(np.array([2.0, 0.0], dtype=complex))
    assert np.allclose(state.matrix, [[1, 0], [0, 0]])
    with pytest.raises(StateValidationError):
        from_pure_amplitudes(np.zeros(4, dtype=complex))
    with pytest.raises(StateValidationError):
        from_pure_amplitudes(np.ones(3, dtype=complex))


def test_matrix_is_read_only():
    state = from_pure_amplitudes(np.array([1.0, 0.0], dtype=complex))
    with pytest.raises(ValueError):
        state.matrix[0, 0] = 0.3


def test_w_state_marginals():
    state = w_state()
    for qubit in (1, 2, 3):
        reduced = reduced_qubit(state, qubit)
        assert np.allclose(reduced, np.diag([2 / 3, 1 / 3]), atol=1e-12)
        b = bloch_vector(reduced)
        assert b.z == pytest.approx(1 / 3)
        assert abs(b.x) < 1e-12 and abs(b.y) < 1e-12
        assert b.norm == pytest.approx(1 / 3)


def test_ghz_marginals_maximally_mixed():
    state = ghz_state(3)
    for qubit in (1, 2, 3):
        reduced = reduced_qubit(state, qubit)
        assert np.allclose(reduced, np.eye(2) / 2, atol=1e-12)
        assert bloch_vector(reduced).norm == pytest.approx(0.0, abs=1e-12)


def test_reduced_qubit_bad_index():
    state = ghz_state(3)
    with pytest.raises(ValueError):
        reduced_qubit(state, 0)
    with pytest.raises(ValueError):
        reduced_qubit(state, 4)


def test_bloch_round_trip():
    # rho = (I + x X + y Y + z Z)/2 reproduces (x, y, z)
    x, y, z = 0.3, -0.4, 0.5
    rho = (np.eye(2) + x * SX + y * SY + z * SZ) / 2
    b = bloch_vector(rho)
    assert (b.x, b.y, b.z) == pytest.approx((x, y, z))
    assert b.norm == pytest.approx(np.sqrt(x * x + y * y + z * z))


def test_global_spectrum_descending_and_cached():
    rho = np.diag([0.1, 0.2, 0.3, 0.4]).astype(complex)
    state = validate_state(rho)
    spec = global_spectrum(state)
    assert np.allclose(spec, [0.4, 0.3, 0.2, 0.1])
    spec[0] = 99.0  # mutating the copy must not corrupt the cache
    assert np.allclose(global_spectrum(state), [0.4, 0.3, 0.2, 0.1])


def test_purity_of_maximally_mixed():
    state = validate_state(np.eye(4, dtype=complex) / 4)
    assert state.purity == pytest.approx(0.25)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 10 ** 6))
def test_pure_state_marginals_share_spectrum_n2(seed):
    # both marginals of a 2-qubit pure state have the same eigenvalues
    rng = np.random.Generator(np.random.Philox(seed))
    amp = rng.normal(size=4) + 1j * rng.normal(size=4)
    state = from_pure_amplitudes(amp)
    s1 = np.linalg.eigvalsh(reduced_qubit(state, 1))
    s2 = np.linalg.eigvalsh(reduced_qubit(state, 2))
    assert np.allclose(s1, s2, atol=1e-12)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 10 ** 6), n=st.integers(1, 4))
def test_bloch_norm_at_most_one(seed, n):
    rng = np.random.Generator(np.random.Philox(seed))
    amp = rng.normal(size=2 ** n) + 1j * rng.normal(size=2 ** n)
    state = from_pure_amplitudes(amp)
    for qubit in range(1, n + 1):
        assert bloch_vector(reduced_qubit(state, qubit)).norm <= 1 + 1e-10


def test_pure_state_keeps_its_amplitudes(monkeypatch):
    # a pure input is stored as a unit vector; nothing is diagonalized
    def no_eigvalsh(*args, **kwargs):
        raise AssertionError("eigvalsh called for a pure input")

    monkeypatch.setattr(np.linalg, "eigvalsh", no_eigvalsh)
    amp = np.array([3.0, 0.0, 4.0j, 0.0])
    state = from_pure_amplitudes(amp)
    assert state.n == 2
    assert np.array_equal(state.amplitudes, amp / 5.0)
    assert not state.amplitudes.flags.writeable
    assert state.purity == 1.0
    assert np.array_equal(state.spectrum, [1.0, 0.0, 0.0, 0.0])
    assert state.dense is None


def test_pure_matrix_is_built_once_from_the_amplitudes():
    rng = np.random.Generator(np.random.Philox(3))
    amp = rng.normal(size=8) + 1j * rng.normal(size=8)
    state = from_pure_amplitudes(amp)
    psi = amp / np.linalg.norm(amp)
    m = state.matrix
    assert np.allclose(m, np.outer(psi, psi.conj()), atol=1e-15)
    assert np.array_equal(m, m.conj().T)
    assert not m.flags.writeable
    assert state.matrix is m


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10 ** 6), n=st.integers(1, 5))
def test_pure_marginals_match_the_dense_partial_trace(seed, n):
    rng = np.random.Generator(np.random.Philox(seed))
    amp = rng.normal(size=2 ** n) + 1j * rng.normal(size=2 ** n)
    pure = from_pure_amplitudes(amp)
    psi = amp / np.linalg.norm(amp)
    dense = validate_state(np.outer(psi, psi.conj()))
    for qubit in range(1, n + 1):
        assert np.allclose(reduced_qubit(pure, qubit), reduced_qubit(dense, qubit), atol=1e-14)
    with pytest.raises(ValueError):
        reduced_qubit(pure, n + 1)


def marginal_cases():
    rng = make_rng(77)
    for n in (1, 2, 10, 16):  # n = 16 gathers its factor in several blocks
        yield f"pure_n{n}", random_pure_state(n, rng)
    for rank in (2, 3, 4):
        yield f"rank{rank}", random_mixed_state(6, rank, rng)
    yield "dense_only", dense_only(random_mixed_state(5, 8, rng).matrix)


@pytest.mark.parametrize("name,state", list(marginal_cases()))
def test_qubit_marginals_match_the_single_qubit_reference(name, state):
    assert (state.factor is None) == (name == "dense_only")
    marginals = qubit_marginals(state)
    assert marginals.shape == (state.n, 2, 2)
    for k, marginal in enumerate(marginals):
        assert np.max(np.abs(marginal - reduced_qubit(state, k + 1))) <= 1e-14


def test_pure_cap_is_sixteen_qubits():
    assert MAX_PURE_QUBITS == 16
    assert from_pure_amplitudes(np.ones(2 ** 12)).n == 12
    with pytest.raises(StateValidationError) as err:
        from_pure_amplitudes(np.ones(2 ** (MAX_PURE_QUBITS + 1)))
    assert err.value.check == "shape"


def test_dense_matrix_of_twelve_qubits_raises_without_allocating():
    # the 2**12 x 2**12 matrix would take 256 MB; asking for it must fail
    # before any of that is allocated
    state = from_pure_amplitudes(np.ones(2 ** 12))
    tracemalloc.start()
    try:
        with pytest.raises(StateValidationError) as err:
            state.matrix
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert err.value.check == "shape"
    assert peak < 2 ** 20
    assert state.dense is None
