"""The SU(2) block step between two pure states, and what the fallback skips.

Between two single columns the best SU(2) factor of one qubit is taken in
closed form (_top_su2_rank1); it is held to the eigenvector of the full
contraction (_best_su2_factor on the density matrices) and to sampled SU(2)
elements.  The step on any other ranks keeps the current factor's
projection when the top eigenvalue is repeated.  Also the correlation
matrix read from a factor, and the rotations by the identity that the
trace form and restart 0 leave out.
"""

import numpy as np
import pytest

import luequiv.engine
import luequiv.linalg
import luequiv.traceform
from luequiv import (
    EngineConfig,
    apply_local_unitaries,
    decide_lu_equivalence,
    expand,
    haar_local_unitary,
    make_rng,
    random_mixed_state,
    random_pure_state,
    to_trace_form,
)
from luequiv.engine import (
    EQUIVALENT,
    _best_su2_factor,
    _best_su2_on_factors,
    _correlation_matrix,
    _su2,
    _top_su2,
)
from luequiv.linalg import PAULIS, apply_local, kron_all
from tests.conftest import I2, dense_only, direct_residual, ghz_state
from tests.test_bell_diagonal import bell_diagonal, rotated_pair


def column(state) -> np.ndarray:
    return state.amplitudes[:, None]


def special(u: np.ndarray) -> np.ndarray:
    return u / np.sqrt(np.linalg.det(u))


def up_to_sign(u: np.ndarray, v: np.ndarray) -> float:
    return min(np.max(np.abs(u - v)), np.max(np.abs(u + v)))


def on_qubit(u: np.ndarray, k: int, n: int) -> np.ndarray:
    return kron_all([u if i == k else I2 for i in range(n)])


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_closed_form_step_matches_the_full_contraction(n):
    rng = make_rng(80 + n)
    for _ in range(4):
        h, phi = column(random_pure_state(n, rng)), column(random_pure_state(n, rng))
        for k in range(n):
            u = _best_su2_on_factors(h, phi, k, None)
            reference = _best_su2_factor(h @ h.conj().T, phi @ phi.conj().T, k)
            assert up_to_sign(u, reference) <= 1e-12
            assert np.max(np.abs(u @ u.conj().T - I2)) <= 1e-14


def test_closed_form_step_keeps_the_factor_when_nothing_overlaps():
    # <000| U_k |111> = 0 for every U_k: c = 0, and the current factor stays
    h, phi = np.zeros((8, 1), dtype=complex), np.zeros((8, 1), dtype=complex)
    h[0, 0] = phi[7, 0] = 1.0
    current = special(haar_local_unitary(make_rng(86)))
    for k in range(3):
        assert _best_su2_on_factors(h, phi, k, None) is None
        assert _best_su2_on_factors(h, phi, k, current) is current


@pytest.mark.parametrize("k", [0, 1])
def test_closed_form_step_with_parallel_real_and_imaginary_parts(k):
    # a Bell state has the reduction I/2 on each qubit, so for h = e^{it}
    # U_k phi the contraction is e^{it} U_k / 2 and c = e^{-it} q_U: x || y
    rng = make_rng(87 + k)
    phi = np.array([[1.0], [0.0], [0.0], [1.0]], dtype=complex) / np.sqrt(2)
    for t in (0.3, 1.1, 2.9):
        u = special(haar_local_unitary(rng))
        h = np.exp(1j * t) * on_qubit(u, k, 2) @ phi
        assert up_to_sign(_best_su2_on_factors(h, phi, k, None), u) <= 1e-12


def test_closed_form_step_with_an_isotropic_gram_matrix():
    # x perpendicular to y with |x| = |y|: every q in their span is best
    c = np.array([1.0, 2.0, 0.0, -1.0]) + 1j * np.array([2.0, -1.0, 1.0, 0.0])
    a = 0.5 * np.einsum("m,mij->ij", c, luequiv.engine._QUATERNION)
    # with phi the Bell state, A = H / sqrt(2) for H the 2x2 amplitude matrix of h
    h = np.sqrt(2) * a.reshape(4, 1)
    phi = np.array([[1.0], [0.0], [0.0], [1.0]], dtype=complex) / np.sqrt(2)
    u = _best_su2_on_factors(h, phi, 0, None)
    q = np.array([u[0, 0].real, u[0, 1].imag, u[0, 1].real, u[0, 0].imag])
    assert np.max(np.abs(_su2(q) - u)) <= 1e-15
    # (q.x)^2 + (q.y)^2 reaches the top eigenvalue |x|^2 = |y|^2 = 6
    assert abs(q @ c.real) ** 2 + abs(q @ c.imag) ** 2 == pytest.approx(6.0, abs=1e-12)


@pytest.mark.parametrize("k", [0, 1, 2])
def test_closed_form_step_is_the_exact_block_minimizer(k):
    # a planted rotation of qubit k is recovered to rounding, and no sampled
    # SU(2) element beats the closed form on an unrelated target
    rng = make_rng(90 + k)
    phi = column(random_pure_state(3, rng))
    r = phi @ phi.conj().T

    def residual(target, v):
        op = on_qubit(v, k, 3)
        return np.linalg.norm(target - op @ r @ op.conj().T)

    u = haar_local_unitary(rng)
    h = on_qubit(u, k, 3) @ phi
    planted = h @ h.conj().T
    best = _best_su2_on_factors(h, phi, k, None)
    assert np.linalg.norm(best @ best.conj().T - I2) < 1e-12
    assert abs(np.linalg.det(best) - 1) < 1e-12
    assert residual(planted, best) < 1e-12

    other = column(random_pure_state(3, rng))
    target = other @ other.conj().T
    floor = residual(target, _best_su2_on_factors(other, phi, k, None))
    assert all(floor <= residual(target, haar_local_unitary(rng)) + 1e-12 for _ in range(200))


def one_qubit_contraction(target: np.ndarray, r: np.ndarray) -> np.ndarray:
    """The W of _best_su2_factor for two single-qubit matrices."""
    four = (1, 2, 1) * 2
    return np.tensordot(target.reshape(four), r.reshape(four), axes=([0, 2, 3, 5], [3, 5, 0, 2]))


def ulp_moves(w: np.ndarray):
    """w with one real or imaginary part of one nonzero entry moved by one ulp either way."""
    for i in np.flatnonzero(w.reshape(-1)):
        for toward in (np.inf, -np.inf):
            for part in (1.0, 1j):
                x = w.copy().reshape(-1)
                z = (x[i] / part).real
                x[i] += (np.nextafter(z, toward) - z) * part
                yield x.reshape(w.shape)


@pytest.mark.parametrize("current", [None, "phase", "orthogonal"])
@pytest.mark.parametrize("target", ["plus", "y"])
def test_repeated_top_eigenvalue_keeps_the_current_factor(current, target):
    # every U with U|0> along |+> (or |+i>) is a maximizer, so K's top
    # eigenvalue is exactly double; a one-ulp move of W must not pick
    # another vector of that eigenspace.  A current factor orthogonal to
    # that eigenspace falls back to the first unit quaternion that is not
    targets = {"plus": np.full((2, 2), 0.5), "y": np.array([[0.5, -0.5j], [0.5j, 0.5]])}
    w = one_qubit_contraction(targets[target].astype(complex), np.diag([1.0, 0.0]).astype(complex))
    values, vectors = np.linalg.eigh((w.reshape(16) @ luequiv.engine._K_MAP).real.reshape(4, 4))
    assert values[-1] == values[-2] > values[-3]
    u_now = {
        None: None,
        "phase": _su2([np.cos(0.3), 0.0, 0.0, np.sin(0.3)]),
        "orthogonal": _su2(vectors[:, 0]),
    }[current]
    u = _top_su2(w, u_now)
    assert np.max(np.abs(u @ u.conj().T - I2)) <= 1e-14
    # the image of |0> is the target's eigenvector, up to a phase
    image = u[:, 0]
    assert abs(np.vdot(image, targets[target] @ image).real - 1.0) <= 1e-12
    for moved in ulp_moves(w):
        assert np.max(np.abs(_top_su2(moved, u_now) - u)) <= 1e-12


# --------------------------------------------------- correlation matrix


def pauli_block(state) -> np.ndarray:
    return 4.0 * expand(state).tensor()[1:, 1:]


@pytest.mark.parametrize("s", range(16))
def test_correlation_matrix_from_the_factor(s):
    for state in rotated_pair(bell_diagonal(make_rng(s).dirichlet(np.ones(4))), 1000 + s):
        assert state.factor is not None
        assert np.max(np.abs(_correlation_matrix(state) - pauli_block(state))) <= 1e-15


def test_correlation_matrix_of_a_dense_only_state():
    state = dense_only(random_mixed_state(2, 4, 96).matrix)
    assert state.factor is None
    assert np.max(np.abs(_correlation_matrix(state) - pauli_block(state))) <= 1e-15


def test_engine_reads_no_pauli_expansion():
    assert not hasattr(luequiv.engine, "expand")


# ------------------------------------------ rotations by the identity


def test_ghz4_fallback_rotates_by_no_identity(monkeypatch):
    factors_seen = []

    def counting(x, factors):
        factors_seen.extend(f for f in factors if f is not None)
        return apply_local(x, factors)

    for module in (luequiv.engine, luequiv.traceform, luequiv.linalg):
        monkeypatch.setattr(module, "apply_local", counting)
    rng = make_rng(97)
    state = ghz_state(4)
    rotated = apply_local_unitaries(state, [haar_local_unitary(rng) for _ in range(4)])
    verdict = decide_lu_equivalence(state, rotated, EngineConfig(fallback=True))
    assert verdict.outcome == EQUIVALENT
    assert verdict.diagnostics["fallback_evaluations"] > 0
    assert direct_residual(state, rotated, verdict.witness.unitaries) <= 1e-9
    assert factors_seen
    assert not any(np.array_equal(f, I2) for f in factors_seen)
    # every marginal of GHZ4 is maximally mixed: its trace form is itself
    form = to_trace_form(state).state
    assert np.array_equal(form.factor, state.factor)
    assert form.factor_error == state.factor_error


def test_su2_matches_the_quaternion_sum():
    rng = make_rng(98)
    e = PAULIS * np.array([1.0, 1j, 1j, 1j])[:, None, None]
    for _ in range(100):
        q = rng.normal(size=4)
        q /= np.linalg.norm(q)
        assert np.array_equal(_su2(q), np.einsum("m,mij->ij", q, e))
