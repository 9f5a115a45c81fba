"""Decision engine: preflight, phase matching, witnesses, and verdicts.

Witness residuals are always cross-checked with plain numpy matrix
algebra (direct_residual), never trusted from the engine's own numbers.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from luequiv import (
    EngineConfig,
    apply_local_unitaries,
    decide_lu_equivalence,
    expand,
    from_pure_amplitudes,
    haar_local_unitary,
    make_rng,
    normalize_special,
    phase_match,
    preflight_invariants,
    random_mixed_state,
    random_pure_state,
    to_trace_form,
    validate_state,
)
from luequiv.engine import (
    BY_GLOBAL_SPECTRUM,
    BY_MARGINAL_SPECTRA,
    BY_TRACE_FORM,
    EQUIVALENT,
    INDETERMINATE,
    MATCHED,
    NO_SOLUTION,
    NOT_EQUIVALENT,
    _best_su2_factor,
    _pinning_equations,
    assemble_witness,
    smith_form,
)
from luequiv.linalg import conjugate_local, kron_all
from tests.conftest import (
    I2,
    SX,
    SY,
    SZ,
    bell_state,
    dephased,
    direct_residual,
    ghz_state,
    kron_chain,
    lu_equivalent_pair,
    schmidt_state,
    w_state,
)


def phase_diag(omega: float) -> np.ndarray:
    return np.diag([np.exp(1j * omega), np.exp(-1j * omega)])


# ---------------------------------------------------------------- preflight


def test_preflight_accepts_equivalent_pair():
    state, rotated, _ = lu_equivalent_pair(3, seed=3)
    report = preflight_invariants(state, rotated, 1e-9)
    assert report.ok
    assert report.global_gap < 1e-12


def test_preflight_schmidt_gap_value():
    # frozen: cos^2(pi/8) - cos^2(pi/6) = 0.10355339059327362
    a = schmidt_state(np.pi / 8)
    b = schmidt_state(np.pi / 6)
    report = preflight_invariants(a, b, 1e-9)
    assert not report.ok
    assert report.qubit == 1
    assert max(report.marginal_gaps) == pytest.approx(0.10355339059327362, abs=1e-12)


def test_preflight_global_spectrum_first():
    # pure vs dephased: marginals agree, global spectra differ
    state = schmidt_state(np.pi / 8)
    mixed = dephased(state)
    report = preflight_invariants(state, mixed, 1e-9)
    assert not report.ok
    assert report.qubit is None  # global check fires before marginals
    assert report.global_gap > 0.1


def test_preflight_dimension_mismatch():
    with pytest.raises(ValueError):
        preflight_invariants(bell_state(), ghz_state(3), 1e-9)


def _marginal_shift_pair(n: int, rank: int, s: int, c: float):
    """a, and a rotated copy of it plus c (r.sigma x I x ... x I).

    r is the Bloch axis of qubit 1 of the rotated matrix, so the
    perturbation moves qubit 1's marginal eigenvalues by c 2^(n-1) and no
    other marginal; its Frobenius norm is c 2^(n/2).
    """
    rng = make_rng(700 + 10 * n + s)
    a = random_mixed_state(n, rank, rng)
    rotated = conjugate_local(a.matrix, [haar_local_unitary(rng) for _ in range(n)])
    q = rotated.reshape(2, 2 ** (n - 1), 2, 2 ** (n - 1)).trace(axis1=1, axis2=3)
    axis = np.array([2 * q[0, 1].real, -2 * q[0, 1].imag, (q[0, 0] - q[1, 1]).real])
    axis /= np.linalg.norm(axis)
    r_sigma = axis[0] * SX + axis[1] * SY + axis[2] * SZ
    return a, validate_state(rotated + c * np.kron(r_sigma, np.eye(2 ** (n - 1))))


@pytest.mark.parametrize("n,rank", [(6, 64), (8, 4)])
@pytest.mark.parametrize("s", range(3))
def test_preflight_passes_pairs_with_a_witness_within_tol(n, rank, s):
    # the perturbation has norm tol / 2 but moves a marginal eigenvalue by
    # tol 2^(n/2 - 2) (2e-9 at n = 6, 4e-9 at n = 8), above tol: only the
    # marginal bound 2^((n-1)/2) tol lets the witness through
    tol = EngineConfig().tol
    a, b = _marginal_shift_pair(n, rank, s, tol / (2 * 2 ** (n / 2)))
    verdict = decide_lu_equivalence(a, b)
    assert verdict.outcome == EQUIVALENT
    assert max(verdict.diagnostics["preflight"]["marginal_gaps"]) > tol
    assert direct_residual(a, b, verdict.witness.unitaries) <= tol


def test_preflight_rejects_a_marginal_gap_above_its_bound():
    tol, n = EngineConfig().tol, 6
    bound = 2 ** ((n - 1) / 2) * tol
    a, b = _marginal_shift_pair(n, 64, 0, 1.5 * bound / 2 ** (n - 1))
    verdict = decide_lu_equivalence(a, b)
    assert verdict.reason == BY_MARGINAL_SPECTRA
    assert verdict.diagnostics["preflight"]["failed_qubit"] == 1
    assert verdict.diagnostics["preflight"]["gap"] == pytest.approx(1.5 * bound, rel=1e-3)


# ------------------------------------------------------------ phase matching


def test_phase_match_identity_pair():
    tf = to_trace_form(schmidt_state(np.pi / 8))
    result = phase_match(tf, tf, 1e-9)
    assert result.status == MATCHED
    assert result.residual < 1e-12


def test_phase_match_recovers_injected_phase():
    # conjugate a trace form by a known diagonal phase on one qubit;
    # matching must recover omega mod pi
    state, _, _ = lu_equivalent_pair(3, seed=77)
    tf = to_trace_form(state)
    omega = np.pi / 5
    mats = [I2, phase_diag(omega), I2]
    d = kron_all(mats)
    twisted = validate_state(d @ tf.state.matrix @ d.conj().T)
    tf_twisted = to_trace_form(twisted)

    result = phase_match(tf, tf_twisted, 1e-9)
    assert result.status == MATCHED
    assert result.residual < 1e-10
    got = result.assignment.omegas[1] % np.pi
    assert got == pytest.approx(omega, abs=1e-8)


def test_phase_match_no_solution_for_twisted_coefficients():
    # psi vs conj(psi) at n=3: same spectra everywhere, no phase assignment
    rng = make_rng(99)
    state = random_pure_state(3, rng)
    amp = np.linalg.eigh(state.matrix)[1][:, -1]
    conj_state = from_pure_amplitudes(np.conj(amp))
    ta = to_trace_form(state)
    tb = to_trace_form(conj_state)
    result = phase_match(ta, tb, 1e-9)
    assert result.status == NO_SOLUTION


def test_phase_match_residual_matches_coefficient_distance():
    # the reported residual is the Frobenius distance of the matched forms
    state, _, _ = lu_equivalent_pair(2, seed=55)
    tf = to_trace_form(state)
    omega = 0.9
    d = kron_all([phase_diag(omega), I2])
    twisted = validate_state(d @ tf.state.matrix @ d.conj().T)
    tf_twisted = to_trace_form(twisted)
    result = phase_match(tf, tf_twisted, 1e-9)
    assert result.status == MATCHED

    omegas = result.assignment.omegas
    mats = [phase_diag(w) for w in omegas]
    rebuilt = kron_all(mats) @ tf.state.matrix @ kron_all(mats).conj().T
    direct = float(np.linalg.norm(rebuilt - tf_twisted.state.matrix))
    assert result.residual == pytest.approx(direct, abs=1e-12)


@pytest.mark.parametrize(
    "s,d",
    [
        ([[1, 1], [1, -1]], [1, 2]),
        ([[2, 4], [6, 8]], [2, 4]),
        ([[1, 1, 0], [0, 1, 1], [1, 0, 1]], [1, 1, 2]),
        ([[1, -1, 1]], [1]),
        ([[1, 1], [1, 1]], [1]),
        ([[0, 0], [0, 0]], []),
    ],
)
def test_smith_form_diagonalizes(s, d):
    s = np.array(s)
    u, got, v = smith_form(s)
    assert list(got) == d
    assert abs(round(np.linalg.det(u))) == 1 and abs(round(np.linalg.det(v))) == 1
    want = np.zeros_like(s)
    want[range(len(d)), range(len(d))] = d
    assert np.array_equal(u @ s @ v, want)


def _exact_det(m) -> int:
    """Determinant of a square integer matrix, by Bareiss elimination on Python ints."""
    a = [[int(x) for x in row] for row in m]
    sign, prev = 1, 1
    for k in range(len(a) - 1):
        if a[k][k] == 0:
            swap = next((i for i in range(k + 1, len(a)) if a[i][k]), None)
            if swap is None:
                return 0
            a[k], a[swap] = a[swap], a[k]
            sign = -sign
        for i in range(k + 1, len(a)):
            for j in range(k + 1, len(a)):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return sign * a[-1][-1] if a else 1


def _smith_cases():
    """Empty, all-zero, sign-pattern, wider-range, low-rank and scaled integer matrices."""
    rng = np.random.Generator(np.random.Philox(314))
    cases = [np.zeros((0, 4), dtype=np.int64), np.zeros((3, 0), dtype=np.int64)]
    cases += [np.zeros(shape, dtype=np.int64) for shape in ((1, 1), (5, 7), (16, 16))]
    for _ in range(40):
        rows, cols = (int(x) for x in rng.integers(1, 17, size=2))
        cases.append(rng.integers(-1, 2, size=(rows, cols)))
        cases.append(rng.integers(-5, 6, size=(rows, cols)))
        inner = int(rng.integers(1, min(rows, cols) + 1))
        low = rng.integers(-2, 3, size=(rows, inner)) @ rng.integers(-2, 3, size=(inner, cols))
        cases.append(low)
        cases.append(6 * rng.integers(-1, 2, size=(rows, cols)))
    return cases


def test_smith_form_properties_on_random_integer_matrices():
    for s in _smith_cases():
        u, d, v = smith_form(s)
        rows, cols = s.shape
        assert u.shape == (rows, rows) and v.shape == (cols, cols)
        # exact products, in Python ints: the multipliers may outgrow int64
        exact = u.astype(object) @ s.astype(object) @ v.astype(object)
        want = np.zeros((rows, cols), dtype=object)
        want[range(len(d)), range(len(d))] = d
        assert np.array_equal(exact, want)
        assert len(d) == (np.linalg.matrix_rank(s.astype(float)) if s.size else 0)
        assert all(x > 0 for x in d)
        assert all(hi % lo == 0 for lo, hi in zip(d, d[1:]))
        assert abs(_exact_det(u)) == 1 and abs(_exact_det(v)) == 1


def _greedy_by_matrix_rank(flat, weight, m):
    """Heaviest first (stable), keep a row when np.linalg.matrix_rank grows, stop at m."""
    order = flat[np.argsort(-weight, kind="stable")]
    r, c = np.divmod(order, 2**m)
    shifts = np.arange(m - 1, -1, -1)
    rows = ((c[:, None] >> shifts) & 1) - ((r[:, None] >> shifts) & 1)
    chosen = []
    for k in range(len(order)):
        if len(chosen) == m:
            break
        if np.linalg.matrix_rank(rows[chosen + [k]]) > len(chosen):
            chosen.append(k)
    return order[chosen], rows[chosen]


def test_pinning_equations_match_a_matrix_rank_greedy():
    rng = np.random.Generator(np.random.Philox(2025))
    for trial in range(400):
        m = int(rng.integers(1, 11))
        size = min(int(rng.integers(0, 60)), 4**m)
        flat = rng.choice(4**m, size=size, replace=False)
        weight = rng.random(size)
        if trial % 3 == 0:
            weight = np.round(weight, 1)  # ties keep the stable order
        eq, rows, eq_weight = _pinning_equations(flat, weight, m)
        want_eq, want_rows = _greedy_by_matrix_rank(flat, weight, m)
        assert np.array_equal(eq, want_eq)
        assert np.array_equal(rows, want_rows) and rows.shape == (len(want_eq), m)
        weight_of = dict(zip(flat.tolist(), weight.tolist()))
        assert eq_weight.tolist() == [weight_of[x] for x in eq.tolist()]


def _twisted_trace_forms(amp, omegas):
    """Trace form of a pure state and its conjugate by the injected phases."""
    tf = to_trace_form(from_pure_amplitudes(amp))
    d = kron_all([phase_diag(w) for w in omegas])
    return tf, to_trace_form(validate_state(d @ tf.state.matrix @ d.conj().T))


def test_phase_match_sparse_support_without_anchors():
    # support {000, 011, 101, 110}: no two strings one bit apart, so no entry
    # pins a single qubit's phase.  Z x Z x Z fixes every even-weight string,
    # so the phases are recovered mod pi up to a common shift of pi/2
    amp = np.zeros(8, dtype=complex)
    amp[[0, 3, 5, 6]] = [0.7, 0.45 * np.exp(0.4j), 0.3 * np.exp(-2.0j), 0.2 * np.exp(1.1j)]
    omegas = np.array([0.3, 1.9, 2.6])
    tf, tf_twisted = _twisted_trace_forms(amp, omegas)
    result = phase_match(tf, tf_twisted, 1e-9)
    assert result.status == MATCHED
    diff = np.asarray(result.assignment.omegas) - omegas
    err = min(
        np.max(np.abs((diff - shift + np.pi / 2) % np.pi - np.pi / 2))
        for shift in (0.0, np.pi / 2)
    )
    assert err < 1e-8


@pytest.mark.parametrize("eps", [0.0, 0.01])
def test_phase_match_two_branch_x_state(eps):
    # heaviest coherences at (00, 11) and (01, 10): the equations w1 + w2 and
    # w1 - w2 have a Smith form with d = (1, 2), so two branches.  Without
    # other coherences both match (Z x Z fixes the state); the light (00, 01)
    # and (10, 11) coherences, opposite so the marginals stay diagonal, flip
    # sign under the second branch, which must then be rejected
    phi = np.array([0.8, 0, 0, 0.6 * np.exp(0.9j)])
    psi = np.array([0, 0.9, 0.436 * np.exp(-0.5j), 0])
    psi = psi / np.linalg.norm(psi)
    rho = 0.7 * np.outer(phi, phi.conj()) + 0.3 * np.outer(psi, psi.conj())
    rho = 0.8 * rho + 0.05 * np.eye(4)
    rho[0, 1] = rho[1, 0] = eps
    rho[2, 3] = rho[3, 2] = -eps
    tf = to_trace_form(validate_state(rho))
    d = kron_all([phase_diag(0.4), phase_diag(1.3)])
    tf_twisted = to_trace_form(validate_state(d @ tf.state.matrix @ d.conj().T))
    result = phase_match(tf, tf_twisted, 1e-9)
    assert result.status == MATCHED
    assert result.branches == 2
    rebuilt = kron_all([phase_diag(w) for w in result.assignment.omegas])
    delta = rebuilt @ tf.state.matrix @ rebuilt.conj().T - tf_twisted.state.matrix
    assert np.max(np.abs(delta)) < 1e-12


# ------------------------------------------------------------------ witness


def test_assemble_witness_schmidt_example():
    # build the pair by conjugation, then check the assembled witness acts
    # correctly; for 2-qubit Schmidt states only the phase sum is pinned,
    # so assert the action, not the matrix entries
    state = schmidt_state(np.pi / 8)
    rng = make_rng(7)
    us = [haar_local_unitary(rng) for _ in range(2)]
    rotated = apply_local_unitaries(state, us)

    verdict = decide_lu_equivalence(state, rotated)
    assert verdict.outcome == EQUIVALENT
    w = verdict.witness
    assert w.residual < 1e-9
    assert direct_residual(state, rotated, w.unitaries) < 1e-9
    # marginal covariance holds qubit by qubit
    from luequiv import reduced_qubit

    for q, u in zip((1, 2), w.unitaries):
        want = u @ reduced_qubit(state, q) @ u.conj().T
        assert np.allclose(reduced_qubit(rotated, q), want, atol=1e-9)


def test_witness_unique_up_to_phase_generic_n3():
    # generic 3-qubit pure states have a trivial trace-form stabilizer, so
    # recovered unitaries match the applied ones up to one phase per qubit
    state, rotated, applied = lu_equivalent_pair(3, seed=15)
    verdict = decide_lu_equivalence(state, rotated)
    assert verdict.outcome == EQUIVALENT
    for got, want in zip(verdict.witness.unitaries, applied):
        ratio = got @ np.linalg.inv(want)
        # ratio must be a global phase times identity
        phase = ratio[0, 0] / abs(ratio[0, 0])
        assert np.allclose(ratio, phase * I2, atol=1e-7)


def test_witness_sigma_x_for_bit_flip():
    # |00> vs |11>: each witness factor is sigma_x up to phase
    a = from_pure_amplitudes(np.array([1, 0, 0, 0], dtype=complex))
    b = from_pure_amplitudes(np.array([0, 0, 0, 1], dtype=complex))
    verdict = decide_lu_equivalence(a, b)
    assert verdict.outcome == EQUIVALENT
    for u in verdict.witness.unitaries:
        assert np.allclose(np.abs(u), SX.real, atol=1e-10)
    assert direct_residual(a, b, verdict.witness.unitaries) < 1e-10


def test_reflexivity_gives_identity_witness():
    state, _, _ = lu_equivalent_pair(2, seed=23)
    verdict = decide_lu_equivalence(state, state)
    assert verdict.outcome == EQUIVALENT
    assert verdict.witness.residual < 1e-12
    for u in verdict.witness.unitaries:
        phase = u[0, 0] / abs(u[0, 0])
        assert np.allclose(u, phase * I2, atol=1e-9)


def test_normalize_special_det_one():
    rng = make_rng(29)
    for _ in range(20):
        u = haar_local_unitary(rng)
        s = normalize_special(u)
        assert abs(np.linalg.det(s) - 1) < 1e-12
        # same unitary up to global phase
        ratio = s @ u.conj().T
        assert np.allclose(ratio, ratio[0, 0] * I2, atol=1e-12)


# ------------------------------------------------------------------ verdicts


@pytest.mark.parametrize("n,rank,seed", [(2, 1, 1), (2, 3, 2), (3, 1, 3), (3, 2, 4), (4, 1, 5)])
def test_equivalent_pairs_certified(n, rank, seed):
    state, rotated, _ = lu_equivalent_pair(n, seed=seed, rank=rank)
    verdict = decide_lu_equivalence(state, rotated)
    assert verdict.outcome == EQUIVALENT
    assert direct_residual(state, rotated, verdict.witness.unitaries) < 1e-8


def test_not_equivalent_by_marginal_spectra():
    verdict = decide_lu_equivalence(schmidt_state(np.pi / 8), schmidt_state(np.pi / 6))
    assert verdict.outcome == NOT_EQUIVALENT
    assert verdict.reason == BY_MARGINAL_SPECTRA
    assert verdict.witness is None


def test_not_equivalent_by_global_spectrum():
    state = schmidt_state(np.pi / 8)
    verdict = decide_lu_equivalence(state, dephased(state))
    assert verdict.outcome == NOT_EQUIVALENT
    assert verdict.reason == BY_GLOBAL_SPECTRUM


def test_ghz_vs_w():
    verdict = decide_lu_equivalence(ghz_state(3), w_state())
    assert verdict.outcome == NOT_EQUIVALENT
    assert verdict.reason == BY_MARGINAL_SPECTRA


def test_not_equivalent_by_trace_form():
    # conj(psi) pair: passes preflight, fails the torus search provably
    rng = make_rng(99)
    state = random_pure_state(3, rng)
    amp = np.linalg.eigh(state.matrix)[1][:, -1]
    conj_state = from_pure_amplitudes(np.conj(amp))
    verdict = decide_lu_equivalence(state, conj_state)
    assert verdict.outcome == NOT_EQUIVALENT
    assert verdict.reason == BY_TRACE_FORM


def test_ghz_pair_indeterminate_without_fallback():
    # every marginal is maximally mixed: the trace form cannot see the
    # remaining SU(2) freedom, so without the fallback the engine abstains
    rng = make_rng(120)
    ghz = ghz_state(3)
    rotated = apply_local_unitaries(ghz, [haar_local_unitary(rng) for _ in range(3)])
    verdict = decide_lu_equivalence(ghz, rotated)
    assert verdict.outcome == INDETERMINATE
    assert verdict.mixed_qubits == (1, 2, 3)
    assert not verdict.fallback_attempted


def test_ghz_pair_fallback_certifies():
    rng = make_rng(121)
    ghz = ghz_state(3)
    rotated = apply_local_unitaries(ghz, [haar_local_unitary(rng) for _ in range(3)])
    config = EngineConfig(fallback=True)
    verdict = decide_lu_equivalence(ghz, rotated, config)
    assert verdict.outcome == EQUIVALENT
    assert verdict.fallback_attempted
    assert direct_residual(ghz, rotated, verdict.witness.unitaries) < 1e-7
    assert verdict.diagnostics["fallback_evaluations"] > 0


def test_bell_pair_fallback():
    rng = make_rng(122)
    bell = bell_state()
    rotated = apply_local_unitaries(bell, [haar_local_unitary(rng) for _ in range(2)])
    verdict = decide_lu_equivalence(bell, rotated, EngineConfig(fallback=True))
    assert verdict.outcome == EQUIVALENT
    assert direct_residual(bell, rotated, verdict.witness.unitaries) < 1e-7


def test_identical_ghz_still_needs_fallback():
    # even a trivially equal pair with degenerate marginals is indeterminate
    # without the fallback: the trace form carries no frame information
    ghz = ghz_state(3)
    verdict = decide_lu_equivalence(ghz, ghz)
    assert verdict.outcome == INDETERMINATE
    verdict = decide_lu_equivalence(ghz, ghz, EngineConfig(fallback=True))
    assert verdict.outcome == EQUIVALENT
    assert verdict.witness.residual < 1e-9


def test_partially_mixed_pair_fallback():
    # one qubit maximally mixed, the others generic
    rng = make_rng(133)
    bell = bell_state()
    extra = random_pure_state(1, rng)
    amp2 = np.linalg.eigh(extra.matrix)[1][:, -1]
    amp = np.kron(np.array([2 ** -0.5, 0, 0, 2 ** -0.5]), amp2)
    state = from_pure_amplitudes(amp)
    us = [haar_local_unitary(rng) for _ in range(3)]
    rotated = apply_local_unitaries(state, us)

    verdict = decide_lu_equivalence(state, rotated)
    assert verdict.outcome == INDETERMINATE
    assert verdict.mixed_qubits == (1, 2)

    verdict = decide_lu_equivalence(state, rotated, EngineConfig(fallback=True))
    assert verdict.outcome == EQUIVALENT
    assert direct_residual(state, rotated, verdict.witness.unitaries) < 1e-7


@pytest.mark.parametrize("k", [0, 1, 2])
def test_best_su2_factor_is_the_exact_block_minimizer(k):
    # a planted rotation of qubit k is recovered to rounding, and no sampled
    # SU(2) element beats the closed form on an unrelated target
    rng = make_rng(70 + k)
    a = random_mixed_state(3, 2, rng).matrix

    def residual(target, v):
        op = kron_all([v if i == k else I2 for i in range(3)])
        return np.linalg.norm(target - op @ a @ op.conj().T)

    u = haar_local_unitary(rng)
    op = kron_all([u if i == k else I2 for i in range(3)])
    planted = op @ a @ op.conj().T
    best = _best_su2_factor(planted, a, k)
    assert np.linalg.norm(best @ best.conj().T - I2) < 1e-12
    assert abs(np.linalg.det(best) - 1) < 1e-12
    assert residual(planted, best) < 1e-12

    other = random_mixed_state(3, 2, rng).matrix
    floor = residual(other, _best_su2_factor(other, a, k))
    assert all(floor <= residual(other, haar_local_unitary(rng)) + 1e-12 for _ in range(200))


def test_bell_diagonal_fallback_certifies():
    # both marginals maximally mixed, so the whole witness comes from the
    # SU(2) search
    weights = make_rng(6).dirichlet(np.ones(4))
    bell_basis = np.array([[1, 0, 0, 1], [1, 0, 0, -1], [0, 1, 1, 0], [0, 1, -1, 0]]) / np.sqrt(2)
    rho = sum(w * np.outer(beta, beta) for w, beta in zip(weights, bell_basis)).astype(complex)
    rng = make_rng(1006)
    u = kron_chain([haar_local_unitary(rng) for _ in range(2)])
    a, b = validate_state(rho), validate_state(u @ rho @ u.conj().T)
    verdict = decide_lu_equivalence(a, b, EngineConfig(fallback=True))
    assert verdict.outcome == EQUIVALENT
    assert verdict.mixed_qubits == (1, 2)
    assert direct_residual(a, b, verdict.witness.unitaries) <= 1e-9


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_fallback_needs_the_reduced_phase_solve(seed):
    # Bell x chi: qubits 1, 2 maximally mixed, qubits 3, 4 generic.  Tracing
    # out the Bell pair leaves chi, and the conjugate of a generic two-qubit
    # mixed state fails the phase solve, so the SU(2) search never starts
    chi = random_mixed_state(2, 2, seed)
    bell = bell_state().matrix
    state = validate_state(np.kron(bell, chi.matrix))
    rng = make_rng(100 + seed)
    us = [haar_local_unitary(rng) for _ in range(4)]
    config = EngineConfig(fallback=True)

    partner = apply_local_unitaries(validate_state(np.kron(bell, np.conj(chi.matrix))), us)
    verdict = decide_lu_equivalence(state, partner, config)
    assert verdict.outcome == INDETERMINATE
    assert verdict.mixed_qubits == (1, 2)
    assert verdict.fallback_attempted
    assert not verdict.budget_exhausted
    assert verdict.diagnostics["phase_status"] == NO_SOLUTION
    assert "fallback_evaluations" not in verdict.diagnostics

    rotated = apply_local_unitaries(state, us)
    verdict = decide_lu_equivalence(state, rotated, config)
    assert verdict.outcome == EQUIVALENT
    assert verdict.fallback_attempted
    assert verdict.diagnostics["phase_status"] == MATCHED
    assert direct_residual(state, rotated, verdict.witness.unitaries) <= 1e-7


def test_inequivalent_degenerate_pair_stays_indeterminate():
    # equal spectra, every marginal maximally mixed, yet inequivalent:
    # one eigenbasis is product, the other entangled.  The fallback must
    # exhaust its budget and abstain rather than claim a rejection
    m_a = np.zeros((8, 8), dtype=complex)
    m_a[0, 0] = m_a[7, 7] = 0.5
    a = validate_state(m_a)

    phi0 = np.zeros(8, dtype=complex)
    phi0[0b000] = phi0[0b110] = 2 ** -0.5
    psi1 = np.zeros(8, dtype=complex)
    psi1[0b011] = 2 ** -0.5
    psi1[0b101] = -(2 ** -0.5)
    m_b = 0.5 * np.outer(phi0, phi0.conj()) + 0.5 * np.outer(psi1, psi1.conj())
    b = validate_state(m_b)

    verdict = decide_lu_equivalence(a, b, EngineConfig(fallback=True))
    assert verdict.outcome == INDETERMINATE
    assert verdict.fallback_attempted
    assert verdict.budget_exhausted
    assert verdict.diagnostics["fallback_evaluations"] > 0


@pytest.mark.parametrize(
    "field,value",
    [
        ("tol", 0.0),
        ("tol", -1e-9),
        ("tol", float("nan")),
        ("fallback_restarts", 0),
    ],
)
def test_engine_config_rejects_invalid_values(field, value):
    with pytest.raises(ValueError, match=field):
        EngineConfig(**{field: value})
    EngineConfig(**{field: 1})  # finite and positive is accepted


def test_dimension_mismatch_raises():
    with pytest.raises(ValueError):
        decide_lu_equivalence(bell_state(), ghz_state(3))


def test_verdict_diagnostics_present():
    state, rotated, _ = lu_equivalent_pair(2, seed=61)
    verdict = decide_lu_equivalence(state, rotated)
    assert "phase_residual" in verdict.diagnostics or "direct_distance" in verdict.diagnostics


# ----------------------------------------------------------------- symmetry


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 10 ** 5))
def test_decision_symmetric(seed):
    # equivalence is symmetric: checking (a, b) and (b, a) must agree
    state, rotated, _ = lu_equivalent_pair(2, seed=seed)
    va = decide_lu_equivalence(state, rotated)
    vb = decide_lu_equivalence(rotated, state)
    assert va.outcome == vb.outcome == EQUIVALENT
    assert direct_residual(rotated, state, vb.witness.unitaries) < 1e-8


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 10 ** 5))
def test_reflexive_on_mixed_states(seed):
    rng = make_rng(seed)
    state = random_mixed_state(2, 3, rng)
    verdict = decide_lu_equivalence(state, state)
    assert verdict.outcome == EQUIVALENT
    assert verdict.witness.residual < 1e-10


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 10 ** 5))
def test_random_pure_pairs_not_equivalent(seed):
    # independently drawn pure states are almost surely inequivalent
    rng = make_rng(seed)
    a = random_pure_state(2, rng)
    b = random_pure_state(2, rng)
    verdict = decide_lu_equivalence(a, b)
    assert verdict.outcome in (NOT_EQUIVALENT, INDETERMINATE, EQUIVALENT)
    if verdict.outcome == EQUIVALENT:
        assert direct_residual(a, b, verdict.witness.unitaries) < 1e-8
