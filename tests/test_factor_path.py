"""Low-rank states decided on their factor rho ~ G G^dag.

validate_state keeps a pivoted-Cholesky factor G, with its measured error
||rho - G G^dag||_F, when that error is at most FACTOR_TOL.  These tests
hold the factor path to the dense one on the mixed pairs of the acceptance
gate, check the validation bounds and the error budget, and count what the
path avoids.  The dense side is built with dense_only, which keeps no
factor.
"""

import dataclasses

import numpy as np
import pytest

import luequiv.engine
import luequiv.traceform
from luequiv import (
    EngineConfig,
    StateValidationError,
    apply_local_unitaries,
    decide_lu_equivalence,
    from_pure_amplitudes,
    haar_local_unitary,
    make_rng,
    preflight_invariants,
    random_mixed_state,
    random_pure_state,
    to_trace_form,
    validate_state,
)
from luequiv.engine import EQUIVALENT, MATCHED, phase_match
from luequiv.linalg import conjugate_local, gram_distance, kron_all
from luequiv.states import FACTOR_TOL, R_MAX
from tests.conftest import bell_state, dense_only, direct_residual, ghz_state
from tests.test_acceptance import generic_state, phase_diag

# ------------------------------------------------- the gate's mixed pairs


def c1_mixed_pairs():
    rng = make_rng(9000)
    for i in range(500):
        n = (2, 3, 4)[i % 3]
        rank = 1 if i % 2 == 0 else (2, 3, 4)[(i // 2) % 3]
        state = generic_state(n, rank, rng)
        rotated = apply_local_unitaries(state, [haar_local_unitary(rng) for _ in range(n)])
        if rank > 1:
            yield state.matrix, rotated.matrix


def c2_mixed_pairs():
    rng = make_rng(9100)
    for i in range(150):
        n = (2, 3)[i % 2]
        if i < 50:
            state = generic_state(n, 1 if i % 2 else 2, rng)
            target = apply_local_unitaries(state, [haar_local_unitary(rng) for _ in range(n)])
            if i % 2:
                continue
        elif i < 100:
            random_pure_state(n, rng)
            random_pure_state(n, rng)
            continue
        else:
            state = generic_state(n, 1, rng)
            rotated = apply_local_unitaries(state, [haar_local_unitary(rng) for _ in range(n)])
            noise = random_mixed_state(n, 2 ** n, rng)
            target = validate_state(0.99999 * rotated.matrix + 0.00001 * noise.matrix)
        yield state.matrix, target.matrix


def c6_mixed_pairs():
    # each mixed state of the criterion against its own trace form
    rng = make_rng(9500)
    for i in range(200):
        n = (1, 2, 3, 4)[i % 4]
        rank = 1 if i % 3 else min(2 ** n, 3)
        if rank == 1:
            random_pure_state(n, rng)
            continue
        state = random_mixed_state(n, rank, rng)
        yield state.matrix, to_trace_form(state).state.matrix


def c7_mixed_pairs():
    rng = make_rng(9600)
    for i in range(100):
        if i % 2 == 0:
            state = generic_state(3, 1, rng)
        else:
            state = generic_state(2, (2, 3, 4)[(i // 2) % 3], rng)
        tf = to_trace_form(state)
        omegas = rng.uniform(0.05, np.pi - 0.05, size=state.n)
        if i % 2:
            d = kron_all([phase_diag(w) for w in omegas])
            yield state.matrix, d @ tf.state.matrix @ d.conj().T


def conjugate_pairs():
    # rank-2 states against their complex conjugates, plain and LU-rotated:
    # equal spectra and marginal spectra, so the trace form decides
    for n in (2, 3, 4):
        for s in range(10):
            rng = make_rng(400 + 10 * n + s)
            state = random_mixed_state(n, 2, rng)
            conj = state.matrix.conj()
            if s % 2:
                conj = conjugate_local(conj, [haar_local_unitary(rng) for _ in range(n)])
            yield state.matrix, conj


@pytest.mark.parametrize(
    "pairs,count",
    [
        (c1_mixed_pairs, 250),
        (c2_mixed_pairs, 75),
        (c6_mixed_pairs, 67),
        (c7_mixed_pairs, 50),
        (conjugate_pairs, 30),
    ],
)
def test_factor_path_matches_dense_path_on_gate_pairs(pairs, count):
    seen = 0
    for ma, mb in pairs():
        seen += 1
        a, b = validate_state(ma), validate_state(mb)
        assert a.factor is not None and b.factor is not None
        fac = decide_lu_equivalence(a, b)
        den = decide_lu_equivalence(dense_only(ma), dense_only(mb))
        assert (fac.outcome, fac.reason) == (den.outcome, den.reason), seen
        if fac.outcome == EQUIVALENT:
            assert direct_residual(a, b, fac.witness.unitaries) <= 1e-9
            assert direct_residual(a, b, den.witness.unitaries) <= 1e-9
    assert seen == count


# ------------------------------------------------------------ validation


def with_low_eigenvalue(low: float) -> np.ndarray:
    """A 3-qubit density matrix of spectrum (0.6, 0.4 - low, low, 0, ...)."""
    rng = make_rng(17)
    q, _ = np.linalg.qr(rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8)))
    weights = np.zeros(8)
    weights[:3] = [0.6, 0.4 - low, low]
    return (q * weights) @ q.conj().T


@pytest.mark.parametrize("low,factor", [(-5e-13, True), (-5e-11, False)])
def test_eigenvalues_above_the_psd_floor_are_accepted(low, factor):
    # -5e-13 is within FACTOR_TOL, so the factor is kept and its spectrum
    # read from G^dag G; -5e-11 leaves a larger factor error, and the
    # matrix is diagonalized whole
    state = validate_state(with_low_eigenvalue(low))
    assert (state.factor is not None) == factor
    assert state.spectrum.min() == 0.0
    assert np.allclose(state.spectrum[:2], [0.6, 0.4], atol=1e-10)


def test_eigenvalue_below_the_psd_floor_is_rejected():
    with pytest.raises(StateValidationError) as err:
        validate_state(with_low_eigenvalue(-1e-9))
    assert err.value.check == "psd"
    assert err.value.residual == pytest.approx(1e-9, rel=1e-3)


def test_rank_above_r_max_keeps_no_factor():
    assert random_mixed_state(6, 64, 7).factor is None
    assert random_mixed_state(6, R_MAX + 1, 7).factor is None
    kept = random_mixed_state(6, R_MAX, 7)
    assert kept.rank == R_MAX
    assert kept.factor_error <= FACTOR_TOL


def test_rank_two_factor_at_nine_qubits():
    state = random_mixed_state(9, 2, 11)
    assert state.rank == 2
    assert state.factor_error <= FACTOR_TOL
    assert not state.factor.flags.writeable
    reference = np.linalg.eigvalsh(state.matrix)[::-1]
    assert np.max(np.abs(state.spectrum - reference)) <= 1e-15


# ---------------------------------------------------------- error budget


def near_rank_two(n: int, seed: int) -> np.ndarray:
    # a trace-2.5e-13 full-rank tail stays under FACTOR_TOL: a rank-2 factor
    # is kept with an error near 2.5e-13 / 2**(n/2), well above rounding
    eta = 2.5e-13
    return (1.0 - eta) * random_mixed_state(n, 2, seed).matrix + eta * np.eye(2 ** n) / 2 ** n


@pytest.mark.parametrize("n", [2, 3, 4])
def test_factor_witness_residual_bounds_the_kronecker_residual(n):
    for seed in range(5):
        rng = make_rng(500 + 10 * n + seed)
        a = validate_state(near_rank_two(n, rng))
        b = validate_state(conjugate_local(a.matrix, [haar_local_unitary(rng) for _ in range(n)]))
        assert a.rank == b.rank == 2
        assert a.factor_error > 1e-14
        verdict = decide_lu_equivalence(a, b)
        assert verdict.outcome == EQUIVALENT
        kron = direct_residual(a, b, verdict.witness.unitaries)
        # the check is fd + e_a + e_b with fd = ||G_b G_b^dag - (U G_a)(U G_a)^dag||.
        # rho_b is within e_b of G_b G_b^dag and U rho_a U^dag within e_a of
        # (U G_a)(U G_a)^dag, so |fd - kron| <= e_a + e_b: the check is at
        # least kron, and at most kron + 2 (e_a + e_b)
        errors = a.factor_error + b.factor_error
        assert kron <= verdict.witness.residual <= kron + 2 * errors + 1e-15


def test_factor_errors_widen_the_preflight_bound():
    # spectra read from factors are within the factor errors of the true
    # ones, so a global gap of 1.5e-9 does not reject when the errors sum
    # to 1e-9, and does without them
    a = random_mixed_state(3, 2, 23)
    spectrum = a.spectrum.copy()
    spectrum[:2] += [1.5e-9, -1.5e-9]
    b = dataclasses.replace(a, spectrum=spectrum)
    exact = preflight_invariants(a, b, 1e-9)
    assert exact.failed == "global_spectrum"
    assert exact.gap == pytest.approx(1.5e-9, rel=1e-6)
    loose = preflight_invariants(a, dataclasses.replace(b, factor_error=1e-9), 1e-9)
    assert loose.ok
    assert loose.global_gap == pytest.approx(0.5e-9, rel=1e-5)


# --------------------------------------------------- what the path avoids


def test_rank_two_decision_at_nine_qubits_conjugates_no_matrix(monkeypatch):
    calls = []
    reads = []

    def counting(m, factors):
        calls.append(m.shape)
        return conjugate_local(m, factors)

    def reading(m, g):
        reads.append(m.shape)
        return gram_distance(m, g)

    monkeypatch.setattr(luequiv.engine, "conjugate_local", counting)
    monkeypatch.setattr(luequiv.traceform, "conjugate_local", counting)
    monkeypatch.setattr(luequiv.engine, "gram_distance", reading)
    rng = make_rng(29)
    a = random_mixed_state(9, 2, rng)
    b = validate_state(conjugate_local(a.matrix, [haar_local_unitary(rng) for _ in range(9)]))
    verdict = decide_lu_equivalence(a, b)
    assert verdict.outcome == EQUIVALENT
    assert calls == []
    # the witness is checked against b's factor: b's matrix is not read
    assert reads == []
    assert verdict.witness.residual <= 1e-9
    form = to_trace_form(a)
    assert form.state.rank == 2 and form.state.factor_error == a.factor_error


# ------------------------------------------ degenerate marginals on factors


def one_mixed_rank_two(rng) -> np.ndarray:
    """(|0><0| x A + |1><1| x B) / 2 for two pure 3-qubit states: qubit 1 alone is mixed."""
    a, b = (random_pure_state(3, rng).amplitudes for _ in range(2))
    g = np.stack([np.kron([1, 0], a), np.kron([0, 1], b)], axis=1) / np.sqrt(2.0)
    return g @ g.conj().T


def degenerate_pairs():
    rng = make_rng(71)
    bell_psi = np.kron(bell_state().amplitudes, random_pure_state(1, rng).amplitudes)
    for name, state in [
        ("ghz3", ghz_state(3)),
        ("ghz4", ghz_state(4)),
        ("bell_psi", from_pure_amplitudes(bell_psi)),
        ("rank2_one_mixed", validate_state(one_mixed_rank_two(rng))),
        ("ghz5", ghz_state(5)),
    ]:
        rotated = apply_local_unitaries(state, [haar_local_unitary(rng) for _ in range(state.n)])
        yield name, state, rotated


@pytest.mark.parametrize("name,state,rotated", list(degenerate_pairs()))
def test_factor_fallback_matches_dense_fallback(monkeypatch, name, state, rotated):
    assert state.factor is not None and rotated.factor is not None
    config = EngineConfig(fallback=True)
    calls = []

    def counting(m, factors):
        calls.append(m.shape)
        return conjugate_local(m, factors)

    monkeypatch.setattr(luequiv.engine, "conjugate_local", counting)
    monkeypatch.setattr(luequiv.traceform, "conjugate_local", counting)
    on_factors = decide_lu_equivalence(state, rotated, config)
    # the search, the phase solve and the trace form all ran on the factors
    assert calls == []
    dense = dense_only(state.matrix), dense_only(rotated.matrix)
    on_matrices = decide_lu_equivalence(*dense, config)
    assert calls
    assert on_factors.outcome == on_matrices.outcome == EQUIVALENT
    assert on_factors.reason == on_matrices.reason
    assert on_factors.mixed_qubits == on_matrices.mixed_qubits != ()
    evaluations = on_factors.diagnostics["fallback_evaluations"]
    assert evaluations == on_matrices.diagnostics["fallback_evaluations"] > 0
    for u, v in zip(on_factors.witness.unitaries, on_matrices.witness.unitaries):
        assert np.max(np.abs(u - v)) <= 1e-12
    assert direct_residual(state, rotated, on_factors.witness.unitaries) <= 1e-9


@pytest.mark.parametrize("dense", [False, True])
def test_all_mixed_phase_match_reads_no_entries(monkeypatch, dense):
    def refuse(*args):
        raise AssertionError("an entries class was built")

    for name in ("_DenseEntries", "_AnchorEntries", "_RowEntries"):
        monkeypatch.setattr(luequiv.engine, name, refuse)
    rng = make_rng(73)
    state = ghz_state(3)
    rotated = apply_local_unitaries(state, [haar_local_unitary(rng) for _ in range(3)])
    if dense:
        state, rotated = dense_only(state.matrix), dense_only(rotated.matrix)
    ta, tb = to_trace_form(state), to_trace_form(rotated)
    assert all(f.maximally_mixed for f in ta.frames + tb.frames)
    result = phase_match(ta, tb, 1e-9)
    assert result.status == MATCHED and result.branches == 1 and result.min_modulus is None
    assert not result.assignment.omegas.any()
    if dense:
        traces = [np.trace(t.state.matrix).real for t in (ta, tb)]
    else:
        traces = [np.vdot(t.state.factor, t.state.factor).real for t in (ta, tb)]
    assert result.residual == abs(traces[0] - traces[1]) / 2**1.5
