"""Pure states kept as amplitude vectors.

A pure pair is decided on its amplitudes: marginals, trace form, phase
solve and witness check.  These tests hold that path to the dense one, on
the pure pairs of the acceptance gate and on near-equal pairs where a
careless formula would cancel; the reference values are plain numpy.
"""

import tracemalloc

import numpy as np
import pytest

import luequiv.engine
import luequiv.traceform
from luequiv import (
    EngineConfig,
    NQubitState,
    apply_local_unitaries,
    decide_lu_equivalence,
    from_pure_amplitudes,
    haar_local_unitary,
    make_rng,
    random_mixed_state,
    random_pure_state,
    to_trace_form,
)
from luequiv.cli import run_command
from luequiv.engine import BY_TRACE_FORM, EQUIVALENT, INDETERMINATE, phase_match
from luequiv.linalg import apply_local, conjugate_local, kron_all
from tests.conftest import dense_only, direct_residual, kron_chain
from tests.test_acceptance import generic_state, phase_diag, sparse_support_state


def dense_twin(psi: np.ndarray):
    return dense_only(np.outer(psi, psi.conj()))


# ------------------------------------------------- the gate's pure pairs


def c1_pure_pairs():
    rng = make_rng(9000)
    for i in range(500):
        n = (2, 3, 4)[i % 3]
        rank = 1 if i % 2 == 0 else (2, 3, 4)[(i // 2) % 3]
        state = generic_state(n, rank, rng)
        unitaries = [haar_local_unitary(rng) for _ in range(n)]
        if rank == 1:
            yield state.amplitudes, apply_local_unitaries(state, unitaries).amplitudes


def c2_pure_pairs():
    rng = make_rng(9100)
    for i in range(150):
        n = (2, 3)[i % 2]
        if i < 50:
            state = generic_state(n, 1 if i % 2 else 2, rng)
            target = apply_local_unitaries(state, [haar_local_unitary(rng) for _ in range(n)])
        elif i < 100:
            state = random_pure_state(n, rng)
            target = random_pure_state(n, rng)
        else:
            # blended with mixed noise, so the target is not pure; the draws
            # only keep the stream in step with the criterion
            generic_state(n, 1, rng)
            [haar_local_unitary(rng) for _ in range(n)]
            random_mixed_state(n, 2 ** n, rng)
            continue
        if state.amplitudes is not None:
            yield state.amplitudes, target.amplitudes


def c7_pure_pairs():
    rng = make_rng(9600)
    for i in range(100):
        if i % 2 == 0:
            state = generic_state(3, 1, rng)
        else:
            state = generic_state(2, (2, 3, 4)[(i // 2) % 3], rng)
        omegas = rng.uniform(0.05, np.pi - 0.05, size=state.n)
        if state.amplitudes is not None:
            phi = to_trace_form(state).state.amplitudes
            yield phi, kron_all([phase_diag(w) for w in omegas]) @ phi


def c10_pure_pairs():
    rng = make_rng(10004)
    for i in range(500):
        n = (2, 3, 4)[i % 3]
        state = sparse_support_state(n, rng)
        rotated = apply_local_unitaries(state, [haar_local_unitary(rng) for _ in range(n)])
        yield state.amplitudes, rotated.amplitudes
    amp = np.zeros(8, dtype=complex)
    amp[[0, 3, 5, 6]] = [0.6, 0.5 * np.exp(0.7j), 0.005 * np.exp(2.1j), 0.62 * np.exp(-1.3j)]
    state = from_pure_amplitudes(amp)
    rng = make_rng(0)
    yield state.amplitudes, apply_local_unitaries(
        state, [haar_local_unitary(rng) for _ in range(3)]
    ).amplitudes


@pytest.mark.parametrize(
    "pairs,count",
    [(c1_pure_pairs, 250), (c2_pure_pairs, 75), (c7_pure_pairs, 50), (c10_pure_pairs, 501)],
)
def test_vector_path_matches_dense_path_on_gate_pairs(pairs, count):
    seen = 0
    for psi, phi in pairs():
        seen += 1
        vec = decide_lu_equivalence(from_pure_amplitudes(psi), from_pure_amplitudes(phi))
        den = decide_lu_equivalence(dense_twin(psi), dense_twin(phi))
        assert (vec.outcome, vec.reason) == (den.outcome, den.reason), seen
        assert vec.diagnostics["preflight"]["global_gap"] <= 1e-12
        if "direct_distance" in den.diagnostics:
            assert vec.diagnostics["direct_distance"] == pytest.approx(
                den.diagnostics["direct_distance"], abs=1e-12
            )
        if vec.outcome == EQUIVALENT:
            assert abs(vec.witness.residual - den.witness.residual) <= 1e-12
    assert seen == count


# ------------------------------------------------------ cancellation traps


@pytest.mark.parametrize("seed", range(3))
def test_near_equal_pair_keeps_relative_precision(seed):
    # an LU pair with 1e-10 of noise per amplitude, renormalised: residual
    # and modulus bound sit near 1e-8, where 1 - |<psi'|U psi>|^2 and a
    # difference of fourth powers of the moduli both cancel to nothing
    rng = make_rng(300 + seed)
    n = 8
    state = random_pure_state(n, rng)
    us = [haar_local_unitary(rng) for _ in range(n)]
    noisy = kron_chain(us) @ state.amplitudes
    noisy = noisy + 1e-10 * (rng.normal(size=2 ** n) + 1j * rng.normal(size=2 ** n))
    partner = from_pure_amplitudes(noisy)

    verdict = decide_lu_equivalence(state, partner, EngineConfig(tol=1e-7))
    assert verdict.outcome == EQUIVALENT
    dense = direct_residual(dense_twin(state.amplitudes), dense_twin(partner.amplitudes),
                            verdict.witness.unitaries)
    assert 1e-9 < dense < 1e-7
    assert verdict.witness.residual == pytest.approx(dense, rel=1e-6)

    ta, tb = to_trace_form(state), to_trace_form(partner)
    x, y = ta.state.amplitudes, tb.state.amplitudes
    bound = np.linalg.norm(np.abs(np.outer(x, x.conj())) - np.abs(np.outer(y, y.conj())))
    assert 1e-10 < bound < 1e-7
    result = phase_match(ta, tb, 1e-12)  # below the bound, so the bound is reported
    assert result.branches == 0
    assert result.residual == pytest.approx(bound, rel=1e-6)


# --------------------------------------------------- what the path avoids


def counted(monkeypatch, module, name):
    """Records the first argument of each call to module.name."""
    calls = []
    original = getattr(module, name)

    def wrapper(*args, **kwargs):
        calls.append(args[0])
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, wrapper)
    return calls


def test_each_marginal_is_reduced_once_per_decision(monkeypatch):
    rng = make_rng(41)
    state = random_pure_state(5, rng)
    rotated = apply_local_unitaries(state, [haar_local_unitary(rng) for _ in range(5)])
    reduced = counted(monkeypatch, luequiv.traceform, "qubit_marginals")
    eigen = counted(monkeypatch, luequiv.traceform, "eig_hermitian_2x2_batch")
    keys = set(vars(state))
    for _ in range(2):
        # no result is kept on the states: the second decision does it all again
        reduced.clear()
        eigen.clear()
        verdict = decide_lu_equivalence(state, rotated)
        assert verdict.outcome == EQUIVALENT
        # one contraction of all 5 marginals per state, and one stacked
        # diagonalization of them
        assert len(reduced) == 2 and reduced[0] is state and reduced[1] is rotated
        assert [len(marginals) for marginals in eigen] == [5, 5]
    assert set(vars(state)) == keys
    assert state.dense is None and rotated.dense is None


def test_pure_pair_against_dense_pair():
    # one side pure, the other a validated matrix: decided on matrices
    rng = make_rng(43)
    state = random_pure_state(4, rng)
    rotated = apply_local_unitaries(state, [haar_local_unitary(rng) for _ in range(4)])
    mixed_repr = decide_lu_equivalence(state, dense_twin(rotated.amplitudes))
    both_dense = decide_lu_equivalence(dense_twin(state.amplitudes), dense_twin(rotated.amplitudes))
    assert mixed_repr.outcome == both_dense.outcome == EQUIVALENT
    assert abs(mixed_repr.witness.residual - both_dense.witness.residual) <= 1e-12


def ghz_amplitudes(n: int) -> np.ndarray:
    amp = np.zeros(2 ** n, dtype=complex)
    amp[0] = amp[-1] = 2 ** -0.5
    return amp


def test_twelve_qubit_fallback_certifies_on_the_amplitudes():
    # every GHZ marginal is maximally mixed; without the fallback the
    # verdict is indeterminate, with it the search runs on the vectors and
    # never needs the 4096 x 4096 matrix
    rng = make_rng(53)
    ghz = from_pure_amplitudes(ghz_amplitudes(12))
    us = [haar_local_unitary(rng) for _ in range(12)]
    rotated = from_pure_amplitudes(apply_local(ghz.amplitudes, us))
    assert decide_lu_equivalence(ghz, rotated).outcome == INDETERMINATE
    tracemalloc.start()
    try:
        verdict = decide_lu_equivalence(ghz, rotated, EngineConfig(fallback=True))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 22
    assert verdict.outcome == EQUIVALENT
    image = apply_local(ghz.amplitudes, verdict.witness.unitaries)
    overlap = np.vdot(image, rotated.amplitudes)
    # the vector residual after the global phase bounds the projectors' one
    assert np.linalg.norm(rotated.amplitudes - overlap / abs(overlap) * image) <= 1e-9


def test_cli_refuses_dense_work_above_ten_qubits(tmp_path, capsys):
    path = tmp_path / "ghz12.json"
    pairs = [[float(z.real), float(z.imag)] for z in ghz_amplitudes(12)]
    path.write_text('{"n": 12, "kind": "pure", "amplitudes": ' + str(pairs) + "}")
    assert run_command(["check", str(path), str(path)]) == 2
    # the fallback runs on the amplitudes, so only the dense commands refuse
    assert run_command(["check", str(path), str(path), "--fallback"]) == 0
    for argv in (["trace-form", str(path)], ["pauli", str(path)]):
        capsys.readouterr()
        assert run_command(argv) == 3
        assert "exceeds the cap" in capsys.readouterr().err


@pytest.mark.parametrize("n", [11, 14])
def test_ghz_fallback_certifies_above_the_matrix_cap(n):
    rng = make_rng(60 + n)
    ghz = from_pure_amplitudes(ghz_amplitudes(n))
    rotated = apply_local_unitaries(ghz, [haar_local_unitary(rng) for _ in range(n)])
    verdict = decide_lu_equivalence(ghz, rotated, EngineConfig(fallback=True))
    assert verdict.outcome == EQUIVALENT and len(verdict.mixed_qubits) == n
    image = apply_local(ghz.amplitudes, verdict.witness.unitaries)
    assert abs(abs(np.vdot(image, rotated.amplitudes)) - 1.0) <= 1e-12
    assert verdict.witness.residual <= 1e-9


def test_ghz8_fallback_reads_no_matrix(monkeypatch):
    calls = []

    def counting(name, original):
        def wrapper(*args):
            calls.append(name)
            return original(*args)

        return wrapper

    for module in (luequiv.engine, luequiv.traceform):
        monkeypatch.setattr(module, "conjugate_local", counting("conjugate", conjugate_local))
    trace_out = counting("_trace_out", luequiv.engine._trace_out)
    monkeypatch.setattr(luequiv.engine, "_trace_out", trace_out)
    matrix = property(counting("matrix", NQubitState.matrix.fget))
    monkeypatch.setattr(NQubitState, "matrix", matrix)
    rng = make_rng(67)
    ghz = from_pure_amplitudes(ghz_amplitudes(8))
    rotated = apply_local_unitaries(ghz, [haar_local_unitary(rng) for _ in range(8)])
    verdict = decide_lu_equivalence(ghz, rotated, EngineConfig(fallback=True))
    assert verdict.outcome == EQUIVALENT
    assert verdict.diagnostics["fallback_evaluations"] > 0
    assert calls == []


def test_fallback_solves_each_ghz_factor_in_one_step():
    # every GHZ3 marginal is maximally mixed; the first sweep from the
    # identity already lands on a witness, so the search costs one block
    # step per mixed qubit and one residual
    rng = make_rng(47)
    ghz = from_pure_amplitudes(ghz_amplitudes(3))
    for _ in range(5):
        rotated = apply_local_unitaries(ghz, [haar_local_unitary(rng) for _ in range(3)])
        verdict = decide_lu_equivalence(ghz, rotated, EngineConfig(fallback=True))
        assert verdict.outcome == EQUIVALENT
        mixed = len(verdict.mixed_qubits)
        assert mixed == 3
        assert 0 < verdict.diagnostics["fallback_evaluations"] <= 2 * (mixed + 1)
        assert direct_residual(ghz, rotated, verdict.witness.unitaries) <= 1e-9
