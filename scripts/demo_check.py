"""End-to-end walkthrough of the decision procedure on hand-built instances.

Runs four representative cases and prints what the engine saw at each stage:
a constructed equivalent pair with its recovered witness, a spectral
rejection, a trace-form rejection on states with identical spectra, and a
degenerate-marginal pair that needs the SU(2) fallback.  Everything is
seeded, so the output is stable run to run.
"""

from __future__ import annotations

from functools import reduce

import numpy as np

from luequiv import (
    EngineConfig,
    apply_local_unitaries,
    decide_lu_equivalence,
    frobenius_distance,
    from_pure_amplitudes,
    haar_local_unitary,
    preflight_invariants,
    random_state_with_bloch_floor,
    to_trace_form,
)

SEED = 2024


def banner(title: str) -> None:
    print()
    print(f"=== {title} ===")


def residual_against_inputs(state_a, state_b, unitaries) -> float:
    """Recheck a witness with plain numpy, independent of engine internals."""
    big = reduce(np.kron, unitaries)
    moved = big @ state_a.matrix @ big.conj().T
    return float(np.linalg.norm(moved - state_b.matrix))


def case_equivalent_pair() -> None:
    banner("constructed equivalent pair (n=3, pure)")
    state = random_state_with_bloch_floor(3, SEED, rank=1, min_bloch=0.05)
    hidden = [haar_local_unitary(SEED + 10 + i) for i in range(3)]
    rotated = apply_local_unitaries(state, hidden)

    verdict = decide_lu_equivalence(state, rotated)
    print(f"verdict: {verdict.outcome}")
    print(f"engine residual: {verdict.witness.residual:.3e}")
    print(f"recomputed residual: {residual_against_inputs(state, rotated, verdict.witness.unitaries):.3e}")
    for i, u in enumerate(verdict.witness.unitaries, start=1):
        gap = np.linalg.norm(u.conj().T @ u - np.eye(2))
        print(f"  U_{i} unitarity defect {gap:.2e}")


def case_spectral_rejection() -> None:
    banner("marginal spectrum mismatch (n=2)")
    theta_a, theta_b = np.pi / 8, np.pi / 6
    a = from_pure_amplitudes([np.cos(theta_a), 0.0, 0.0, np.sin(theta_a)])
    b = from_pure_amplitudes([np.cos(theta_b), 0.0, 0.0, np.sin(theta_b)])

    pre = preflight_invariants(a, b, 1e-9)
    print(f"first failing invariant: {pre.failed} (qubit {pre.qubit}, gap {pre.gap:.4f})")
    verdict = decide_lu_equivalence(a, b)
    print(f"verdict: {verdict.outcome} ({verdict.reason})")


def case_trace_form_rejection() -> None:
    banner("same spectra, different trace forms (n=3)")
    # a generic pure state and its complex conjugate share every spectrum
    # (global and marginal) yet admit no local-unitary map between them
    state = random_state_with_bloch_floor(3, SEED + 40, rank=1, min_bloch=0.05)
    conj_state = from_pure_amplitudes(np.conj(state.amplitudes))

    pre = preflight_invariants(state, conj_state, 1e-9)
    print(f"preflight: ok={pre.ok} (largest marginal gap {max(pre.marginal_gaps):.2e})")
    ta, tb = to_trace_form(state), to_trace_form(conj_state)
    print(f"trace-form distance: {frobenius_distance(ta.state.matrix, tb.state.matrix):.4f}")
    verdict = decide_lu_equivalence(state, conj_state)
    print(f"verdict: {verdict.outcome} ({verdict.reason})")


def case_degenerate_fallback() -> None:
    banner("degenerate marginals: abstain, then fallback (n=3 GHZ class)")
    ghz = from_pure_amplitudes(np.array([1, 0, 0, 0, 0, 0, 0, 1]) / np.sqrt(2))
    hidden = [haar_local_unitary(SEED + 20 + i) for i in range(3)]
    rotated = apply_local_unitaries(ghz, hidden)

    cautious = decide_lu_equivalence(ghz, rotated)
    print(f"without fallback: {cautious.outcome} (mixed qubits {list(cautious.mixed_qubits)})")

    verdict = decide_lu_equivalence(ghz, rotated, EngineConfig(fallback=True))
    print(f"with fallback: {verdict.outcome}")
    if verdict.witness is not None:
        print(f"recomputed residual: {residual_against_inputs(ghz, rotated, verdict.witness.unitaries):.3e}")


def main() -> None:
    case_equivalent_pair()
    case_spectral_rejection()
    case_trace_form_rejection()
    case_degenerate_fallback()
    print()


if __name__ == "__main__":
    main()
