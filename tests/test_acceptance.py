"""Acceptance gate: eleven end-to-end criteria, one printed line each.

The criteria are C1-C10 and C12; C11 is reserved for near-degenerate
marginals.

Every criterion prints exactly one line, "PASS: ..." or "FAIL: ...",
with the measured quantity and its pinned tolerance, then asserts.
Runnable standalone: python3 tests/test_acceptance.py

Independence rule: any residual backing an "equivalent" claim is
recomputed here with plain numpy matrix products, never read off the
engine's own bookkeeping alone.
"""

import json
import sys
import time

import numpy as np

from luequiv import (
    EngineConfig,
    apply_local_unitaries,
    decide_lu_equivalence,
    expand,
    from_pure_amplitudes,
    haar_local_unitary,
    lu_fit_oracle,
    make_rng,
    random_mixed_state,
    random_pure_state,
    random_state_with_bloch_floor,
    reconstruct,
    reduced_qubit,
    rotate_phase,
    to_trace_form,
    validate_state,
    verdict_report,
)
from luequiv.engine import (
    BY_GLOBAL_SPECTRUM,
    BY_MARGINAL_SPECTRA,
    BY_TRACE_FORM,
    EQUIVALENT,
    INDETERMINATE,
    MATCHED,
    NOT_EQUIVALENT,
    phase_match,
)
from luequiv.linalg import kron_all

I2 = np.eye(2, dtype=complex)


def _report(ok: bool, line: str) -> None:
    print(("PASS: " if ok else "FAIL: ") + line, flush=True)
    assert ok, line


def direct_residual(a, b, unitaries) -> float:
    u = kron_all(list(unitaries))
    return float(np.linalg.norm(b.matrix - u @ a.matrix @ u.conj().T))


def phase_diag(omega: float) -> np.ndarray:
    return np.diag([np.exp(1j * omega), np.exp(-1j * omega)])


def angle_state(n: int, theta: float):
    amp = np.zeros(2 ** n, dtype=complex)
    amp[0] = np.cos(theta)
    amp[-1] = np.sin(theta)
    return from_pure_amplitudes(amp)


def generic_state(n: int, rank: int, rng):
    return random_state_with_bloch_floor(n, rng, rank=rank, min_bloch=0.05)


# ------------------------------------------------------------- criterion 1


def test_c1_completeness_on_constructed_pairs():
    """500 locally rotated pairs across n in {2,3,4}, pure and mixed,
    all certified equivalent with independent residual <= 1e-8."""
    rng = make_rng(9000)
    t0 = time.monotonic()
    worst = 0.0
    failures = []
    for i in range(500):
        n = (2, 3, 4)[i % 3]
        rank = 1 if i % 2 == 0 else (2, 3, 4)[(i // 2) % 3]
        state = generic_state(n, rank, rng)
        unitaries = [haar_local_unitary(rng) for _ in range(n)]
        rotated = apply_local_unitaries(state, unitaries)
        verdict = decide_lu_equivalence(state, rotated)
        if verdict.outcome != EQUIVALENT:
            failures.append((i, verdict.outcome, verdict.reason))
            continue
        res = direct_residual(state, rotated, verdict.witness.unitaries)
        worst = max(worst, res)
        if res > 1e-8:
            failures.append((i, "residual", res))
    elapsed = time.monotonic() - t0
    ok = not failures and elapsed <= 120.0
    _report(
        ok,
        f"C1 completeness: {500 - len(failures)}/500 certified equivalent, "
        f"max residual {worst:.2e} <= 1e-8, {elapsed:.1f}s <= 120s"
        + (f", failures {failures[:3]}" if failures else ""),
    )


# ------------------------------------------------------------- criterion 2


def test_c2_soundness_no_false_equivalence():
    """Adversarial batch: every equivalent verdict must carry a witness
    whose independently recomputed residual is <= 1e-9; zero exceptions."""
    rng = make_rng(9100)
    violations = []
    equivalents = 0
    for i in range(150):
        n = (2, 3)[i % 2]
        if i < 50:
            # constructed equivalent
            state = generic_state(n, 1 if i % 2 else 2, rng)
            target = apply_local_unitaries(state, [haar_local_unitary(rng) for _ in range(n)])
        elif i < 100:
            # unrelated draws
            state = random_pure_state(n, rng)
            target = random_pure_state(n, rng)
        else:
            # near miss: locally rotated then blended with noise
            state = generic_state(n, 1, rng)
            rotated = apply_local_unitaries(state, [haar_local_unitary(rng) for _ in range(n)])
            noise = random_mixed_state(n, 2 ** n, rng)
            target = validate_state(0.99999 * rotated.matrix + 0.00001 * noise.matrix)
        verdict = decide_lu_equivalence(state, target)
        if verdict.outcome == EQUIVALENT:
            equivalents += 1
            res = direct_residual(state, target, verdict.witness.unitaries)
            if res > 1e-9:
                violations.append((i, res))
    ok = not violations and equivalents >= 50
    _report(
        ok,
        f"C2 soundness: {equivalents} equivalent verdicts, "
        f"{len(violations)} with recomputed residual > 1e-9 (required 0)",
    )


# ------------------------------------------------------------- criterion 3


def test_c3_spectral_rejections():
    """Engineered spectral gaps are caught by the right preflight stage:
    200 marginal-gap pairs and 50 global-gap pairs."""
    rng = make_rng(9200)
    bad = []
    for i in range(200):
        n = (2, 3)[i % 2]
        theta = rng.uniform(0.1, np.pi / 4 - 0.1)
        delta = rng.uniform(0.02, 0.2)
        gap = abs(np.cos(theta) ** 2 - np.cos(theta + delta) ** 2)
        if gap < 1e-3:
            delta = 0.25
        a = apply_local_unitaries(
            angle_state(n, theta), [haar_local_unitary(rng) for _ in range(n)]
        )
        b = apply_local_unitaries(
            angle_state(n, theta + delta), [haar_local_unitary(rng) for _ in range(n)]
        )
        verdict = decide_lu_equivalence(a, b)
        if verdict.outcome != NOT_EQUIVALENT or verdict.reason != BY_MARGINAL_SPECTRA:
            bad.append(("marginal", i, verdict.outcome, verdict.reason))
    for i in range(50):
        n = (2, 3)[i % 2]
        theta = rng.uniform(0.1, np.pi / 4 - 0.05)
        pure = angle_state(n, theta)
        dephased = validate_state(np.diag(np.diag(pure.matrix)))
        verdict = decide_lu_equivalence(pure, dephased)
        if verdict.outcome != NOT_EQUIVALENT or verdict.reason != BY_GLOBAL_SPECTRUM:
            bad.append(("global", i, verdict.outcome, verdict.reason))
    _report(
        not bad,
        f"C3 spectral rejections: 200/200 marginal-gap (>= 1e-3) and 50/50 "
        f"global-gap pairs rejected with the expected reason"
        + (f", misses {bad[:3]}" if bad else ""),
    )


# ------------------------------------------------------------- criterion 4


def test_c4_oracle_concordance():
    """Engine verdicts agree with a derivative-free fitting oracle on
    n=2; pairs whose oracle residual falls inside (1e-6, 1e-2) are
    excluded as numerically ambiguous and logged."""
    rng = make_rng(9300)
    disagreements = []
    excluded = 0
    total = 100
    for i in range(total):
        if i % 2 == 0:
            state = generic_state(2, 1 if i % 4 == 0 else 2, rng)
            target = apply_local_unitaries(state, [haar_local_unitary(rng), haar_local_unitary(rng)])
            fit = lu_fit_oracle(state, target, restarts=20, seed=100 + i, early_stop=1e-8)
        else:
            theta = rng.uniform(0.1, np.pi / 4 - 0.15)
            # spectral gap >= 0.1 by construction
            delta = 0.3
            state = apply_local_unitaries(
                angle_state(2, theta), [haar_local_unitary(rng) for _ in range(2)]
            )
            target = apply_local_unitaries(
                angle_state(2, theta + delta), [haar_local_unitary(rng) for _ in range(2)]
            )
            fit = lu_fit_oracle(state, target, restarts=6, seed=100 + i)
        verdict = decide_lu_equivalence(state, target)
        if 1e-6 < fit.residual < 1e-2:
            excluded += 1
            continue
        oracle_says_equivalent = fit.residual <= 1e-6
        engine_says_equivalent = verdict.outcome == EQUIVALENT
        if oracle_says_equivalent != engine_says_equivalent:
            disagreements.append((i, verdict.outcome, fit.residual))
    ok = not disagreements and (total - excluded) >= 0.8 * total
    _report(
        ok,
        f"C4 oracle concordance: {total - excluded}/{total} pairs outside the "
        f"(1e-6, 1e-2) ambiguity band, {len(disagreements)} disagreements (required 0)"
        + (f", first {disagreements[:3]}" if disagreements else ""),
    )


# ------------------------------------------------------------- criterion 5


def test_c5_pauli_round_trip_and_rotation():
    """expand/reconstruct round trips 100 states below 1e-12; the phase
    rotation in coefficient space matches explicit matrix conjugation."""
    rng = make_rng(9400)
    worst_rt = 0.0
    worst_rot = 0.0
    for i in range(100):
        n = (1, 2, 3)[i % 3]
        state = random_pure_state(n, rng) if i % 2 == 0 else random_mixed_state(n, 2, rng)
        back = reconstruct(expand(state))
        worst_rt = max(worst_rt, float(np.max(np.abs(back - state.matrix))))
    for i in range(50):
        n = (2, 3)[i % 2]
        state = random_pure_state(n, rng)
        qubit = int(rng.integers(1, n + 1))
        omega = float(rng.uniform(0, np.pi))
        rotated = rotate_phase(expand(state), qubit, omega)
        mats = [I2] * n
        mats[qubit - 1] = phase_diag(omega)
        d = kron_all(mats)
        conjugated = expand(validate_state(d @ state.matrix @ d.conj().T))
        worst_rot = max(worst_rot, float(np.max(np.abs(rotated.c - conjugated.c))))
    ok = worst_rt <= 1e-12 and worst_rot <= 1e-12
    _report(
        ok,
        f"C5 coefficient fidelity: round-trip max {worst_rt:.2e} <= 1e-12, "
        f"rotation vs conjugation max {worst_rot:.2e} <= 1e-12",
    )


# ------------------------------------------------------------- criterion 6


def test_c6_trace_form_contract():
    """200 states: trace-form marginals diagonal (off-diagonal <= 1e-10),
    eigenvalues descending, global spectrum preserved to 1e-9."""
    rng = make_rng(9500)
    worst_off = 0.0
    worst_spec = 0.0
    order_breaks = 0
    for i in range(200):
        n = (1, 2, 3, 4)[i % 4]
        rank = 1 if i % 3 else min(2 ** n, 3)
        state = random_pure_state(n, rng) if rank == 1 else random_mixed_state(n, rank, rng)
        tf = to_trace_form(state)
        for q in range(1, n + 1):
            marginal = reduced_qubit(tf.state, q)
            worst_off = max(worst_off, abs(marginal[0, 1]))
            if marginal[0, 0].real < marginal[1, 1].real - 1e-12:
                order_breaks += 1
        gap = np.max(
            np.abs(
                np.linalg.eigvalsh(tf.state.matrix) - np.linalg.eigvalsh(state.matrix)
            )
        )
        worst_spec = max(worst_spec, float(gap))
    ok = worst_off <= 1e-10 and worst_spec <= 1e-9 and order_breaks == 0
    _report(
        ok,
        f"C6 trace-form contract: max off-diagonal {worst_off:.2e} <= 1e-10, "
        f"spectrum drift {worst_spec:.2e} <= 1e-9, {order_breaks} ordering breaks",
    )


# ------------------------------------------------------------- criterion 7


def test_c7_phase_recovery():
    """100 generic instances with known injected per-qubit phases: the
    matcher recovers each angle mod pi to 1e-8 and reproduces the twisted
    form to 1e-10.  Generic means non-degenerate marginals and a trivial
    diagonal stabilizer, so the assignment is unique."""
    rng = make_rng(9600)
    worst_angle = 0.0
    worst_matrix = 0.0
    misses = 0
    for i in range(100):
        if i % 2 == 0:
            state = generic_state(3, 1, rng)
        else:
            state = generic_state(2, (2, 3, 4)[(i // 2) % 3], rng)
        n = state.n
        tf = to_trace_form(state)
        omegas = rng.uniform(0.05, np.pi - 0.05, size=n)
        d = kron_all([phase_diag(w) for w in omegas])
        twisted = validate_state(d @ tf.state.matrix @ d.conj().T)
        tf_twisted = to_trace_form(twisted)
        result = phase_match(tf, tf_twisted, 1e-9)
        if result.status != MATCHED:
            misses += 1
            continue
        got = np.asarray(result.assignment.omegas)
        for k in range(n):
            diff = abs((got[k] - omegas[k] + np.pi / 2) % np.pi - np.pi / 2)
            worst_angle = max(worst_angle, float(diff))
        rebuilt = kron_all([phase_diag(w) for w in got])
        delta = rebuilt @ tf.state.matrix @ rebuilt.conj().T - tf_twisted.state.matrix
        worst_matrix = max(worst_matrix, float(np.max(np.abs(delta))))
    ok = misses == 0 and worst_angle <= 1e-8 and worst_matrix <= 1e-10
    _report(
        ok,
        f"C7 phase recovery: {100 - misses}/100 matched, worst angle error "
        f"{worst_angle:.2e} <= 1e-8 (mod pi), worst matrix error {worst_matrix:.2e} <= 1e-10",
    )


# ------------------------------------------------------------- criterion 8


def test_c8_degenerate_marginals_fallback():
    """50 maximally entangled instances (all marginals degenerate): the
    direct protocol abstains, and the SU(2) fallback certifies at least
    95% with independent residual <= 1e-7."""
    rng = make_rng(9700)
    not_abstained = 0
    certified = 0
    for i in range(50):
        n = (2, 3)[i % 2]
        base = angle_state(n, np.pi / 4)  # all marginals maximally mixed
        rotated = apply_local_unitaries(base, [haar_local_unitary(rng) for _ in range(n)])
        plain = decide_lu_equivalence(base, rotated)
        if plain.outcome != INDETERMINATE:
            not_abstained += 1
            continue
        verdict = decide_lu_equivalence(
            base, rotated, EngineConfig(fallback=True, fallback_restarts=16)
        )
        if (
            verdict.outcome == EQUIVALENT
            and direct_residual(base, rotated, verdict.witness.unitaries) <= 1e-7
        ):
            certified += 1
    ok = not_abstained == 0 and certified >= 48  # ceil(0.95 * 50)
    _report(
        ok,
        f"C8 degenerate fallback: {50 - not_abstained}/50 abstain without fallback, "
        f"{certified}/50 certified with fallback at residual <= 1e-7 (need >= 48)",
    )


# ------------------------------------------------------------- criterion 9


def test_c9_determinism():
    """Identical inputs give bitwise identical witnesses and reports on
    repeated in-process runs, fallback included."""
    mismatches = []

    def run_twice(a, b, config):
        v1 = decide_lu_equivalence(a, b, config)
        v2 = decide_lu_equivalence(a, b, config)
        r1 = json.dumps(verdict_report(v1, config), sort_keys=True)
        r2 = json.dumps(verdict_report(v2, config), sort_keys=True)
        same_witness = (v1.witness is None) == (v2.witness is None)
        if v1.witness is not None and v2.witness is not None:
            same_witness = all(
                np.array_equal(u1, u2)
                for u1, u2 in zip(v1.witness.unitaries, v2.witness.unitaries)
            )
        return r1 == r2 and same_witness

    rng = make_rng(9800)
    state = generic_state(2, 1, rng)
    rotated = apply_local_unitaries(state, [haar_local_unitary(rng) for _ in range(2)])
    if not run_twice(state, rotated, EngineConfig()):
        mismatches.append("direct path")

    mixed = generic_state(3, 2, rng)
    mixed_rot = apply_local_unitaries(mixed, [haar_local_unitary(rng) for _ in range(3)])
    if not run_twice(mixed, mixed_rot, EngineConfig()):
        mismatches.append("mixed direct path")

    ghz = angle_state(3, np.pi / 4)
    ghz_rot = apply_local_unitaries(ghz, [haar_local_unitary(rng) for _ in range(3)])
    if not run_twice(ghz, ghz_rot, EngineConfig(fallback=True)):
        mismatches.append("fallback path")

    if not run_twice(angle_state(2, np.pi / 8), angle_state(2, np.pi / 6), EngineConfig()):
        mismatches.append("rejection path")

    _report(
        not mismatches,
        "C9 determinism: repeated runs bitwise identical on direct, mixed, "
        "fallback, and rejection paths" + (f", mismatches {mismatches}" if mismatches else ""),
    )


# ------------------------------------------------------------ criterion 10


def sparse_support_state(n: int, rng):
    """Pure state on 2..6 random basis strings, amplitudes complex Gaussian.

    Gaussian moduli make some amplitudes tiny, and sparse supports leave
    few coherences to pin the phases; both starve a search over phases.
    """
    k = int(rng.integers(2, min(6, 2 ** n) + 1))
    support = rng.choice(2 ** n, size=k, replace=False)
    amp = np.zeros(2 ** n, dtype=complex)
    amp[support] = rng.normal(size=k) + 1j * rng.normal(size=k)
    return from_pure_amplitudes(amp)


def test_c10_sparse_support_completeness():
    """500 locally rotated sparse-support pure pairs across n in {2,3,4},
    plus n=3 on support {0,3,5,6} with one amplitude of 0.005: no
    not_equivalent, no indeterminate, independent residual <= 1e-9."""
    rng = make_rng(10004)
    pairs = []
    for i in range(500):
        n = (2, 3, 4)[i % 3]
        state = sparse_support_state(n, rng)
        pairs.append((state, apply_local_unitaries(state, [haar_local_unitary(rng) for _ in range(n)])))
    amp = np.zeros(8, dtype=complex)
    amp[[0, 3, 5, 6]] = [0.6, 0.5 * np.exp(0.7j), 0.005 * np.exp(2.1j), 0.62 * np.exp(-1.3j)]
    state = from_pure_amplitudes(amp)
    rng = make_rng(0)
    pairs.append((state, apply_local_unitaries(state, [haar_local_unitary(rng) for _ in range(3)])))

    t0 = time.monotonic()
    rejected, abstained, loose = [], [], []
    worst = 0.0
    for i, (state, rotated) in enumerate(pairs):
        verdict = decide_lu_equivalence(state, rotated)
        if verdict.outcome == NOT_EQUIVALENT:
            rejected.append(i)
        elif verdict.outcome == INDETERMINATE:
            abstained.append(i)
        else:
            res = direct_residual(state, rotated, verdict.witness.unitaries)
            worst = max(worst, res)
            if res > 1e-9:
                loose.append((i, res))
    elapsed = time.monotonic() - t0
    ok = not rejected and not abstained and not loose
    _report(
        ok,
        f"C10 sparse-support completeness: {len(rejected)} not_equivalent and "
        f"{len(abstained)} indeterminate of {len(pairs)} (required 0), max residual "
        f"{worst:.2e} <= 1e-9, {elapsed:.1f}s"
        + (f", first {(rejected + abstained + loose)[:3]}" if not ok else ""),
    )


# ------------------------------------------------------------ criterion 12


def rotate_amplitudes(psi: np.ndarray, unitaries) -> np.ndarray:
    """(U_1 x ... x U_n) psi, one tensordot per qubit axis."""
    n = len(unitaries)
    t = psi.reshape((2,) * n)
    for k, u in enumerate(unitaries):
        t = np.moveaxis(np.tensordot(u, t, axes=([1], [k])), 0, k)
    return t.ravel()


def vector_residual(psi, psi_prime, unitaries) -> float:
    """||rho' - U rho U^dag||_F of unit vectors, from the aligned difference.

    With d = min over theta of ||psi' - e^{i theta} U psi|| the distance of
    the projectors is sqrt(2) d sqrt(1 - d^2 / 4).
    """
    image = rotate_amplitudes(psi, unitaries)
    overlap = np.vdot(image, psi_prime)
    d = float(np.linalg.norm(psi_prime - overlap / abs(overlap) * image))
    return float(np.sqrt(2.0) * d * np.sqrt(1.0 - d * d / 4.0))


def test_c12_large_pure_pairs():
    """Two Haar pure states per n in 12..16, each against a locally rotated
    copy and against that copy's complex conjugate: every copy certified
    with independent vector residual <= 1e-9, every conjugate rejected
    by_trace_form."""
    rng = make_rng(12000)
    t0 = time.monotonic()
    misses = []
    worst = 0.0
    for n in range(12, 17):
        for _ in range(2):
            psi = rng.normal(size=2 ** n) + 1j * rng.normal(size=2 ** n)
            psi /= np.linalg.norm(psi)
            unitaries = [haar_local_unitary(rng) for _ in range(n)]
            psi_prime = rotate_amplitudes(psi, unitaries)
            state = from_pure_amplitudes(psi)
            verdict = decide_lu_equivalence(state, from_pure_amplitudes(psi_prime))
            if verdict.outcome != EQUIVALENT:
                misses.append((n, "rotated", verdict.outcome))
            else:
                res = vector_residual(psi, psi_prime, verdict.witness.unitaries)
                worst = max(worst, res)
                if res > 1e-9:
                    misses.append((n, "residual", res))
            verdict = decide_lu_equivalence(state, from_pure_amplitudes(np.conj(psi_prime)))
            if (verdict.outcome, verdict.reason) != (NOT_EQUIVALENT, BY_TRACE_FORM):
                misses.append((n, "conjugate", verdict.outcome, verdict.reason))
    elapsed = time.monotonic() - t0
    _report(
        not misses,
        f"C12 large pure pairs: {10 - sum(m[1] != 'conjugate' for m in misses)}/10 rotated "
        f"copies certified at n = 12..16, max vector residual {worst:.2e} <= 1e-9, "
        f"{10 - sum(m[1] == 'conjugate' for m in misses)}/10 conjugates rejected by_trace_form, "
        f"{elapsed:.1f}s" + (f", misses {misses[:3]}" if misses else ""),
    )


CRITERIA = [
    test_c1_completeness_on_constructed_pairs,
    test_c2_soundness_no_false_equivalence,
    test_c3_spectral_rejections,
    test_c4_oracle_concordance,
    test_c5_pauli_round_trip_and_rotation,
    test_c6_trace_form_contract,
    test_c7_phase_recovery,
    test_c8_degenerate_marginals_fallback,
    test_c9_determinism,
    test_c10_sparse_support_completeness,
    test_c12_large_pure_pairs,
]


if __name__ == "__main__":
    failed = 0
    for criterion in CRITERIA:
        try:
            criterion()
        except AssertionError:
            failed += 1
    print(f"{len(CRITERIA) - failed}/{len(CRITERIA)} acceptance criteria passed", flush=True)
    sys.exit(1 if failed else 0)
