"""Canonical trace decomposition: rotate every qubit into its marginal eigenframe.

For a state rho with single-qubit marginals rho_i = V_i D_i V_i^dag
(D_i descending) the trace form is

    rho_t = (V_1^dag x ... x V_n^dag) rho (V_1 x ... x V_n),

whose marginals are the diagonal D_i.  Two states related by local unitaries
have trace forms related by diagonal phase conjugations only, which is what
the equivalence engine matches afterwards.  For a pure state psi the trace
form is the pure state (V_1^dag x ... x V_n^dag) psi.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import DEGENERACY_TOL, apply_local, conjugate_local, dagger, eig_hermitian_2x2_batch
from .states import NQubitState, qubit_marginals

# the frame of every maximally mixed qubit, shared and read-only
_IDENTITY = np.eye(2, dtype=complex)
_IDENTITY.flags.writeable = False


@dataclass(frozen=True)
class LocalEigenframe:
    """Marginal eigendata of one qubit (1-based index).

    eigenvalues is (p, 1-p) descending, v the eigenvector frame (columns),
    maximally_mixed marks a degenerate marginal, in which case v is the
    identity by convention.
    """

    qubit: int
    eigenvalues: np.ndarray
    v: np.ndarray
    maximally_mixed: bool


@dataclass(frozen=True)
class TraceForm:
    state: NQubitState
    frames: tuple[LocalEigenframe, ...]


def local_eigenframes(
    state: NQubitState, degeneracy_tol: float = DEGENERACY_TOL
) -> tuple[LocalEigenframe, ...]:
    """Diagonalize every single-qubit marginal with the fixed phase convention.

    The n marginals come from one contraction (qubit_marginals) and go to
    one closed-form call.
    """
    values, vectors, degenerate = eig_hermitian_2x2_batch(
        qubit_marginals(state), degeneracy_tol=degeneracy_tol
    )
    return tuple(
        LocalEigenframe(
            qubit=k + 1,
            eigenvalues=values[k],
            v=_IDENTITY if degenerate[k] else vectors[k],
            maximally_mixed=bool(degenerate[k]),
        )
        for k in range(state.n)
    )


def to_trace_form(
    state: NQubitState, frames: tuple[LocalEigenframe, ...] | None = None
) -> TraceForm:
    """Rotate the state into the tensor product of its marginal eigenframes.

    frames, when given, are the state's local_eigenframes, so a caller that
    already has them does not reduce the marginals again.  A maximally
    mixed qubit's frame is the identity, so it is not rotated at all.  A
    factor is rotated, and the result keeps it with the input's
    factor_error.  A dense result is a unitary conjugate of a validated
    state, so it is only Hermitized, as validate_state does.  Either way
    its spectrum and purity are the input's, both being unitary invariants.
    """
    if frames is None:
        frames = local_eigenframes(state)
    factors = [None if f.maximally_mixed else dagger(f.v) for f in frames]
    if state.factor is None:
        rotated = conjugate_local(state.matrix, factors)
        rotated = 0.5 * (rotated + dagger(rotated))
        form = NQubitState(state.n, state.purity, state.spectrum, dense=rotated)
    else:
        rotated = apply_local(state.factor, factors)
        form = NQubitState(
            state.n, state.purity, state.spectrum, factor=rotated, factor_error=state.factor_error
        )
    rotated.flags.writeable = False
    return TraceForm(state=form, frames=frames)
