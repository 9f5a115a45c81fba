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

from .linalg import apply_local, conjugate_local, dagger, eig_hermitian_2x2_batch
from .states import NQubitState, qubit_marginals

# the decision tolerance a lone state's frames are read at (EngineConfig's default)
DEFAULT_TOL = 1e-9

# the frame of every maximally mixed qubit, shared and read-only
_IDENTITY = np.eye(2, dtype=complex)
_IDENTITY.flags.writeable = False


@dataclass(frozen=True)
class LocalEigenframe:
    """Marginal eigendata of one qubit (1-based index).

    eigenvalues is (p, 1-p) descending, v the eigenvector frame (columns),
    maximally_mixed marks a marginal whose eigenvalue gap is below
    mixed_gap, in which case v is the identity by convention.
    """

    qubit: int
    eigenvalues: np.ndarray
    v: np.ndarray
    maximally_mixed: bool


@dataclass(frozen=True)
class TraceForm:
    state: NQubitState
    frames: tuple[LocalEigenframe, ...]


def mixed_gap(n: int, tol: float, factor_error: float) -> float:
    """The marginal eigenvalue gap below which a qubit counts as maximally mixed.

    (8 u + 2^((n-1)/2) factor_error) / tol, with u the machine epsilon and
    factor_error the summed factor errors of the states compared.  A
    marginal with gap g read with an error E has its frame turned by about
    ||E|| / g (Davis-Kahan).  The rounding of qubit_marginals stayed within
    2 u in spectral norm on Haar pure states at n = 2..16, and a factor's
    marginal is within 2^((n-1)/2) e of the input's (the preflight's
    bound).  So with 4 u per state, twice the rounding seen, the two
    states' frames together turn by less than tol at any gap above this
    value; below it they are not trusted.  That can cost a certificate but
    not cause a false verdict: a trace-form rejection needs every qubit
    unmixed, and every witness is re-verified.  Input noise is not counted;
    noise at tol would put the value above every gap.
    """
    return (8.0 * np.finfo(float).eps + 2.0 ** ((n - 1) / 2.0) * factor_error) / tol


def local_eigenframes(state: NQubitState, gap: float | None = None) -> tuple[LocalEigenframe, ...]:
    """Diagonalize every single-qubit marginal with the fixed phase convention.

    The n marginals come from one contraction (qubit_marginals) and go to
    one closed-form call.  A qubit whose eigenvalue gap is below gap is
    maximally mixed; gap defaults to mixed_gap of the state alone at
    DEFAULT_TOL.
    """
    if gap is None:
        gap = mixed_gap(state.n, DEFAULT_TOL, state.factor_error)
    values, vectors = eig_hermitian_2x2_batch(qubit_marginals(state))
    mixed = (values[:, 0] - values[:, 1] < gap).tolist()
    return tuple(
        LocalEigenframe(k + 1, values[k], _IDENTITY if m else vectors[k], m) for k, m in enumerate(mixed)
    )


def to_trace_form(
    state: NQubitState, frames: tuple[LocalEigenframe, ...] | None = None
) -> TraceForm:
    """Rotate the state into the tensor product of its marginal eigenframes.

    frames, when given, are the state's local_eigenframes, so a caller that
    already has them does not reduce the marginals again; without them the
    frames are read at the default gap of local_eigenframes.  A maximally
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
