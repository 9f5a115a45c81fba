"""Independent checks of the engine's verdicts.

No luequiv code is used here.  An `equivalent` verdict must carry unitary
witnesses whose residual, recomputed with a plain Kronecker chain against the
very matrices the engine received, is within `tol`.  A `not_equivalent`
verdict is accepted only on a pair that a local-unitary invariant separates
(a marginal Bloch norm or the triple product); an `indeterminate` verdict
only on a pair with a maximally mixed qubit.
"""

from __future__ import annotations

import numpy as np

from instances import (
    EQUIVALENT,
    INDETERMINATE,
    NOT_EQUIVALENT,
    TRIPLE_MARGIN,
    bloch_norms,
    kron_chain,
    strongest_triple,
    triple_product,
)

TOL = 1e-9
UNITARITY_TOL = 1e-10
# A qubit counts as maximally mixed when its Bloch norm is below this.
MIXED_BLOCH = 1e-8
# Marginal Bloch norms that differ by this much separate a pair; rounding
# leaves them equal to about 1e-15 on rotated copies.
BLOCH_MARGIN = 1e-6


def witness_residual(a: np.ndarray, b: np.ndarray, unitaries) -> float:
    """||b - (U_1 x ... x U_n) a (U_1 x ... x U_n)^dag||_F."""
    u = kron_chain(unitaries)
    return float(np.linalg.norm(b - u @ a @ u.conj().T))


def is_unitary(u: np.ndarray) -> bool:
    u = np.asarray(u)
    return u.shape == (2, 2) and np.linalg.norm(u @ u.conj().T - np.eye(2)) <= UNITARITY_TOL


def witness_ok(a: np.ndarray, b: np.ndarray, unitaries, tol: float = TOL) -> bool:
    return (
        all(is_unitary(u) for u in unitaries)
        and witness_residual(a, b, unitaries) <= tol
    )


def invariants_separate(ga: np.ndarray, gb: np.ndarray, n: int) -> bool:
    """A local-unitary invariant proves the pair inequivalent."""
    if np.max(np.abs(bloch_norms(ga, n) - bloch_norms(gb, n))) >= BLOCH_MARGIN:
        return True
    value, (i, j) = strongest_triple(ga, n)
    other = triple_product(gb, n, i, j)
    return abs(value) >= TRIPLE_MARGIN and abs(value - other) >= TRIPLE_MARGIN


def has_mixed_qubit(g: np.ndarray, n: int) -> bool:
    return bool(bloch_norms(g, n).min() <= MIXED_BLOCH)


def verdict_ok(inst, outcome: str, unitaries, a: np.ndarray, b: np.ndarray) -> bool:
    """Whether an engine outcome is right for an instance.

    `a` and `b` are the density matrices the engine decided on; `unitaries`
    is its witness (empty unless the outcome is equivalent).
    """
    if outcome != inst.truth:
        return False
    if outcome == EQUIVALENT:
        return witness_ok(a, b, unitaries)
    if outcome == NOT_EQUIVALENT:
        return invariants_separate(inst.ga, inst.gb, inst.n)
    if outcome == INDETERMINATE:
        return has_mixed_qubit(inst.ga, inst.n) or has_mixed_qubit(inst.gb, inst.n)
    return False
