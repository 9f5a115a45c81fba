"""Complex-matrix and amplitude-vector primitives for few-qubit work.

Everything here operates on plain complex128 ndarrays.  Qubit 1 is the
leftmost (most significant) tensor factor throughout the package, so the
computational-basis row index of an n-qubit matrix reads as the bit string
b1 b2 ... bn.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce

import numpy as np

PAULI_I = np.eye(2, dtype=complex)
PAULI_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
PAULI_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
PAULI_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)

# index order (0, x, y, z) <-> (0, 1, 2, 3), fixed across the package
PAULIS = np.stack([PAULI_I, PAULI_X, PAULI_Y, PAULI_Z])

# hard cap on Kronecker-product output dimension (2**10 states plus headroom)
MAX_KRON_DIM = 4096

HERMITICITY_TOL = 1e-10
DEGENERACY_TOL = 1e-10


def make_rng(seed) -> np.random.Generator:
    """Philox generator from an integer seed; passes Generators through."""
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.Generator(np.random.Philox(seed))


def kron_all(mats, max_dim: int = MAX_KRON_DIM) -> np.ndarray:
    """Left-to-right Kronecker product (qubit 1 first), size-checked before it is built."""
    mats = [np.asarray(m, dtype=complex) for m in mats]
    if not mats or any(m.ndim != 2 for m in mats):
        raise ValueError("kron_all needs at least one 2-d factor")
    shape = np.prod([m.shape for m in mats], axis=0)
    if shape.max() > max_dim:
        raise ValueError(f"kron output {shape[0]}x{shape[1]} exceeds the {max_dim} dimension cap")
    return reduce(np.kron, mats)


def dagger(m: np.ndarray) -> np.ndarray:
    return np.conj(np.asarray(m)).T


def apply_local(x: np.ndarray, factors) -> np.ndarray:
    """(F_1 x ... x F_n) x for an amplitude vector or the rows of a matrix.

    Qubit 1 is first and a None factor is the identity.  Each factor acts on
    its own row axis as a batched 2x2 product, so no 2**n x 2**n operator is
    built: O(n 2**n) work per column.
    """
    out = np.asarray(x, dtype=complex)
    if out.shape[0] != 2 ** len(factors):
        raise ValueError(f"{len(factors)} factors do not fit a {out.shape} array")
    for k, f in enumerate(factors):
        if f is not None:
            out = np.matmul(f, out.reshape(2**k, 2, -1)).reshape(out.shape)
    return out


def conjugate_local(m: np.ndarray, factors) -> np.ndarray:
    """(F_1 x ... x F_n) m (F_1 x ... x F_n)^dag, with qubit 1 first.

    The row pass apply_local, then the same pass on the conjugate transpose,
    as (F (F m)^dag)^dag = F m F^dag.
    """
    m = np.asarray(m)
    if m.shape != (2 ** len(factors),) * 2:
        raise ValueError(f"{len(factors)} factors do not fit a {m.shape} matrix")
    return dagger(apply_local(dagger(apply_local(m, factors)), factors))


def projector_distance(u: np.ndarray, v: np.ndarray) -> float:
    """Frobenius distance of the projectors onto the unit vectors u and v.

    With d = min over theta of ||u - e^{i theta} v||, it is exactly
    sqrt(2) d sqrt(1 - d^2 / 4).  d is taken from the aligned difference, not
    from 1 - |<u|v>|^2, which cancels below about 1e-8.
    """
    overlap = np.vdot(v, u)
    phase = overlap / abs(overlap) if overlap != 0 else 1.0
    d = float(np.linalg.norm(u - phase * v))
    return float(np.sqrt(2.0) * d * np.sqrt(max(1.0 - d * d / 4.0, 0.0)))


def frobenius_distance(a: np.ndarray, b: np.ndarray) -> float:
    """Frobenius norm of a - b.  Shapes must agree exactly."""
    a = np.asarray(a)
    b = np.asarray(b)
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch {a.shape} vs {b.shape}")
    return float(np.linalg.norm(a - b))


def partial_trace(rho: np.ndarray, n: int, keep: int) -> np.ndarray:
    """Reduce an n-qubit density matrix to the single qubit `keep` (1-based).

    Args:
        rho: 2**n x 2**n matrix.
        n: qubit count.
        keep: index of the qubit to keep, 1 <= keep <= n.

    Returns:
        The 2x2 reduced matrix of qubit `keep`.
    """
    rho = np.asarray(rho, dtype=complex)
    dim = 2**n
    if rho.shape != (dim, dim):
        raise ValueError(f"expected {dim}x{dim} matrix for n={n}, got {rho.shape}")
    if not 1 <= keep <= n:
        raise ValueError(f"keep={keep} out of range 1..{n}")
    left = 2 ** (keep - 1)
    right = 2 ** (n - keep)
    six = rho.reshape(left, 2, right, left, 2, right)
    return np.einsum("aibajb->ij", six)


@dataclass(frozen=True)
class EigenPair2:
    """Spectral data of a Hermitian 2x2 matrix.

    eigenvalues are descending; vectors holds the matching eigenvectors as
    columns; degenerate is set when the eigenvalue gap is below tolerance.
    """

    eigenvalues: np.ndarray
    vectors: np.ndarray
    degenerate: bool


def _fix_column_phase(v: np.ndarray) -> np.ndarray:
    # largest-modulus entry made real non-negative; ties go to the lower row
    idx = 0 if abs(v[0]) >= abs(v[1]) else 1
    a = v[idx]
    if abs(a) == 0.0:
        return v
    return v * (np.conj(a) / abs(a))


def eig_hermitian_2x2(
    h: np.ndarray,
    hermiticity_tol: float = HERMITICITY_TOL,
    degeneracy_tol: float = DEGENERACY_TOL,
) -> EigenPair2:
    """Closed-form eigendecomposition of a Hermitian 2x2 matrix.

    No iterative solver: eigenvalues come from the characteristic polynomial
    and the second eigenvector is the exact orthogonal complement of the
    first, so the returned frame is unitary to machine precision even near
    degeneracy.
    """
    h = np.asarray(h, dtype=complex)
    if h.shape != (2, 2):
        raise ValueError(f"expected a 2x2 matrix, got {h.shape}")
    if frobenius_distance(h, dagger(h)) > hermiticity_tol:
        raise ValueError("matrix is not Hermitian within tolerance")

    a = h[0, 0].real
    c = h[1, 1].real
    b = 0.5 * (h[0, 1] + np.conj(h[1, 0]))  # symmetrized off-diagonal

    half_tr = 0.5 * (a + c)
    root = 0.5 * np.sqrt((a - c) ** 2 + 4.0 * abs(b) ** 2)
    lo = half_tr + root
    hi = half_tr - root
    eigenvalues = np.array([lo, hi])
    degenerate = bool(lo - hi < degeneracy_tol)

    # eigenvectors are scale invariant; renormalizing the entries keeps
    # |b|^2 away from underflow for denormal-sized inputs
    scale = max(abs(a), abs(c), abs(b))
    if scale < np.finfo(float).tiny:
        b = 0.0  # zero to double precision: any orthonormal frame works
    else:
        a, c, b = a / scale, c / scale, b / scale
        lo = lo / scale
        if abs(b) < np.sqrt(np.finfo(float).tiny):
            # |b|^2 underflows: the off-diagonal is below double resolution
            # relative to the diagonal, so the aligned frame is exact
            b = 0.0

    if b == 0.0:
        vectors = np.eye(2, dtype=complex) if a >= c else np.array(
            [[0.0, 1.0], [1.0, 0.0]], dtype=complex
        )
    else:
        # two algebraically equivalent forms; keep the better conditioned one
        cand1 = np.array([b, lo - a])
        cand2 = np.array([lo - c, np.conj(b)])
        m1 = np.max(np.abs(cand1))
        m2 = np.max(np.abs(cand2))
        v0 = cand1 / m1 if m1 >= m2 else cand2 / m2  # max-abs first: |b| may be denormal
        v0 = v0 / np.linalg.norm(v0)
        v1 = np.array([-np.conj(v0[1]), np.conj(v0[0])])
        vectors = np.column_stack([_fix_column_phase(v0), _fix_column_phase(v1)])

    vectors = np.column_stack(
        [_fix_column_phase(vectors[:, 0]), _fix_column_phase(vectors[:, 1])]
    )
    return EigenPair2(eigenvalues=eigenvalues, vectors=vectors, degenerate=degenerate)
