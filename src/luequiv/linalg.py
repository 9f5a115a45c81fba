"""Complex-matrix and amplitude-vector primitives for few-qubit work.

Everything here operates on plain complex128 ndarrays.  Qubit 1 is the
leftmost (most significant) tensor factor throughout the package, so the
computational-basis row index of an n-qubit matrix reads as the bit string
b1 b2 ... bn.
"""

from __future__ import annotations

import math
import sys
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

# below the smallest normal double a 2x2 matrix counts as zero
_TINY = sys.float_info.min
_SQRT_TINY = math.sqrt(_TINY)

# gram's block edge: a 64 x 64 complex block is 64 KB
_BLOCK = 64


def make_rng(seed) -> np.random.Generator:
    """Philox generator from an integer seed; passes Generators through."""
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.Generator(np.random.Philox(seed))


def kron_all(mats) -> np.ndarray:
    """Left-to-right Kronecker product (qubit 1 first), size-checked before it is built."""
    mats = [np.asarray(m, dtype=complex) for m in mats]
    if not mats or any(m.ndim != 2 for m in mats):
        raise ValueError("kron_all needs at least one 2-d factor")
    shape = np.prod([m.shape for m in mats], axis=0)
    if shape.max() > MAX_KRON_DIM:
        raise ValueError(f"kron output {shape[0]}x{shape[1]} exceeds the {MAX_KRON_DIM} dimension cap")
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


def _upper_blocks(d: int):
    """Row and column slices of the square blocks on and above the diagonal of a d x d matrix."""
    for i in range(0, d, _BLOCK):
        for j in range(i, d, _BLOCK):
            yield slice(i, i + _BLOCK), slice(j, j + _BLOCK)


def gram_blocks(g: np.ndarray):
    """(rows, cols, G[rows] G[cols]^dag) over the square blocks on and above the diagonal of G G^dag."""
    gh = dagger(g)
    for rows, cols in _upper_blocks(g.shape[0]):
        yield rows, cols, g[rows] @ gh[:, cols]


def gram(g: np.ndarray) -> np.ndarray:
    """G G^dag for a 2-d G, exactly Hermitian, built in square blocks.

    Each block above the diagonal is one product, mirrored below it while
    it is still in cache, and each diagonal block is Hermitized on its own.
    At 1024 x 1024 from rank 2 that takes 5 ms, against 35 ms for the whole
    product followed by a whole-matrix Hermitization.
    """
    d = g.shape[0]
    out = np.empty((d, d), dtype=complex)
    for rows, cols, p in gram_blocks(g):
        if rows == cols:
            out[rows, rows] = 0.5 * (p + dagger(p))
        else:
            out[rows, cols] = p
            out[cols, rows] = dagger(p)
    return out


def gram_distance(m: np.ndarray, g: np.ndarray) -> float:
    """||m - G G^dag||_F for a Hermitian m, over gram's blocks; off-diagonal ones count twice."""
    total = 0.0
    for rows, cols, p in gram_blocks(g):
        diff = m[rows, cols] - p
        total += (1.0 if rows == cols else 2.0) * np.vdot(diff, diff).real
    return math.sqrt(total)


def hermitize(m: np.ndarray) -> tuple[np.ndarray, float]:
    """0.5 (m + m^dag) and ||m - m^dag||_F of a square m, in square blocks.

    Each block on or above the diagonal is taken with its mirror block while
    both are in cache, as gram does, so neither m^dag nor m - m^dag is built
    whole.  The blocks below the diagonal are the conjugate transposes of
    those above, bitwise equal to the whole-matrix 0.5 (m + m^dag), which is
    exactly Hermitian.
    """
    d = m.shape[0]
    out = np.empty((d, d), dtype=complex)
    skew = 0.0
    for rows, cols in _upper_blocks(d):
        upper, lower = m[rows, cols], dagger(m[cols, rows])
        diff = upper - lower
        # a block pair off the diagonal holds diff and -diff^dag in m - m^dag
        skew += (1.0 if rows == cols else 2.0) * np.vdot(diff, diff).real
        out[rows, cols] = 0.5 * (upper + lower)
        if rows != cols:
            out[cols, rows] = dagger(out[rows, cols])
    return out, math.sqrt(skew)


def projector_distance(u: np.ndarray, v: np.ndarray) -> float:
    """Frobenius distance of the outer products u u^dag and v v^dag.

    With v turned by the phase that makes <u|v> real, d = u - v and s = u + v
    give u u^dag - v v^dag = (d s^dag + s d^dag) / 2, whose norm is
    sqrt((|d|^2 |s|^2 + (|u|^2 - |v|^2)^2) / 2); for unit vectors that is
    sqrt(2) |d| sqrt(1 - |d|^2 / 4).  It is taken from the aligned
    difference, not from |u|^4 + |v|^4 - 2 |<u|v>|^2, which cancels below
    about 1e-8.
    """
    overlap = np.vdot(v, u)
    phase = overlap / abs(overlap) if overlap != 0 else 1.0
    w = phase * v
    d = float(np.linalg.norm(u - w))
    s = float(np.linalg.norm(u + w))
    k = float(np.vdot(u, u).real - np.vdot(v, v).real)
    return float(np.sqrt(0.5 * (d * d * s * s + k * k)))


def factor_distance(g: np.ndarray, h: np.ndarray) -> float:
    """||G G^dag - H H^dag||_F of two factors with the same row count.

    Two single columns are projector_distance's case.  Otherwise, with
    K = [G, H] = Q R and J = diag(1_r, -1_s), G G^dag - H H^dag is
    K J K^dag = Q (R J R^dag) Q^dag, and Q has orthonormal columns, so the
    norm is that of the at most (r + s) x (r + s) R J R^dag.  Householder QR
    is backward stable, so the result is within rounding of the exact
    distance of slightly moved factors, and the 2**n x 2**n difference is
    never formed.
    """
    if g.shape[1] == h.shape[1] == 1:
        return projector_distance(g[:, 0], h[:, 0])
    r = np.linalg.qr(np.hstack([g, h]), mode="r")
    k = g.shape[1]
    return float(np.linalg.norm(r[:, :k] @ dagger(r[:, :k]) - r[:, k:] @ dagger(r[:, k:])))


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
    """Spectral data of a Hermitian 2x2 matrix: descending eigenvalues, eigenvectors as columns."""

    eigenvalues: np.ndarray
    vectors: np.ndarray


def _phase_fixed(x0: complex, x1: complex) -> tuple[complex, complex]:
    """A frame column with its larger-modulus entry made real non-negative.

    Ties go to the first row; a zero column stays.
    """
    s0, s1 = abs(x0), abs(x1)
    top, mod = (x0, s0) if s0 >= s1 else (x1, s1)
    if mod == 0.0:
        return x0, x1
    phase = top.conjugate() / mod
    return x0 * phase, x1 * phase


def _eig_2x2(h):
    """Eigenvalues and frame of one 2x2 matrix of Python complexes.

    See eig_hermitian_2x2_batch.
    """
    (h00, h01), (h10, h11) = h
    # ||h - h^dag||_F: the diagonal contributes 2|Im|, each off-diagonal |h01 - conj(h10)|
    skew = h01 - h10.conjugate()
    herm = 4.0 * (h00.imag**2 + h11.imag**2) + 2.0 * (skew.real**2 + skew.imag**2)
    if math.sqrt(herm) > HERMITICITY_TOL:
        raise ValueError("matrix is not Hermitian within tolerance")

    a, c = h00.real, h11.real
    b = 0.5 * (h01 + h10.conjugate())  # symmetrized off-diagonal
    half_tr = 0.5 * (a + c)
    # sqrt((a - c)^2 + 4|b|^2) with no square formed, so denormal entries keep their digits
    root = 0.5 * math.hypot(a - c, 2.0 * b.real, 2.0 * b.imag)
    values = (half_tr + root, half_tr - root)

    # eigenvectors are scale invariant; renormalizing the entries keeps
    # |b|^2 away from underflow for denormal-sized inputs.  Below tiny the
    # matrix is zero to double precision and any orthonormal frame works;
    # where |b|^2 underflows, the off-diagonal is below double resolution
    # relative to the diagonal, so the aligned frame is exact
    scale = max(abs(a), abs(c), abs(b))
    zero = scale < _TINY
    if zero:
        scale = 1.0
    a, c, b, lo = a / scale, c / scale, b / scale, values[0] / scale
    if zero or abs(b) < _SQRT_TINY:
        frame = ((1.0, 0.0), (0.0, 1.0)) if a >= c else ((0.0, 1.0), (1.0, 0.0))
        return values, frame

    # two algebraically equivalent forms of the first eigenvector, [b, lo - a]
    # and [lo - c, conj(b)]; keep the better conditioned one, scaled by its
    # max-abs entry first because |b| may be denormal
    size0 = max(abs(b), abs(lo - a))
    size1 = max(abs(lo - c), abs(b))
    if size0 >= size1:
        x0, x1 = b / size0, (lo - a) / size0
    else:
        x0, x1 = (lo - c) / size1, b.conjugate() / size1
    norm = math.sqrt(abs(x0) ** 2 + abs(x1) ** 2)
    x0, x1 = x0 / norm, x1 / norm
    # the second eigenvector is the exact orthogonal complement of the first
    (v00, v10), (v01, v11) = _phase_fixed(x0, x1), _phase_fixed(-x1.conjugate(), x0.conjugate())
    return values, ((v00, v01), (v10, v11))


def eig_hermitian_2x2_batch(h) -> tuple[np.ndarray, np.ndarray]:
    """Closed-form eigendecomposition of a stack of Hermitian 2x2 matrices.

    h is a (k, 2, 2) array or a sequence of k 2x2 matrices.  Returns the
    descending eigenvalues (k, 2) and the eigenvector frames (k, 2, 2),
    eigenvectors as columns.  No iterative solver:
    eigenvalues come from the characteristic polynomial and the second
    eigenvector is the exact orthogonal complement of the first, so every
    frame is unitary to machine precision even near degeneracy.  The
    largest-modulus entry of each column is real and non-negative.  Each
    matrix is solved on Python scalars, which at these sizes costs less
    than the calls of a vectorized form.  Raises ValueError when any matrix
    is not Hermitian within HERMITICITY_TOL.
    """
    h = np.asarray(h, dtype=complex)
    if h.ndim != 3 or h.shape[1:] != (2, 2):
        raise ValueError(f"expected a stack of 2x2 matrices, got {h.shape}")
    solved = [_eig_2x2(m) for m in h.tolist()]
    k = len(solved)
    return (
        np.array([values for values, _ in solved], dtype=float).reshape(k, 2),
        np.array([frame for _, frame in solved], dtype=complex).reshape(k, 2, 2),
    )


def eig_hermitian_2x2(h: np.ndarray) -> EigenPair2:
    """Closed-form eigendecomposition of one Hermitian 2x2 matrix.

    The single-matrix case of eig_hermitian_2x2_batch.
    """
    h = np.asarray(h, dtype=complex)
    if h.shape != (2, 2):
        raise ValueError(f"expected a 2x2 matrix, got {h.shape}")
    values, vectors = eig_hermitian_2x2_batch(h[None])
    return EigenPair2(eigenvalues=values[0], vectors=vectors[0])
