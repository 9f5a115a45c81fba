"""Validated n-qubit states and their basic reductions.

A state of low rank r is carried as a factor G (2**n x r) with rho ~ G G^dag,
and every stage that can runs on G: marginals, trace form, phase solve and
witness check.  A pure state given by amplitudes is the exact case r = 1.
validate_state finds G by pivoted Cholesky and keeps it, with its measured
error ||rho - G G^dag||_F, only when that error is at most FACTOR_TOL.  A
state with no factor is dense-only and runs every stage on its matrix.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .linalg import (
    HERMITICITY_TOL,
    dagger,
    factor_distance,
    frobenius_distance,
    gram,
    gram_distance,
    hermitize,
    partial_trace,
)

# dense matrices stop at 10 qubits (16 MB); amplitude vectors at 16 (1 MB)
MAX_QUBITS = 10
MAX_PURE_QUBITS = 16

TRACE_TOL = 1e-10
PSD_FLOOR = -1e-10
# a factor is kept when ||m - G G^dag||_F <= FACTOR_TOL.  Exact Ginibre
# inputs at n = 2..10 measure at most 6e-16, and those of rank 1..4 at
# n = 2..8 written to 15 or 13 significant digits at most 3e-15 and 3e-13,
# so all of them keep their factor.  The bound costs the decision tolerance
# (1e-9) at most 0.2% per pair, and it stays below -PSD_FLOOR, which keeps
# the PSD check sound on the factor.
FACTOR_TOL = 1e-12
# the pivoted Cholesky gives up after R_MAX columns.  Validating a pair and
# deciding it on rank-r factors costs as much as on dense matrices from about
# r = 32 at n = 6, 64 at n = 7, 128-256 at n = 8, 256-512 at n = 9 and
# 512-1024 at n = 10 (Ginibre states, one BLAS thread), so 32 is below the
# crossover at every n the dense path serves
R_MAX = 32
BLOCH_NORM_TOL = 1e-10
# qubit_marginals gathers at most this many entries of a factor at once (1 MB)
_GATHER = 2**16


class StateValidationError(ValueError):
    """A density-matrix property failed, with the measured residual."""

    def __init__(self, check: str, residual: float, message: str):
        super().__init__(message)
        self.check = check
        self.residual = residual


@dataclass(frozen=True)
class NQubitState:
    """An n-qubit state that passed validation.

    spectrum is the descending global spectrum (eigenvalues in [-1e-10, 0)
    clamped to 0), cached at construction.  factor, when set, is a read-only
    2**n x r matrix G with ||rho - G G^dag||_F <= factor_error.  A pure state
    from amplitudes is the case r = 1 with factor_error 0.  A validated
    input keeps its read-only density matrix in dense from the start; a
    state known by its factor alone builds G G^dag there when matrix is
    first read.  A dense-only state has factor None.
    """

    n: int
    purity: float
    spectrum: np.ndarray
    factor: np.ndarray | None = None
    factor_error: float = 0.0
    dense: np.ndarray | None = field(default=None, repr=False, compare=False)

    @property
    def dim(self) -> int:
        return 2**self.n

    @property
    def rank(self) -> int | None:
        """The factor's column count r, None for a dense-only state."""
        return None if self.factor is None else self.factor.shape[1]

    @property
    def amplitudes(self) -> np.ndarray | None:
        """The column of a rank-1 factor, else None."""
        return self.factor[:, 0] if self.rank == 1 else None

    @property
    def matrix(self) -> np.ndarray:
        """The read-only density matrix: the validated input, or G G^dag built once.

        Raises StateValidationError, before allocating, when the state has
        more than MAX_QUBITS qubits.
        """
        if self.dense is None:
            if self.n > MAX_QUBITS:
                raise StateValidationError(
                    "shape",
                    float(self.n),
                    f"the dense matrix of {self.n} qubits exceeds the cap of {MAX_QUBITS}",
                )
            m = gram(self.factor)  # exactly Hermitian, as validate_state leaves it
            m.flags.writeable = False
            object.__setattr__(self, "dense", m)
        return self.dense


@dataclass(frozen=True)
class BlochVector:
    x: float
    y: float
    z: float
    norm: float = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "norm", float(np.sqrt(self.x**2 + self.y**2 + self.z**2)))


def validate_state(matrix: np.ndarray) -> NQubitState:
    """Check Hermiticity, unit trace and positivity, then freeze the state.

    Raises StateValidationError naming the first violated property and its
    residual.  The PSD check tolerates eigenvalues down to -1e-10 and clamps
    the stored spectrum at zero.  A matrix of rank at most R_MAX keeps a
    factor (_low_rank_factor), and its spectrum is read from the r x r
    G^dag G; any other matrix is diagonalized whole.
    """
    m = np.asarray(matrix, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise StateValidationError("shape", 0.0, f"not a square matrix: {m.shape}")
    dim = m.shape[0]
    n = dim.bit_length() - 1
    if dim < 2 or 2**n != dim:
        raise StateValidationError("shape", 0.0, f"dimension {dim} is not a power of two >= 2")
    if n > MAX_QUBITS:
        raise StateValidationError("shape", float(n), f"{n} qubits exceeds the cap of {MAX_QUBITS}")
    if not np.all(np.isfinite(m)):
        raise StateValidationError("finite", float("nan"), "matrix has non-finite entries")

    m, herm = hermitize(m)
    if herm > HERMITICITY_TOL:
        raise StateValidationError("hermiticity", herm, f"||m - m^dag|| = {herm:.3e}")

    tr = float(np.trace(m).real)
    if abs(tr - 1.0) > TRACE_TOL:
        raise StateValidationError("trace", abs(tr - 1.0), f"trace = {tr!r}, expected 1")

    factor, error = _low_rank_factor(m)
    if factor is None:
        eigs = np.linalg.eigvalsh(m)
    else:
        # the nonzero eigenvalues of G G^dag are those of the r x r G^dag G,
        # and by Weyl each eigenvalue of m lies within error <= FACTOR_TOL
        # of these, so the PSD check below decides as eigvalsh(m) would
        values = np.linalg.eigvalsh(dagger(factor) @ factor)
        eigs = np.concatenate([np.zeros(dim - values.size), values])
    low = float(eigs.min())
    if low < PSD_FLOOR:
        raise StateValidationError("psd", -low, f"eigenvalue {low:.3e} below the PSD floor")
    spectrum = np.where(eigs < 0.0, 0.0, eigs)[::-1].copy()

    purity = float(np.sum(np.abs(m) ** 2))  # Tr(m @ m) for Hermitian m

    m.flags.writeable = False
    spectrum.flags.writeable = False
    return NQubitState(
        n=n, purity=purity, spectrum=spectrum, factor=factor, factor_error=error, dense=m
    )


def _low_rank_factor(m: np.ndarray) -> tuple[np.ndarray | None, float]:
    """A read-only G with m ~ G G^dag and its error ||m - G G^dag||_F, or (None, 0).

    Greedy pivoted Cholesky: each column pivots on the largest remaining
    diagonal entry of the Schur complement, until the remaining diagonal
    sum is at most FACTOR_TOL.  It gives up after R_MAX columns, and a
    factor whose measured error exceeds FACTOR_TOL is not kept, which is
    where an input with a negative eigenvalue ends.
    """
    dim = m.shape[0]
    g = np.zeros((dim, min(R_MAX, dim)), dtype=complex)
    rest = m.diagonal().real.copy()
    r = 0
    while rest.sum() > FACTOR_TOL:
        if r == g.shape[1]:
            return None, 0.0
        p = int(np.argmax(rest))
        # column p of the Schur complement; m is Hermitian, so row p conjugated
        g[:, r] = (np.conj(m[p]) - g[:, :r] @ np.conj(g[p, :r])) / np.sqrt(rest[p])
        rest -= np.abs(g[:, r]) ** 2
        r += 1
    g = np.ascontiguousarray(g[:, :r])
    error = gram_distance(m, g)
    if not error <= FACTOR_TOL:
        return None, 0.0
    g.flags.writeable = False
    return g, error


def from_pure_amplitudes(amplitudes, max_qubits: int = MAX_PURE_QUBITS) -> NQubitState:
    """A pure state kept as its normalized amplitude vector, an exact rank-1 factor.

    The length must be a power of two >= 2, checked against max_qubits
    before anything is allocated.  A unit vector's projector has spectrum
    (1, 0, ..., 0) and purity 1, so no matrix is built and nothing is
    diagonalized.
    """
    psi = np.asarray(amplitudes)
    dim = psi.size
    n = dim.bit_length() - 1
    if dim < 2 or 2**n != dim:
        raise StateValidationError("shape", 0.0, f"amplitude length {dim} is not a power of two >= 2")
    if n > max_qubits:
        raise StateValidationError("shape", float(n), f"{n} qubits exceeds the cap of {max_qubits}")
    psi = psi.astype(complex).ravel()
    if not np.all(np.isfinite(psi)):
        raise StateValidationError("finite", float("nan"), "amplitudes have non-finite entries")
    norm = float(np.linalg.norm(psi))
    if norm < 1e-12:
        raise StateValidationError("norm", norm, "amplitude vector has (near) zero norm")
    psi = (psi / norm)[:, None]
    spectrum = np.zeros(dim)
    spectrum[0] = 1.0
    psi.flags.writeable = False
    spectrum.flags.writeable = False
    return NQubitState(n=n, purity=1.0, spectrum=spectrum, factor=psi)


def reduced_qubit(state: NQubitState, i: int) -> np.ndarray:
    """Single-qubit marginal of qubit i (1-based), one qubit at a time.

    A state with a factor G has the marginal of G G^dag, contracted from G
    in O(2**n r).  The decision reads every marginal at once from
    qubit_marginals; this is the reference it is tested against.
    """
    if state.factor is None:
        return partial_trace(state.matrix, state.n, i)
    if not 1 <= i <= state.n:
        raise ValueError(f"keep={i} out of range 1..{state.n}")
    t = state.factor.reshape(2 ** (i - 1), 2, -1)
    return np.einsum("aib,ajb->ij", t, np.conj(t))


@lru_cache(maxsize=None)
def _bit_pairs(n: int) -> np.ndarray:
    """The read-only (n, 2, 2**(n-1)) index table of bit partners.

    Row [k, 0] holds the basis indices whose bit for qubit k + 1 is 0, in
    increasing order, and row [k, 1] each of them with that bit set.  The
    indices are int32, which holds the flat entry indices of a dense matrix
    too and halves the table.  One table is kept per n: 4 MB at n = 16, and
    8 MB for all n up to MAX_PURE_QUBITS together.
    """
    x = np.arange(2 ** (n - 1), dtype=np.int32)
    shift = np.arange(n - 1, -1, -1, dtype=np.int32)[:, None, None]
    low = ((x >> shift) << (shift + 1)) | (x & ((1 << shift) - 1))
    pairs = low | (np.arange(2, dtype=np.int32)[:, None] << shift)
    pairs.flags.writeable = False
    return pairs


def qubit_marginals(state: NQubitState) -> np.ndarray:
    """All n single-qubit marginals, as an (n, 2, 2) array, qubit 1 first.

    The basis indices are paired across each qubit's bit (_bit_pairs).  For
    a factor G, gathering its rows along those pairs gives, for each qubit,
    the 2 x 2^(n-1) r matrix A_k whose Gram matrix A_k A_k^dag is the
    marginal: one batched product for all qubits, O(n 2**n r), gathered a
    block of qubits at a time.  A dense-only state sums its diagonal over
    the pairs' halves and its entries rho_xy over the pairs x, y.
    reduced_qubit is the single-qubit reference.
    """
    n = state.n
    pairs = _bit_pairs(n)
    if state.factor is None:
        m = state.matrix
        out = np.empty((n, 2, 2), dtype=complex)
        out[:, [0, 1], [0, 1]] = np.take(m.diagonal().real, pairs).sum(axis=2)
        out[:, 0, 1] = np.take(m, pairs[:, 0] * 2**n + pairs[:, 1]).sum(axis=1)
        out[:, 1, 0] = np.conj(out[:, 0, 1])
        return out
    g = state.factor
    step = max(1, _GATHER // (2**n * g.shape[1]))
    blocks = []
    for k in range(0, n, step):
        a = np.take(g, pairs[k : k + step], axis=0).reshape(-1, 2, 2 ** (n - 1) * g.shape[1])
        blocks.append(a @ np.conj(a).transpose(0, 2, 1))
    return blocks[0] if len(blocks) == 1 else np.concatenate(blocks)


def state_distance(a: NQubitState, b: NQubitState) -> float:
    """Frobenius distance of the two density matrices.

    Two states with factors are compared through them (factor_distance),
    which is within a.factor_error + b.factor_error of the distance of the
    matrices, and builds neither.
    """
    if a.factor is not None and b.factor is not None:
        return factor_distance(a.factor, b.factor)
    return frobenius_distance(a.matrix, b.matrix)


def bloch_vector(q: np.ndarray) -> BlochVector:
    """Bloch components of a 2x2 trace-1 Hermitian matrix."""
    q = np.asarray(q, dtype=complex)
    if q.shape != (2, 2):
        raise ValueError(f"expected a 2x2 matrix, got {q.shape}")
    if frobenius_distance(q, dagger(q)) > HERMITICITY_TOL:
        raise ValueError("matrix is not Hermitian within tolerance")
    if abs(np.trace(q).real - 1.0) > 1e-8:
        raise ValueError(f"trace {np.trace(q)!r} is not 1")
    x = float((q[0, 1] + q[1, 0]).real)
    y = float((1j * (q[0, 1] - q[1, 0])).real)
    z = float((q[0, 0] - q[1, 1]).real)
    r = BlochVector(x=x, y=y, z=z)
    if r.norm > 1.0 + BLOCH_NORM_TOL:
        raise ValueError(f"Bloch norm {r.norm!r} exceeds 1")
    return r


def global_spectrum(state: NQubitState) -> np.ndarray:
    """Descending eigenvalues of the full density matrix."""
    return state.spectrum.copy()
