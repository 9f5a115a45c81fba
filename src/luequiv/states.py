"""Validated n-qubit states and their basic reductions.

A state given by amplitudes stays a unit vector: its marginals, trace form,
phase solve and witness check all run on the 2**n amplitudes.  The dense
2**n x 2**n matrix is built from them only when a caller asks for it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .linalg import dagger, frobenius_distance, partial_trace, projector_distance

# dense matrices stop at 10 qubits (16 MB); amplitude vectors at 16 (1 MB)
MAX_QUBITS = 10
MAX_PURE_QUBITS = 16

TRACE_TOL = 1e-10
HERMITICITY_TOL = 1e-10
PSD_FLOOR = -1e-10
BLOCH_NORM_TOL = 1e-10


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
    clamped to 0), cached at construction.  A pure input keeps its read-only
    unit amplitude vector in amplitudes, and dense stays None until matrix
    is first read.  Any other state has amplitudes None and its read-only
    density matrix in dense from the start.
    """

    n: int
    purity: float
    spectrum: np.ndarray
    amplitudes: np.ndarray | None = None
    dense: np.ndarray | None = field(default=None, repr=False, compare=False)

    @property
    def dim(self) -> int:
        return 2**self.n

    @property
    def matrix(self) -> np.ndarray:
        """The read-only density matrix, built once from the amplitudes.

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
            m = np.outer(self.amplitudes, np.conj(self.amplitudes))
            m = 0.5 * (m + dagger(m))  # exactly Hermitian, as validate_state leaves it
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


def validate_state(matrix: np.ndarray, max_qubits: int = MAX_QUBITS) -> NQubitState:
    """Check Hermiticity, unit trace and positivity, then freeze the state.

    Raises StateValidationError naming the first violated property and its
    residual.  The PSD check tolerates eigenvalues down to -1e-10 and clamps
    the stored spectrum at zero.
    """
    m = np.asarray(matrix, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise StateValidationError("shape", 0.0, f"not a square matrix: {m.shape}")
    dim = m.shape[0]
    n = dim.bit_length() - 1
    if dim < 2 or 2**n != dim:
        raise StateValidationError("shape", 0.0, f"dimension {dim} is not a power of two >= 2")
    if n > max_qubits:
        raise StateValidationError("shape", float(n), f"{n} qubits exceeds the cap of {max_qubits}")
    if not np.all(np.isfinite(m)):
        raise StateValidationError("finite", float("nan"), "matrix has non-finite entries")

    herm = frobenius_distance(m, dagger(m))
    if herm > HERMITICITY_TOL:
        raise StateValidationError("hermiticity", herm, f"||m - m^dag|| = {herm:.3e}")

    m = 0.5 * (m + dagger(m))
    tr = float(np.trace(m).real)
    if abs(tr - 1.0) > TRACE_TOL:
        raise StateValidationError("trace", abs(tr - 1.0), f"trace = {tr!r}, expected 1")

    eigs = np.linalg.eigvalsh(m)
    low = float(eigs.min())
    if low < PSD_FLOOR:
        raise StateValidationError("psd", -low, f"eigenvalue {low:.3e} below the PSD floor")
    spectrum = np.where(eigs < 0.0, 0.0, eigs)[::-1].copy()

    purity = float(np.sum(np.abs(m) ** 2))  # Tr(m @ m) for Hermitian m

    m = m.copy()
    m.flags.writeable = False
    spectrum.flags.writeable = False
    return NQubitState(n=n, purity=purity, spectrum=spectrum, dense=m)


def from_pure_amplitudes(amplitudes, max_qubits: int = MAX_PURE_QUBITS) -> NQubitState:
    """A pure state kept as its normalized amplitude vector.

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
    psi = psi / norm
    spectrum = np.zeros(dim)
    spectrum[0] = 1.0
    psi.flags.writeable = False
    spectrum.flags.writeable = False
    return NQubitState(n=n, purity=1.0, spectrum=spectrum, amplitudes=psi)


def reduced_qubit(state: NQubitState, i: int) -> np.ndarray:
    """Single-qubit marginal of qubit i (1-based).

    A pure state's marginal is contracted from its amplitudes, O(2**n).
    """
    if state.amplitudes is None:
        return partial_trace(state.matrix, state.n, i)
    if not 1 <= i <= state.n:
        raise ValueError(f"keep={i} out of range 1..{state.n}")
    t = state.amplitudes.reshape(2 ** (i - 1), 2, -1)
    return np.einsum("aib,ajb->ij", t, np.conj(t))


def state_distance(a: NQubitState, b: NQubitState) -> float:
    """Frobenius distance of the two density matrices.

    Two pure states are compared through their amplitudes (projector_distance).
    """
    if a.amplitudes is not None and b.amplitudes is not None:
        return projector_distance(a.amplitudes, b.amplitudes)
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
