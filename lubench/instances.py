"""Seeded benchmark instances whose truth is known by construction.

Everything here is plain numpy: the Haar sampler, the Kronecker chain, the
marginals and the invariants.  luequiv only validates the finished density
matrices into the `NQubitState` objects the engine receives, so the truth of
an instance never depends on the code under test.

Each instance carries the factor it was built from: a matrix `g` of shape
(2**n, r) with rho = g g^dag / tr(g g^dag) (r = 1 for pure states).  The
independent checks in `truth.py` read the marginals and invariants from it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

# A rotated pair is LU-equivalent; a conjugate pair is proven inequivalent by
# the triple product; a degenerate pair has a maximally mixed qubit.
EQUIVALENT = "equivalent"
NOT_EQUIVALENT = "not_equivalent"
INDETERMINATE = "indeterminate"

# Generic inputs keep every marginal Bloch norm above this floor.  luequiv's
# own default (0.05) is out of reach at n = 10, where Haar marginals have
# Bloch norms of about 0.054.
BLOCH_FLOOR = 0.02
# A conjugate pair is used only when its triple product clears this margin;
# rounding puts |I + I'| at about 1e-17.
TRIPLE_MARGIN = 1e-9


@dataclass
class Instance:
    """One decision: two density-matrix factors, their truth and their class."""

    label: str
    n: int
    ga: np.ndarray
    gb: np.ndarray
    truth: str
    fallback: bool = False
    known_fault: bool = False
    # what the decider hands the program: validated states or file paths
    states: tuple = field(default=(), repr=False)


def rng_for(seed: int, *stream: int) -> np.random.Generator:
    """Independent Philox stream per (seed, family, index)."""
    return np.random.Generator(np.random.Philox(np.random.SeedSequence([seed, *stream])))


def haar_unitary(rng: np.random.Generator) -> np.ndarray:
    """Haar-random 2x2 unitary: QR of a complex Ginibre matrix, phases fixed."""
    z = (rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))) / np.sqrt(2.0)
    q, r = np.linalg.qr(z)
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def kron_chain(mats) -> np.ndarray:
    out = np.ones((1, 1), dtype=complex)
    for m in mats:
        out = np.kron(out, m)
    return out


def density(g: np.ndarray) -> np.ndarray:
    m = g @ g.conj().T
    return m / np.trace(m).real


def qubit_marginal(g: np.ndarray, n: int, k: int) -> np.ndarray:
    """2x2 marginal of qubit k (0-based, qubit 0 most significant)."""
    t = g.reshape(2**k, 2, 2 ** (n - k - 1), g.shape[1])
    m = np.einsum("aibr,ajbr->ij", t, t.conj())
    return m / np.trace(m).real


def pair_marginal(g: np.ndarray, n: int, i: int, j: int) -> np.ndarray:
    """4x4 marginal of qubits i < j (0-based)."""
    t = g.reshape(2**i, 2, 2 ** (j - i - 1), 2, 2 ** (n - j - 1), g.shape[1])
    m = np.einsum("xaybzr,xcydzr->abcd", t, t.conj()).reshape(4, 4)
    return m / np.trace(m).real


_PAULI = np.array(
    [[[0, 1], [1, 0]], [[0, -1j], [1j, 0]], [[1, 0], [0, -1]]], dtype=complex
)


def bloch(m: np.ndarray) -> np.ndarray:
    return np.array([np.trace(m @ p).real for p in _PAULI])


def bloch_norms(g: np.ndarray, n: int) -> np.ndarray:
    return np.array([np.linalg.norm(bloch(qubit_marginal(g, n, k))) for k in range(n)])


def triple_product(g: np.ndarray, n: int, i: int, j: int) -> float:
    """I = s . ((T t) x (T T^T s)) of the marginal of qubits i, j.

    s and t are the Bloch vectors of the two qubits and T the correlation
    matrix.  Local unitaries act as rotations (s, t, T) -> (O1 s, O2 t,
    O1 T O2^T), which leave I unchanged; complex conjugation reflects the y
    axis on both qubits, which flips its sign.
    """
    m = pair_marginal(g, n, i, j)
    eye = np.eye(2)
    s = np.array([np.trace(m @ np.kron(p, eye)).real for p in _PAULI])
    t = np.array([np.trace(m @ np.kron(eye, p)).real for p in _PAULI])
    tt = np.array([[np.trace(m @ np.kron(p, q)).real for q in _PAULI] for p in _PAULI])
    return float(s @ np.cross(tt @ t, tt @ tt.T @ s))


def strongest_triple(g: np.ndarray, n: int) -> tuple[float, tuple[int, int]]:
    """The qubit pair whose triple product is largest in modulus."""
    best = (0.0, (0, 1))
    for i in range(n):
        for j in range(i + 1, n):
            v = triple_product(g, n, i, j)
            if abs(v) > abs(best[0]):
                best = (v, (i, j))
    return best


def rotate(g: np.ndarray, unitaries) -> np.ndarray:
    return kron_chain(unitaries) @ g


def haar_factor(n: int, rank: int, rng: np.random.Generator) -> np.ndarray:
    """Haar pure state (rank 1) or Ginibre-induced mixed state factor."""
    g = rng.normal(size=(2**n, rank)) + 1j * rng.normal(size=(2**n, rank))
    return g / np.linalg.norm(g)


def floored_factor(n: int, rank: int, rng: np.random.Generator) -> np.ndarray:
    """Rejection-sample a factor whose marginal Bloch norms reach BLOCH_FLOOR."""
    while True:
        g = haar_factor(n, rank, rng)
        if bloch_norms(g, n).min() >= BLOCH_FLOOR:
            return g


# ---------------------------------------------------------------------------
# families
# ---------------------------------------------------------------------------


def rotated_pair(label: str, g: np.ndarray, n: int, rng, fallback=False, known_fault=False):
    """g against its image under Haar local unitaries: equivalent."""
    us = [haar_unitary(rng) for _ in range(n)]
    return Instance(label, n, g, rotate(g, us), EQUIVALENT, fallback, known_fault)


def generic_pair(n: int, rank: int, rng) -> Instance:
    kind = "pure" if rank == 1 else f"rank{rank}"
    return rotated_pair(f"generic_{kind}_n{n}", floored_factor(n, rank, rng), n, rng)


def one_bit_free(support, n: int) -> int:
    """Qubits k for which no two support strings differ in bit k alone."""
    s = {int(x) for x in support}
    return sum(1 for k in range(n) if not any(x ^ (1 << (n - 1 - k)) in s for x in s))


def sparse_factor(n: int, rng, floor: float | None):
    """Pure state on 2..6 random basis strings; returns (g, free qubits).

    With a floor the amplitude moduli are uniform in [floor, 1] before
    normalisation; without one they are Gaussian, so one can be tiny.
    """
    k = int(rng.integers(2, min(6, 2**n) + 1))
    support = rng.choice(2**n, size=k, replace=False)
    if floor is None:
        mod = np.abs(rng.normal(size=k) + 1j * rng.normal(size=k))
    else:
        mod = rng.uniform(floor, 1.0, size=k)
    g = np.zeros((2**n, 1), dtype=complex)
    g[support, 0] = mod * np.exp(2j * np.pi * rng.uniform(size=k))
    return g / np.linalg.norm(g), one_bit_free(support, n)


def conjugate_pair(n: int, rank: int, rng) -> Instance:
    """Rotated g against a rotated complex conjugate of g: inequivalent.

    Draws are repeated until the triple product clears TRIPLE_MARGIN, so the
    inequivalence is proven by the invariant, not assumed.
    """
    while True:
        g = floored_factor(n, rank, rng)
        value, _ = strongest_triple(g, n)
        if abs(value) >= TRIPLE_MARGIN:
            break
    ua = [haar_unitary(rng) for _ in range(n)]
    ub = [haar_unitary(rng) for _ in range(n)]
    kind = "pure" if rank == 1 else f"rank{rank}"
    return Instance(
        f"conjugate_{kind}_n{n}", n, rotate(g, ua), rotate(g.conj(), ub), NOT_EQUIVALENT
    )


def ghz_factor(n: int) -> np.ndarray:
    g = np.zeros((2**n, 1), dtype=complex)
    g[0, 0] = g[-1, 0] = 2**-0.5
    return g


def near_degenerate_factor(n: int, eps: float) -> np.ndarray:
    """cos t |0...0> + sin t |1...1> with t = pi/4 + eps."""
    t = np.pi / 4 + eps
    g = np.zeros((2**n, 1), dtype=complex)
    g[0, 0], g[-1, 0] = np.cos(t), np.sin(t)
    return g


def bell_times_qubit(rng) -> np.ndarray:
    """Bell pair (qubits 1, 2) times a random pure qubit 3."""
    q = rng.normal(size=2) + 1j * rng.normal(size=2)
    return np.kron(ghz_factor(2)[:, 0], q / np.linalg.norm(q)).reshape(8, 1)


def bell_diagonal_factor(weights) -> np.ndarray:
    """sum_k w_k |beta_k><beta_k| over the four Bell states, as a 4x4 factor."""
    s = 2**-0.5
    bells = np.array(
        [[s, 0, 0, s], [s, 0, 0, -s], [0, s, s, 0], [0, s, -s, 0]], dtype=complex
    ).T
    return bells * np.sqrt(np.asarray(weights, dtype=float))


def tilted_unitary(beta: float, rng) -> np.ndarray:
    """Rz(alpha) Ry(beta) Rz(gamma) with alpha, gamma uniform.

    A Haar unitary is this product, up to a global phase, with beta drawn
    from the density sin(beta) / 2 on [0, pi].  Fixing beta per instance at
    the quantiles of that density stratifies the Haar measure.
    """
    a, g = rng.uniform(0.0, 2.0 * np.pi, size=2)

    def rz(t):
        return np.diag([np.exp(-0.5j * t), np.exp(0.5j * t)])

    c, s = np.cos(0.5 * beta), np.sin(0.5 * beta)
    return rz(a) @ np.array([[c, -s], [s, c]], dtype=complex) @ rz(g)


def haar_tilts(count: int) -> np.ndarray:
    """Midpoint quantiles of the Haar tilt density sin(beta) / 2."""
    u = (np.arange(count) + 0.5) / count
    return np.arccos(1.0 - 2.0 * u)
