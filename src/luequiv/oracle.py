"""Reproducible random instances and an independent brute-force fit oracle.

All randomness flows through numpy's counter-based Philox generator so that
every sampled state, unitary and optimizer restart is reproducible from an
integer seed alone, across platforms and runs.

The fit oracle knows nothing about trace decompositions: it minimizes the
Frobenius residual || b - (U_1 x ... x U_n) a (...)^dag || over 3n Euler
angles with a multi-start Nelder-Mead simplex.  It exists as an independent
cross-check of the analytic equivalence engine, so keep it free of any code
shared with the engine's decision path.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .linalg import dagger, frobenius_distance, kron_all, make_rng
from .states import NQubitState, from_pure_amplitudes, validate_state

DEFAULT_MIN_BLOCH = 0.05
NM_TOL = 1e-10
NM_MAX_EVALS = 20000
_LETTERS = "abcdefghijklmnopqrstuvwxyz"


def random_pure_amplitudes(n: int, seed) -> np.ndarray:
    """Haar-distributed normalized amplitude vector of 2**n entries."""
    rng = make_rng(seed)
    psi = rng.normal(size=2**n) + 1j * rng.normal(size=2**n)
    return psi / np.linalg.norm(psi)


def random_pure_state(n: int, seed) -> NQubitState:
    return from_pure_amplitudes(random_pure_amplitudes(n, seed))


def _ginibre_factor(n: int, rank: int, rng: np.random.Generator) -> np.ndarray:
    if not 1 <= rank <= 2**n:
        raise ValueError(f"rank {rank} out of range 1..{2**n}")
    return rng.normal(size=(2**n, rank)) + 1j * rng.normal(size=(2**n, rank))


def _mixed_from_factor(g: np.ndarray) -> NQubitState:
    m = g @ dagger(g)
    return validate_state(m / np.trace(m).real)


def random_mixed_state(n: int, rank: int, seed) -> NQubitState:
    """Ginibre-induced mixed state rho = G G^dag / Tr(G G^dag) of given rank."""
    return _mixed_from_factor(_ginibre_factor(n, rank, make_rng(seed)))


def haar_local_unitary(seed) -> np.ndarray:
    """Haar 2x2 unitary via QR of a complex Gaussian with phase-fixed R."""
    rng = make_rng(seed)
    z = (rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))) / np.sqrt(2.0)
    q, r = np.linalg.qr(z)
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def apply_local_unitaries(state: NQubitState, unitaries) -> NQubitState:
    """Conjugate by U_1 x ... x U_n (qubit 1 first).

    A pure state stays pure: each U_k is contracted with amplitude axis k.
    """
    us = [np.asarray(u, dtype=complex) for u in unitaries]
    if len(us) != state.n:
        raise ValueError(f"expected {state.n} unitaries, got {len(us)}")
    for u in us:
        if u.shape != (2, 2):
            raise ValueError("local unitaries must be 2x2")
        if frobenius_distance(u @ dagger(u), np.eye(2)) > 1e-10:
            raise ValueError("matrix is not unitary within tolerance")
    if state.amplitudes is not None:
        t = state.amplitudes.reshape((2,) * state.n)
        for k, u in enumerate(us):
            t = np.moveaxis(np.tensordot(u, t, axes=([1], [k])), 0, k)
        return from_pure_amplitudes(t.ravel())
    big = kron_all(us)
    return validate_state(big @ state.matrix @ dagger(big))


def _marginal_bloch_norms(g: np.ndarray, n: int) -> list[float]:
    """Bloch norms of the qubit marginals of g g^dag / Tr(g g^dag)."""
    weight = float(np.vdot(g, g).real)
    norms = []
    for k in range(n):
        t = g.reshape(2**k, 2, 2 ** (n - k - 1), g.shape[1])
        q = np.einsum("aibr,ajbr->ij", t, t.conj()) / weight
        norms.append(float(np.hypot(q[0, 0].real - q[1, 1].real, 2.0 * abs(q[0, 1]))))
    return norms


def random_state_with_bloch_floor(
    n: int,
    seed,
    rank: int = 1,
    min_bloch: float = DEFAULT_MIN_BLOCH,
    max_tries: int = 1000,
) -> NQubitState:
    """Rejection-sample a state whose marginal Bloch norms all reach min_bloch.

    rank=1 draws Haar pure states, rank>1 Ginibre mixed states.  The floor
    keeps every marginal safely away from the maximally mixed point.  The
    Bloch norms are read off the amplitude vector or the Ginibre factor, so
    only the accepted draw is built and validated as a state.
    """
    rng = make_rng(seed)
    for _ in range(max_tries):
        if rank == 1:
            g = random_pure_amplitudes(n, rng)[:, None]
        else:
            g = _ginibre_factor(n, rank, rng)
        if min(_marginal_bloch_norms(g, n)) >= min_bloch:
            return from_pure_amplitudes(g[:, 0]) if rank == 1 else _mixed_from_factor(g)
    raise RuntimeError(f"no sample reached Bloch floor {min_bloch} in {max_tries} tries")


@dataclass(frozen=True)
class OracleFit:
    """Best local-unitary fit found by the brute-force search."""

    residual: float
    unitaries: tuple[np.ndarray, ...]
    evaluations: int
    budget_exhausted: bool


def euler_unitary(alpha: float, beta: float, gamma: float) -> np.ndarray:
    """ZYZ product e^{i alpha Z/2} e^{i beta Y/2} e^{i gamma Z/2}, written out.

    The entries are taken with math and cmath on Python floats: the fit
    oracle builds n of these per objective call, and numpy's scalar
    functions cost several times more per call.
    """
    cb = math.cos(0.5 * beta)
    sb = math.sin(0.5 * beta)
    p = cmath.exp(0.5j * (alpha + gamma))
    q = cmath.exp(0.5j * (alpha - gamma))
    return np.array([[cb * p, sb * q], [-sb * q.conjugate(), cb * p.conjugate()]])


def _angles_to_unitaries(angles: np.ndarray, n: int) -> list[np.ndarray]:
    return [euler_unitary(*angles[3 * i : 3 * i + 3]) for i in range(n)]


def lu_fit_oracle(
    a: NQubitState,
    b: NQubitState,
    restarts: int = 20,
    seed: int = 0,
    max_evals: int = NM_MAX_EVALS,
    early_stop: float | None = None,
) -> OracleFit:
    """Multi-start Nelder-Mead fit of b by local conjugations of a.

    The returned residual is an upper bound on the true minimum; it never
    proves inequivalence on its own.  The first start is the identity, the
    rest are uniform random Euler angles.  When early_stop is set, restarts
    end as soon as the best residual drops below it.  restarts must be at
    least 1, or no fit runs; anything less raises ValueError.
    """
    from scipy.optimize import minimize  # scipy costs more to import than the engine

    if a.n != b.n:
        raise ValueError(f"qubit counts differ: {a.n} vs {b.n}")
    if restarts < 1:
        raise ValueError(f"restarts must be at least 1, got {restarts}")
    n = a.n
    rng = make_rng(seed)
    evals = 0
    exhausted = False
    rho_a, rho_b = a.matrix, b.matrix
    # U_1 x ... x U_n (qubit 1 first) as one einsum outer product: at n = 3
    # an objective call takes 39 us, where the np.kron chain took 120 us
    rows, cols = _LETTERS[:n], _LETTERS[n : 2 * n]
    spec = ",".join(r + c for r, c in zip(rows, cols)) + "->" + rows + cols

    def objective(angles):
        big = np.einsum(spec, *_angles_to_unitaries(angles, n)).reshape(2**n, 2**n)
        return frobenius_distance(rho_b, big @ rho_a @ dagger(big))

    best_x = np.zeros(3 * n)
    best_f = objective(best_x)
    evals += 1

    for start in range(restarts):
        if early_stop is not None and best_f <= early_stop:
            break
        if start == 0:
            x0 = np.zeros(3 * n)
        else:
            x0 = rng.uniform(0.0, 2.0 * np.pi, size=3 * n)
        res = minimize(
            objective,
            x0,
            method="Nelder-Mead",
            options={
                "maxfev": max_evals,
                "fatol": NM_TOL,
                "xatol": NM_TOL,
                "disp": False,
            },
        )
        evals += res.nfev
        if res.nfev >= max_evals:
            exhausted = True
        if res.fun < best_f:
            best_f = float(res.fun)
            best_x = res.x

    us = tuple(_angles_to_unitaries(best_x, n))
    return OracleFit(residual=float(best_f), unitaries=us, evaluations=evals, budget_exhausted=exhausted)
