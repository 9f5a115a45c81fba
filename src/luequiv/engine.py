"""Decision engine for local-unitary equivalence of n-qubit states.

The pipeline follows the trace-decomposition protocol:

1. preflight: global spectra must agree within tol and single-qubit
   marginal spectra within 2^((n-1)/2) tol.
2. both states are rotated into their marginal eigenframes (trace forms).
3. the residual eigenframe freedom is a diagonal phase diag(e^{iw}, e^{-iw})
   per qubit, which multiplies each trace-form entry by a phase linear in
   the angles; phase_match solves those linear equations exactly over the
   integers (Smith form) and checks the finitely many solution branches.
4. a successful match is turned into explicit witness unitaries
   U_i = V'_i diag(e^{iw_i}, e^{-iw_i}) V_i^dag whose residual is recomputed
   from the original inputs before an Equivalent verdict is issued.

A state with a factor G (rho ~ G G^dag, see states) runs every stage on
it: the trace form is G_t = (V_1^dag x ... x V_n^dag) G.  Two factors are
compared through the R factor of [G_t, H_t] (linalg.factor_distance), and
the phase solve reads its entries G_t,r G_t,c^dag row by row, so a
decision between two factors of rank r forms no 2**n x 2**n array.  Two
rank-1 factors (pure states) cost O(n 2**n) throughout.  The witness
residual is taken against (U G)(U G)^dag: against the other input's factor
G' through factor_distance, so a decision between two factor states reads
no 2**n x 2**n matrix, or block by block against the matrix of a
dense-only other input.  A mixed qubit is traced out of the factors, by
moving its axis into their columns, and the SU(2) fallback rotates G and
contracts its block steps from the two factors, so a decision between two
factor states with mixed qubits forms no 2**n x 2**n array either.

A factor's error e = ||rho - G G^dag||_F is carried into the verdict: with
eps = e_a + e_b, every distance taken on the factors is within eps of the
same distance on the inputs (unitary invariance).  So eps is added to every
residual that is reported or accepted, and subtracted from every lower
bound a rejection rests on: the preflight gaps, the modulus bound and the
branch scores.  A dense-only state has e = 0.

A qubit whose marginal eigenvalue gap is below traceform.mixed_gap counts
as maximally mixed: it admits a full SU(2) freedom instead of a phase.  Those instances come back Indeterminate unless the optional SU(2)
fallback is enabled.  A partial trace over the mixed qubits commutes with
their unitaries, so the phase solve on the other qubits' reductions is still
a necessary condition: when it fails the verdict is Indeterminate at once.
When it matches, two qubits that are both mixed are first taken to a common
Bell-diagonal form by the signed SVDs of their 3x3 correlation matrices,
which gives a witness in closed form.  Otherwise, or when that witness
misses tol, a seeded block coordinate descent over the mixed qubits' SU(2)
factors looks for a witness; each of its steps is the exact best factor of
one qubit, the top eigenvector of a 4x4 quaternion matrix.  Between two pure
states that matrix has rank 2, and the step is taken in closed form.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field

import numpy as np

from .linalg import (
    PAULIS,
    apply_local,
    conjugate_local,
    dagger,
    factor_distance,
    frobenius_distance,
    gram_blocks,
    gram_distance,
    make_rng,
    projector_distance,
)
from .states import NQubitState, state_distance
from .traceform import DEFAULT_TOL, LocalEigenframe, TraceForm, local_eigenframes, mixed_gap, to_trace_form

EQUIVALENT = "equivalent"
NOT_EQUIVALENT = "not_equivalent"
INDETERMINATE = "indeterminate"

BY_GLOBAL_SPECTRUM = "by_global_spectrum"
BY_MARGINAL_SPECTRA = "by_marginal_spectra"
BY_TRACE_FORM = "by_trace_form"

MATCHED = "matched"
NO_SOLUTION = "no_solution"

# block coordinate descent converges linearly with an instance-dependent
# rate; the deep budget only gets spent on runs that are actually
# descending, since plateaus break out after a handful of sweeps
FALLBACK_SWEEPS = 2500
FALLBACK_SEED = 11


class EngineInconsistencyError(RuntimeError):
    """A witness failed re-verification after a successful phase match."""


@dataclass(frozen=True)
class EngineConfig:
    """Tolerances of the decision procedure and the SU(2) fallback budget.

    tol is the Frobenius decision tolerance applied to witness residuals,
    to the trace-form comparison and, scaled as preflight_invariants says,
    to the preflight spectra.  It also sets the marginal eigenvalue gap
    below which a qubit counts as maximally mixed (traceform.mixed_gap).
    The phase solve is exact and has no budget.  The SU(2) fallback is off
    by default; it runs fallback_restarts restarts of at most
    FALLBACK_SWEEPS block coordinate sweeps each, and FALLBACK_SEED draws
    the starting factors of every restart after the first.  tol must be
    finite and positive and fallback_restarts at least 1; anything else
    raises ValueError.
    """

    tol: float = DEFAULT_TOL
    fallback: bool = False
    fallback_restarts: int = 16

    def __post_init__(self):
        if not (np.isfinite(self.tol) and self.tol > 0):
            raise ValueError(f"tol must be finite and positive, got {self.tol}")
        if self.fallback_restarts < 1:
            raise ValueError(f"fallback_restarts must be at least 1, got {self.fallback_restarts}")


DEFAULT_CONFIG = EngineConfig()


@dataclass(frozen=True)
class PreflightReport:
    ok: bool
    failed: str | None
    qubit: int | None
    gap: float
    global_gap: float
    marginal_gaps: tuple[float, ...]


@dataclass(frozen=True)
class PhaseAssignment:
    """Per-qubit angles w_i of diag(e^{iw_i}, e^{-iw_i}), each in [0, pi).

    Entries of maximally mixed qubits are exactly zero.
    """

    omegas: np.ndarray


@dataclass(frozen=True)
class PhaseMatchResult:
    """Outcome of the phase solve.

    branches counts the solutions of the chosen equations (0 when the
    modulus bound already decided); min_modulus is the smallest
    min(|rho_rc|, |rho'_rc|) among those equations, None when none was
    needed.
    """

    status: str
    assignment: PhaseAssignment | None
    residual: float
    branches: int = 0
    min_modulus: float | None = None


@dataclass(frozen=True)
class WitnessLU:
    """Explicit local unitaries certifying equivalence, with their residual."""

    unitaries: tuple[np.ndarray, ...]
    residual: float


@dataclass(frozen=True)
class Verdict:
    outcome: str
    reason: str | None = None
    witness: WitnessLU | None = None
    mixed_qubits: tuple[int, ...] = ()
    fallback_attempted: bool = False
    budget_exhausted: bool = False
    diagnostics: dict = field(default_factory=dict)


def preflight_invariants(
    a: NQubitState,
    b: NQubitState,
    tol: float,
    frames: tuple[tuple[LocalEigenframe, ...], tuple[LocalEigenframe, ...]] | None = None,
) -> PreflightReport:
    """Compare the cheap unitary invariants: global and marginal spectra.

    A witness with residual at most tol moves each global eigenvalue by at
    most tol (Mirsky) and each marginal eigenvalue by at most 2^((n-1)/2)
    tol, the most a partial trace over n - 1 qubits grows a Frobenius norm.
    A gap above its bound fails, so a rejection proves that no witness is
    within tol.  Reports the first failing invariant (global spectrum
    first, then qubits in index order) together with its gap.  frames, when
    given, are the local_eigenframes of a and of b, whose eigenvalues are
    the marginal spectra.  The gaps are lower bounds for the inputs: spectra
    read from factors are those of G G^dag, so with eps = a.factor_error +
    b.factor_error the global gap drops by eps and each marginal gap by
    2^((n-1)/2) eps, by the same bounds.  Gaps are floored at 0.
    """
    if a.n != b.n:
        raise ValueError(f"qubit counts differ: {a.n} vs {b.n}")
    if frames is None:
        frames = (local_eigenframes(a), local_eigenframes(b))
    eps = a.factor_error + b.factor_error
    global_gap = max(float(np.max(np.abs(a.spectrum - b.spectrum))) - eps, 0.0)
    scale = 2.0 ** ((a.n - 1) / 2.0)
    marginal_gaps = []
    for fa, fb in zip(*frames):
        (a0, a1), (b0, b1) = fa.eigenvalues.tolist(), fb.eigenvalues.tolist()
        marginal_gaps.append(max(max(abs(a0 - b0), abs(a1 - b1)) - scale * eps, 0.0))
    failed = None
    qubit = None
    gap = 0.0
    if global_gap > tol:
        failed, gap = "global_spectrum", global_gap
    else:
        for i, g in enumerate(marginal_gaps, start=1):
            if g > scale * tol:
                failed, qubit, gap = "marginal_spectrum", i, g
                break
    return PreflightReport(
        ok=failed is None,
        failed=failed,
        qubit=qubit,
        gap=gap,
        global_gap=global_gap,
        marginal_gaps=tuple(marginal_gaps),
    )


# ---------------------------------------------------------------------------
# exact phase solve on trace-form entries
# ---------------------------------------------------------------------------

# Equations are sought among this many heaviest entries first; all entries are
# scanned only when these leave a phase direction unpinned.  The size affects
# speed only: every branch that survives the slice gets the full residual.
_SLICE = 64


def smith_form(s) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Smith normal form of an integer matrix: u @ s @ v = diag(d), zero-padded.

    u and v are unimodular integer matrices; d holds the positive invariant
    factors, one per unit of rank, each dividing the next.  The elimination
    runs exactly on Python ints (_smith_lists).  Each result is an int64
    array, or an object array of Python ints when an entry does not fit in
    int64, which random 16 x 16 matrices over {-1, 0, 1} can reach.
    """
    a = np.asarray(s, dtype=np.int64)
    rows, cols = a.shape
    u, d, vt = _smith_lists(a.tolist(), rows, cols)
    return _int_array(u, (rows, rows)), _int_array(d, (len(d),)), _int_array(vt, (cols, cols)).T


def _int_array(x: list, shape: tuple) -> np.ndarray:
    """The ints of x as an int64 array, or as an object array if one does not fit."""
    try:
        return np.array(x, dtype=np.int64).reshape(shape)
    except OverflowError:
        return np.array(x, dtype=object).reshape(shape)


def _smith_lists(a: list, rows: int, cols: int):
    """Exact Smith elimination of the rows x cols int lists a, in place.

    Each round pivots on the smallest nonzero |entry| left (the first in
    row-major order) and clears the pivot's column and row by floor
    division; it repeats while remainders are left.  Once both are clear, a
    row holding a non-multiple of the pivot is added to the pivot row, and
    when none is left the pivot is made positive.  A unit entry is the
    smallest there can be, so the scan stops at the first one, and a unit
    pivot divides every entry: clearing it leaves no remainder and no
    non-multiple, so both scans are skipped.  u, d and v are those of the
    full scans.  Returns the lists of u, the invariant factors d and v
    transposed, so that column steps on v are row steps on vt.
    """
    u = [[int(r == c) for c in range(rows)] for r in range(rows)]
    vt = [[int(r == c) for c in range(cols)] for r in range(cols)]
    d: list[int] = []
    for t in range(min(rows, cols)):
        while True:
            best, i, j = 0, t, t
            for r in range(t, rows):
                row = a[r]
                for c in range(t, cols):
                    x = abs(row[c])
                    if x and (not best or x < best):
                        best, i, j = x, r, c
                        if x == 1:
                            break
                if best == 1:
                    break
            if not best:
                return u, d, vt
            a[t], a[i] = a[i], a[t]
            u[t], u[i] = u[i], u[t]
            for row in a:
                row[t], row[j] = row[j], row[t]
            vt[t], vt[j] = vt[j], vt[t]
            p = a[t][t]
            for r in range(t + 1, rows):
                q = a[r][t] // p
                if q:
                    a[r] = [x - q * y for x, y in zip(a[r], a[t])]
                    u[r] = [x - q * y for x, y in zip(u[r], u[t])]
            for c in range(t + 1, cols):
                q = a[t][c] // p
                if q:
                    for row in a:
                        row[c] -= q * row[t]
                    vt[c] = [x - q * y for x, y in zip(vt[c], vt[t])]
            if best == 1:
                break
            if any(a[r][t] for r in range(t + 1, rows)) or any(a[t][t + 1 :]):
                continue  # nonzero remainders are smaller than p: pivot on one
            # a row holding a non-multiple of p, added to the pivot row, leaves
            # a smaller remainder in the next pass
            i = next((r for r in range(t + 1, rows) if any(x % p for x in a[r][t + 1 :])), None)
            if i is None:
                break
            a[t] = [x + y for x, y in zip(a[t], a[i])]
            u[t] = [x + y for x, y in zip(u[t], u[i])]
        if a[t][t] < 0:
            a[t] = [-x for x in a[t]]
            u[t] = [-x for x in u[t]]
        d.append(a[t][t])
    return u, d, vt


def _trace_out(m: np.ndarray, keep: np.ndarray) -> np.ndarray:
    """Partial trace of a qubit matrix over every qubit not flagged in keep."""
    for k in np.flatnonzero(~keep)[::-1]:
        left = 2**k
        right = m.shape[0] // (2 * left)
        six = m.reshape(left, 2, right, left, 2, right)
        m = np.einsum("aibcid->abcd", six).reshape(left * right, left * right)
    return m


def _reduced_factor(g: np.ndarray, active: np.ndarray) -> np.ndarray:
    """A factor of the partial trace of G G^dag over every qubit not flagged in active.

    The traced qubits' axes move into the columns, after the active ones in
    the rows: the result is 2**m x 2**(n-m) r, and its Gram matrix is the
    reduction exactly.  With every qubit active it is G.
    """
    if active.all():
        return g
    n = active.size
    order = [*np.flatnonzero(active), *np.flatnonzero(~active), n]
    return g.reshape((2,) * n + (-1,)).transpose(order).reshape(2 ** int(active.sum()), -1)


def _trace(state: NQubitState) -> float:
    """Tr rho: ||G||_F^2 for a factor, else the matrix's diagonal sum."""
    if state.factor is not None:
        return float(np.vdot(state.factor, state.factor).real)
    return float(np.trace(state.matrix).real)


def _entry_rows(flat: np.ndarray, m: int) -> np.ndarray:
    """Bit-string differences c - r of the entries at flat indices r * 2**m + c."""
    r, c = np.divmod(flat, 2**m)
    shifts = np.arange(m - 1, -1, -1)
    return ((c[:, None] >> shifts) & 1) - ((r[:, None] >> shifts) & 1)


def _pinning_equations(flat: np.ndarray, weight: np.ndarray, m: int):
    """Heaviest-first independent equations among the entries at flat.

    weight holds the entries' weights, aligned with flat.  Returns the flat
    indices, coefficient rows and weights of the chosen equations.  Greedy
    selection keeps every entry of flat in the span of chosen equations at
    least as heavy as itself, so no entry's phase rests on a lighter one.
    Independence is exact: a candidate row is eliminated, fraction-free in
    integers, against the pivots of the rows already chosen (each kept in
    that reduced form, divided by its gcd), and it is chosen when anything
    is left.
    """
    by_weight = np.argsort(-weight, kind="stable")
    order = flat[by_weight]
    rows = _entry_rows(order, m)
    _, first = np.unique(rows @ 3 ** np.arange(m), return_index=True)
    chosen: list[int] = []
    reduced: list[tuple[int, list[int]]] = []  # (pivot column, reduced row)
    for k in np.sort(first).tolist():
        if len(chosen) == m:
            break
        x = rows[k].tolist()
        for p, b in reduced:
            if x[p]:
                bp, xp = b[p], x[p]
                x = [bp * xi - xp * bi for xi, bi in zip(x, b)]
        pivot = next((c for c, xi in enumerate(x) if xi), None)
        if pivot is not None:
            g = math.gcd(*x)
            reduced.append((pivot, [xi // g for xi in x]))
            chosen.append(k)
    return order[chosen], rows[chosen], weight[by_weight][chosen]


def _bits(m: int) -> np.ndarray:
    """Row r holds the bit string of basis index r, qubit 1 first."""
    return (np.arange(2**m)[:, None] >> np.arange(m - 1, -1, -1)) & 1


class _Entries:
    """Trace-form entries of a pair, for the phase solve.

    weight[i] is the weight min(|rho_rc|, |rho'_rc|) of the entry at flat
    index _flat(i) = r * 2**m + c.  A subclass supplies the weights (or its
    own heaviest and above), the entry values, the modulus bound and the
    branch residual.
    """

    floor_scale = 1.0
    # bound() costs no more than reading the candidates, so phase_match
    # takes it before the branches
    bound_first = True

    def _flat(self, i: np.ndarray) -> np.ndarray:
        return i

    def heaviest(self, k: int, floor: float):
        """Flat indices and weights of the k heaviest entries above floor."""
        i = np.argpartition(self.weight, -min(k, self.weight.size))[-k:]
        i = i[self.weight[i] > floor * self.floor_scale]
        return self._flat(i), self.weight[i]

    def above(self, floor: float):
        """Flat indices and weights of every entry above floor."""
        i = np.flatnonzero(self.weight > floor * self.floor_scale)
        return self._flat(i), self.weight[i]


class _DenseEntries(_Entries):
    """Entries of two (reduced) trace-form density matrices a and b.

    Every entry above the diagonal is a candidate; the rest weigh 0.
    """

    def __init__(self, a: np.ndarray, b: np.ndarray):
        self.a, self.b = a, b
        self.abs_a, self.abs_b = np.abs(a), np.abs(b)
        self.weight = np.triu(np.minimum(self.abs_a, self.abs_b), 1).ravel()

    def bound(self) -> float:
        """Frobenius norm of the entrywise modulus gap."""
        return float(np.linalg.norm(self.abs_a - self.abs_b))

    def values(self, flat: np.ndarray):
        return self.a.ravel()[flat], self.b.ravel()[flat]

    def residual(self, w: np.ndarray) -> float:
        """||b - D a D^dag||_F for D the phase conjugation by w."""
        z = np.exp(2j * (_bits(len(w)) @ w))
        return frobenius_distance(self.b, np.conj(z)[:, None] * self.a * z)


def _row_products(f: np.ndarray, r: np.ndarray, c: np.ndarray) -> np.ndarray:
    """The entries (f f^dag)_rc at the index pairs (r, c), summed one column of f at a time."""
    out = f[:, 0][r] * np.conj(f[:, 0][c])
    for col in f.T[1:]:
        out += col[r] * np.conj(col[c])
    return out


# rows of a factor pair read per step of _RowEntries.heaviest: 16 rows of
# 2**10 entries take 256 KB per side
_ROWS = 16


class _FactorEntries(_Entries):
    """Entries G_r G_c^dag and H_r H_c^dag of two factor trace forms.

    No 2**m x 2**m array is built: a row of entries costs O(2**m r), and
    since |rho_rc| <= sqrt(rho_rr rho_cc), an entry's weight is at most
    sqrt(s_r s_c) with s_r = sqrt(rho_rr rho'_rr).  A subclass chooses the
    candidates and supplies the modulus bound.
    """

    def __init__(self, g: np.ndarray, h: np.ndarray):
        self.g, self.h = g, h
        self.m = g.shape[0].bit_length() - 1

    def values(self, flat: np.ndarray):
        r, c = np.divmod(flat, 2**self.m)
        return _row_products(self.g, r, c), _row_products(self.h, r, c)

    def residual(self, w: np.ndarray) -> float:
        """||H H^dag - (D G)(D G)^dag||_F, D the phase conjugation by w, acting on G's rows."""
        return factor_distance(self.h, np.exp(-2j * (_bits(self.m) @ w))[:, None] * self.g)


class _AnchorEntries(_FactorEntries):
    """Two rank-1 factors psi, phi: the candidates are one anchor index's row.

    The anchor is the index with the largest min(|psi_r|, |phi_r|).  The
    differences within a set of indices span the same lattice as their
    differences to one of them, so the anchor's row reaches the rank of all
    the heavy entries.  Its weights are held against floor * floor_scale,
    with floor_scale = min(|psi_anchor|, |phi_anchor|) / max_r max(|psi_r|,
    |phi_r|): an index whose anchor entry falls below that has no entry at
    all above floor.  Kept apart from _RowEntries, whose above() keeps 3**m
    slots, too many for pure states of 16 qubits.
    """

    def __init__(self, g: np.ndarray, h: np.ndarray):
        super().__init__(g, h)
        self.x, self.y = np.abs(g[:, 0]), np.abs(h[:, 0])
        z = np.minimum(self.x, self.y)
        self.anchor = int(np.argmax(z))
        self.weight = np.minimum(self.x[self.anchor] * self.x, self.y[self.anchor] * self.y)
        self.weight[self.anchor] = 0.0
        self.floor_scale = z[self.anchor] / max(self.x.max(), self.y.max())

    def _flat(self, c: np.ndarray) -> np.ndarray:
        return self.anchor * 2**self.m + c

    def bound(self) -> float:
        """||xx^T - yy^T||_F for x = |psi|, y = |phi| (real, so no aligning phase)."""
        return projector_distance(self.x, self.y)


class _RowEntries(_FactorEntries):
    """Two factors of any other ranks, read a block of rows at a time.

    A zero can sit anywhere off the diagonal, so one row does not reach the
    rank of the heavy entries.  heaviest reads rows by decreasing s until no
    unread entry can be among the k heaviest, which are then those of the
    whole matrix, and above scans gram's blocks; both choose what
    _DenseEntries would.  An entry is read in the row of its index that is
    read first, at flat index row * 2**m + column.
    """

    # the bound is a pass over every entry
    bound_first = False

    def heaviest(self, k: int, floor: float):
        d = self.g.shape[0]
        s = np.linalg.norm(self.g, axis=1) * np.linalg.norm(self.h, axis=1)
        order = np.argsort(-s, kind="stable")
        s = s[order]
        # the place of each index in the reading order
        place = np.empty(d, dtype=np.int64)
        place[order] = np.arange(d)
        gh, hh = dagger(self.g), dagger(self.h)
        flat, weight = np.zeros(0, dtype=np.int64), np.zeros(0)
        for start in range(0, d - 1, _ROWS):
            # no entry between two unread indices weighs more than reach
            reach = math.sqrt(s[start] * s[start + 1])
            if reach <= floor or (weight.size == k and reach <= weight.min()):
                break
            rows = order[start : start + _ROWS]
            w = np.minimum(np.abs(self.g[rows] @ gh), np.abs(self.h[rows] @ hh))
            # an entry is read in the row of its index read first
            w[place <= np.arange(start, start + rows.size)[:, None]] = 0.0
            i, c = np.nonzero(w > floor)
            flat = np.concatenate([flat, rows[i] * d + c])
            weight = np.concatenate([weight, w[i, c]])
            if weight.size > k:
                keep = np.argpartition(weight, -k)[-k:]
                flat, weight = flat[keep], weight[keep]
        return flat, weight

    def above(self, floor: float):
        # only the heaviest entry of each coefficient row reaches
        # _pinning_equations' choice, so one slot per row of {-1, 0, 1}^m
        # keeps the scan's output below 3**m entries
        half = (3**self.m - 1) // 2
        best_w, best_f = np.zeros(3**self.m), np.zeros(3**self.m, dtype=np.int64)
        codes = 3 ** np.arange(self.m)
        for (rows, cols, p), (_, _, q) in zip(gram_blocks(self.g), gram_blocks(self.h)):
            w = np.minimum(np.abs(p), np.abs(q))
            if rows == cols:
                w = np.triu(w, 1)
            i, c = np.nonzero(w > floor)
            f = (rows.start + i) * 2**self.m + cols.start + c
            key = _entry_rows(f, self.m) @ codes + half
            wf = w[i, c]
            # per key the heaviest entry, ties to the first flat index
            order = np.lexsort((f, -wf, key))
            first = order[np.unique(key[order], return_index=True)[1]]
            key, wf, f = key[first], wf[first], f[first]
            better = (wf > best_w[key]) | ((wf == best_w[key]) & (f < best_f[key]))
            best_w[key[better]], best_f[key[better]] = wf[better], f[better]
        kept = np.flatnonzero(best_w)
        by_flat = np.argsort(best_f[kept], kind="stable")
        return best_f[kept][by_flat], best_w[kept][by_flat]

    def bound(self) -> float:
        """Frobenius norm of the entrywise modulus gap, summed over gram's blocks."""
        total = 0.0
        for (rows, cols, p), (_, _, q) in zip(gram_blocks(self.g), gram_blocks(self.h)):
            diff = np.abs(p) - np.abs(q)
            total += (1.0 if rows == cols else 2.0) * float(np.vdot(diff, diff).real)
        return math.sqrt(total)


def phase_match(t: TraceForm, t_prime: TraceForm, tol: float) -> PhaseMatchResult:
    """Solve exactly for the per-qubit phases aligning two trace forms.

    Conjugating by (x)_k diag(e^{iw_k}, e^{-iw_k}) multiplies entry (r, c) by
    e^{2i<c-r, w>}, where c - r is the difference of the index bit strings.
    Every entry modulus is therefore invariant, and each nonzero entry gives
    one equation <c-r, w> = arg(rho'_rc / rho_rc) / 2 (mod pi) with
    coefficients in {-1, 0, 1}.  Maximally mixed qubits carry no phase and
    are traced out first.  The solve:

    1. equations are chosen greedily by min(|rho_rc|, |rho'_rc|) until they
       reach the rank of all entries above a floor.  Entries below it, taken
       together, move any residual by at most tol / 2;
    2. a Smith form u S v = diag(d) of the chosen equations gives all prod(d)
       of their solutions on the torus, the branches;
    3. each branch is scored on the heaviest entries, a lower bound of its
       residual.  Survivors get the full residual, and the first within tol
       is matched;
    4. the Frobenius norm of the entrywise modulus gap is a lower bound of
       every assignment's residual; above tol it proves no_solution and is
       reported with no branches.  It is taken before step 1 when it costs
       no more than the entries read there (bound_first), and otherwise
       only when no branch matched.

    Two trace forms with factors are read from their reduced factors
    (_reduced_factor), with residuals from factor_distance: two single
    columns, which only rank-1 factors with no mixed qubit give, from one
    anchor row (_AnchorEntries), any others row by row (_RowEntries); a
    dense-only trace form from the reduced density matrices (_DenseEntries).
    The residual is the Frobenius distance of the matrices reduced to the m
    non-mixed of n qubits, divided by 2^((n-m)/2): the distance of those
    reductions tensored with the maximally mixed state.  At m = 0 nothing
    is left to solve: the reductions are the traces, and their difference
    decides with no entries read.  The trace forms' factor errors, eps in
    total, move that residual by at most eps, so the modulus bound and the
    branch scores drop by eps before they reject, and a matched residual is
    reported with eps added.  A no_solution residual is the smallest such
    lower bound, floored at 0.
    """
    n = t.state.n
    if n != t_prime.state.n:
        raise ValueError(f"qubit counts differ: {n} vs {t_prime.state.n}")
    active = np.array(
        [not (f.maximally_mixed or g.maximally_mixed) for f, g in zip(t.frames, t_prime.frames)]
    )
    m = int(active.sum())
    scale = 2.0 ** ((n - m) / 2.0)
    tol_r = tol * scale
    # a partial trace over n - m qubits grows a Frobenius norm at most by scale
    eps_r = (t.state.factor_error + t_prime.state.factor_error) * scale
    if m == 0:
        # the one branch has no angles, and its residual is the modulus bound
        gap = abs(_trace(t.state) - _trace(t_prime.state))
        if gap + eps_r <= tol_r:
            omegas = np.zeros(n)
            omegas.flags.writeable = False
            return PhaseMatchResult(MATCHED, PhaseAssignment(omegas), (gap + eps_r) / scale, 1)
        low = max(gap - eps_r, 0.0)
        return PhaseMatchResult(NO_SOLUTION, None, low / scale, 0 if low > tol_r else 1)

    if t.state.factor is not None and t_prime.state.factor is not None:
        g = _reduced_factor(t.state.factor, active)
        h = _reduced_factor(t_prime.state.factor, active)
        entries = (_AnchorEntries if g.shape[1] == h.shape[1] == 1 else _RowEntries)(g, h)
    else:
        entries = _DenseEntries(
            _trace_out(t.state.matrix, active), _trace_out(t_prime.state.matrix, active)
        )

    # the modulus bound only decides where no branch matches, so a bound
    # that reads every entry is left until then
    bound = entries.bound() - eps_r if entries.bound_first else None
    if bound is not None and bound > tol_r:
        return PhaseMatchResult(status=NO_SOLUTION, assignment=None, residual=bound / scale)

    floor = tol_r / 2.0 ** (m + 2)
    top, top_weight = entries.heaviest(_SLICE, floor)
    eq, rows, eq_weight = _pinning_equations(top, top_weight, m)
    if len(eq) < m and top.size == _SLICE:
        eq, rows, eq_weight = _pinning_equations(*entries.above(floor), m)

    u, d, v = smith_form(rows)
    # the angles are floats, so the exact multipliers are rounded once here
    u, v = u.astype(float), v.astype(float)
    a_eq, b_eq = entries.values(eq)
    target = u @ (0.5 * np.angle(b_eq * np.conj(a_eq)))
    a_top, b_top = entries.values(top)
    top_rows = _entry_rows(top, m)
    branches = int(np.prod(d))
    min_modulus = float(eq_weight.min()) if len(eq) else None
    best = np.inf
    for shift in np.ndindex(*(int(x) for x in d)):
        y = np.zeros(m)
        y[: len(d)] = (target + np.pi * np.array(shift)) / d
        w = np.mod(v @ y, np.pi)
        mismatch = b_top - np.exp(2j * (top_rows @ w)) * a_top
        low = float(np.sqrt(2.0) * np.linalg.norm(mismatch)) - eps_r
        if low <= tol_r:
            residual = entries.residual(w)
            if residual + eps_r <= tol_r:
                omegas = np.zeros(n)
                omegas[active] = w
                omegas.flags.writeable = False
                assignment = PhaseAssignment(omegas=omegas)
                return PhaseMatchResult(
                    MATCHED, assignment, (residual + eps_r) / scale, branches, min_modulus
                )
            low = residual - eps_r
        best = min(best, low)
    if bound is None:
        bound = entries.bound() - eps_r
    if bound > tol_r:
        return PhaseMatchResult(status=NO_SOLUTION, assignment=None, residual=bound / scale)
    return PhaseMatchResult(NO_SOLUTION, None, max(best, 0.0) / scale, branches, min_modulus)


# ---------------------------------------------------------------------------
# witness assembly
# ---------------------------------------------------------------------------


def normalize_special(u) -> np.ndarray:
    """Scale a 2x2 unitary to det 1 with a deterministic sign.

    u is an array or nested lists; the arithmetic runs on its entries as
    Python complex scalars.  The sign puts the argument of the first
    row-major entry of modulus above 1e-8 into (-pi/2, pi/2].
    """
    (a, b), (c, d) = u.tolist() if isinstance(u, np.ndarray) else u
    root = cmath.sqrt(a * d - b * c)
    out = [a / root, b / root, c / root, d / root]
    for entry in out:
        if abs(entry) > 1e-8:
            if not -math.pi / 2 < cmath.phase(entry) <= math.pi / 2:
                out = [-x for x in out]
            break
    return np.array(out, dtype=complex).reshape(2, 2)


def _frame_unitary(f: LocalEigenframe, g: LocalEigenframe, omega: float) -> list:
    """V'_i diag(e^{iw}, e^{-iw}) V_i^dag as nested lists of Python complex scalars.

    A trace-form phase of qubit i taken back to the inputs, entry by entry:
    [V' D V^dag]_jk = V'_j0 e^{iw} conj(V_k0) + V'_j1 e^{-iw} conj(V_k1).
    """
    (g00, g01), (g10, g11) = g.v.tolist()
    (f00, f01), (f10, f11) = f.v.tolist()
    z = cmath.exp(1j * omega)
    zc = z.conjugate()
    # V' D and the conjugated rows of V, whose products are V' D V^dag
    d00, d01, d10, d11 = g00 * z, g01 * zc, g10 * z, g11 * zc
    c00, c01, c10, c11 = f00.conjugate(), f01.conjugate(), f10.conjugate(), f11.conjugate()
    return [
        [d00 * c00 + d01 * c01, d00 * c10 + d01 * c11],
        [d10 * c00 + d11 * c01, d10 * c10 + d11 * c11],
    ]


def _witness_residual(us, original: NQubitState, original_prime: NQubitState) -> float:
    """An upper bound of ||rho' - U rho U^dag||_F, exact up to the factor errors it adds.

    A factor G of rho is rotated to U G.  When rho' has a factor G' too, the
    two are compared through factor_distance(G', U G), the distance of
    G' G'^dag and (U G)(U G)^dag, to which both errors are added, so a
    decision between two factor states reads no 2**n x 2**n matrix.  A
    dense-only rho' is compared with (U G)(U G)^dag over gram's blocks
    (gram_distance), adding the error of rho, with no 2**n x 2**n product
    or difference formed.  A dense-only rho is conjugated whole.
    """
    if original.factor is None:
        return frobenius_distance(original_prime.matrix, conjugate_local(original.matrix, us))
    ug = apply_local(original.factor, us)
    if original_prime.factor is not None:
        distance = factor_distance(original_prime.factor, ug)
        return distance + original.factor_error + original_prime.factor_error
    return gram_distance(original_prime.matrix, ug) + original.factor_error


# the identity, for a None unitary
_IDENTITY = ((1.0, 0.0), (0.0, 1.0))


def _finalize_witness(
    unitaries, original: NQubitState, original_prime: NQubitState, tol: float
) -> WitnessLU:
    us = tuple(normalize_special(_IDENTITY if u is None else u) for u in unitaries)
    residual = _witness_residual(us, original, original_prime)
    if residual > tol:
        raise EngineInconsistencyError(
            f"witness residual {residual:.3e} above tolerance {tol:.1e}"
        )
    for u in us:
        u.flags.writeable = False
    return WitnessLU(unitaries=us, residual=float(residual))


def assemble_witness(
    t: TraceForm,
    t_prime: TraceForm,
    phases: PhaseAssignment,
    original_prime: NQubitState,
    original: NQubitState,
    tol: float = DEFAULT_CONFIG.tol,
) -> WitnessLU:
    """Build U_i = V'_i diag(e^{iw_i}, e^{-iw_i}) V_i^dag and re-verify it.

    The residual is recomputed from the original pair, never taken from the
    phase solve; a residual above tol raises EngineInconsistencyError, so a
    successful return is a machine-checkable certificate.
    """
    us = [
        _frame_unitary(f, g, w)
        for f, g, w in zip(t.frames, t_prime.frames, phases.omegas.tolist())
    ]
    return _finalize_witness(us, original, original_prime, tol)


# ---------------------------------------------------------------------------
# SU(2) fallback for degenerate marginals
# ---------------------------------------------------------------------------


# E = (I, iX, iY, iZ): a unit real q gives sum_mu q_mu E_mu in SU(2)
_QUATERNION = PAULIS * np.array([1.0, 1j, 1j, 1j])[:, None, None]
# the linear map from W[m,j,i,l] to K + K^T, with
# K_mu,nu = Re sum E_mu[j,i] conj(E_nu[m,l]) W[m,j,i,l]; the real part is
# taken after the product
_K_MAP = np.einsum("aji,bml->mjilab", _QUATERNION, _QUATERNION.conj()).reshape(16, 4, 4)
_K_MAP = (_K_MAP + _K_MAP.transpose(0, 2, 1)).reshape(16, 16)


# row mu holds conj(E_mu) flattened: c = _C_MAP @ a.ravel() has
# c_mu = sum conj(E_mu[m,l]) a[m,l]
_C_MAP = _QUATERNION.conj().reshape(4, 4)


def _su2(q) -> np.ndarray:
    """sum_mu q_mu E_mu, in SU(2) for a unit q, written out entry by entry."""
    q0, q1, q2, q3 = q
    return np.array([[complex(q0, q3), complex(q2, q1)], [complex(-q2, q1), complex(q0, -q3)]])


def _quaternion(u: np.ndarray | None) -> np.ndarray:
    """The unit q with _su2(q) = u for u in SU(2); None is the identity."""
    if u is None:
        return np.array([1.0, 0.0, 0.0, 0.0])
    return np.array([u[0, 0].real, u[0, 1].imag, u[0, 1].real, u[0, 0].imag])


# eigenvalues of K within 8 ulps of ||K|| below its top one count as equal
# to it: eigh resolves K only to a few ulps of its norm
_TIE = 8 * np.finfo(float).eps


def _top_su2(w: np.ndarray, current: np.ndarray | None = None) -> np.ndarray:
    """The U in SU(2) maximizing q^T K q for the contraction w (see _best_su2_factor).

    A repeated top eigenvalue of K (within _TIE ||K|| of the top) leaves
    a whole eigenspace of maximizers, of which eigh returns any vector, so
    the step keeps the projection of current (None is the identity) onto
    that eigenspace, as _top_su2_rank1 keeps current when every U is
    equally good.  When current is nearly orthogonal to it, the first unit
    quaternion 1, i, j, k with a projection of norm at least 1/2 is
    projected instead: the squared norms of those four sum to the
    eigenspace's dimension, at least 2, so one of them qualifies.
    """
    k = (w.reshape(16) @ _K_MAP).real.reshape(4, 4)
    values, vectors = np.linalg.eigh(k)
    low, _, second, top = values.tolist()
    tied = top - _TIE * max(-low, top)
    if second < tied:
        return _su2(vectors[:, -1])
    space = vectors[:, values >= tied]
    # the projections of current, 1, i, j and k, as columns
    p = space @ (space.T @ np.column_stack([_quaternion(current), np.eye(4)]))
    norms = np.linalg.norm(p, axis=0)
    first = int(np.argmax(norms >= 0.5))
    return _su2(p[:, first] / norms[first])


def _top_su2_rank1(a: np.ndarray, current: np.ndarray | None) -> np.ndarray | None:
    """_top_su2 for the contraction W[m,j,i,l] = a[m,l] conj(a[j,i]) of two single columns.

    With c_mu = sum conj(E_mu[m,l]) a[m,l] = x + i y, K = Re(conj(c) c^T) =
    x x^T + y y^T has rank 2, and q^T K q = (q.x)^2 + (q.y)^2.  Its top
    eigenvector is v_0 x + v_1 y for (v_0, v_1) the top eigenvector of the
    Gram matrix [[x.x, x.y], [x.y, y.y]], taken on Python scalars as
    linalg._eig_2x2 does: of the two forms [lo - y.y, x.y] and
    [x.y, lo - x.x], the one with the larger difference from lo, which is
    |x.x - y.y| / 2 + sqrt(((x.x - y.y) / 2)^2 + (x.y)^2) and has no
    cancellation.  A Gram matrix that is a multiple of the identity takes
    q = x.  When c = 0 every U is equally good, and current (None is the
    identity) is kept.
    """
    c = (_C_MAP @ a.reshape(4)).tolist()
    p = r = s = 0.0
    for z in c:
        p += z.real * z.real
        r += z.imag * z.imag
        s += z.real * z.imag
    half = 0.5 * (p - r)
    root = math.hypot(half, s)
    if root == 0.0:
        v0, v1 = 1.0, 0.0
    elif half >= 0.0:
        v0, v1 = half + root, s
    else:
        v0, v1 = s, root - half
    q = [v0 * z.real + v1 * z.imag for z in c]
    norm = math.sqrt(sum(t * t for t in q))
    if norm == 0.0:
        return current
    return _su2([t / norm for t in q])


def _best_su2_factor(
    target: np.ndarray, r: np.ndarray, k: int, current: np.ndarray | None = None
) -> np.ndarray:
    """The U in SU(2) on qubit k (0-based) minimizing ||target - U r U^dag||_F.

    Both matrices are Hermitian, so the squared distance is a constant less
    2 Re Tr(target U r U^dag), and with U = sum_mu q_mu E_mu that trace is the
    quadratic form q^T K q,  K_mu,nu = Re sum E_mu[j,i] conj(E_nu[m,l]) W[m,j,i,l]
    for W the contraction of target and r over every other qubit.  The best
    unit q is the top eigenvector of K + K^T (Horn's quaternion solution),
    which _K_MAP takes from W in one product; a repeated top eigenvalue
    keeps current's projection (_top_su2).
    """
    left = 2**k
    six = (left, 2, r.shape[0] // (2 * left)) * 2
    w = np.tensordot(target.reshape(six), r.reshape(six), axes=([0, 2, 3, 5], [3, 5, 0, 2]))
    return _top_su2(w, current)


def _best_su2_on_factors(
    h: np.ndarray, phi: np.ndarray, k: int, current: np.ndarray | None
) -> np.ndarray | None:
    """_best_su2_factor for target = H H^dag and r = Phi Phi^dag, read from the factors.

    With A[m,s,l,t] = sum_{a,b} H[a,m,b,s] conj(Phi[a,l,b,t]), the sum over
    the qubits other than k, the contraction is
    W[m,j,i,l] = sum_{s,t} A[m,s,l,t] conj(A[j,s,i,t]): O(2**n r r') work
    and no 2**n x 2**n array.  Two single columns (pure states) give a 2x2 A
    and the closed form _top_su2_rank1, which keeps current when every U is
    equally good; any other ranks take _top_su2 of the whole contraction,
    which keeps current's projection when the top eigenvalue is repeated.
    """
    left = 2**k
    if h.shape[1] == phi.shape[1] == 1:
        a = np.einsum("aib,ajb->ij", h.reshape(left, 2, -1), np.conj(phi.reshape(left, 2, -1)))
        return _top_su2_rank1(a, current)
    a = np.tensordot(
        h.reshape(left, 2, -1, h.shape[1]),
        np.conj(phi.reshape(left, 2, -1, phi.shape[1])),
        axes=([0, 2], [0, 2]),
    )
    w = np.tensordot(a, np.conj(a), axes=([1, 3], [1, 3])).transpose(0, 2, 3, 1)
    return _top_su2(w, current)


def _on_qubit(u: np.ndarray, x: np.ndarray, k: int) -> np.ndarray:
    """u applied to qubit k (0-based) of the rows of x."""
    return np.matmul(u, x.reshape(2**k, 2, -1)).reshape(x.shape)


def _factor_sweep(h, g_fixed, phi, factors, positions) -> tuple[np.ndarray, float]:
    """One sweep of block steps on phi = (x factors) g_fixed, the factor of R.

    Each step takes U_k off qubit k of phi, replaces it by the best factor
    (_best_su2_on_factors) and puts it back; a None factor is the identity
    and is not applied.  The sweep ends with phi rebuilt from g_fixed, so
    rounding drift spans at most one sweep, and returns it with its squared
    residual.
    """
    for k in positions:
        u = factors[k]
        if u is not None:
            phi = _on_qubit(dagger(u), phi, k)
        u = factors[k] = _best_su2_on_factors(h, phi, k, u)
        if u is not None:
            phi = _on_qubit(u, phi, k)
    phi = apply_local(g_fixed, factors)
    return phi, factor_distance(h, phi) ** 2


def _matrix_sweep(target, a_fixed, factors, positions) -> float:
    """One sweep of block steps on the matrix a_fixed; returns the squared residual."""
    for k in positions:
        others = list(factors)
        others[k] = None
        factors[k] = _best_su2_factor(target, conjugate_local(a_fixed, others), k, factors[k])
    # the analytic optimum cancels near tol^2: measure the residual
    return float(np.sum(np.abs(target - conjugate_local(a_fixed, factors)) ** 2))


def _su2_of_rotation(rot: np.ndarray) -> np.ndarray:
    """A U in SU(2) (the other is -U) with U sigma_i U^dag = sum_j rot[j, i] sigma_j.

    rot is in SO(3).  With tau_i = sum_j rot[j, i] sigma_j, the sum
    sum_i Re Tr(tau_i U sigma_i U^dag) is 2 Tr(rot^T O) for O the rotation of
    U, largest exactly at O = rot; as a quadratic form in q it has the W of
    _best_su2_factor with W[m,j,i,l] = sum_i' tau_i'[m,j] sigma_i'[i,l], so
    U is a top eigenvector again (Bar-Itzhack, J. Guid. Control Dyn. 23,
    1085 (2000)).
    """
    return _top_su2(np.einsum("ji,jmn,ikl->mnkl", rot, PAULIS[1:], PAULIS[1:]))


def _signed_svd_frames(t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """P, Q in SO(3) with T = P diag(d) Q^T, the signed SVD: d_3 carries a reflection's sign."""
    p, _, qt = np.linalg.svd(t)
    q = qt.T
    for m in (p, q):
        if np.linalg.det(m) < 0:
            m[:, 2] = -m[:, 2]
    return p, q


def _correlation_matrix(state: NQubitState) -> np.ndarray:
    """The 3x3 block T_ij = Tr(rho sigma_i x sigma_j) of a two-qubit state.

    One einsum: sum_t G_t^dag (sigma_i x sigma_j) G_t over the columns of a
    factor G, else over the matrix of a dense-only state.
    """
    s = PAULIS[1:]
    if state.factor is not None:
        g = state.factor.reshape(2, 2, -1)
        t = np.einsum("abt,iac,jbd,cdt->ij", np.conj(g), s, s, g)
    else:
        t = np.einsum("cdab,iac,jbd->ij", state.matrix.reshape(2, 2, 2, 2), s, s)
    return t.real


def _bell_diagonal_witness(a: NQubitState, b: NQubitState) -> list[np.ndarray]:
    """Local unitaries taking T_a to P_b diag(d_a) Q_b^T, for a pair at n = 2.

    Under U_1 x U_2 the correlation matrix goes to O_1 T O_2^T, so with the
    signed SVDs T_a = P_a diag(d_a) Q_a^T and T_b = P_b diag(d_b) Q_b^T the
    rotations O_1 = P_b P_a^T and O_2 = Q_b Q_a^T give the image
    P_b diag(d_a) Q_b^T, at distance ||d_a - d_b|| from T_b however the
    singular vectors are conditioned (Horodecki & Horodecki, PRA 54, 1838
    (1996)).  The local Bloch vectors are rotated along; for maximally mixed
    marginals they are zero.
    """
    pa, qa = _signed_svd_frames(_correlation_matrix(a))
    pb, qb = _signed_svd_frames(_correlation_matrix(b))
    return [_su2_of_rotation(pb @ pa.T), _su2_of_rotation(qb @ qa.T)]


def su2_fallback(
    a: NQubitState,
    b: NQubitState,
    ta: TraceForm,
    tb: TraceForm,
    mixed_qubits: tuple[int, ...],
    phases: PhaseAssignment,
    config: EngineConfig,
) -> tuple[WitnessLU | None, int]:
    """Search the full SU(2) freedom of the maximally mixed qubits.

    It runs after phase_match matched the other qubits, so each of those keeps
    the fixed U_i = V'_i diag(e^{iw_i}, e^{-iw_i}) V_i^dag from phases, and
    each mixed qubit k gets a free factor U_k in SU(2).  At n = 2 with both
    qubits mixed, the closed form of _bell_diagonal_witness is tried first;
    a witness within tol is returned with 0 evaluations, and one that misses
    tol (noise near tol) is dropped for the search.  The search minimizes the
    witness residual by multi-start block coordinate descent: one step
    replaces U_k by the exact minimizer of ||rho_b - U_k R U_k^dag||_F, where
    R is a with the fixed factors and the other mixed ones applied.  Two
    states with factors G_a, G_b run it on them (_factor_sweep): R's factor
    is the rotated phi = (U_fixed x U_mixed) G_a, and each sweep's residual
    is factor_distance(G_b, phi)^2, so no 2**n x 2**n array is formed;
    between two pure states each step is closed form (_top_su2_rank1).
    Otherwise it runs on the matrices (_matrix_sweep).  Restart 0 starts
    every U_k at the identity, held as None and applied to nothing, so it
    starts from the fixed factors' image as it is; the other restarts start
    at random unit quaternions drawn from FALLBACK_SEED.  Each sweep of
    steps ends with one direct residual.
    Returns the witness, None when no restart reaches tolerance, and the
    number of block steps plus residual evaluations.
    """
    if a.n == 2 and len(mixed_qubits) == 2:
        try:
            return _finalize_witness(_bell_diagonal_witness(a, b), a, b, config.tol), 0
        except EngineInconsistencyError:
            pass  # noise near tol: the search below may still find a witness
    mixed = set(mixed_qubits)
    fixed = [
        None if f.qubit in mixed else _frame_unitary(f, g, w)
        for f, g, w in zip(ta.frames, tb.frames, phases.omegas.tolist())
    ]
    on_factors = a.factor is not None and b.factor is not None
    g_fixed = apply_local(a.factor, fixed) if on_factors else None
    a_fixed = None if on_factors else conjugate_local(a.matrix, fixed)
    positions = [k for k, u in enumerate(fixed) if u is None]
    evaluations = 0
    rng = None  # restart 0 draws nothing
    tol_sq = config.tol**2

    for start in range(config.fallback_restarts):
        if start == 1:
            rng = make_rng(FALLBACK_SEED)
        # None is the identity: restart 0 keeps every factor there and
        # starts from g_fixed (or a_fixed) unrotated
        factors: list[np.ndarray | None] = [None] * a.n
        if start:
            for k in positions:
                q = rng.normal(size=4)
                factors[k] = _su2(q / np.linalg.norm(q))
        phi = apply_local(g_fixed, factors) if on_factors and start else g_fixed
        f = np.inf
        for _ in range(FALLBACK_SWEEPS):
            prev = f
            if on_factors:
                phi, f = _factor_sweep(b.factor, g_fixed, phi, factors, positions)
            else:
                f = _matrix_sweep(b.matrix, a_fixed, factors, positions)
            evaluations += len(positions) + 1
            if f <= tol_sq * 0.01:
                break
            # descent toward zero keeps a steady relative improvement per
            # sweep; only a plateau at a nonzero minimum breaks this, and
            # then the next restart hops basins
            if prev - f <= 1e-6 * f:
                break
        if f <= tol_sq:
            us = [u if m is None else m for u, m in zip(fixed, factors)]
            return _finalize_witness(us, a, b, config.tol), evaluations
    return None, evaluations


# ---------------------------------------------------------------------------
# top-level decision
# ---------------------------------------------------------------------------


def decide_lu_equivalence(
    a: NQubitState, b: NQubitState, config: EngineConfig = DEFAULT_CONFIG
) -> Verdict:
    """Decide whether b = (U_1 x ... x U_n) a (U_1 x ... x U_n)^dag.

    Equivalent verdicts carry witness unitaries whose residual was recomputed
    from the inputs.  NotEquivalent names the separating invariant; a
    preflight rejection implies that no witness is within config.tol
    (preflight_invariants), and the trace-form rejection is only issued
    when no marginal is maximally mixed and no branch of the exact phase
    solve matches.  A qubit whose marginal eigenvalue gap in either state
    is below mixed_gap(n, config.tol, e_a + e_b) is maximally mixed, and
    mixed qubits yield Indeterminate unless config.fallback is set.  Then
    the phase solve on the non-mixed qubits runs first, as a necessary
    condition, and only a match there starts the SU(2) search; a failed
    solve is Indeterminate without a search.
    """
    if a.n != b.n:
        raise ValueError(f"qubit counts differ: {a.n} vs {b.n}")
    gap = mixed_gap(a.n, config.tol, a.factor_error + b.factor_error)
    frames = (local_eigenframes(a, gap), local_eigenframes(b, gap))
    gaps = [f.eigenvalues[0] - f.eigenvalues[1] for f in frames[0] + frames[1]]
    diagnostics: dict = {"mixed_gap": gap, "min_eigen_gap": float(min(gaps))}
    pre = preflight_invariants(a, b, config.tol, frames=frames)
    diagnostics["preflight"] = {
        "global_gap": pre.global_gap,
        "marginal_gaps": list(pre.marginal_gaps),
    }
    if not pre.ok:
        reason = BY_GLOBAL_SPECTRUM if pre.failed == "global_spectrum" else BY_MARGINAL_SPECTRA
        diagnostics["preflight"]["failed_qubit"] = pre.qubit
        diagnostics["preflight"]["gap"] = pre.gap
        return Verdict(outcome=NOT_EQUIVALENT, reason=reason, diagnostics=diagnostics)

    ta = to_trace_form(a, frames=frames[0])
    tb = to_trace_form(b, frames=frames[1])
    mixed = tuple(
        f.qubit for f, g in zip(ta.frames, tb.frames) if f.maximally_mixed or g.maximally_mixed
    )
    direct = state_distance(ta.state, tb.state) + a.factor_error + b.factor_error
    diagnostics["direct_distance"] = direct

    if mixed and not config.fallback:
        return Verdict(outcome=INDETERMINATE, mixed_qubits=mixed, diagnostics=diagnostics)
    if not mixed and direct <= config.tol:
        witness = assemble_witness(ta, tb, PhaseAssignment(np.zeros(a.n)), b, a, tol=config.tol)
        diagnostics["phase_status"] = "direct"
        return Verdict(outcome=EQUIVALENT, witness=witness, diagnostics=diagnostics)

    pm = phase_match(ta, tb, config.tol)
    diagnostics["phase_status"] = pm.status
    diagnostics["phase_residual"] = pm.residual
    diagnostics["phase_branches"] = pm.branches
    diagnostics["phase_min_modulus"] = pm.min_modulus
    if pm.status == MATCHED:
        diagnostics["omegas"] = [float(w) for w in pm.assignment.omegas]

    if not mixed:
        if pm.status != MATCHED:
            return Verdict(outcome=NOT_EQUIVALENT, reason=BY_TRACE_FORM, diagnostics=diagnostics)
        witness = assemble_witness(ta, tb, pm.assignment, b, a, tol=config.tol)
        return Verdict(outcome=EQUIVALENT, witness=witness, diagnostics=diagnostics)

    searched = pm.status == MATCHED
    witness = None
    if searched:
        witness, diagnostics["fallback_evaluations"] = su2_fallback(
            a, b, ta, tb, mixed, pm.assignment, config
        )
    return Verdict(
        outcome=INDETERMINATE if witness is None else EQUIVALENT,
        witness=witness,
        mixed_qubits=mixed,
        fallback_attempted=True,
        budget_exhausted=searched and witness is None,
        diagnostics=diagnostics,
    )
