"""Kronecker products, partial traces, and the closed-form 2x2 eigensolver.

Expected values come from independent routes: an explicit bit-twiddling
partial trace, np.kron for operator products, and np.linalg.eigh for
eigensystems.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from luequiv.linalg import (
    apply_local,
    conjugate_local,
    dagger,
    eig_hermitian_2x2,
    eig_hermitian_2x2_batch,
    factor_distance,
    frobenius_distance,
    hermitize,
    kron_all,
    partial_trace,
    projector_distance,
)
from tests.conftest import I2, SX, SY, SZ, kron_chain, w_state


def brute_partial_trace(rho: np.ndarray, n: int, keep: int) -> np.ndarray:
    # independent oracle: loop over basis indices, match the traced-out bits
    out = np.zeros((2, 2), dtype=complex)
    for a in range(2 ** n):
        for b in range(2 ** n):
            abit = (a >> (n - keep)) & 1
            bbit = (b >> (n - keep)) & 1
            arest = a & ~(1 << (n - keep))
            brest = b & ~(1 << (n - keep))
            if arest == brest:
                out[abit, bbit] += rho[a, b]
    return out


def test_kron_matches_numpy():
    got = kron_all([SX, SZ])
    expected = np.array(
        [
            [0, 0, 1, 0],
            [0, 0, 0, -1],
            [1, 0, 0, 0],
            [0, -1, 0, 0],
        ],
        dtype=complex,
    )
    assert np.allclose(got, expected)
    assert np.allclose(got, np.kron(SX, SZ))


def test_kron_all_orders_left_to_right():
    a = np.diag([1.0, 2.0]).astype(complex)
    b = np.diag([3.0, 5.0]).astype(complex)
    c = np.diag([7.0, 11.0]).astype(complex)
    got = kron_all([a, b, c])
    assert np.allclose(got, np.kron(np.kron(a, b), c))
    # first factor owns the most significant qubit
    assert got[0, 0] == 1 * 3 * 7
    assert got[-1, -1] == 2 * 5 * 11


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_conjugate_local_matches_kron_chain(n):
    rng = np.random.default_rng(70 + n)
    dim = 2**n
    m = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    factors = [rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)) for _ in range(n)]
    u = kron_chain(factors)
    assert np.allclose(conjugate_local(m, factors), u @ m @ u.conj().T, atol=1e-12)
    # a None factor is the identity on its qubit
    holes = [None if k % 2 else f for k, f in enumerate(factors)]
    u = kron_chain([I2 if f is None else f for f in holes])
    assert np.allclose(conjugate_local(m, holes), u @ m @ u.conj().T, atol=1e-12)


def test_conjugate_local_factor_count_must_fit():
    with pytest.raises(ValueError):
        conjugate_local(np.eye(8, dtype=complex), [SX, SZ])


def test_kron_all_size_guard():
    mats = [np.eye(2, dtype=complex)] * 13  # 2^13 exceeds the dimension cap
    with pytest.raises(ValueError):
        kron_all(mats)


def test_dagger():
    m = np.array([[1 + 2j, 3], [4j, 5]], dtype=complex)
    assert np.allclose(dagger(m), m.conj().T)


def test_frobenius_distance_shape_mismatch():
    with pytest.raises(ValueError):
        frobenius_distance(np.eye(2, dtype=complex), np.eye(4, dtype=complex))


def test_partial_trace_w_state():
    # every single-qubit marginal of W is diag(2/3, 1/3)
    rho = w_state().matrix
    for keep in (1, 2, 3):
        got = partial_trace(rho, 3, keep)
        assert np.allclose(got, np.diag([2 / 3, 1 / 3]), atol=1e-12)


def test_partial_trace_product_state():
    # marginals of a product state are the factors
    q1 = np.array([[0.7, 0.1j], [-0.1j, 0.3]], dtype=complex)
    q2 = np.array([[0.2, 0.05], [0.05, 0.8]], dtype=complex)
    rho = np.kron(q1, q2)
    assert np.allclose(partial_trace(rho, 2, 1), q1, atol=1e-13)
    assert np.allclose(partial_trace(rho, 2, 2), q2, atol=1e-13)


@pytest.mark.parametrize("n,keep", [(2, 1), (2, 2), (3, 1), (3, 2), (3, 3), (4, 2)])
def test_partial_trace_matches_brute_force(n, keep):
    rng = np.random.Generator(np.random.Philox(7 * n + keep))
    g = rng.normal(size=(2 ** n, 2 ** n)) + 1j * rng.normal(size=(2 ** n, 2 ** n))
    rho = g @ g.conj().T
    rho /= np.trace(rho).real
    assert np.allclose(partial_trace(rho, n, keep), brute_partial_trace(rho, n, keep), atol=1e-12)


def test_partial_trace_keep_out_of_range():
    rho = np.eye(4, dtype=complex) / 4
    with pytest.raises(ValueError):
        partial_trace(rho, 2, 0)
    with pytest.raises(ValueError):
        partial_trace(rho, 2, 3)


def test_eig_2x2_bloch_x():
    # (I + 0.8 X)/2 has eigenvalues (0.9, 0.1) along (1,1)/sqrt2, (1,-1)/sqrt2
    rho = (I2 + 0.8 * SX) / 2
    pair = eig_hermitian_2x2(rho)
    assert np.allclose(pair.eigenvalues, [0.9, 0.1], atol=1e-14)
    s = 2 ** -0.5
    assert np.allclose(np.abs(pair.vectors[:, 0]), [s, s], atol=1e-14)
    assert np.allclose(np.abs(pair.vectors[:, 1]), [s, s], atol=1e-14)
    # columns reconstruct the matrix
    v, lam = pair.vectors, pair.eigenvalues
    assert np.allclose(v @ np.diag(lam) @ v.conj().T, rho, atol=1e-14)


def test_eig_2x2_diagonal_inputs():
    up = eig_hermitian_2x2(np.diag([0.9, 0.1]).astype(complex))
    assert np.allclose(up.vectors, I2)
    down = eig_hermitian_2x2(np.diag([0.1, 0.9]).astype(complex))
    # descending order swaps the basis columns
    assert np.allclose(down.eigenvalues, [0.9, 0.1])
    assert np.allclose(np.abs(down.vectors), SX.real)


def test_eig_2x2_maximally_mixed():
    # a zero gap is no special case here: which qubit counts as mixed is
    # decided in traceform.local_eigenframes
    pair = eig_hermitian_2x2(I2 / 2)
    assert np.array_equal(pair.eigenvalues, [0.5, 0.5])
    assert np.array_equal(pair.vectors, I2)


def test_eig_2x2_phase_convention():
    # largest-modulus entry of each column is real and non-negative
    rng = np.random.Generator(np.random.Philox(17))
    for _ in range(50):
        g = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        h = (g + g.conj().T) / 2
        pair = eig_hermitian_2x2(h)
        for k in (0, 1):
            col = pair.vectors[:, k]
            top = col[np.argmax(np.abs(col))]
            assert abs(top.imag) < 1e-12
            assert top.real > -1e-12


@settings(max_examples=200, deadline=None)
@given(
    a=st.floats(-5, 5),
    c=st.floats(-5, 5),
    br=st.floats(-5, 5),
    bi=st.floats(-5, 5),
)
def test_eig_2x2_reconstructs(a, c, br, bi):
    h = np.array([[a, br + 1j * bi], [br - 1j * bi, c]], dtype=complex)
    pair = eig_hermitian_2x2(h)
    v, lam = pair.vectors, pair.eigenvalues
    assert lam[0] >= lam[1]
    assert np.allclose(v.conj().T @ v, I2, atol=1e-12)
    assert np.allclose(v @ np.diag(lam) @ v.conj().T, h, atol=1e-11)
    # agreement with the library eigensolver, up to ordering
    ref = np.linalg.eigvalsh(h)[::-1]
    assert np.allclose(lam, ref, atol=1e-11)


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 10 ** 6))
def test_partial_trace_is_trace_preserving(seed):
    rng = np.random.Generator(np.random.Philox(seed))
    n = int(rng.integers(1, 5))
    g = rng.normal(size=(2 ** n, 2 ** n)) + 1j * rng.normal(size=(2 ** n, 2 ** n))
    rho = g @ g.conj().T
    rho /= np.trace(rho).real
    keep = int(rng.integers(1, n + 1))
    marginal = partial_trace(rho, n, keep)
    assert abs(np.trace(marginal) - 1) < 1e-12
    assert np.allclose(marginal, marginal.conj().T, atol=1e-12)


@pytest.mark.parametrize("n", [1, 3, 6])
def test_apply_local_matches_kron_chain_on_vectors(n):
    rng = np.random.default_rng(90 + n)
    psi = rng.normal(size=2**n) + 1j * rng.normal(size=2**n)
    factors = [rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)) for _ in range(n)]
    factors[0] = None
    u = kron_chain([I2 if f is None else f for f in factors])
    assert np.allclose(apply_local(psi, factors), u @ psi, atol=1e-12)
    with pytest.raises(ValueError):
        apply_local(psi, factors + [SX])


def test_projector_distance_matches_dense_frobenius():
    rng = np.random.default_rng(95)
    for _ in range(20):
        u = rng.normal(size=8) + 1j * rng.normal(size=8)
        v = rng.normal(size=8) + 1j * rng.normal(size=8)
        u, v = u / np.linalg.norm(u), v / np.linalg.norm(v)
        dense = np.linalg.norm(np.outer(u, u.conj()) - np.outer(v, v.conj()))
        assert projector_distance(u, v) == pytest.approx(dense, rel=1e-12)
    # invariant under a global phase, and sqrt(2) for orthogonal vectors
    assert projector_distance(u, np.exp(0.4j) * u) < 1e-15
    e0, e1 = np.eye(2, dtype=complex)
    assert projector_distance(e0, e1) == pytest.approx(np.sqrt(2.0), rel=1e-15)


@settings(max_examples=120, deadline=None)
@given(
    n=st.integers(2, 8),
    r=st.integers(1, 4),
    noise=st.floats(0.0, 1e-9),
    seed=st.integers(0, 10**6),
)
def test_factor_distance_matches_dense_frobenius(n, r, noise, seed):
    # H is G moved by up to 1e-9 per entry, its columns mixed by a random
    # unitary, which leaves H H^dag unchanged
    rng = np.random.default_rng(seed)
    d = 2**n
    g = rng.normal(size=(d, r)) + 1j * rng.normal(size=(d, r))
    g /= np.linalg.norm(g)
    mix, _ = np.linalg.qr(rng.normal(size=(r, r)) + 1j * rng.normal(size=(r, r)))
    h = (g + noise * (rng.normal(size=(d, r)) + 1j * rng.normal(size=(d, r)))) @ mix
    dense = np.linalg.norm(g @ g.conj().T - h @ h.conj().T)
    got = factor_distance(g, h)
    assert abs(got - dense) <= 1e-14
    assert abs(factor_distance(h, g) - dense) <= 1e-14
    if r == 1:
        assert got == projector_distance(g[:, 0], h[:, 0])


def test_factor_distance_of_unequal_ranks():
    rng = np.random.default_rng(96)
    for r, s in [(1, 2), (2, 1), (3, 4), (4, 2)]:
        g = rng.normal(size=(16, r)) + 1j * rng.normal(size=(16, r))
        h = rng.normal(size=(16, s)) + 1j * rng.normal(size=(16, s))
        dense = np.linalg.norm(g @ g.conj().T - h @ h.conj().T)
        assert factor_distance(g, h) == pytest.approx(dense, rel=1e-12)
    # a stack wider than its row count: 2 rows, 4 columns
    g, h = rng.normal(size=(2, 2)), rng.normal(size=(2, 2))
    dense = np.linalg.norm(g @ g.T - h @ h.T)
    assert factor_distance(g, h) == pytest.approx(dense, rel=1e-12)


# ------------------------------------------------- the scalar 2x2 eigen kernel


def eigen_corpus() -> np.ndarray:
    """Random, a = c, diagonal, denormal, near-degenerate and zero 2x2 Hermitian matrices.

    Groups of five: random, the same with c set to a, diagonal, and both of
    the first two scaled to denormals (indices 0..99).  Then ten matrices
    each with an eigenvalue gap of 0.5, 0.9, 0.99, 1.01, 1.1 and 2 times
    1e-10 (100..159), and the zero matrix (160).
    """
    rng = np.random.Generator(np.random.Philox(2718))
    mats = []
    for _ in range(20):
        g = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        h = (g + g.conj().T) / 2
        tie = h.copy()
        tie[1, 1] = tie[0, 0]
        mats += [h, tie, np.diag(rng.normal(size=2)).astype(complex), h * 1e-310, tie * 1e-310]
    for ratio in (0.5, 0.9, 0.99, 1.01, 1.1, 2.0):
        for _ in range(10):
            q, _ = np.linalg.qr(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))
            center = rng.uniform(0.05, 0.95)
            gap = ratio * 1e-10
            h = q @ np.diag([center + gap / 2, center - gap / 2]) @ q.conj().T
            mats.append(0.5 * (h + h.conj().T))
    mats.append(np.zeros((2, 2), dtype=complex))
    return np.array(mats)


def test_eig_batch_eigenvalues_match_eigh():
    # denormal results sit on a grid of spacing `sub`, so a unit or two of it
    # is allowed on top of the relative bound
    sub = np.nextafter(0.0, 1.0)
    corpus = eigen_corpus()
    values, _ = eig_hermitian_2x2_batch(corpus)
    for h, got in zip(corpus, values):
        want = np.linalg.eigh(h)[0][::-1]
        assert np.all(np.abs(got - want) <= 1e-15 * np.abs(h).max() + 2 * sub)


def test_eig_batch_frames_are_unitary_and_phase_fixed():
    _, frames = eig_hermitian_2x2_batch(eigen_corpus())
    for v in frames:
        assert np.abs(v.conj().T @ v - I2).max() <= 1e-15
        for col in v.T:
            size = np.abs(col)
            # the entry made real is one of largest modulus; on a = c both
            # entries have modulus 1/sqrt(2), and rounding picks one
            top = col[size >= size.max() - 1e-15]
            assert np.any((np.abs(top.imag) <= 1e-15) & (top.real >= 0.0))


def test_eig_batch_matches_single_matrix_calls():
    corpus = eigen_corpus()
    values, frames = eig_hermitian_2x2_batch(list(corpus))
    assert values.shape == (len(corpus), 2) and frames.shape == (len(corpus), 2, 2)
    for h, lam, v in zip(corpus, values, frames):
        pair = eig_hermitian_2x2(h)
        assert np.array_equal(pair.eigenvalues, lam) and np.array_equal(pair.vectors, v)
    empty = eig_hermitian_2x2_batch(np.zeros((0, 2, 2)))
    assert [x.shape for x in empty] == [(0, 2), (0, 2, 2)]
    with pytest.raises(ValueError):
        eig_hermitian_2x2_batch(np.zeros((3, 2)))
    skewed = corpus[:3].copy()
    skewed[1, 0, 1] += 1e-9
    with pytest.raises(ValueError):
        eig_hermitian_2x2_batch(skewed)


@pytest.mark.parametrize("d", [2, 64, 130, 256])
def test_hermitize_is_the_whole_matrix_form_in_blocks(d):
    rng = np.random.default_rng(d)
    m = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    part, skew = hermitize(m)
    assert np.array_equal(part, 0.5 * (m + dagger(m)))
    assert np.array_equal(part, dagger(part))
    assert skew == pytest.approx(np.linalg.norm(m - dagger(m)), rel=1e-13)
