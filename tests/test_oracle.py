"""Random state/unitary generation and the derivative-free fitting oracle."""

import ast
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import luequiv
from luequiv import engine
from luequiv import (
    apply_local_unitaries,
    bloch_vector,
    euler_unitary,
    haar_local_unitary,
    lu_fit_oracle,
    make_rng,
    random_mixed_state,
    random_pure_state,
    random_state_with_bloch_floor,
    reduced_qubit,
)
from tests.conftest import I2, SZ, direct_residual


def test_make_rng_reproducible():
    a = make_rng(7).normal(size=5)
    b = make_rng(7).normal(size=5)
    assert np.array_equal(a, b)


def test_make_rng_passes_generators_through():
    gen = make_rng(3)
    assert make_rng(gen) is gen


def test_random_pure_state_is_pure():
    state = random_pure_state(3, make_rng(11))
    assert state.n == 3
    assert state.purity == pytest.approx(1.0, abs=1e-12)


def test_random_mixed_state_rank():
    state = random_mixed_state(2, 3, make_rng(5))
    spectrum = np.linalg.eigvalsh(state.matrix)
    assert np.sum(spectrum > 1e-10) == 3
    assert state.purity < 1.0
    with pytest.raises(ValueError):
        random_mixed_state(2, 5, make_rng(5))  # rank above the dimension
    with pytest.raises(ValueError):
        random_mixed_state(2, 0, make_rng(5))


def test_haar_local_unitary_is_unitary():
    rng = make_rng(23)
    for _ in range(20):
        u = haar_local_unitary(rng)
        assert np.allclose(u @ u.conj().T, I2, atol=1e-12)


def test_haar_distribution_mean_entry():
    # |U_00|^2 averages to 1/2 for Haar on U(2)
    rng = make_rng(29)
    vals = [abs(haar_local_unitary(rng)[0, 0]) ** 2 for _ in range(4000)]
    assert np.mean(vals) == pytest.approx(0.5, abs=0.02)


def test_apply_local_unitaries_covariance():
    # marginals transform by the same local rotation
    rng = make_rng(31)
    state = random_pure_state(2, rng)
    us = [haar_local_unitary(rng), haar_local_unitary(rng)]
    rotated = apply_local_unitaries(state, us)
    for qubit, u in zip((1, 2), us):
        want = u @ reduced_qubit(state, qubit) @ u.conj().T
        assert np.allclose(reduced_qubit(rotated, qubit), want, atol=1e-12)


def test_apply_local_unitaries_rejects_nonunitary():
    state = random_pure_state(2, make_rng(1))
    bad = np.array([[1, 0], [0, 2]], dtype=complex)
    with pytest.raises(ValueError):
        apply_local_unitaries(state, [I2, bad])


def test_bloch_floor_generator():
    rng = make_rng(17)
    for _ in range(10):
        state = random_state_with_bloch_floor(2, rng, rank=1, min_bloch=0.05)
        norms = [bloch_vector(reduced_qubit(state, q)).norm for q in (1, 2)]
        assert min(norms) >= 0.05
        assert state.purity == pytest.approx(1.0, abs=1e-12)


def test_bloch_floor_generator_mixed():
    rng = make_rng(19)
    state = random_state_with_bloch_floor(2, rng, rank=2, min_bloch=0.05)
    spectrum = np.linalg.eigvalsh(state.matrix)
    assert np.sum(spectrum > 1e-10) == 2


@pytest.mark.parametrize(
    "seed,rank,floor,diagonal,corner",
    [
        # 3 draws, two rejected
        (41, 1, 0.6,
         [0.16828347686645323, 0.022458690473354945, 0.014097296635157366,
          0.28473744618150365, 0.10451306341808023, 0.026772403355840645,
          0.3068631684005525, 0.07227445466905742],
         0.0200090815993208 - 0.10845382968751066j),
        # 126 draws, 125 rejected
        (42, 2, 0.5,
         [0.016789919518784672, 0.08612451899999422, 0.1914422633532915,
          0.027384110822243162, 0.1310325383273229, 0.2914260309825501,
          0.12272669882968619, 0.13307391916612732],
         -0.014932047596934249 + 0.03001824730585652j),
    ],
)
def test_bloch_floor_generator_pinned_draws(seed, rank, floor, diagonal, corner):
    # every draw, rejected or not, consumes the same stream as when each one
    # was built and validated as a state
    state = random_state_with_bloch_floor(3, seed, rank=rank, min_bloch=floor)
    assert np.allclose(np.diag(state.matrix).real, diagonal, rtol=0, atol=1e-15)
    assert abs(state.matrix[0, 7] - corner) < 1e-15


def test_bloch_floor_generator_gives_up_fast():
    # Haar marginals at n=10 average a Bloch norm near 0.05, so about one
    # draw in a thousand reaches the default floor, and none of seed 0's
    # thousand tries do; each rejected draw must stay cheap
    t0 = time.monotonic()
    with pytest.raises(RuntimeError):
        random_state_with_bloch_floor(10, 0)
    assert time.monotonic() - t0 < 30.0


def test_engine_imports_nothing_from_oracle():
    tree = ast.parse(Path(engine.__file__).read_text())
    modules = [
        node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
    ] + [alias.name for node in ast.walk(tree) if isinstance(node, ast.Import) for alias in node.names]
    assert not [m for m in modules if m and m.split(".")[-1] == "oracle"]


def test_import_does_not_load_scipy():
    code = "import sys, luequiv; print(sorted(m for m in sys.modules if m.startswith('scipy')))"
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": str(Path(luequiv.__file__).parents[1])},
    )
    assert out.stdout.strip() == "[]"


def test_mean_bloch_norm_stable_across_seeds():
    # the ensemble mean of the marginal Bloch norm for 2-qubit pure states
    # sits near 0.75; what matters here is seed-to-seed stability
    means = []
    for seed in (101, 202, 303):
        rng = make_rng(seed)
        vals = []
        for _ in range(1500):
            state = random_pure_state(2, rng)
            vals.append(bloch_vector(reduced_qubit(state, 1)).norm)
        means.append(np.mean(vals))
    assert max(means) - min(means) < 0.02
    assert means[0] == pytest.approx(0.75, abs=0.03)


def test_euler_unitary_axes():
    # beta rotation alone is a real rotation about y
    u = euler_unitary(0.0, 0.3, 0.0)
    assert np.allclose(u, [[np.cos(0.15), np.sin(0.15)], [-np.sin(0.15), np.cos(0.15)]], atol=1e-12)
    # alpha and gamma alone give diagonal phases
    u = euler_unitary(0.8, 0.0, 0.0)
    assert np.allclose(u, np.diag([np.exp(0.4j), np.exp(-0.4j)]), atol=1e-12)
    u = euler_unitary(0.0, 0.0, -0.6)
    assert np.allclose(u, np.diag([np.exp(-0.3j), np.exp(0.3j)]), atol=1e-12)


def test_euler_unitary_always_unitary():
    rng = make_rng(37)
    for _ in range(50):
        alpha, beta, gamma = rng.uniform(-np.pi, np.pi, size=3)
        u = euler_unitary(alpha, beta, gamma)
        assert np.allclose(u @ u.conj().T, I2, atol=1e-12)
        assert abs(np.linalg.det(u) - 1) < 1e-12  # special unitary


def test_oracle_identical_inputs():
    state = random_pure_state(2, make_rng(41))
    fit = lu_fit_oracle(state, state, restarts=1, seed=0)
    assert fit.residual < 1e-10


def test_oracle_recovers_constructed_pair():
    rng = make_rng(43)
    state = random_pure_state(2, rng)
    us = [haar_local_unitary(rng), haar_local_unitary(rng)]
    rotated = apply_local_unitaries(state, us)
    fit = lu_fit_oracle(state, rotated, restarts=20, seed=7, early_stop=1e-8)
    assert fit.residual < 1e-6
    # the returned unitaries reproduce the residual claim independently
    assert direct_residual(state, rotated, fit.unitaries) <= fit.residual + 1e-12


def test_oracle_flags_spectrally_distinct_pair():
    # marginal spectra differ by ~0.1; no local unitary can fit
    from tests.conftest import schmidt_state

    a = schmidt_state(np.pi / 8)
    b = schmidt_state(np.pi / 6)
    fit = lu_fit_oracle(a, b, restarts=6, seed=3)
    assert fit.residual > 0.01


def test_oracle_reports_evaluations():
    state = random_pure_state(2, make_rng(47))
    fit = lu_fit_oracle(state, state, restarts=2, seed=1)
    assert fit.evaluations > 0


@pytest.mark.parametrize("restarts", [0, -1])
def test_oracle_rejects_fewer_than_one_restart(restarts):
    # with no restart no fit runs, and the identity's residual is no fit result
    state = random_pure_state(2, make_rng(48))
    with pytest.raises(ValueError, match="restarts"):
        lu_fit_oracle(state, state, restarts=restarts)
