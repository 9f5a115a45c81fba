"""Command line interface: subcommands, exit codes, and JSON output.

Exit code contract: 0 equivalent, 1 not equivalent, 2 indeterminate,
3 usage or input errors.
"""

import json
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

from luequiv import (
    apply_local_unitaries,
    emit_pure_state_file,
    haar_local_unitary,
    make_rng,
    parse_state_file,
)
from luequiv.cli import run_command
from tests.conftest import bell_state, ghz_state, lu_equivalent_pair


def top_amplitudes(state) -> np.ndarray:
    return np.linalg.eigh(state.matrix)[1][:, -1]


@pytest.fixture
def pair_files(tmp_path):
    state, rotated, _ = lu_equivalent_pair(2, seed=5)
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    a.write_text(emit_pure_state_file(top_amplitudes(state), label="a"))
    b.write_text(emit_pure_state_file(top_amplitudes(rotated), label="b"))
    return a, b


@pytest.fixture
def ghz_files(tmp_path):
    ghz = ghz_state(3)
    rng = make_rng(3)
    rotated = apply_local_unitaries(ghz, [haar_local_unitary(rng) for _ in range(3)])
    g = tmp_path / "ghz.json"
    r = tmp_path / "ghz_rot.json"
    g.write_text(emit_pure_state_file(top_amplitudes(ghz), label="ghz"))
    r.write_text(emit_pure_state_file(top_amplitudes(rotated), label="ghz-rot"))
    return g, r


def test_check_equivalent_exit_zero(pair_files, capsys):
    a, b = pair_files
    code = run_command(["check", str(a), str(b)])
    out = capsys.readouterr().out
    assert code == 0
    assert "equivalent" in out
    assert "residual" in out


def test_check_json_report(pair_files, capsys):
    a, b = pair_files
    code = run_command(["check", str(a), str(b), "--json"])
    report = json.loads(capsys.readouterr().out)
    assert code == 0
    assert report["verdict"] == "equivalent"
    assert report["residual"] < 1e-9
    assert len(report["witness"]) == 2
    assert report["inputs"]["a"]["digest"].startswith("sha256:")


def test_check_not_equivalent_exit_one(tmp_path, capsys):
    from tests.conftest import schmidt_state

    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    a.write_text(emit_pure_state_file(top_amplitudes(schmidt_state(np.pi / 8))))
    b.write_text(emit_pure_state_file(top_amplitudes(schmidt_state(np.pi / 6))))
    code = run_command(["check", str(a), str(b)])
    assert code == 1
    assert "not_equivalent" in capsys.readouterr().out


def test_check_indeterminate_exit_two(ghz_files, capsys):
    g, r = ghz_files
    code = run_command(["check", str(g), str(r)])
    out = capsys.readouterr().out
    assert code == 2
    assert "indeterminate" in out
    assert "--fallback" in out


def test_check_fallback_certifies(ghz_files, capsys):
    g, r = ghz_files
    code = run_command(["check", str(g), str(r), "--fallback"])
    assert code == 0
    assert "equivalent" in capsys.readouterr().out


@pytest.mark.parametrize(
    "files,flags",
    [
        ("pair_files", ["--tol", "-1"]),
        ("pair_files", ["--tol", "nan"]),
        ("pair_files", ["--tol", "inf"]),
    ],
)
def test_check_invalid_config_exit_three(files, flags, request, capsys):
    # a tolerance that is not finite and positive used to give a verdict
    # (false rejections of equivalent pairs among them)
    a, b = request.getfixturevalue(files)
    code = run_command(["check", str(a), str(b), *flags])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert "error:" in captured.err


def test_check_missing_file_exit_three(pair_files, tmp_path, capsys):
    a, _ = pair_files
    code = run_command(["check", str(a), str(tmp_path / "nope.json")])
    assert code == 3
    assert "error" in capsys.readouterr().err


def test_check_invalid_json_exit_three(pair_files, tmp_path, capsys):
    a, _ = pair_files
    bad = tmp_path / "bad.json"
    bad.write_text("{ nope")
    code = run_command(["check", str(a), str(bad)])
    assert code == 3


def test_usage_errors_exit_three(capsys):
    assert run_command([]) == 3
    capsys.readouterr()
    assert run_command(["check"]) == 3
    capsys.readouterr()
    assert run_command(["frobnicate"]) == 3


def test_version_exits_zero(capsys):
    assert run_command(["--version"]) == 0
    assert "luequiv" in capsys.readouterr().out


def test_gen_pure_round_trip(tmp_path, capsys):
    out = tmp_path / "s.json"
    code = run_command(["gen", "--n", "2", "--kind", "pure", "--seed", "4", "--out", str(out)])
    assert code == 0
    state = parse_state_file(out)
    assert state.n == 2
    assert state.purity == pytest.approx(1.0, abs=1e-12)


def test_gen_mixed_with_rank(tmp_path):
    out = tmp_path / "m.json"
    code = run_command(
        ["gen", "--n", "2", "--kind", "mixed", "--rank", "3", "--seed", "4", "--out", str(out)]
    )
    assert code == 0
    state = parse_state_file(out)
    spectrum = np.linalg.eigvalsh(state.matrix)
    assert np.sum(spectrum > 1e-10) == 3


def test_gen_reproducible(tmp_path):
    f1 = tmp_path / "s1.json"
    f2 = tmp_path / "s2.json"
    run_command(["gen", "--n", "3", "--kind", "pure", "--seed", "9", "--out", str(f1)])
    run_command(["gen", "--n", "3", "--kind", "pure", "--seed", "9", "--out", str(f2)])
    assert f1.read_text() == f2.read_text()


def test_gen_min_bloch(tmp_path):
    from luequiv import bloch_vector, reduced_qubit

    out = tmp_path / "s.json"
    code = run_command(
        [
            "gen", "--n", "2", "--kind", "pure", "--seed", "12",
            "--min-bloch", "0.1", "--out", str(out),
        ]
    )
    assert code == 0
    state = parse_state_file(out)
    for q in (1, 2):
        assert bloch_vector(reduced_qubit(state, q)).norm >= 0.1


@pytest.mark.parametrize("floor", ["2", "-0.1", "nan"])
def test_gen_min_bloch_outside_the_unit_interval_exit_three(tmp_path, capsys, floor):
    # a Bloch norm never exceeds 1, so the floor is refused before sampling
    out = tmp_path / "s.json"
    argv = ["gen", "--n", "2", "--kind", "mixed", "--min-bloch", floor, "--seed", "1"]
    assert run_command([*argv, "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error:") and "[0, 1]" in err
    assert not out.exists()


def test_gen_min_bloch_sampler_exhaustion_exit_three(tmp_path, capsys):
    # a rank-2 marginal is never pure, so no draw reaches the floor 1
    out = tmp_path / "s.json"
    argv = ["gen", "--n", "2", "--kind", "mixed", "--min-bloch", "1", "--seed", "1"]
    assert run_command([*argv, "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Bloch floor" in err
    assert not out.exists()


@pytest.mark.parametrize("n, kind", [("17", "pure"), ("11", "mixed")])
@pytest.mark.parametrize("floor", [[], ["--min-bloch", "0.05"]])
def test_gen_refuses_above_the_qubit_cap(tmp_path, capsys, n, kind, floor):
    # refused before any sampling: a 17-qubit draw alone would take 2 MB
    out = tmp_path / "big.json"
    argv = ["gen", "--n", n, "--kind", kind, "--seed", "1", *floor, "--out", str(out)]
    tracemalloc.start()
    try:
        code = run_command(argv)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 3
    assert "exceeds the cap" in capsys.readouterr().err
    assert not out.exists()
    assert peak < 2**20


def test_pauli_table(pair_files, capsys):
    a, _ = pair_files
    code = run_command(["pauli", str(a), "--threshold", "0.1"])
    out = capsys.readouterr().out
    assert code == 0
    assert "II 0.25" in out


def test_pauli_json(pair_files, capsys):
    a, _ = pair_files
    code = run_command(["pauli", str(a), "--json"])
    doc = json.loads(capsys.readouterr().out)
    assert code == 0
    assert doc["n"] == 2
    assert len(doc["coefficients"]) <= 16


@pytest.mark.parametrize("threshold", ["nan", "inf", "-inf", "-0.1"])
def test_pauli_threshold_outside_the_finite_non_negatives_exit_three(pair_files, capsys, threshold):
    # a NaN threshold would print "threshold": NaN, which is not JSON, and
    # keep no coefficient; inf would keep none either
    a, _ = pair_files
    assert run_command(["pauli", str(a), "--threshold", threshold, "--json"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:") and "--threshold" in captured.err


def test_pauli_threshold_zero_keeps_every_nonzero_coefficient(pair_files, capsys):
    a, _ = pair_files
    assert run_command(["pauli", str(a), "--threshold", "0", "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["threshold"] == 0.0
    assert doc["coefficients"]["II"] == pytest.approx(0.25)


def test_trace_form_output(pair_files, capsys):
    a, _ = pair_files
    code = run_command(["trace-form", str(a)])
    doc = json.loads(capsys.readouterr().out)
    assert code == 0
    assert doc["n"] == 2
    assert len(doc["frames"]) == 2
    # marginals of the embedded trace form are diagonal descending
    rho_t = np.array([[complex(re, im) for re, im in row] for row in doc["rho_t"]])
    assert abs(np.trace(rho_t) - 1) < 1e-9


def test_oracle_command(pair_files, capsys):
    a, b = pair_files
    code = run_command(["oracle", str(a), str(b), "--restarts", "4", "--seed", "1"])
    out = capsys.readouterr().out
    assert code == 0
    assert "residual" in out


@pytest.mark.parametrize("restarts", ["0", "-3"])
def test_oracle_without_a_restart_exit_three(pair_files, capsys, restarts):
    # no fit would run, and the identity's residual would be printed as the best
    a, b = pair_files
    assert run_command(["oracle", str(a), str(b), "--restarts", restarts]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:") and "--restarts" in captured.err


def test_console_script_entry_point(pair_files):
    # exercise the real process boundary once
    a, b = pair_files
    proc = subprocess.run(
        [sys.executable, "-m", "luequiv.cli", "check", str(a), str(b)],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "equivalent" in proc.stdout
