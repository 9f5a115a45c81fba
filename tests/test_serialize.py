"""StateFile parsing/emission and verdict report structure."""

import json

import numpy as np
import pytest

from luequiv import (
    EngineConfig,
    StateFileError,
    decide_lu_equivalence,
    emit_mixed_state_file,
    emit_pure_state_file,
    parse_state_file,
    sha256_digest,
    verdict_report,
)
from luequiv.traceform import mixed_gap
from tests.conftest import bell_state, lu_equivalent_pair


def test_pure_round_trip():
    amp = np.array([0.6, 0.0, 0.0, 0.8j], dtype=complex)
    text = emit_pure_state_file(amp, label="probe")
    state = parse_state_file(text)
    assert state.n == 2
    assert np.allclose(state.matrix, np.outer(amp, amp.conj()), atol=1e-15)


def test_mixed_round_trip():
    state, _, _ = lu_equivalent_pair(2, seed=3, rank=3)
    text = emit_mixed_state_file(state.matrix, label="mixed probe")
    back = parse_state_file(text)
    assert np.allclose(back.matrix, state.matrix, atol=1e-15)


def test_parse_accepts_bytes_and_paths(tmp_path):
    text = emit_pure_state_file(np.array([1.0, 0.0], dtype=complex))
    assert parse_state_file(text.encode()).n == 1
    f = tmp_path / "s.json"
    f.write_text(text)
    assert parse_state_file(f).n == 1


def test_parse_syntax_error_has_location():
    with pytest.raises(StateFileError) as err:
        parse_state_file("{ not json")
    assert err.value.code == "syntax"
    assert "line 1" in str(err.value)


@pytest.mark.parametrize(
    "doc,field",
    [
        ({"kind": "pure", "amplitudes": [[1, 0], [0, 0]]}, "n"),
        ({"n": 1, "amplitudes": [[1, 0], [0, 0]]}, "kind"),
        ({"n": 1, "kind": "pure"}, "amplitudes"),
        ({"n": 1, "kind": "mixed"}, "matrix"),
        ({"n": 0, "kind": "pure", "amplitudes": [[1, 0]]}, "n"),
        ({"n": 1, "kind": "wat", "amplitudes": [[1, 0], [0, 0]]}, "kind"),
    ],
)
def test_parse_schema_errors_name_the_field(doc, field):
    with pytest.raises(StateFileError) as err:
        parse_state_file(json.dumps(doc))
    assert err.value.code == "schema"
    assert field in str(err.value)


def test_parse_dimension_mismatch():
    doc = {"n": 2, "kind": "pure", "amplitudes": [[1, 0], [0, 0]]}
    with pytest.raises(StateFileError) as err:
        parse_state_file(json.dumps(doc))
    assert err.value.code == "dimension"


def test_parse_rejects_non_pair_amplitudes():
    doc = {"n": 1, "kind": "pure", "amplitudes": [1.0, 0.0]}
    with pytest.raises(StateFileError) as err:
        parse_state_file(json.dumps(doc))
    assert err.value.code == "schema"


def test_emitted_floats_survive_round_trip_exactly():
    # repr-based emission: amplitudes come back bit identical
    amp = np.array([1 / 3, 0, 0, np.sqrt(8) / 3], dtype=complex)
    amp /= np.linalg.norm(amp)
    text = emit_pure_state_file(amp)
    doc = json.loads(text)
    got = np.array([complex(re, im) for re, im in doc["amplitudes"]])
    assert np.array_equal(got, amp)


def test_sha256_digest_prefix():
    digest = sha256_digest(b"abc")
    assert digest.startswith("sha256:")
    assert len(digest) == 7 + 64


def test_verdict_report_structure():
    state, rotated, _ = lu_equivalent_pair(2, seed=9)
    config = EngineConfig()
    verdict = decide_lu_equivalence(state, rotated, config)
    report = verdict_report(verdict, config, inputs={"a": "sha256:x", "b": "sha256:y"})
    assert report["schema"] == 3
    assert report["verdict"] == "equivalent"
    assert report["residual"] < 1e-9
    assert len(report["witness"]) == 2
    assert report["tolerances"] == {"tol": config.tol}
    # the mixed-qubit threshold applied, next to the pair's smallest eigenvalue gap
    diagnostics = report["diagnostics"]
    assert diagnostics["mixed_gap"] == mixed_gap(2, config.tol, 0.0)
    assert diagnostics["min_eigen_gap"] > diagnostics["mixed_gap"]
    assert report["inputs"]["a"] == "sha256:x"
    # must be JSON clean
    json.dumps(report)


def test_verdict_report_without_witness():
    from tests.conftest import dephased, schmidt_state

    a = schmidt_state(np.pi / 8)
    config = EngineConfig()
    verdict = decide_lu_equivalence(a, dephased(a), config)
    report = verdict_report(verdict, config)
    assert report["verdict"] == "not_equivalent"
    assert report["witness"] is None
    assert report["residual"] is None
    json.dumps(report)


def test_witness_matrices_parse_back():
    state, rotated, _ = lu_equivalent_pair(2, seed=9)
    config = EngineConfig()
    verdict = decide_lu_equivalence(state, rotated, config)
    report = verdict_report(verdict, config)
    u0 = np.array([[complex(re, im) for re, im in row] for row in report["witness"][0]])
    assert np.allclose(u0, verdict.witness.unitaries[0])
