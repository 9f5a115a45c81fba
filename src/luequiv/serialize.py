"""JSON state files and verdict reports.

A StateFile is a small JSON document:

    {"n": 2, "kind": "pure",  "amplitudes": [[re, im], ...], "label": "..."}
    {"n": 2, "kind": "mixed", "matrix": [[[re, im], ...], ...]}

Complex numbers are [re, im] pairs, matrices row-major, qubit 1 the most
significant bit of the basis index.  Floats are emitted with repr, which
round-trips IEEE doubles exactly, so parse(emit(s)) reproduces s bit for bit.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import asdict
from pathlib import Path

import numpy as np

from .engine import EngineConfig, Verdict
from .states import (
    MAX_PURE_QUBITS,
    MAX_QUBITS,
    NQubitState,
    StateValidationError,
    from_pure_amplitudes,
    validate_state,
)

REPORT_SCHEMA = 3


class StateFileError(ValueError):
    """Malformed state file; code is one of syntax / schema / dimension."""

    def __init__(self, code: str, message: str):
        super().__init__(message)
        self.code = code


def _as_complex_pair(value, where: str) -> complex:
    if (
        not isinstance(value, (list, tuple))
        or len(value) != 2
        or not all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in value)
    ):
        raise StateFileError("schema", f"{where}: expected a [re, im] pair, got {value!r}")
    return complex(value[0], value[1])


def parse_state_file(text: str | bytes | os.PathLike) -> NQubitState:
    """Parse and validate a StateFile document.

    Accepts the JSON text itself (str or bytes) or a path object to read
    it from.  A plain str is always treated as JSON text, never as a path.
    """
    if isinstance(text, os.PathLike):
        text = Path(text).read_bytes()
    if isinstance(text, bytes):
        text = text.decode("utf-8")
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise StateFileError("syntax", f"invalid JSON at line {exc.lineno} col {exc.colno}: {exc.msg}") from exc
    if not isinstance(doc, dict):
        raise StateFileError("schema", "top level must be an object")
    n = doc.get("n")
    if not isinstance(n, int) or isinstance(n, bool) or n < 1:
        raise StateFileError("schema", f"field 'n': expected a positive integer, got {n!r}")
    kind = doc.get("kind")
    if kind not in ("pure", "mixed"):
        raise StateFileError("schema", f"field 'kind': expected 'pure' or 'mixed', got {kind!r}")
    label = doc.get("label")
    if label is not None and not isinstance(label, str):
        raise StateFileError("schema", f"field 'label': expected a string, got {label!r}")
    cap = MAX_PURE_QUBITS if kind == "pure" else MAX_QUBITS
    if n > cap:
        raise StateValidationError("shape", float(n), f"{n} qubits exceeds the cap of {cap}")
    dim = 2**n

    if kind == "pure":
        amps = doc.get("amplitudes")
        if not isinstance(amps, list):
            raise StateFileError("schema", "field 'amplitudes' is required for kind 'pure'")
        if len(amps) != dim:
            raise StateFileError(
                "dimension", f"field 'amplitudes': expected {dim} entries for n={n}, got {len(amps)}"
            )
        psi = np.array(
            [_as_complex_pair(v, f"amplitudes[{i}]") for i, v in enumerate(amps)]
        )
        return from_pure_amplitudes(psi)

    rows = doc.get("matrix")
    if not isinstance(rows, list):
        raise StateFileError("schema", "field 'matrix' is required for kind 'mixed'")
    if len(rows) != dim:
        raise StateFileError("dimension", f"field 'matrix': expected {dim} rows for n={n}, got {len(rows)}")
    m = np.zeros((dim, dim), dtype=complex)
    for i, row in enumerate(rows):
        if not isinstance(row, list) or len(row) != dim:
            raise StateFileError("dimension", f"matrix row {i}: expected {dim} entries")
        for j, v in enumerate(row):
            m[i, j] = _as_complex_pair(v, f"matrix[{i}][{j}]")
    return validate_state(m)


def _pair(z: complex) -> list[float]:
    return [float(np.real(z)), float(np.imag(z))]


def emit_pure_state_file(amplitudes, label: str | None = None) -> str:
    psi = np.asarray(amplitudes, dtype=complex).ravel()
    n = psi.size.bit_length() - 1
    doc: dict = {"n": int(n), "kind": "pure", "amplitudes": [_pair(z) for z in psi]}
    if label is not None:
        doc["label"] = label
    return json.dumps(doc, indent=2)


def emit_mixed_state_file(matrix, label: str | None = None) -> str:
    m = np.asarray(matrix, dtype=complex)
    n = m.shape[0].bit_length() - 1
    doc: dict = {
        "n": int(n),
        "kind": "mixed",
        "matrix": [[_pair(z) for z in row] for row in m],
    }
    if label is not None:
        doc["label"] = label
    return json.dumps(doc, indent=2)


def matrix_pairs(m: np.ndarray) -> list:
    return [[_pair(z) for z in row] for row in np.asarray(m, dtype=complex)]


def sha256_digest(data: bytes) -> str:
    return "sha256:" + hashlib.sha256(data).hexdigest()


def verdict_report(
    verdict: Verdict,
    config: EngineConfig,
    inputs: dict | None = None,
    tool_version: str = "0.1.0",
) -> dict:
    """Verdict plus tolerances and provenance, as a JSON-ready dict."""
    report: dict = {
        "schema": REPORT_SCHEMA,
        "tool": {"name": "luequiv", "version": tool_version},
        "verdict": verdict.outcome,
        "reason": verdict.reason,
        "mixed_qubits": list(verdict.mixed_qubits),
        "fallback_attempted": verdict.fallback_attempted,
        "budget_exhausted": verdict.budget_exhausted,
        "witness": None,
        "residual": None,
        "tolerances": {"tol": config.tol},
        "diagnostics": verdict.diagnostics,
    }
    if verdict.witness is not None:
        report["witness"] = [matrix_pairs(u) for u in verdict.witness.unitaries]
        report["residual"] = verdict.witness.residual
    if inputs is not None:
        report["inputs"] = inputs
    return report


def render_report(report: dict) -> str:
    return json.dumps(report, indent=2)


def config_from_flags(**overrides) -> EngineConfig:
    """EngineConfig with keyword overrides, dropping Nones."""
    base = asdict(EngineConfig())
    base.update({k: v for k, v in overrides.items() if v is not None})
    return EngineConfig(**base)
