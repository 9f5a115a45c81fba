"""Command-line interface.

Exit codes: 0 equivalent, 1 not equivalent, 2 indeterminate, 3 usage or
input errors.  Subcommands that do not decide anything (trace-form, pauli,
gen, oracle) use 0 for success and 3 for errors.  All tolerances are flags;
nothing is read from the environment.
"""

from __future__ import annotations

import argparse
import math
import sys
from pathlib import Path

from . import __version__
from .engine import (
    EQUIVALENT,
    INDETERMINATE,
    NOT_EQUIVALENT,
    decide_lu_equivalence,
)
from .oracle import lu_fit_oracle, random_mixed_state, random_pure_amplitudes, random_state_with_bloch_floor
from .pauli import expand
from .serialize import (
    config_from_flags,
    emit_mixed_state_file,
    emit_pure_state_file,
    matrix_pairs,
    parse_state_file,
    render_report,
    sha256_digest,
    verdict_report,
)
from .states import MAX_PURE_QUBITS, MAX_QUBITS, bloch_vector, from_pure_amplitudes, qubit_marginals
from .traceform import to_trace_form

USAGE_ERROR = 3
_VERDICT_CODES = {EQUIVALENT: 0, NOT_EQUIVALENT: 1, INDETERMINATE: 2}


class CliError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits with 2 on bad usage; route everything through exit code 3
    def error(self, message):
        raise CliError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="luequiv", description="local-unitary equivalence checker for n-qubit states")
    parser.add_argument("--version", action="version", version=f"luequiv {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    check = sub.add_parser("check", help="decide equivalence of two state files")
    check.add_argument("state_a")
    check.add_argument("state_b")
    check.add_argument("--tol", type=float, default=None, help="decision tolerance (Frobenius)")
    check.add_argument("--fallback", action="store_true", help="enable the SU(2) search on degenerate marginals")
    check.add_argument("--json", action="store_true", help="print the full JSON report")

    tf = sub.add_parser("trace-form", help="print the trace form and marginal eigenframes")
    tf.add_argument("state")

    pl = sub.add_parser("pauli", help="print Pauli coefficients above a threshold")
    pl.add_argument("state")
    pl.add_argument("--threshold", type=float, default=1e-12)
    pl.add_argument("--json", action="store_true")

    gen = sub.add_parser("gen", help="write a reproducible random state file")
    gen.add_argument("--n", type=int, required=True)
    gen.add_argument("--kind", choices=["pure", "mixed"], default="pure")
    gen.add_argument("--rank", type=int, default=2, help="rank for mixed states")
    gen.add_argument("--seed", type=int, required=True)
    gen.add_argument("--min-bloch", type=float, default=None, help="rejection floor on marginal Bloch norms")
    gen.add_argument("--label", default=None)
    gen.add_argument("--out", default=None, help="output path (stdout when omitted)")

    orc = sub.add_parser("oracle", help="brute-force local-unitary fit of two state files")
    orc.add_argument("state_a")
    orc.add_argument("state_b")
    orc.add_argument("--restarts", type=int, default=20)
    orc.add_argument("--seed", type=int, default=0)
    orc.add_argument("--json", action="store_true")
    return parser


def _load(path: str):
    try:
        data = Path(path).read_bytes()
    except OSError as exc:
        raise CliError(f"cannot read {path}: {exc}") from exc
    return parse_state_file(data), sha256_digest(data)


def _cmd_check(args) -> int:
    state_a, digest_a = _load(args.state_a)
    state_b, digest_b = _load(args.state_b)
    config = config_from_flags(tol=args.tol, fallback=True if args.fallback else None)
    verdict = decide_lu_equivalence(state_a, state_b, config)
    inputs = {
        "a": {"path": args.state_a, "digest": digest_a},
        "b": {"path": args.state_b, "digest": digest_b},
    }
    report = verdict_report(verdict, config, inputs=inputs, tool_version=__version__)
    if args.json:
        print(render_report(report))
    else:
        print(f"verdict: {verdict.outcome}" + (f" ({verdict.reason})" if verdict.reason else ""))
        if verdict.witness is not None:
            print(f"witness residual: {verdict.witness.residual:.3e}")
        if verdict.mixed_qubits:
            print(f"maximally mixed qubits: {list(verdict.mixed_qubits)}")
            if not verdict.fallback_attempted:
                print("rerun with --fallback to search the SU(2) freedom")
    return _VERDICT_CODES[verdict.outcome]


def _cmd_trace_form(args) -> int:
    state, _ = _load(args.state)
    t = to_trace_form(state)
    blochs = [bloch_vector(m) for m in qubit_marginals(state)]
    doc = {
        "n": state.n,
        "rho_t": matrix_pairs(t.state.matrix),
        "frames": [
            {
                "qubit": f.qubit,
                "eigenvalues": [float(v) for v in f.eigenvalues],
                "v": matrix_pairs(f.v),
                "bloch": [b.x, b.y, b.z],
                "maximally_mixed": f.maximally_mixed,
            }
            for f, b in zip(t.frames, blochs)
        ],
    }
    print(render_report(doc))
    return 0


_PAULI_LETTERS = "IXYZ"


def _pauli_label(flat: int, n: int) -> str:
    return "".join(_PAULI_LETTERS[(flat >> (2 * (n - 1 - k))) & 3] for k in range(n))


def _cmd_pauli(args) -> int:
    if not (math.isfinite(args.threshold) and args.threshold >= 0):
        raise CliError(f"--threshold must be finite and non-negative, got {args.threshold}")
    state, _ = _load(args.state)
    p = expand(state)
    entries = [
        (_pauli_label(i, p.n), float(v))
        for i, v in enumerate(p.c)
        if abs(v) > args.threshold
    ]
    if args.json:
        doc = {"n": p.n, "threshold": args.threshold, "coefficients": dict(entries)}
        print(render_report(doc))
    else:
        for label, v in entries:
            print(f"{label} {v!r}")
    return 0


def _cmd_gen(args) -> int:
    if args.n < 1:
        raise CliError(f"--n must be positive, got {args.n}")
    cap = MAX_PURE_QUBITS if args.kind == "pure" else MAX_QUBITS
    if args.n > cap:
        raise CliError(f"{args.n} qubits exceeds the cap of {cap} for {args.kind} states")
    label = args.label or f"{args.kind} n={args.n} seed={args.seed}"
    if args.min_bloch is not None:
        if not 0.0 <= args.min_bloch <= 1.0:
            raise CliError(f"--min-bloch must lie in [0, 1], as a Bloch norm does, got {args.min_bloch}")
        rank = 1 if args.kind == "pure" else args.rank
        try:
            state = random_state_with_bloch_floor(args.n, args.seed, rank=rank, min_bloch=args.min_bloch)
        except RuntimeError as exc:  # every draw fell below the floor
            raise CliError(str(exc)) from exc
        text = (
            emit_mixed_state_file(state.matrix, label=label)
            if args.kind == "mixed"
            else emit_pure_state_file(state.amplitudes, label=label)
        )
    elif args.kind == "pure":
        text = emit_pure_state_file(random_pure_amplitudes(args.n, args.seed), label=label)
    else:
        state = random_mixed_state(args.n, args.rank, args.seed)
        text = emit_mixed_state_file(state.matrix, label=label)
    if args.out:
        Path(args.out).write_text(text + "\n")
    else:
        print(text)
    return 0


def _cmd_oracle(args) -> int:
    if args.restarts < 1:
        raise CliError(f"--restarts must be at least 1, got {args.restarts}")
    state_a, _ = _load(args.state_a)
    state_b, _ = _load(args.state_b)
    fit = lu_fit_oracle(state_a, state_b, restarts=args.restarts, seed=args.seed)
    if args.json:
        doc = {
            "residual": fit.residual,
            "evaluations": fit.evaluations,
            "budget_exhausted": fit.budget_exhausted,
            "unitaries": [matrix_pairs(u) for u in fit.unitaries],
        }
        print(render_report(doc))
    else:
        print(f"best residual: {fit.residual!r}")
    return 0


_COMMANDS = {
    "check": _cmd_check,
    "trace-form": _cmd_trace_form,
    "pauli": _cmd_pauli,
    "gen": _cmd_gen,
    "oracle": _cmd_oracle,
}


def run_command(argv) -> int:
    """Run one CLI invocation, returning the exit code (never raising)."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return _COMMANDS[args.command](args)
    except SystemExit as exc:  # argparse --version / --help
        return int(exc.code or 0)
    except (CliError, ValueError) as exc:  # StateFileError and StateValidationError included
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR


def main() -> None:
    sys.exit(run_command(sys.argv[1:]))


if __name__ == "__main__":
    main()
