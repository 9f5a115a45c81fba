"""Spans around luequiv's layers, recorded from outside the package.

`Tracer.install` wraps each function named in LAYERS at every module
attribute that holds it, which is where its callers look it up (engine.py
calls `luequiv.engine.to_trace_form`, cli.py calls `luequiv.cli.
parse_state_file`, and so on).  Each call records a span: name, start, end,
parent span and decision id.  Spans stay in memory until `write`.  A name
that no longer exists is reported as absent; nothing fails.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import defaultdict

# (defining module, function): the metric prefix is "<module>.<function>"
LAYERS = (
    ("engine", "decide_lu_equivalence"),
    ("engine", "preflight_invariants"),
    ("engine", "phase_match"),
    ("engine", "assemble_witness"),
    ("engine", "su2_fallback"),
    ("traceform", "to_trace_form"),
    ("traceform", "local_eigenframes"),
    ("states", "validate_state"),
    ("states", "reduced_qubit"),
    ("linalg", "kron_all"),
    ("linalg", "eig_hermitian_2x2"),
    ("pauli", "expand"),
    ("serialize", "parse_state_file"),
    ("serialize", "verdict_report"),
    ("cli", "run_command"),
)
SELF_MS = (
    "engine.decide_lu_equivalence",
    "engine.preflight_invariants",
    "engine.phase_match",
    "engine.assemble_witness",
    "engine.su2_fallback",
    "traceform.to_trace_form",
    "traceform.local_eigenframes",
    "states.validate_state",
    "pauli.expand",
    "serialize.parse_state_file",
    "serialize.verdict_report",
    "cli.run_command",
)
CALLS = (
    "states.validate_state",
    "states.reduced_qubit",
    "linalg.kron_all",
    "linalg.eig_hermitian_2x2",
)


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []  # (name, start_ns, end_ns, parent, decision)
        self.stack: list[int] = []
        self.open: dict[str, int] = defaultdict(int)  # names of open spans
        self.decision = -1
        self.counts: dict[str, int] = defaultdict(int)
        self.absent: list[str] = []
        self._patched: list[tuple] = []

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        self.absent = []
        for module, func in LAYERS:
            name = f"{module}.{func}"
            owner = sys.modules.get(f"luequiv.{module}")
            target = getattr(owner, func, None)
            if target is None:
                self.absent.append(name)
                continue
            self._patch_everywhere(target, self._span_wrapper(name, target))
        import numpy.linalg

        eigvalsh = numpy.linalg.eigvalsh
        self._patch(numpy.linalg, "eigvalsh", self._count_wrapper("numpy.eigvalsh", eigvalsh))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def _patch(self, owner, attr, wrapper) -> None:
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def _patch_everywhere(self, target, wrapper) -> None:
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname == "luequiv" or modname.startswith("luequiv.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is target:
                    self._patch(mod, attr, wrapper)

    def _span_wrapper(self, name, fn):
        spans, stack, counts, open_ = self.spans, self.stack, self.counts, self.open
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else -1
            idx = len(spans)
            spans.append(None)
            stack.append(idx)
            open_[name] += 1
            start = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = clock()
                open_[name] -= 1
                stack.pop()
                spans[idx] = (name, start, end, parent, self.decision)
            if name == "linalg.kron_all":
                counts["linalg.kron_all.bytes"] += out.nbytes
                if open_["engine.su2_fallback"]:
                    counts["engine.su2_fallback.objective_evals"] += 1
            return out

        return wrapper

    def _count_wrapper(self, name, fn):
        counts, stack = self.counts, self.stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if stack:
                counts[f"{name}.calls"] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- reporting ----------------------------------------------------------

    def layer_metrics(self, decisions: int) -> dict[str, tuple[float, str]]:
        """Per-decision self times, call counts and computed counters."""
        self_ns: dict[str, int] = defaultdict(int)
        calls: dict[str, int] = defaultdict(int)
        child_ns: dict[int, int] = defaultdict(int)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        for idx, (name, start, end, _, _) in enumerate(self.spans):
            self_ns[name] += end - start - child_ns[idx]
            calls[name] += 1
        per = max(decisions, 1)
        out: dict[str, tuple[float, str]] = {}
        for name in SELF_MS:
            out[f"{name}.self_ms"] = (self_ns[name] / 1e6 / per, "ms")
        for name in CALLS:
            out[f"{name}.calls"] = (calls[name] / per, "count")
        out["numpy.eigvalsh.calls"] = (self.counts["numpy.eigvalsh.calls"] / per, "count")
        out["linalg.kron_all.bytes"] = (self.counts["linalg.kron_all.bytes"] / per, "B")
        out["engine.su2_fallback.objective_evals"] = (
            self.counts["engine.su2_fallback.objective_evals"] / per,
            "count",
        )
        return out

    def write(self, path) -> None:
        rows = [
            {"name": n, "start_ns": s, "end_ns": e, "parent": p, "decision": d}
            for n, s, e, p, d in self.spans
        ]
        path.write_text(json.dumps({"absent": self.absent, "spans": rows}))
