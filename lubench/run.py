"""Benchmark of luequiv's decisions, end to end and layer by layer.

    python3 lubench/run.py --workload generic_large --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; luequiv is imported from its `src`.
The workload's instances are made from --seed (see workloads.py).  Each
instance is decided in round-robin passes, whole passes only, at least three,
for about --seconds; its latency is the median of its timings.  Every verdict
is checked against a truth established without luequiv (truth.py), and a
decision whose check fails counts as failed.

--trace 0 prints the end-to-end metrics; no wrapper is installed.  --trace 1
alternates untraced passes with passes under spans around every layer
(spans.py), and prints the per-layer metrics and the tracing overhead.  The
last line of standard output is one JSON object.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

# Pinned before numpy loads, for this process and for every child: one
# OpenBLAS thread gave 3.15-3.28 s per n = 10 decision where the default two
# gave 2.2-2.6 s, so one thread is the steadier measure.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
from contextlib import redirect_stderr, redirect_stdout  # noqa: E402

import numpy as np  # noqa: E402

import truth  # noqa: E402
from instances import EQUIVALENT, INDETERMINATE, NOT_EQUIVALENT, density  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
OUT = ROOT / ".lubench"
MIN_PASSES = 3
SETUPS = 3
TAIL_BEYOND = 10
# below this many instances no percentile has ten beyond it that is a tail,
# so decide_tail_ms is the slowest instance
TAIL_MIN_INSTANCES = 40
CHILD_TIMEOUT = 120
EXIT_CODES = {EQUIVALENT: 0, NOT_EQUIVALENT: 1, INDETERMINATE: 2}


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def run_child(argv) -> tuple[int, str, float]:
    """Run a child to its end: (exit code, stdout, peak RSS MB of any child)."""
    proc = subprocess.Popen(
        argv, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE, stderr=subprocess.DEVNULL
    )
    try:
        out, _ = proc.communicate(timeout=CHILD_TIMEOUT)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise
    # communicate() reaped the child; its rusage went into RUSAGE_CHILDREN,
    # whose ru_maxrss is the largest peak of any child so far
    peak = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
    return proc.returncode, out.decode(), peak


# ---------------------------------------------------------------------------
# deciders: one per kind of workload
# ---------------------------------------------------------------------------


class LibraryDecider:
    """decide_lu_equivalence in this process on validated states."""

    def __init__(self, luequiv):
        self.lu = luequiv

    def prepare(self, instances) -> None:
        lu = self.lu
        for inst in instances:
            inst.states = tuple(
                lu.from_pure_amplitudes(g[:, 0])
                if g.shape[1] == 1
                else lu.validate_state(density(g))
                for g in (inst.ga, inst.gb)
            )

    def warm_up(self, inst) -> None:
        """A state against itself: every layer runs once, at little cost."""
        config = self.lu.EngineConfig(fallback=inst.fallback)
        self.lu.engine.decide_lu_equivalence(inst.states[0], inst.states[0], config)

    def decide(self, inst):
        config = self.lu.EngineConfig(fallback=inst.fallback)
        return self.lu.engine.decide_lu_equivalence(inst.states[0], inst.states[1], config)

    def summary(self, inst, verdict) -> tuple:
        """(outcome, reason, witness unitaries, path) of a Verdict."""
        us = tuple(verdict.witness.unitaries) if verdict.witness is not None else ()
        path = verdict_path(verdict.reason, verdict.diagnostics, verdict.fallback_attempted)
        return verdict.outcome, verdict.reason, us, path

    def matrices(self, inst):
        return inst.states[0].matrix, inst.states[1].matrix


def verdict_path(reason, diagnostics: dict, fallback_attempted: bool) -> str:
    if fallback_attempted:
        return "fallback"
    if reason in ("by_global_spectrum", "by_marginal_spectra"):
        return "preflight"
    status = diagnostics.get("phase_status")
    if status == "direct":
        return "direct"
    return "phase" if status is not None else "none"


def write_state_file(path: Path, g: np.ndarray) -> None:
    def pair(z):
        return [float(z.real), float(z.imag)]

    n = g.shape[0].bit_length() - 1
    if g.shape[1] == 1:
        doc = {"n": n, "kind": "pure", "amplitudes": [pair(z) for z in g[:, 0]]}
    else:
        doc = {"n": n, "kind": "mixed", "matrix": [[pair(z) for z in row] for row in density(g)]}
    path.write_text(json.dumps(doc))


class CliDecider:
    """`python -m luequiv.cli check --json` in a fresh child per decision.

    With in_process set, the same argv goes to luequiv.cli.run_command in
    this process instead, which is how the traced run sees the CLI's layers.
    """

    def __init__(self, luequiv, seed: int):
        self.lu = luequiv
        self.dir = OUT / f"cli-{seed}"
        self.in_process = False
        self.peak_mb = 0.0

    def prepare(self, instances) -> None:
        self.dir.mkdir(parents=True, exist_ok=True)
        for i, inst in enumerate(instances):
            paths = (self.dir / f"{i}a.json", self.dir / f"{i}b.json")
            for path, g in zip(paths, (inst.ga, inst.gb)):
                write_state_file(path, g)
            inst.states = paths

    def warm_up(self, inst) -> None:
        a = str(inst.states[0])
        run_child([sys.executable, "-m", "luequiv.cli", "check", a, a])

    def argv(self, inst) -> list[str]:
        args = ["check", str(inst.states[0]), str(inst.states[1]), "--json"]
        return args + (["--fallback"] if inst.fallback else [])

    def decide(self, inst):
        if self.in_process:
            buf = io.StringIO()
            with redirect_stdout(buf), redirect_stderr(io.StringIO()):
                code = self.lu.cli.run_command(self.argv(inst))
            return code, buf.getvalue()
        code, out, peak = run_child([sys.executable, "-m", "luequiv.cli", *self.argv(inst)])
        self.peak_mb = max(self.peak_mb, peak)
        return code, out

    def summary(self, inst, result) -> tuple:
        code, out = result
        try:
            report = json.loads(out)
        except json.JSONDecodeError:
            return "unparsable", None, (), "none"
        outcome = report.get("verdict")
        if EXIT_CODES.get(outcome) != code:
            return f"exit {code} for {outcome}", None, (), "none"
        us = tuple(
            np.array([[complex(*z) for z in row] for row in u]) for u in report.get("witness") or ()
        )
        path = verdict_path(
            report.get("reason"), report.get("diagnostics", {}), report.get("fallback_attempted")
        )
        return outcome, report.get("reason"), us, path

    def matrices(self, inst):
        return density(inst.ga), density(inst.gb)


# ---------------------------------------------------------------------------
# measuring
# ---------------------------------------------------------------------------


class Pass:
    """Round-robin passes over a workload with per-instance timings."""

    def __init__(self, decider, instances, tracer=None):
        self.decider = decider
        self.instances = instances
        self.tracer = tracer
        self.times = [[] for _ in instances]
        self.first = [None] * len(instances)
        self.attempted = 0
        self.failed = 0
        self.unexpected: list[str] = []
        self.paths: dict[str, int] = {}
        self.passes = 0

    def run(self, seconds: float) -> None:
        for _ in rounds(seconds):
            self.one_pass()

    def one_pass(self) -> None:
        first = self.passes == 0
        self.passes += 1
        clock = time.perf_counter
        for i, inst in enumerate(self.instances):
            if self.tracer is not None:
                self.tracer.decision += 1
            t0 = clock()
            result = self.decider.decide(inst)
            self.times[i].append(clock() - t0)
            summary = self.decider.summary(inst, result)
            if first:
                self.paths[summary[3]] = self.paths.get(summary[3], 0) + 1
            self.attempted += 1
            if not self.check(i, inst, summary):
                self.failed += 1
                if not inst.known_fault and inst.label not in self.unexpected:
                    self.unexpected.append(inst.label)

    def check(self, i: int, inst, summary) -> bool:
        """Full independent check on the first verdict, then sameness."""
        outcome, reason, us, _ = summary
        if self.first[i] is not None:
            prev, ok = self.first[i]
            if prev[:2] == (outcome, reason) and len(prev[2]) == len(us) and all(
                np.array_equal(x, y) for x, y in zip(prev[2], us)
            ):
                return ok
        a, b = self.decider.matrices(inst)
        ok = truth.verdict_ok(inst, outcome, us, a, b)
        self.first[i] = (summary, ok)
        return ok

    def latencies(self) -> list[float]:
        return [statistics.median(t) for t in self.times]


def rounds(seconds: float):
    """Yield until MIN_PASSES rounds are done and another would overrun."""
    start = time.perf_counter()
    done = 0
    while done < MIN_PASSES or (time.perf_counter() - start) * (done + 1) / done <= seconds:
        yield done
        done += 1


def alternate(plain: Pass, traced: Pass, tracer, seconds: float) -> None:
    """Untraced and traced passes in turn, so that drift hits both alike."""
    for _ in rounds(seconds):
        plain.one_pass()
        tracer.install()
        try:
            traced.one_pass()
        finally:
            tracer.uninstall()


def tail_rule(count: int) -> tuple[int, str]:
    """Index into the ascending latencies, and the percentile it stands for."""
    if count < TAIL_MIN_INSTANCES:
        return count - 1, "max"
    return count - 1 - TAIL_BEYOND, f"p{100.0 * (count - TAIL_BEYOND) / count:.1f}"


def timing_metrics(lat: list[float]) -> dict:
    ordered = sorted(lat)
    idx, _ = tail_rule(len(ordered))
    return {
        "decisions_per_s": (len(lat) / sum(lat), "1/s"),
        "decide_p50_ms": (statistics.median(lat) * 1e3, "ms"),
        "decide_tail_ms": (ordered[idx] * 1e3, "ms"),
    }


def set_up(workload: str, seed: int, decider_factory):
    """Fresh-interpreter import, input generation, validation and warm-up."""
    t0 = time.perf_counter()
    code, _, _ = run_child([sys.executable, "-c", "import luequiv.cli"])
    if code != 0:
        raise SystemExit(f"luequiv does not import from {SRC}")
    instances = WORKLOADS[workload](seed)
    decider = decider_factory()
    decider.prepare(instances)
    decider.warm_up(min(instances, key=lambda inst: inst.n))
    return time.perf_counter() - t0, instances, decider


def import_times() -> dict:
    """import.luequiv_ms and import.scipy_ms from -X importtime, median of 3."""
    lu, sp = [], []
    for _ in range(3):
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import luequiv.cli"],
            cwd=ROOT, env=child_env(), capture_output=True, text=True, timeout=CHILD_TIMEOUT,
        )
        cumulative = {}
        scipy_self = 0
        for line in proc.stderr.splitlines():
            parts = line.split("|")
            if len(parts) != 3 or not parts[0].startswith("import time:"):
                continue
            try:
                self_us = int(parts[0].split(":")[1])
                cum_us = int(parts[1])
            except ValueError:
                continue
            name = parts[2].strip()
            cumulative[name] = cum_us
            if name == "scipy" or name.startswith("scipy."):
                scipy_self += self_us
        lu.append(cumulative.get("luequiv", 0) / 1e3)
        sp.append(scipy_self / 1e3)
    return {
        "import.luequiv_ms": (statistics.median(lu), "ms"),
        "import.scipy_ms": (statistics.median(sp), "ms"),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    sys.path.insert(0, str(SRC))
    try:
        import luequiv
        import luequiv.cli
    except ImportError as exc:
        print(f"error: cannot import luequiv from {SRC}: {exc}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)

    def factory():
        if args.workload == "cli_check":
            return CliDecider(luequiv, args.seed)
        return LibraryDecider(luequiv)

    setups = []
    for _ in range(SETUPS if not args.trace else 1):
        instances = decider = None  # one set of inputs alive at a time
        elapsed, instances, decider = set_up(args.workload, args.seed, factory)
        setups.append(elapsed)

    absent: set[str] = set()
    metrics: dict[str, tuple[float, str]] = {}
    if not args.trace:
        run = Pass(decider, instances)
        run.run(args.seconds)
        metrics.update(timing_metrics(run.latencies()))
        metrics["setup_s"] = (statistics.median(setups), "s")
        if isinstance(decider, CliDecider):
            peak = decider.peak_mb
        else:
            peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        metrics["peak_rss_mb"] = (peak, "MB")
        runs = [run]
    else:
        from spans import Tracer

        if isinstance(decider, CliDecider):
            decider.in_process = True
        tracer = Tracer()
        plain, traced = Pass(decider, instances), Pass(decider, instances, tracer)
        alternate(plain, traced, tracer, args.seconds)
        tracer.write(OUT / f"trace-{args.workload}-{args.seed}.json")
        metrics.update(tracer.layer_metrics(traced.attempted))
        untraced_dps = len(instances) / sum(plain.latencies())
        traced_dps = len(instances) / sum(traced.latencies())
        metrics["trace.untraced_decisions_per_s"] = (untraced_dps, "1/s")
        metrics["trace.traced_decisions_per_s"] = (traced_dps, "1/s")
        metrics["trace.overhead_pct"] = (100.0 * (untraced_dps / traced_dps - 1.0), "%")
        for path in ("preflight", "direct", "phase", "fallback"):
            metrics[f"engine.verdict_path.{path}"] = (traced.paths.get(path, 0), "count")
        metrics.update(import_times())
        absent = {m for m in metrics for name in tracer.absent if m.startswith(name + ".")}
        runs = [plain, traced]
        if absent:
            print("absent layers: " + ", ".join(sorted(tracer.absent)))

    attempted = sum(r.attempted for r in runs)
    failed = sum(r.failed for r in runs)
    unexpected = sorted({label for r in runs for label in r.unexpected})
    _, tail = tail_rule(len(instances))
    print(
        f"{args.workload} seed {args.seed}: {len(instances)} instances"
        f" x {'+'.join(str(r.passes) for r in runs)} passes, "
        f"BLAS threads {BLAS_THREADS}, decide_tail_ms = {tail}, failed {failed}/{attempted}"
        + (f", unexpected failures: {unexpected}" if unexpected else "")
    )
    out_metrics = {}
    for name, (value, unit) in metrics.items():
        out_metrics[name] = {"value": value, "unit": unit}
        if name in absent:
            out_metrics[name]["absent"] = True
    result = {"correct": not unexpected, "attempted": attempted, "failed": failed}
    print(json.dumps({**result, "metrics": out_metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
