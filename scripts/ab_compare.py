"""Decide one benchmark workload with two source trees in one process.

    python3 scripts/ab_compare.py PARENT_TREE CHANGE_TREE --workload phase_hard --seed 1

Each tree is a source checkout with the package in src/luequiv.  Both are
loaded under distinct module names (A and B), which works because the
package imports itself only relatively.  The instances, their truth and the
independent verdict check are those of this checkout's lubench/
(workloads.py, instances.py, truth.py); nothing there is changed.  Each
package validates its own states, then every instance is decided REPEATS
times by each package in turn, A then B on even repeats and B then A on odd
ones, so that drift hits both alike.

Printed: verdict parity (outcome and reason) on every instance, how many
verdicts of each side pass truth.verdict_ok, how many instances have the
same diagnostics["fallback_evaluations"] on both sides (absent counts as
None), the largest entry difference of the two witnesses, and per-instance
median time ratios B/A with their quartiles, then the median of those
ratios per instance label (ratio_by_label), one line per label.  The last
line of standard output is one JSON object.  The exit code is 0 when every
instance has the same outcome and reason on both sides and B passes the
check wherever A does, else 1; the evaluation counts only report.
"""

from __future__ import annotations

import os

if __name__ == "__main__":
    # one BLAS thread, pinned before numpy loads, as in lubench/run.py
    for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[_var] = "1"

import argparse  # noqa: E402
import importlib.util  # noqa: E402
import json  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from collections import Counter  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "lubench"))

import truth  # noqa: E402
from instances import density  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

# witnesses that differ by more than this are listed by instance
WITNESS_REPORT = 1e-12
# decisions per instance and side; the time ratio is of their medians
REPEATS = 5


def load_package(name: str, tree) -> object:
    """The luequiv package of a source tree, imported as the module `name`."""
    pkg = Path(tree).resolve() / "src" / "luequiv"
    spec = importlib.util.spec_from_file_location(
        name, pkg / "__init__.py", submodule_search_locations=[str(pkg)]
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


def validated(lu, inst) -> tuple:
    """The instance's two states as the benchmark hands them to the engine."""
    return tuple(
        lu.from_pure_amplitudes(g[:, 0]) if g.shape[1] == 1 else lu.validate_state(density(g))
        for g in (inst.ga, inst.gb)
    )


def decide(lu, states, inst):
    """One decision and its wall time in seconds."""
    config = lu.EngineConfig(fallback=inst.fallback)
    t0 = time.perf_counter()
    verdict = lu.decide_lu_equivalence(states[0], states[1], config)
    return verdict, time.perf_counter() - t0


def check(inst, verdict, states) -> bool:
    us = verdict.witness.unitaries if verdict.witness is not None else ()
    return truth.verdict_ok(inst, verdict.outcome, us, states[0].matrix, states[1].matrix)


def witness_difference(va, vb) -> float | None:
    """Largest entry difference of the two witnesses, None unless both have one."""
    if va.witness is None or vb.witness is None:
        return None
    return float(
        max(np.max(np.abs(ua - ub)) for ua, ub in zip(va.witness.unitaries, vb.witness.unitaries))
    )


def compare(lu_a, lu_b, instances) -> dict:
    """Decide every instance with both packages; the per-instance records."""
    sides = (lu_a, lu_b)
    states = [[validated(lu, inst) for inst in instances] for lu in sides]
    times = [[[] for _ in instances] for _ in sides]
    verdicts = [[None] * len(instances) for _ in sides]
    for r in range(REPEATS):
        for i, inst in enumerate(instances):
            for s in (0, 1) if r % 2 == 0 else (1, 0):
                verdict, seconds = decide(sides[s], states[s][i], inst)
                times[s][i].append(seconds)
                if verdicts[s][i] is None:
                    verdicts[s][i] = verdict
    records = []
    for i, inst in enumerate(instances):
        va, vb = verdicts[0][i], verdicts[1][i]
        records.append(
            {
                "label": inst.label,
                "a": (va.outcome, va.reason),
                "b": (vb.outcome, vb.reason),
                "ok_a": check(inst, va, states[0][i]),
                "ok_b": check(inst, vb, states[1][i]),
                "evaluations": tuple(
                    v.diagnostics.get("fallback_evaluations") for v in (va, vb)
                ),
                "witness_diff": witness_difference(va, vb),
                "ratio": statistics.median(times[1][i]) / statistics.median(times[0][i]),
            }
        )
    return records


def summarize(records) -> dict:
    diffs = [r["witness_diff"] for r in records if r["witness_diff"] is not None]
    q1, q2, q3 = np.percentile([r["ratio"] for r in records], [25, 50, 75])
    by_label: dict[str, list[float]] = {}
    for r in records:
        by_label.setdefault(r["label"], []).append(r["ratio"])
    return {
        "instances": len(records),
        "same_verdict": sum(r["a"] == r["b"] for r in records),
        "check_a": sum(r["ok_a"] for r in records),
        "check_b": sum(r["ok_b"] for r in records),
        "check_lost": sum(r["ok_a"] and not r["ok_b"] for r in records),
        "same_evaluations": sum(len(set(r["evaluations"])) == 1 for r in records),
        "witness_pairs": len(diffs),
        "witness_max_diff": max(diffs, default=0.0),
        "witness_over": sum(d > WITNESS_REPORT for d in diffs),
        "time_ratio_p25": float(q1),
        "time_ratio_p50": float(q2),
        "time_ratio_p75": float(q3),
        "ratio_by_label": {label: statistics.median(v) for label, v in by_label.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("tree_a", help="source tree A, usually the parent")
    parser.add_argument("tree_b", help="source tree B, usually the change")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args(argv)

    lu_a = load_package("luequiv_a", args.tree_a)
    lu_b = load_package("luequiv_b", args.tree_b)
    records = compare(lu_a, lu_b, WORKLOADS[args.workload](args.seed))
    summary = {"workload": args.workload, "seed": args.seed}
    summary.update(summarize(records))

    for i, r in enumerate(records):
        if r["a"] != r["b"] or r["ok_a"] != r["ok_b"]:
            print(f"{i} {r['label']}: A {r['a']} check {r['ok_a']}, B {r['b']} check {r['ok_b']}")
        elif r["witness_diff"] is not None and r["witness_diff"] > WITNESS_REPORT:
            print(f"{i} {r['label']}: witnesses differ by {r['witness_diff']:.3e}")
        if len(set(r["evaluations"])) != 1:
            ea, eb = r["evaluations"]
            print(f"{i} {r['label']}: fallback evaluations A {ea}, B {eb}")
    s = summary
    print(f"{args.workload} seed {args.seed}: {s['instances']} instances, {REPEATS} repeats")
    print(f"same outcome and reason: {s['same_verdict']}/{s['instances']}")
    print(f"truth.verdict_ok: A {s['check_a']}, B {s['check_b']}, lost by B {s['check_lost']}")
    print(f"same fallback evaluations: {s['same_evaluations']}/{s['instances']}")
    print(
        f"witnesses: {s['witness_pairs']} pairs, largest difference {s['witness_max_diff']:.3e}, "
        f"{s['witness_over']} above {WITNESS_REPORT:.0e}"
    )
    print(
        f"time B/A per instance: median {s['time_ratio_p50']:.3f} "
        f"(quartiles {s['time_ratio_p25']:.3f}-{s['time_ratio_p75']:.3f})"
    )
    counts = Counter(r["label"] for r in records)
    for label, ratio in s["ratio_by_label"].items():
        print(f"time B/A {label}: median {ratio:.3f} over {counts[label]} instances")
    print(json.dumps(summary))
    return 0 if s["same_verdict"] == s["instances"] and s["check_lost"] == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
