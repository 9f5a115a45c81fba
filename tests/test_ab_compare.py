"""Smoke test of scripts/ab_compare.py: this checkout against itself."""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_ab_compare_checkout_against_itself():
    argv = [sys.executable, str(ROOT / "scripts" / "ab_compare.py"), str(ROOT), str(ROOT)]
    argv += ["--workload", "cli_check", "--seed", "1"]
    done = subprocess.run(argv, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    report = json.loads(done.stdout.splitlines()[-1])
    assert report["same_verdict"] == report["instances"] == 5
    assert report["check_a"] == report["check_b"] == 5 and report["check_lost"] == 0
    assert report["same_evaluations"] == 5
    # the same source decides the same way, witness for witness
    assert report["witness_pairs"] == 2 and report["witness_max_diff"] == 0.0
    assert report["time_ratio_p25"] <= report["time_ratio_p50"] <= report["time_ratio_p75"]
    # one median ratio per instance label, printed one line each
    labels = {"generic_rank2_n4", "unrelated_n3", "conjugate_rank2_n2", "ghz3", "ghz3_fallback"}
    assert set(report["ratio_by_label"]) == labels
    assert all(ratio > 0 for ratio in report["ratio_by_label"].values())
    lines = done.stdout.splitlines()
    for label in labels:
        assert any(line.startswith(f"time B/A {label}: median") for line in lines)
