"""The benchmark's traced run finds every layer it names.

`lubench/run.py --trace 1` imports luequiv and luequiv.cli, then wraps each
(module, function) of `lubench/spans.py` LAYERS; a name it cannot find is
reported absent, and that shows only in a traced run.  This test does the
same lookup in a fresh interpreter, so a layer moved, renamed or left
unimported fails here first.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

CHILD = """
import importlib.util, json
import luequiv, luequiv.cli
spec = importlib.util.spec_from_file_location("spans", "lubench/spans.py")
spans = importlib.util.module_from_spec(spec)
spec.loader.exec_module(spans)
tracer = spans.Tracer()
tracer.install()
tracer.uninstall()
print(json.dumps({"layers": len(spans.LAYERS), "absent": tracer.absent}))
"""


def test_every_traced_layer_resolves():
    env = {**os.environ, "PYTHONPATH": "src"}
    done = subprocess.run(
        [sys.executable, "-c", CHILD], cwd=ROOT, env=env, capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stderr
    report = json.loads(done.stdout.splitlines()[-1])
    assert report["layers"] > 0
    assert report["absent"] == []
