"""The benchmark's tracer finds the names it rebinds in the package."""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

SCRIPT = """
import contextlib, io, json
import tracing
from momsand import cli

tracer = tracing.Tracer()
tracing.install(tracer)
for p in ("0.5", "2.5"):
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["certify", "--dist", "uniform:lo=0,hi=2", "--p", p]) == 0
print(json.dumps(sorted({span[0] for span in tracer.spans})))
"""


def test_tracing_install_finds_its_hooks():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "bench"), str(ROOT / "src")])
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT], cwd=ROOT, env=env, capture_output=True, text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    names = json.loads(proc.stdout.splitlines()[-1])
    # certify reaches the scan and the recheck through the names the tracer rebinds
    assert {"constants.optimize", "assumptions.verify", "dist_core.expect"} <= set(names)
