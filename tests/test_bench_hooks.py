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
runs = [["certify", "--dist", "uniform:lo=0,hi=2", "--p", p] for p in ("0.5", "2.5")]
# past the enumeration cap (2^30 outcomes): the moment engine
runs.append(["verify", "--dist", "twopoint:a=0.5,b=1.5,pa=0.5", "--p", "1.5", "--n", "30",
             "--coeffs", "random:count=1,seed=3", "--reps", "2000"])
# the exact sign chain, which samples nothing
runs.append(["counterexample", "--n", "30", "--p", "4", "--reps", "2000"])
# Monte Carlo: the Riesz side has no exact form at p = 2.5
runs.append(["riesz", "--seq", "4,16,64", "--p", "2.5", "--coeffs", "1,0.5,-0.25",
             "--reps", "2000"])
# exact enumeration: a two-point sandwich and a two-point perpetuity
runs.append(["verify", "--dist", "twopoint:a=0.5,b=1.5,pa=0.5", "--p", "2", "--n", "10",
             "--coeffs", "random:count=1,seed=3"])
runs.append(["perpetuity", "--dist", "twopoint:a=0.5,b=1.5,pa=0.5",
             "--b-dist", "twopoint:a=0.4,b=1.3,pa=0.3", "--p", "2", "--n-list", "1,2,3"])
for argv in runs:
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(argv) == 0, argv
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
    # the truncated moments are closed forms: nothing calls the rebound quad
    assert "dist_core.quad" not in names
    # the sampling runs keep their draw, quantile and path time in their own layers
    assert {"dist_core.sample", "dist_core.quantile", "montecarlo.sample"} <= set(names)
    # the exact runs keep their enumeration time in its own layer
    assert "montecarlo.enum" in names
