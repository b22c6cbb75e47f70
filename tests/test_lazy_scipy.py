"""SciPy stays off the import path and loads only where a command needs it:
sampling a lognormal law, whose quantile is scipy.special.ndtri.  The moment
engine, momsand.moments, likewise loads only for a moment enclosure.

Each check runs in a fresh interpreter: the test process itself has SciPy
loaded already (other test modules import it).
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

TP = "twopoint:a=0.5,b=1.5,pa=0.5"
PAST_THE_CAP = ["verify", "--dist", TP, "--p", "1.5", "--n", "30",
                "--coeffs", "random:count=1,seed=3", "--reps", "2000"]

COMMANDS = """
import contextlib, io, json, sys
from momsand import cli, montecarlo

if sys.argv[3] == "sampled":  # past the cap, sample as if the moment engine did not apply
    montecarlo._no_moments = lambda *args: "sampled for the test"
rows = []
for argv in json.loads(sys.argv[1]):
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(argv)
    except SystemExit as exc:
        code = exc.code
    rows.append([argv[0], code, sys.argv[2] in sys.modules])
print(json.dumps(rows))
"""

THREADED_FIRST_IMPORT = """
import sys
sys.setswitchinterval(1e-6)
from momsand import dist_core as dc
from momsand import montecarlo as mc

assert "scipy" not in sys.modules
spec = dc.parse_spec("lognormal:mu=0,sigma=0.5")
coeffs = mc.coefficient_set([1.0, -0.5, 0.25])
est = mc.estimate_lhs(spec, coeffs, 1.5, 3 * mc.CHUNK + 5, dc.RandomSource(seed=11, stream_id=2))
assert "scipy" in sys.modules
print(est.mean.hex(), est.std_error.hex())
"""


def _loads(runs, module="scipy", sampled=False):
    """[command, exit code, whether module is loaded after it] for each argv, in one
    interpreter; sampled: past the enumeration cap, verify and perpetuity sample."""
    return json.loads(_python(COMMANDS, json.dumps(runs), module,
                              "sampled" if sampled else "moments"))


def _python(code, *args, threads=None):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    if threads is not None:
        env["MOMSAND_THREADS"] = str(threads)
    proc = subprocess.run(
        [sys.executable, "-c", code, *args], cwd=ROOT, env=env, capture_output=True,
        text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()[-1]


def test_importing_the_cli_leaves_scipy_unloaded():
    code = "import sys, momsand, momsand.cli; print('scipy' in sys.modules)"
    assert _python(code) == "False"


def test_finite_law_commands_never_load_scipy():
    runs = [
        ["--help"],
        ["counterexample", "--n", "30", "--p", "4", "--reps", "2000"],
        # exact enumeration: 2^10 outcomes
        ["verify", "--dist", TP, "--p", "2", "--n", "10", "--coeffs", "random:count=1,seed=3"],
        # 2^30 outcomes exceed ENUM_CAP: exact moments
        PAST_THE_CAP,
        ["certify", "--dist", TP, "--p", "1.0"],
        # the uniform law's truncated moments are powers, so no quadrature
        ["certify", "--dist", "uniform:lo=0,hi=2", "--p", "1.0"],
    ]
    rows = _loads(runs)
    assert rows == [
        ["--help", 0, False],
        ["counterexample", 0, False],
        ["verify", 0, False],
        ["verify", 0, False],
        ["certify", 0, False],
        ["certify", 0, False],
    ]
    # the same verify sampled
    assert _loads([PAST_THE_CAP], sampled=True) == [["verify", 0, False]]


def test_certify_on_closed_form_continuous_laws_never_loads_scipy():
    # the exponential and Riesz factor fits use dist_core's own incomplete
    # gamma and beta functions
    laws = ["uniform:lo=0,hi=2", "lognormal:mu=0,sigma=0.5",
            "scaled:scale=2,base=(uniform:lo=0,hi=1)", "exponential:rate=1", "riesz",
            "scaled:scale=2,base=(exponential:rate=1)"]
    runs = [["certify", "--dist", law, "--p", p] for law in laws for p in ("0.5", "2.5")]
    assert _loads(runs) == [["certify", 0, False]] * len(runs)


def test_no_command_loads_scipy_integrate():
    seq = ["--seq", "4,16,64"]
    runs = [
        ["certify", "--dist", "exponential:rate=1", "--p", "0.5"],
        ["certify", "--dist", "riesz", "--p", "2.5"],
        ["verify", "--dist", "lognormal:mu=0,sigma=0.5", "--p", "1.5", "--coeffs", "1,-0.5,0.25",
         "--reps", "2000"],
        ["perpetuity", "--dist", "exponential:rate=1", "--b-dist", "riesz", "--p", "2",
         "--n-list", "1,2", "--reps", "2000"],
        ["riesz", *seq, "--p", "2.5", "--coeffs", "1,0.5,-0.25", "--reps", "2000"],
        ["moments", "--dist", "lognormal:mu=0,sigma=0.5", "--q", "0.5,3"],
        ["counterexample", "--n", "30", "--p", "4", "--reps", "2000"],
    ]
    rows = _loads(runs, "scipy.integrate")
    assert rows == [[argv[0], 0, False] for argv in runs]
    # the lognormal verify and the perpetuity sampled: ndtri loads scipy.special alone
    assert _loads(runs[2:4], "scipy.integrate", sampled=True) == [["verify", 0, False],
                                                                   ["perpetuity", 0, False]]
    # nor scipy.special: the incomplete gamma and beta functions are dist_core's own
    assert _loads(runs[:1]) == [["certify", 0, False]]


def test_closed_form_moment_commands_never_load_scipy():
    seq = ["--seq", "4,16,64"]
    runs = [
        ["riesz", *seq, "--p", "3", "--term", "2"],
        # p = 2.5 has no exact probabilistic side, so Monte Carlo runs
        ["riesz", *seq, "--p", "2.5", "--coeffs", "1,0.5,-0.25", "--reps", "2000"],
        ["riesz", *seq, "--p", "2.5", "--draws", "2", "--reps", "2000"],
        ["moments", "--dist", "riesz", "--q", "0.5,3,600"],
        ["moments", "--dist", "exponential:rate=1", "--q", "0.5,3"],
        # the bracket constants come from the fits on X
        ["perpetuity", "--dist", "exponential:rate=1", "--b-dist", "riesz", "--p", "2",
         "--n-list", "1,2", "--reps", "2000"],
    ]
    assert _loads(runs) == [[argv[0], 0, False] for argv in runs]
    # the perpetuity sampled
    assert _loads(runs[-1:], sampled=True) == [["perpetuity", 0, False]]


def test_the_counterexample_never_loads_the_moment_engine():
    # the sign chain is exact on its own, in the command and in verify's degenerate branch
    runs = [
        ["counterexample", "--n", "30", "--p", "4", "--reps", "2000"],
        ["counterexample", "--n", "100", "--p", "20"],
        ["verify", "--dist", "rademacher", "--p", "4", "--n", "30"],
        ["verify", "--dist", "twopoint:a=-1,b=1,pa=0.3", "--p", "2.5", "--n", "100"],
    ]
    assert _loads(runs, "momsand.moments") == (
        [["counterexample", 0, False]] * 2 + [["verify", 1, False]] * 2)
    # a verify past the cap on a law that is not degenerate does load it
    assert _loads([PAST_THE_CAP], "momsand.moments") == [["verify", 0, True]]


@pytest.mark.parametrize("threads", [2, 4])
def test_first_import_on_worker_threads_changes_no_figure(threads):
    # four blocks: the workers' first quantile calls import scipy.special together
    threaded = _python(THREADED_FIRST_IMPORT, threads=threads)
    assert threaded == _python(THREADED_FIRST_IMPORT, threads=1)
