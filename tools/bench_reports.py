"""Write every benchmark operation's report to one text file per operation.

    PYTHONPATH=src python3 tools/bench_reports.py OUTDIR SEED [SEED ...]

Builds each workload's batch for each SEED (bench/workloads.py), runs every
operation through `momsand.cli.main` in this process, and writes
OUTDIR/<workload>-<seed>-<op>.txt holding the exit code, stdout and stderr.
The stdout report is stored as the CLI wrote it, byte for byte, less its
top-level "wall_time_s" member and the comma before it, so every stored
report is still strict JSON.  Two checkouts' reports are byte-identical
exactly when `diff -r` of their two OUTDIRs is empty; PYTHONPATH picks the
checkout whose momsand runs.
"""

from __future__ import annotations

import contextlib
import io
import os
import re
import sys

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "bench"))

from workloads import WORKLOADS, build  # noqa: E402


# members of the top level are the only lines indented by exactly two spaces
_WALL_TIME = re.compile(r',\n  "wall_time_s": [^,\n]*')


def run_op(main, argv) -> str:
    """Exit code, stdout report without wall_time_s and stderr of one CLI call, as one text."""
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    except SystemExit as exc:
        code = exc.code
    stdout = _WALL_TIME.sub("", out.getvalue(), count=1)
    return f"exit: {code}\n--- stdout\n{stdout}--- stderr\n{err.getvalue()}"


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) < 2:
        print("usage: bench_reports.py OUTDIR SEED [SEED ...]", file=sys.stderr)
        return 2
    outdir, seeds = args[0], [int(s) for s in args[1:]]
    from momsand.cli import main as cli_main

    os.makedirs(outdir, exist_ok=True)
    for workload in WORKLOADS:
        for seed in seeds:
            for op in build(workload, seed):
                path = os.path.join(outdir, f"{workload}-{seed}-{op['id']}.txt")
                with open(path, "w") as fh:
                    fh.write(run_op(cli_main, op["argv"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
