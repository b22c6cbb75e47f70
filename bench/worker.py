"""One pass of a workload batch in a fresh interpreter.

Reads {"ops": [...], "seconds": s, "trace": bool} as JSON on stdin, calls
`momsand.cli.main(argv)` for one operation at a time with stdout captured,
and prints one JSON result on stdout.  Batches repeat until `seconds`
have passed (at least one batch runs).  Each operation's wall
time is returned for every batch; the first batch's reports are returned in
full, later batches only the indices whose report changed.

Run by run.py with PYTHONPATH pointing at the checkout's src/.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import resource
import sys
import time
import traceback

from checks import strip_wall_time


def _cpu_s() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def _run_op(main, argv):
    out = io.StringIO()
    code = None
    error = None
    try:
        with contextlib.redirect_stdout(out):
            code = main(argv)
    except SystemExit as exc:
        code = exc.code
    except Exception:  # an operation that raises is a failed operation, not a crash
        error = traceback.format_exc()
    return code, out.getvalue(), error


def main() -> int:
    request = json.load(sys.stdin)
    ops = request["ops"]
    src = os.path.join(os.getcwd(), "src")
    import momsand
    import momsand.cli

    if not os.path.abspath(momsand.__file__).startswith(src + os.sep):
        print(f"momsand was imported from {momsand.__file__}, not {src}", file=sys.stderr)
        return 2

    tracer = None
    cli_main = momsand.cli.main
    if request["trace"]:
        import tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)
        cli_main = tracer.span("cli.main", cli_main)

    op_walls, cpus = [], []
    first = None
    mismatches = set()
    start = time.perf_counter()
    while True:
        results, walls = [], []
        cpu0 = _cpu_s()
        for idx, argv in enumerate(ops):
            if tracer is not None:
                tracer.op_id = idx
            t0 = time.perf_counter()
            results.append(_run_op(cli_main, argv))
            walls.append(time.perf_counter() - t0)
        cpus.append(_cpu_s() - cpu0)
        op_walls.append(walls)
        if first is None:
            first = results
        else:
            for idx, (a, b) in enumerate(zip(first, results)):
                if (a[0], strip_wall_time(a[1])) != (b[0], strip_wall_time(b[1])):
                    mismatches.add(idx)
        if time.perf_counter() - start >= request["seconds"]:
            break

    out = {
        "op_walls": op_walls,
        "cpus": cpus,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "codes": [r[0] for r in first],
        "outputs": [r[1] for r in first],
        "errors": [r[2] for r in first],
        "mismatches": sorted(mismatches),
    }
    if tracer is not None:
        out["spans"] = tracer.spans
        out["counters"] = tracer.counters
    json.dump(out, sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
