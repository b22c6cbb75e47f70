"""Time every operation of one benchmark workload at one and at two workers.

    PYTHONPATH=src python3 tools/op_times.py WORKLOAD [--seed S] [--repeat K]

Builds WORKLOAD's batch for seed S (bench/workloads.py, default seed 1) and
runs every operation through `momsand.cli.main` in this process, K times
(default 3) at MOMSAND_THREADS=1 and at MOMSAND_THREADS=2, the two
settings alternating so that both see the same state of the machine.  It
prints each operation's best wall time at each setting in milliseconds,
their ratio and the totals.  Reports go nowhere; tools/bench_reports.py
keeps them.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import math
import os
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "bench"))

from workloads import WORKLOADS, build  # noqa: E402

THREADS = (1, 2)


def _run(main, argv) -> None:
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            main(argv)
        except SystemExit:
            pass


def time_ops(ops, repeat: int) -> dict[str, dict[int, float]]:
    """{op id: {threads: best of `repeat` wall times in seconds}} for THREADS."""
    from momsand.cli import main

    saved = os.environ.get("MOMSAND_THREADS")
    best: dict[str, dict[int, float]] = {}
    try:
        for op in ops:
            times = best[op["id"]] = dict.fromkeys(THREADS, math.inf)
            for _ in range(repeat):
                for threads in THREADS:
                    os.environ["MOMSAND_THREADS"] = str(threads)
                    start = time.perf_counter()
                    _run(main, op["argv"])
                    times[threads] = min(times[threads], time.perf_counter() - start)
    finally:
        if saved is None:
            os.environ.pop("MOMSAND_THREADS", None)
        else:
            os.environ["MOMSAND_THREADS"] = saved
    return best


def table(best: dict[str, dict[int, float]]) -> str:
    """One row per operation and a total row: milliseconds per setting and their ratio."""
    width = max(len("total"), *map(len, best))
    lines = [f"{'op':<{width}}{'1 thread':>12}{'2 threads':>12}{'ratio':>8}"]
    totals = {t: math.fsum(times[t] for times in best.values()) for t in THREADS}
    for name, times in [*best.items(), ("total", totals)]:
        lines.append(f"{name:<{width}}{1e3 * times[1]:>9.2f} ms{1e3 * times[2]:>9.2f} ms"
                     f"{times[2] / times[1]:>8.2f}")
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--repeat", type=int, default=3)
    args = parser.parse_args(argv)
    if args.repeat < 1:
        parser.error("--repeat must be at least 1")
    text = table(time_ops(build(args.workload, args.seed), args.repeat))
    try:
        print(text, flush=True)
    except BrokenPipeError:  # the reader left early, as `| head` does
        # point stdout at /dev/null so the flush at exit raises nothing either
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    return 0


if __name__ == "__main__":
    sys.exit(main())
