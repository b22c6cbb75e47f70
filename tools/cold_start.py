"""Run every operation of one benchmark batch once, each in a fresh interpreter.

    python3 tools/cold_start.py WORKLOAD [--seed S]

Builds WORKLOAD's batch for seed S (bench/workloads.py, default seed 1) and
runs each operation as its own `python3 -c` process that imports
`momsand.cli` from this checkout's src/ and calls `main(argv)`.  It prints
each operation's exit code, wall time (interpreter start and imports
included) and peak RSS, then the total time and the largest peak.  This is
the cost of one command typed at a shell, which the benchmark does not
show: its `setup_s` times only `import momsand.cli`, and its `wall_s` is a
median over warm batches in one process.  Reports go nowhere.
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "bench"))

from workloads import WORKLOADS, build  # noqa: E402

RUN_OP = "import sys, momsand.cli; sys.exit(momsand.cli.main(sys.argv[1:]))"


def run_cold(ops) -> dict[str, tuple[int, float, float]]:
    """{op id: (exit code, wall seconds, peak RSS in MB)}, one fresh interpreter per op."""
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    rows = {}
    for op in ops:
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, "-c", RUN_OP, *op["argv"]], cwd=ROOT, env=env,
                                stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
        # wait4 reaps the child and returns its own resource usage
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        # ru_maxrss is in KiB on Linux
        rows[op["id"]] = (proc.returncode, wall, usage.ru_maxrss / 1024.0)
    return rows


def table(rows: dict[str, tuple[int, float, float]]) -> str:
    """One line per operation, then the total wall time and the largest peak RSS."""
    width = max(len("total"), *map(len, rows))
    lines = [f"{'op':<{width}}{'exit':>6}{'wall':>11}{'peak RSS':>13}"]
    for name, (code, wall, rss) in rows.items():
        lines.append(f"{name:<{width}}{code:>6}{wall:>9.3f} s{rss:>10.1f} MB")
    total = sum(wall for _, wall, _ in rows.values())
    peak = max(rss for _, _, rss in rows.values())
    lines.append(f"{'total':<{width}}{'':>6}{total:>9.3f} s{peak:>10.1f} MB")
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    print(table(run_cold(build(args.workload, args.seed))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
