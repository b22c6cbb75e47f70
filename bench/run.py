"""momsand benchmark: seeded CLI workloads, timed end to end and per layer.

Usage, from the root of a checkout:

    python3 bench/run.py --workload mc_paths --seed 1 --seconds 18 --trace 0

Each run builds the workload's operation batch from the seed (workloads.py)
and runs it in fresh child interpreters, one operation at a time through
`momsand.cli.main(argv)`: a closed loop with one client.

  * serial pass: MOMSAND_THREADS unset (the default users get), batches
    repeated for --seconds; wall_s sums each operation's median time
    across the batches.
  * thread pass: one batch with MOMSAND_THREADS=2; every report minus
    wall_time_s must be byte-identical to the serial one.
  * traced pass (--trace 1 only): one serial batch with spans around each
    layer's entry points (tracing.py), giving the per-layer metrics.

--trace 0 also times `import momsand.cli` in fresh interpreters (setup_s).
Every report is checked against seed-independent oracles (checks.py); an
operation that raises, exits nonzero, fails a check or differs between
passes counts as failed.  The last stdout line is one JSON object:
{"correct", "attempted", "failed", "metrics"}.  Failed operations and the
reasons go to stderr.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks
import tracing
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SETUP_RUNS = 5
CHILD_TIMEOUT_S = 150


class HarnessError(RuntimeError):
    """A child interpreter failed as a whole, so no result can be reported."""


def _env(threads: int | None) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env.pop("MOMSAND_THREADS", None)
    if threads is not None:
        env["MOMSAND_THREADS"] = str(threads)
    return env


def measure_setup(runs: int) -> float:
    """Median wall time of a fresh interpreter importing momsand.cli."""
    cmd = [sys.executable, "-c", "import momsand.cli"]
    times = []
    for i in range(runs + 1):
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, cwd=ROOT, env=_env(None), capture_output=True,
                              timeout=CHILD_TIMEOUT_S)
        elapsed = time.perf_counter() - t0
        if proc.returncode != 0:
            raise HarnessError(f"import momsand.cli failed:\n{proc.stderr.decode()[-2000:]}")
        if i > 0:  # the first import may still write bytecode caches
            times.append(elapsed)
    return statistics.median(times)


def run_pass(ops: list[dict], seconds: float, trace: bool, threads: int | None) -> dict:
    """One worker interpreter running the batch; its decoded result."""
    request = {"ops": [op["argv"] for op in ops], "seconds": seconds, "trace": trace}
    proc = subprocess.run(
        [sys.executable, str(BENCH / "worker.py")],
        input=json.dumps(request),
        cwd=ROOT,
        env=_env(threads),
        capture_output=True,
        text=True,
        timeout=CHILD_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise HarnessError(f"worker exited with {proc.returncode}:\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout)


def _metrics(values: dict, declared: list[dict]) -> dict:
    """`values` of the metrics BENCHMARK.json declares, with their units."""
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    if not (ROOT / "src" / "momsand" / "cli.py").is_file():
        raise HarnessError(f"no momsand sources under {ROOT / 'src'}")
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    ops = workloads.build(workload, seed)
    setup_s = None if trace else measure_setup(SETUP_RUNS)
    serial = run_pass(ops, seconds, trace=False, threads=None)
    others = {"threads": run_pass(ops, 0.0, trace=False, threads=2)}
    if trace:
        others["traced"] = run_pass(ops, 0.0, trace=True, threads=None)

    failures = checks.tally(ops, serial, others)
    for op in ops:
        if op["id"] in failures:
            print(f"FAILED {op['id']} (momsand {' '.join(op['argv'])}): "
                  + "; ".join(failures[op["id"]]), file=sys.stderr)

    # per-operation medians across batches, so a burst of contention from
    # other tenants of the machine that hits one batch does not move wall_s
    wall_s = sum(statistics.median(times) for times in zip(*serial["op_walls"]))
    if trace:
        traced = others["traced"]
        values = tracing.layer_metrics(traced["spans"], traced["counters"])
        # the thread and traced passes run one batch in a fresh interpreter,
        # so they are compared with the serial pass's first batch
        first_s = sum(serial["op_walls"][0])
        wall_2t = sum(others["threads"]["op_walls"][0])
        values.update({
            "cli.report_bytes": sum(len(text.encode()) for text in serial["outputs"]),
            "pool.wall_2t_s": wall_2t,
            "pool.speedup_2t": first_s / wall_2t,
            "trace.overhead_s": sum(traced["op_walls"][0]) - first_s,
            "process.cpu_s": statistics.median(serial["cpus"]),
        })
        metrics = _metrics(values, declared["per_layer"])
    else:
        values = {"setup_s": setup_s, "wall_s": wall_s, "peak_rss_mb": serial["peak_rss_mb"]}
        metrics = _metrics(values, declared["end_to_end"])
    return {
        "correct": not failures,
        "attempted": len(ops),
        "failed": len(failures),
        "metrics": metrics,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float,
                        help="how long the serial pass repeats the batch")
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    try:
        result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except (HarnessError, subprocess.TimeoutExpired) as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
