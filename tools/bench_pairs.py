"""Benchmark two commits in alternating pairs and write one BENCH_<pr>.json.

    python3 tools/bench_pairs.py PARENT CHANGE OUT.json [--seeds 1-10]
        [--workload torus ...] [--one-cpu torus]

PARENT and CHANGE are commits of this repository.  Each is unpacked with
`git archive` into its own temporary directory, and every run there is

    python3 bench/run.py --workload W --seed S --seconds T --trace 0

so each side runs its own bench/ and src/.  T is `run_seconds` from the
change's BENCHMARK.json, the run length the benchmark sets.  For seed k the
parent runs first when k is odd and the change first when k is even.  Per
workload, OUT.json gives each side's median and quartiles of every
end-to-end metric, every run's values and failed count, and a verdict per
metric, judged by the metric's `better` and `bound` in BENCHMARK.json
(`verdict` below).
The --one-cpu workloads run a second set of pairs with the child pinned to
one CPU: the pool's default is then one worker, which is the
MOMSAND_THREADS=1 path, as run.py unsets MOMSAND_THREADS in its timed pass.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import platform
import statistics
import subprocess
import sys
import tarfile
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "bench"))

from workloads import WORKLOADS  # noqa: E402

RUN = "bench/run.py --workload {workload} --seed {seed} --seconds {seconds} --trace 0"


def _git(*args) -> bytes:
    return subprocess.run(["git", "-C", ROOT, *args], check=True, capture_output=True).stdout


def _unpack(commit: str, into: str) -> None:
    with tarfile.open(fileobj=io.BytesIO(_git("archive", commit))) as tar:
        tar.extractall(into, filter="data")


def _run(checkout: str, workload: str, seed: int, seconds: float, one_cpu: bool) -> dict:
    argv = [sys.executable, *RUN.format(workload=workload, seed=seed, seconds=seconds).split()]
    pin = (lambda: os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})) if one_cpu else None
    proc = subprocess.run(argv, cwd=checkout, capture_output=True, text=True, preexec_fn=pin)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} in {checkout}:\n{proc.stderr[-2000:]}")
    result = json.loads(proc.stdout.splitlines()[-1])
    row = {name: m["value"] for name, m in result["metrics"].items()}
    row["failed"] = result["failed"]
    return row


def _summary(rows: list[dict], names: list[str]) -> dict:
    out = {}
    for name in names:
        values = [row[name] for row in rows]
        q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
        out[name] = {"median": median, "quartiles": [q1, q3], "runs": values}
    out["failed"] = [row["failed"] for row in rows]
    return out


def verdict(parent: list[float], change: list[float], better: str, bound: float) -> dict:
    """The change against the parent on one metric, from runs paired by index.

    wins counts the pairs the change won, ties counting for neither side.  gain:
    at least 9 in 10 pairs won and a median gap wider than the parent's quartile
    spread.  regressed: the change's median worse than the parent's by more than
    bound, a fraction of the parent's median.  unresolved: the parent's spread
    wider than that bound, unless every change run beats every parent run.
    """
    if better not in ("lower", "higher"):
        raise ValueError(f"better must be 'lower' or 'higher', got {better!r}")
    if len(parent) != len(change) or len(parent) < 2:
        raise ValueError("need two or more pairs of runs")
    sign = 1.0 if better == "lower" else -1.0  # sign * (change - parent) < 0: the change won
    wins = sum(sign * (c - p) < 0.0 for p, c in zip(parent, change))
    q1, parent_median, q3 = statistics.quantiles(parent, n=4, method="inclusive")
    change_median = statistics.median(change)
    spread = q3 - q1
    gap = sign * (parent_median - change_median)  # positive where the change is better
    allowed = bound * abs(parent_median)
    beats_all = max(sign * c for c in change) < min(sign * p for p in parent)
    return {
        "change_wins": wins,
        "pairs": len(parent),
        "parent_median": parent_median,
        "change_median": change_median,
        "parent_spread": spread,
        "gain": 10 * wins >= 9 * len(parent) and gap > spread,
        "regressed": -gap > allowed,
        "unresolved": spread > allowed and not beats_all,
    }


def _pairs(dirs: dict, workload: str, seeds: list[int], seconds: float, one_cpu: bool,
           metrics: list[dict]) -> dict:
    rows = {"parent": [], "change": []}
    for seed in seeds:
        order = ("parent", "change") if seed % 2 else ("change", "parent")
        for side in order:
            rows[side].append(_run(dirs[side], workload, seed, seconds, one_cpu))
            print(f"{workload} seed {seed} {side}{' one-cpu' if one_cpu else ''}: "
                  f"{rows[side][-1]}", file=sys.stderr)
    names = [m["name"] for m in metrics]
    verdicts = {m["name"]: verdict([row[m["name"]] for row in rows["parent"]],
                                   [row[m["name"]] for row in rows["change"]],
                                   m["better"], m["bound"]) for m in metrics}
    return {"seeds": seeds, "pairs": len(seeds), "parent": _summary(rows["parent"], names),
            "change": _summary(rows["change"], names), "verdict": verdicts}


def _seed_range(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent")
    parser.add_argument("change")
    parser.add_argument("out")
    parser.add_argument("--seeds", type=_seed_range, default=_seed_range("1-10"))
    parser.add_argument("--workload", action="append", choices=WORKLOADS,
                        help="a workload to run (default: all)")
    parser.add_argument("--one-cpu", action="append", default=[], choices=WORKLOADS,
                        help="a workload to run again pinned to one CPU")
    args = parser.parse_args(argv)
    commits = {side: _git("rev-parse", getattr(args, side)).decode().strip()
               for side in ("parent", "change")}
    declared = json.loads(_git("show", f"{commits['change']}:BENCHMARK.json"))
    metrics = declared["end_to_end"]
    seconds = declared["run_seconds"]
    with tempfile.TemporaryDirectory() as tmp:
        dirs = {side: os.path.join(tmp, side) for side in commits}
        for side, commit in commits.items():
            _unpack(commit, dirs[side])
        workloads = {}
        for workload in args.workload or WORKLOADS:
            workloads[workload] = {
                "default": _pairs(dirs, workload, args.seeds, seconds, False, metrics)}
            if workload in args.one_cpu:
                workloads[workload]["one_cpu"] = _pairs(
                    dirs, workload, args.seeds, seconds, True, metrics)
    report = {
        "argv": f"python3 {RUN}",
        "one_cpu": "the run's process pinned to one CPU, so the pool's default is one worker",
        "commits": commits,
        "seconds": seconds,
        "machine": {"cpus": len(os.sched_getaffinity(0)), "python": platform.python_version(),
                    "platform": platform.platform()},
        "workloads": workloads,
    }
    with open(args.out, "w") as fh:
        json.dump(report, fh, indent=2)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
