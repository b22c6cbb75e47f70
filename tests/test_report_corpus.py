"""Every benchmark operation's report for seeds 1 and 7 against its recorded SHA-256.

tests/fixtures/bench_reports.sha256 is `sha256sum` output over the files that
tools/bench_reports.py writes; the README says how to re-record it.
"""

import hashlib
import importlib.util
from pathlib import Path

from momsand.cli import main

ROOT = Path(__file__).resolve().parent.parent
FIXTURE = ROOT / "tests" / "fixtures" / "bench_reports.sha256"
SEEDS = (1, 7)

_spec = importlib.util.spec_from_file_location("bench_reports", ROOT / "tools" / "bench_reports.py")
bench_reports = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_reports)


def _recorded() -> dict:
    """{operation file name less .txt: digest} from the fixture's "<digest>  <name>" lines."""
    digests = {}
    for line in FIXTURE.read_text().splitlines():
        digest, name = line.split(maxsplit=1)
        digests[name.removesuffix(".txt")] = digest
    return digests


def _operations() -> dict:
    """{<workload>-<seed>-<op id>: argv}, named as tools/bench_reports.py names its files."""
    return {f"{workload}-{seed}-{op['id']}": op["argv"]
            for workload in bench_reports.WORKLOADS for seed in SEEDS
            for op in bench_reports.build(workload, seed)}


def test_fixture_lists_exactly_the_bench_operations():
    recorded, operations = _recorded(), _operations()
    assert len(operations) == 190
    assert sorted(recorded) == sorted(operations)


def test_every_bench_report_matches_its_recorded_digest():
    recorded = _recorded()
    moved = [name for name, argv in _operations().items()
             if hashlib.sha256(bench_reports.run_op(main, argv).encode()).hexdigest()
             != recorded.get(name)]
    assert not moved, f"reports that differ from {FIXTURE.name}: {moved}"
