"""tools/cold_start.py on one probe operation."""

import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("cold_start", ROOT / "tools" / "cold_start.py")
cold_start = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(cold_start)


def test_cold_start_runs_each_op_in_its_own_interpreter():
    ops = [op for op in cold_start.build("mc_paths", 1) if op["id"] == "probe_enum"]
    rows = cold_start.run_cold(ops)
    assert list(rows) == ["probe_enum"]
    code, wall, rss = rows["probe_enum"]
    assert code == 0
    # a fresh interpreter that imports NumPy takes some time and some megabytes
    assert 0.0 < wall < 60.0 and 10.0 < rss < 1000.0
    lines = cold_start.table(rows).splitlines()
    assert lines[0].split() == ["op", "exit", "wall", "peak", "RSS"]
    assert [line.split()[0] for line in lines[1:]] == ["probe_enum", "total"]


def test_cold_start_reports_a_failing_op():
    rows = cold_start.run_cold([{"id": "bad", "argv": ["certify", "--p", "-1"]}])
    assert rows["bad"][0] != 0


def test_cold_start_rejects_an_unknown_workload(capsys):
    with pytest.raises(SystemExit) as exc:
        cold_start.main(["nope"])
    assert exc.value.code == 2
