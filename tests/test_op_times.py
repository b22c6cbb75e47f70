"""tools/op_times.py on one probe operation."""

import importlib.util
import math
import os
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("op_times", ROOT / "tools" / "op_times.py")
op_times = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(op_times)


def test_op_times_reports_each_setting_and_restores_the_cap(monkeypatch):
    monkeypatch.setenv("MOMSAND_THREADS", "3")
    ops = [op for op in op_times.build("mc_paths", 1) if op["id"] == "probe_enum"]
    best = op_times.time_ops(ops, repeat=2)
    assert list(best) == ["probe_enum"]
    assert set(best["probe_enum"]) == {1, 2}
    assert all(0.0 < t < math.inf for t in best["probe_enum"].values())
    lines = op_times.table(best).splitlines()
    assert lines[0].split() == ["op", "1", "thread", "2", "threads", "ratio"]
    assert [line.split()[0] for line in lines[1:]] == ["probe_enum", "total"]
    assert op_times.os.environ["MOMSAND_THREADS"] == "3"


def test_op_times_rejects_zero_repeats(capsys):
    with pytest.raises(SystemExit) as exc:
        op_times.main(["torus", "--repeat", "0"])
    assert exc.value.code == 2


def test_op_times_exits_quietly_when_the_reader_leaves(monkeypatch):
    monkeypatch.setattr(op_times, "time_ops", lambda ops, repeat: {"probe_enum": {1: 0.1, 2: 0.1}})
    read_end, write_end = os.pipe()
    os.close(read_end)  # as `| head` does once it has its lines
    with open(write_end, "w") as pipe:
        monkeypatch.setattr(op_times.sys, "stdout", pipe)
        assert op_times.main(["torus"]) == 0


def test_op_times_prints_milliseconds():
    best = {"riesz_term9": {1: 0.0123, 2: 0.00615}, "probe_riesz": {1: 0.5, 2: 0.5}}
    lines = op_times.table(best).splitlines()
    assert lines[1].split() == ["riesz_term9", "12.30", "ms", "6.15", "ms", "0.50"]
    assert lines[3].split() == ["total", "512.30", "ms", "506.15", "ms", "0.99"]
