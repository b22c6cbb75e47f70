"""tools/report_drift.py on two small hand-written report directories."""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

_spec = importlib.util.spec_from_file_location("report_drift", ROOT / "tools" / "report_drift.py")
report_drift = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(report_drift)


def _report(code, stdout, stderr=""):
    return f"exit: {code}\n--- stdout\n{stdout}--- stderr\n{stderr}"


def _write(directory, reports):
    directory.mkdir()
    for name, text in reports.items():
        (directory / f"{name}.txt").write_text(text)


def test_report_drift_lists_changed_leaves_keys_and_exit_codes(tmp_path, capsys):
    # bench_reports.py strips the last key, wall_time_s, and leaves its comma behind
    same = _report(0, '{\n  "value": 1.0,\n\n}\n')
    old = {
        "torus-1-same": same,
        "torus-1-term": _report(0, '{\n  "a": [2.0, 3.0],\n  "tag": "Quadrature",\n\n}\n'),
        "torus-7-term": _report(0, '{\n  "a": [2.0, 4.0],\n\n}\n'),
    }
    new = {
        "torus-1-same": same,
        "torus-1-term": _report(0, '{\n  "a": [2.0, 3.0000000000000004],\n  "tag": "ClosedForm",\n\n}\n'),
        "torus-7-term": _report(0, '{\n  "a": [2.0, 4.4],\n\n}\n'),
    }
    _write(tmp_path / "old", old)
    _write(tmp_path / "new", new)
    assert report_drift.main([str(tmp_path / "old"), str(tmp_path / "new")]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines == [
        "torus-1-term: exit 0 -> 0",
        "  a[1]: 3.0 -> 3.0000000000000004 (rel 1.5e-16)",
        "  tag: 'Quadrature' -> 'ClosedForm'",
        "torus-7-term: exit 0 -> 0",
        "  a[1]: 4.0 -> 4.4 (rel 0.1)",
        "largest relative change per op:",
        "  term: 0.1 (torus-7-term a[1])",
    ]

    # an exit code, a key set or a missing report makes the exit code 1
    (tmp_path / "new" / "torus-7-term.txt").write_text(_report(2, "", "usage error: x\n"))
    (tmp_path / "new" / "torus-1-term.txt").write_text(_report(0, '{\n  "a": [2.0],\n  "b": 1\n}\n'))
    (tmp_path / "new" / "torus-1-same.txt").unlink()
    assert report_drift.main([str(tmp_path / "old"), str(tmp_path / "new")]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines == [
        "torus-1-same: only in old",
        "torus-1-term: exit 0 -> 0",
        "  key a[1]: only in old",
        "  key b: only in new",
        "  key tag: only in old",
        "torus-7-term: exit 0 -> 2",
        "  key stdout: dict -> NoneType",
        "  stderr: '' -> 'usage error: x\\n'",
    ]
