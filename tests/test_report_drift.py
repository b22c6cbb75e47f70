"""tools/report_drift.py on two small hand-written report directories, and the
strict JSON that tools/bench_reports.py stores."""

import importlib.util
import json
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _load(name):
    spec = importlib.util.spec_from_file_location(name, ROOT / "tools" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


report_drift = _load("report_drift")
bench_reports = _load("bench_reports")


def _report(code, stdout, stderr=""):
    return f"exit: {code}\n--- stdout\n{stdout}--- stderr\n{stderr}"


def _write(directory, reports):
    directory.mkdir()
    for name, text in reports.items():
        (directory / f"{name}.txt").write_text(text)


def test_report_drift_lists_changed_leaves_keys_and_exit_codes(tmp_path, capsys):
    same = _report(0, '{\n  "value": 1.0\n}\n')
    old = {
        "torus-1-same": same,
        "torus-1-term": _report(0, '{\n  "a": [2.0, 3.0],\n  "tag": "Quadrature"\n}\n'),
        "torus-7-term": _report(0, '{\n  "a": [2.0, 4.0]\n}\n'),
    }
    new = {
        "torus-1-same": same,
        "torus-1-term": _report(0, '{\n  "a": [2.0, 3.0000000000000004],\n  "tag": "ClosedForm"\n}\n'),
        "torus-7-term": _report(0, '{\n  "a": [2.0, 4.4]\n}\n'),
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
        "  type stdout: object -> null",
        "  stderr: '' -> 'usage error: x\\n'",
        "type changes per op:",
        "  term: 1 (first: torus-7-term stdout)",
    ]


def test_report_drift_lists_and_counts_every_type_change(tmp_path, capsys):
    # a ratio that became a [lower, upper] pair, an estimate that became an
    # enclosure's number, a number that became null or text: each is listed,
    # counted per op over seeds, and makes the exit code 1
    old = {
        "mc_paths-1-verify": _report(0, json.dumps(
            {"ratio": 1.5, "rows": [{"middle": {"mean": 2.0}, "lo": 1.0, "tag": 3}]})),
        "mc_paths-7-verify": _report(0, json.dumps({"ratio": 1.25, "rows": []})),
        "mc_paths-1-bracket": _report(0, json.dumps({"edge": 1.0, "n": 1})),
    }
    new = {
        "mc_paths-1-verify": _report(0, json.dumps(
            {"ratio": [1.0, 2.0], "rows": [{"middle": 2.0, "lo": None, "tag": "3"}]})),
        "mc_paths-7-verify": _report(0, json.dumps({"ratio": {"lower": 1.0}, "rows": []})),
        "mc_paths-1-bracket": _report(0, json.dumps({"edge": 1.1, "n": 1.0})),
    }
    _write(tmp_path / "old", old)
    _write(tmp_path / "new", new)
    assert report_drift.main([str(tmp_path / "old"), str(tmp_path / "new")]) == 1
    assert capsys.readouterr().out.splitlines() == [
        "mc_paths-1-bracket: exit 0 -> 0",
        "  edge: 1.0 -> 1.1 (rel 0.1)",
        "  n: 1 -> 1.0 (rel 0)",
        "mc_paths-1-verify: exit 0 -> 0",
        "  type ratio: number -> array",
        "  type rows[0].lo: number -> null",
        "  type rows[0].middle: object -> number",
        "  type rows[0].tag: number -> string",
        "mc_paths-7-verify: exit 0 -> 0",
        "  type ratio: number -> object",
        "largest relative change per op:",
        "  bracket: 0.1 (mc_paths-1-bracket edge)",
        "type changes per op:",
        "  verify: 5 (first: mc_paths-1-verify ratio)",
    ]
    assert [report_drift.json_type(x) for x in (None, True, 0, 0.5, "", [], {})] == [
        "null", "boolean", "number", "number", "string", "array", "object"]


def test_bench_reports_stores_strict_json_without_wall_time():
    from momsand.cli import main

    text = bench_reports.run_op(main, ["moments", "--dist", "riesz", "--q", "1,2"])
    code, body, err = report_drift.parse_report(text)
    assert (code, err) == ("0", "")
    assert isinstance(body, dict) and "wall_time_s" not in body
    assert body["results"]["table"][1]["value"] == 1.5
    # written back as the CLI writes it
    assert f"--- stdout\n{json.dumps(body, indent=2, sort_keys=True)}\n--- stderr\n" in text


def test_bench_reports_keeps_the_cli_bytes_but_the_top_level_wall_time():
    lines = ['{', '  "b": [1.50, 2],', '  "c": {', '    "wall_time_s": 3', '  },',
             '  "wall_time_s": 0.25,', '  "z": "x"', '}']

    def fake_main(argv):
        print("\n".join(lines))
        return 1

    text = bench_reports.run_op(fake_main, [])
    kept = lines[:4] + ['  },', '  "z": "x"', '}']
    assert text == "exit: 1\n--- stdout\n" + "\n".join(kept) + "\n--- stderr\n"
