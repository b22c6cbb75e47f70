"""Compare two directories of benchmark reports and list what drifted.

    python3 tools/report_drift.py OLD_DIR NEW_DIR

OLD_DIR and NEW_DIR are outputs of tools/bench_reports.py, one file
<workload>-<seed>-<op>.txt per operation.  Reports whose texts differ but
whose exit codes, parsed stdout and stderr agree differ in layout only; one
line counts them.  For every other report that differs this prints its exit
codes, the JSON keys found on one side only, every value whose JSON type
differs between the sides (a number that became an array or an object,
say) as "type PATH: old type -> new type", and every other
changed leaf as old -> new, with the relative change |new - old| / |old| of
a numeric leaf.  It then prints, per op over workloads and seeds, the
largest relative change and the count of type changes with the first of
them.  The exit code is 1 when a report, an exit code, a key set or a
JSON type differs between the sides, and 0 otherwise.
"""

from __future__ import annotations

import json
import math
import os
import sys


def parse_report(text: str):
    """(exit code, stdout JSON or text, stderr) of one bench_reports.py file."""
    head, _, rest = text.partition("\n--- stdout\n")
    stdout, _, stderr = rest.partition("--- stderr\n")
    try:
        body = json.loads(stdout) if stdout.strip() else None
    except ValueError:
        body = stdout
    return head.removeprefix("exit: "), body, stderr


def _is_number(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def json_type(x) -> str:
    """The JSON type name of a parsed value."""
    if x is None:
        return "null"
    if isinstance(x, bool):
        return "boolean"
    if _is_number(x):
        return "number"
    if isinstance(x, str):
        return "string"
    return "array" if isinstance(x, list) else "object"


def relative_change(old, new) -> float:
    if old == new:
        return 0.0
    return abs(new - old) / abs(old) if old != 0 else math.inf


MISSING = object()


def walk(old, new, path=""):
    """Yield (path, old, new) for every leaf that differs between two JSON values.

    A key or list index on one side only yields MISSING on the other side;
    so does nothing else, and a container is yielded whole only where it
    stands against a value of another kind.
    """
    if isinstance(old, dict) and isinstance(new, dict):
        for key in sorted(old.keys() | new.keys()):
            sub = f"{path}.{key}" if path else key
            yield from walk(old.get(key, MISSING), new.get(key, MISSING), sub)
    elif isinstance(old, list) and isinstance(new, list):
        for i in range(max(len(old), len(new))):
            yield from walk(old[i] if i < len(old) else MISSING,
                            new[i] if i < len(new) else MISSING, f"{path}[{i}]")
    elif old != new or type(old) is not type(new):
        yield path or "stdout", old, new


def compare(old_dir: str, new_dir: str) -> int:
    old_names, new_names = set(os.listdir(old_dir)), set(os.listdir(new_dir))
    status = 0
    largest = {}  # op -> (relative change, report, path)
    retyped = {}  # op -> [type changes, first report, first path]
    layout_only = 0  # reports whose text differs but not their exit code, JSON or stderr
    for name in sorted(old_names | new_names):
        report = name.removesuffix(".txt")
        if name not in old_names or name not in new_names:
            side = "new" if name in new_names else "old"
            print(f"{report}: only in {side}")
            status = 1
            continue
        with open(os.path.join(old_dir, name)) as fh:
            old_text = fh.read()
        with open(os.path.join(new_dir, name)) as fh:
            new_text = fh.read()
        if old_text == new_text:
            continue
        old_code, old_body, old_err = parse_report(old_text)
        new_code, new_body, new_err = parse_report(new_text)
        changes = list(walk(old_body, new_body))
        if (old_code, old_err) == (new_code, new_err) and not changes:
            layout_only += 1
            continue
        print(f"{report}: exit {old_code} -> {new_code}")
        if old_code != new_code:
            status = 1
        op = report.split("-", 2)[-1]
        for path, old, new in changes:
            if old is MISSING or new is MISSING:
                print(f"  key {path}: only in {'old' if new is MISSING else 'new'}")
                status = 1
            elif json_type(old) != json_type(new):
                print(f"  type {path}: {json_type(old)} -> {json_type(new)}")
                status = 1
                retyped.setdefault(op, [0, report, path])[0] += 1
            elif _is_number(old) and _is_number(new):
                rel = relative_change(old, new)
                print(f"  {path}: {old!r} -> {new!r} (rel {rel:.2g})")
                if rel > largest.get(op, (-1.0,))[0]:
                    largest[op] = (rel, report, path)
            else:
                print(f"  {path}: {old!r} -> {new!r}")
        if old_err != new_err:
            print(f"  stderr: {old_err!r} -> {new_err!r}")
    if layout_only:
        print(f"{layout_only} reports differ in layout only")
    if largest:
        print("largest relative change per op:")
        for op, (rel, report, path) in sorted(largest.items()):
            print(f"  {op}: {rel:.2g} ({report} {path})")
    if retyped:
        print("type changes per op:")
        for op, (count, report, path) in sorted(retyped.items()):
            print(f"  {op}: {count} (first: {report} {path})")
    return status


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 2:
        print("usage: report_drift.py OLD_DIR NEW_DIR", file=sys.stderr)
        return 2
    return compare(*args)


if __name__ == "__main__":
    sys.exit(main())
