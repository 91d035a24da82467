"""Compare two hardycalc JSON report files field by field.

Usage: python tools/report_diff.py OLD.json NEW.json

Both files are artifacts of `hardycalc run --json`.  Prints one line per
report field whose value differs, `runtime_ms` ignored: the report name, the
field's path, the old and new values and, for numbers, the relative change.
Exits 1 when the report names, a verdict (`pass`) or a witness differ, and 0
otherwise, so that a refactor that only moves numbers at the rounding level
passes and one that changes a verdict does not.  A file that cannot be read,
is not JSON or holds no `reports` list exits 2 with one `report_diff:` line
on stderr.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

IGNORED = {"runtime_ms"}
DECISIVE = {"pass", "witness"}


def _fields(value, path):
    """(path, leaf) pairs of a nested JSON value."""
    if isinstance(value, dict):
        for key in sorted(value):
            yield from _fields(value[key], f"{path}.{key}" if path else key)
    elif isinstance(value, list):
        for i, item in enumerate(value):
            yield from _fields(item, f"{path}[{i}]")
    else:
        yield path, value


def _same(old, new):
    return old == new or (isinstance(old, float) and isinstance(new, float)
                          and math.isnan(old) and math.isnan(new))


def _change(old, new):
    """The relative change of two numbers as text, or '' for other values."""
    numbers = [isinstance(v, (int, float)) and not isinstance(v, bool)
               for v in (old, new)]
    if not all(numbers):
        return ""
    if old == 0:
        return "  rel inf"
    return f"  rel {(new - old) / abs(old):+.3g}"


def diff_reports(old_doc, new_doc):
    """The difference lines and whether a name, verdict or witness moved."""
    old = {r["name"]: r for r in old_doc["reports"]}
    new = {r["name"]: r for r in new_doc["reports"]}
    lines = []
    decisive = list(old) != list(new)
    for name in sorted(set(old) ^ set(new)):
        side = "old" if name in old else "new"
        lines.append(f"{name}: only in {side}")
    for name in sorted(set(old) & set(new)):
        a = {p: v for p, v in _fields(old[name], "")
             if p.split(".")[0] not in IGNORED}
        b = {p: v for p, v in _fields(new[name], "")
             if p.split(".")[0] not in IGNORED}
        for path in sorted(set(a) | set(b)):
            va, vb = a.get(path, "<absent>"), b.get(path, "<absent>")
            if not _same(va, vb):
                decisive = decisive or path in DECISIVE
                lines.append(f"{name} {path}: {va!r} -> {vb!r}"
                             f"{_change(va, vb)}")
    return lines, decisive


def _load(path):
    """The JSON report file at path; ValueError if it cannot be read or has
    no `reports` list."""
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except (OSError, ValueError) as exc:
        raise ValueError(f"cannot read {path}: {exc}") from exc
    if not isinstance(doc, dict) or not isinstance(doc.get("reports"), list):
        raise ValueError(f"{path} has no 'reports' list")
    return doc


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("old")
    parser.add_argument("new")
    args = parser.parse_args(argv)
    try:
        docs = [_load(path) for path in (args.old, args.new)]
    except ValueError as exc:
        print(f"report_diff: {exc}", file=sys.stderr)
        return 2
    lines, decisive = diff_reports(*docs)
    for line in lines:
        print(line)
    return 1 if decisive else 0


if __name__ == "__main__":
    sys.exit(main())
