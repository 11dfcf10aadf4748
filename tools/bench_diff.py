#!/usr/bin/env python3
"""Checks a bench JSON report against its committed snapshot.

Usage:
  bench_diff.py FRESH SNAPSHOT
  bench_diff.py --run SNAPSHOT -- BENCH [ARG...]

The second form runs BENCH ARG... --json=<temporary file> first and checks
that report. Both reports must have equal headers (every top-level field
but "rows") and the same (dataset, impl) rows, and every row field whose
name does not end in "_wall_seconds" must be equal. Simulated seconds and
counters are deterministic, so any difference is a behaviour change: a
change meant to move one refreshes the snapshot in the same commit. Host
wall time is never compared.

Exits 0 when the reports match, 1 naming every mismatching header field,
row and field (or when BENCH fails), and 2 on a usage error.
"""

import json
import os
import subprocess
import sys
import tempfile

WALL_SUFFIX = "_wall_seconds"


def show(value):
    """Formats a field value; floats also in hex so every bit shows."""
    if isinstance(value, float):
        return f"{value!r} ({value.hex()})"
    return repr(value)


def load(path, problems):
    with open(path) as f:
        report = json.load(f)
    header = {k: v for k, v in report.items() if k != "rows"}
    rows = {}
    for row in report.get("rows", []):
        key = (row.get("dataset"), row.get("impl"))
        if key in rows:
            problems.append(f"{path}: duplicate row {key[0]} / {key[1]}")
        rows[key] = row
    return header, rows


def diff(fresh_path, snapshot_path):
    """Returns the list of mismatches between the two reports."""
    problems = []
    fresh_header, fresh = load(fresh_path, problems)
    snap_header, snap = load(snapshot_path, problems)
    for field in sorted(set(fresh_header) | set(snap_header)):
        if fresh_header.get(field) != snap_header.get(field):
            problems.append(
                f"header field {field}: snapshot "
                f"{show(snap_header.get(field))}, fresh "
                f"{show(fresh_header.get(field))}")
    for key in sorted(set(snap) - set(fresh), key=str):
        problems.append(f"row {key[0]} / {key[1]}: missing from the fresh report")
    for key in sorted(set(fresh) - set(snap), key=str):
        problems.append(f"row {key[0]} / {key[1]}: not in the snapshot")
    for key in sorted(set(snap) & set(fresh), key=str):
        want, got = snap[key], fresh[key]
        for field in sorted(set(want) | set(got)):
            if field.endswith(WALL_SUFFIX):
                continue
            if want.get(field) != got.get(field):
                problems.append(
                    f"row {key[0]} / {key[1]}: field {field}: snapshot "
                    f"{show(want.get(field))}, fresh {show(got.get(field))}")
    return problems, len(snap)


def run_bench(command, json_path):
    result = subprocess.run(command + [f"--json={json_path}"])
    return result.returncode


def main(argv):
    if len(argv) >= 4 and argv[1] == "--run" and argv[3] == "--":
        snapshot_path, command = argv[2], argv[4:]
        if not command:
            print(__doc__, file=sys.stderr)
            return 2
        with tempfile.TemporaryDirectory() as tmp:
            fresh_path = os.path.join(tmp, "fresh.json")
            rc = run_bench(command, fresh_path)
            if rc != 0:
                print(f"bench_diff: {' '.join(command)} exited {rc}",
                      file=sys.stderr)
                return 1
            problems, rows = diff(fresh_path, snapshot_path)
            label = " ".join(command)
    elif len(argv) == 3 and not argv[1].startswith("-"):
        problems, rows = diff(argv[1], argv[2])
        snapshot_path, label = argv[2], argv[1]
    else:
        print(__doc__, file=sys.stderr)
        return 2
    if problems:
        for problem in problems:
            print(f"bench_diff: {problem}", file=sys.stderr)
        print(f"bench_diff: {label} does not match {snapshot_path}",
              file=sys.stderr)
        return 1
    print(f"bench_diff: {label} matches {snapshot_path}: {rows} rows equal "
          f"outside wall time")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
