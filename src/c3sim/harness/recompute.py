"""Rebuild a run report from its CSV logs, independently of the runner.

Usage: python -m c3sim.harness.recompute <out-dir>

Prints the report as canonical JSON, or exits 2 with `error: …` when a log
table is missing or malformed. A freshly written run directory must
recompute to the very bytes of its report file; `c3sim --check --out`
checks that after every run (see difference), and so do the tests.
"""
from __future__ import annotations

import argparse
import sys
from itertools import zip_longest
from pathlib import Path

from .io import read_logs, report_csv, report_json
from .metrics import compute_report


def recompute(out_dir: Path) -> dict:
    return compute_report(read_logs(Path(out_dir)))


def difference(out_dir: Path, report_format: str = "json") -> str | None:
    """None if out_dir's logs recompute to the very bytes of its
    report.<report_format>; else what differs: the report key on the first
    line that differs, the file's name for a line that holds no key, or
    why the logs could not be read. The report is flat, so each format
    puts one key per line, in sorted order, after one opening line."""
    out_dir = Path(out_dir)
    path = out_dir / f"report.{report_format}"
    try:
        report = recompute(out_dir)
    except ValueError as exc:
        return str(exc)
    serialize = report_csv if report_format == "csv" else report_json
    want = serialize(report).splitlines(keepends=True)
    got = path.read_text().splitlines(keepends=True)
    if got == want:
        return None
    line = next(i for i, (a, b) in enumerate(zip_longest(want, got)) if a != b)
    keys = sorted(report)
    return keys[line - 1] if 0 < line <= len(keys) else path.name


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="recompute a run report from its log directory")
    parser.add_argument("out_dir", type=Path)
    args = parser.parse_args(argv)
    try:
        report = recompute(args.out_dir)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    sys.stdout.write(report_json(report))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
