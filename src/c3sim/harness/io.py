"""Reading and writing run outputs.

report.json uses canonical key order so identical runs serialize to
identical bytes. Log CSVs carry the COLUMNS schemas; reading them back
re-applies the per-column converters, which keeps report recomputation
exact.
"""
from __future__ import annotations

import csv
import json
from pathlib import Path

from .metrics import COLUMNS, Logs


def report_json(report: dict) -> str:
    return json.dumps(report, sort_keys=True, indent=2) + "\n"


def report_csv(report: dict) -> str:
    lines = ["metric,value"]
    for key in sorted(report):
        lines.append(f"{key},{report[key]}")
    return "\n".join(lines) + "\n"


def write_outputs(logs: Logs, report: dict, out_dir: Path,
                  report_format: str = "json") -> None:
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    if report_format == "csv":
        (out_dir / "report.csv").write_text(report_csv(report))
    else:
        (out_dir / "report.json").write_text(report_json(report))
    for name in COLUMNS:
        with open(out_dir / f"{name}.csv", "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow([column for column, _ in COLUMNS[name]])
            writer.writerows(logs.get(name, ()))


def read_logs(out_dir: Path) -> Logs:
    """Every COLUMNS table of out_dir, each row converted per its schema. A
    missing table raises FileNotFoundError; a header other than the
    schema's columns, a row with the wrong number of cells or a cell its
    converter refuses raises ValueError naming the file and line."""
    out_dir = Path(out_dir)
    logs: Logs = {}
    for name, schema in COLUMNS.items():
        path = out_dir / f"{name}.csv"
        columns = [column for column, _ in schema]
        converters = [conv for _, conv in schema]
        width = len(columns)
        rows = logs[name] = []
        with open(path, newline="") as fh:
            reader = csv.reader(fh)
            if next(reader, None) != columns:
                raise ValueError(
                    f"{path}:1: header is not {','.join(columns)}")
            for row in reader:
                if len(row) != width:
                    raise ValueError(f"{path}:{reader.line_num}: {len(row)} "
                                     f"cells, not {width}")
                try:
                    rows.append(tuple(conv(cell) for conv, cell
                                      in zip(converters, row)))
                except ValueError as exc:
                    raise ValueError(
                        f"{path}:{reader.line_num}: {exc}") from None
    return logs
