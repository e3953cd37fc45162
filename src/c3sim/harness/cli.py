"""Command-line entry point.

    c3sim --scenario wiki.ini --seed 7 --out runs/wiki7 --check

Exit codes: 0 on success, 2 on a configuration problem (bad scenario file,
unknown failure target, bad flag combination, an --out that is no directory
or cannot be written), 3 when --check finds an invariant violation in the
run's logs or, with --out, a written report that its written logs do not
recompute to.
"""
from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .audits import run_audits
from .config import ConfigError, parse_scenario, with_overrides
from .io import report_csv, report_json, write_outputs
from .recompute import difference
from .runner import run_scenario

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_VIOLATION = 3


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="c3sim",
        description="deterministic community-cloud simulator")
    parser.add_argument("--scenario", required=True, type=Path,
                        help="scenario file (INI schema, see scenarios/)")
    parser.add_argument("--seed", type=int, default=None,
                        help="override the scenario seed")
    parser.add_argument("--until", type=int, default=None,
                        help="override the horizon (ticks)")
    parser.add_argument("--out", type=Path, default=None,
                        help="directory for report + CSV logs")
    parser.add_argument("--format", choices=("json", "csv"), default="json",
                        help="report serialization (logs are always CSV)")
    parser.add_argument("--mode", choices=("community", "vendor"),
                        default=None, help="override the scenario mode")
    parser.add_argument("--check", action="store_true",
                        help="run invariant audits after the run; with "
                             "--out, also recompute the report from the "
                             "written logs and compare it byte for byte "
                             "with the written report (without --out, "
                             "the audits only)")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.out is not None and args.out.exists() and not args.out.is_dir():
        print(f"error: --out: {args.out} is not a directory", file=sys.stderr)
        return EXIT_CONFIG
    try:
        config = parse_scenario(args.scenario)
        config = with_overrides(config, seed=args.seed, horizon=args.until,
                                mode=args.mode)
        runner = run_scenario(config)
    except (ConfigError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    if args.out is not None:
        try:
            write_outputs(runner.logs, runner.report, args.out, args.format)
        except OSError as exc:
            print(f"error: --out: {exc}", file=sys.stderr)
            return EXIT_CONFIG
    else:
        serialize = report_csv if args.format == "csv" else report_json
        sys.stdout.write(serialize(runner.report))
    if args.check:
        violations = run_audits(runner.logs)
        if args.out is not None:
            differs = difference(args.out, args.format)
            if differs is not None:
                violations.append(f"recompute: {differs}")
        if violations:
            for line in violations:
                print(f"violation: {line}", file=sys.stderr)
            return EXIT_VIOLATION
    return EXIT_OK


if __name__ == "__main__":
    raise SystemExit(main())
