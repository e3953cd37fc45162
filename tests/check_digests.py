"""The pinned log digests, checked without pytest.

    python3 tests/check_digests.py
    python3 tests/check_digests.py SCENARIO K MODE SEED

Reads the pinned digests from tests/test_golden.py by parsing it, so it
needs neither pytest nor the test modules' imports. It runs each pinned
scenario, prints one line per run and a summary, and exits 1 if any
digest differs or any run fails an audit, else 0. Any CPython 3.10 or
later can run it, which shows whether a change that touches float
arithmetic gives the same logs on every interpreter. test_golden.py
builds its runs with the helpers here.

With arguments it makes one run, `scaled(SCENARIO, K, MODE, SEED)`, at a
scale and seed no pin need cover, and prints its full-log digest and its
audit violations; it exits 1 on a violation, else 0. Running it on two
trees compares their logs at that scale, e.g. `wiki_small 4 community 42`.
"""
from __future__ import annotations

import ast
import configparser
import hashlib
import io
import sys
from functools import partial
from pathlib import Path

TESTS = Path(__file__).resolve().parent
SCENARIO_DIR = TESTS.parent / "scenarios"
if __name__ == "__main__":  # run as a script: import the package from src/
    sys.path.insert(0, str(TESTS.parent / "src"))

from c3sim.harness.audits import run_audits
from c3sim.harness.config import (parse_scenario, parse_scenario_text,
                                  with_overrides)
from c3sim.harness.runner import run_scenario

PIN_TABLES = ("GOLDEN", "VENDOR_GOLDEN", "SCALED_GOLDEN")


def shipped(scenario: str, seed: int, mode: str):
    return with_overrides(parse_scenario(SCENARIO_DIR / f"{scenario}.ini"),
                          seed=seed, mode=mode)


def scaled_text(scenario: str, k: int) -> str:
    """Scenario text with every class count and the workload rates x k."""
    parser = configparser.ConfigParser(interpolation=None)
    parser.read(SCENARIO_DIR / f"{scenario}.ini")
    population = parser["population"]
    for name in (c.strip() for c in population["classes"].split(",")):
        if name:
            population[f"{name}.count"] = str(int(population[f"{name}.count"]) * k)
    for key in ("rate", "session_rate"):
        if key in parser["workload"]:
            parser["workload"][key] = repr(float(parser["workload"][key]) * k)
    out = io.StringIO()
    parser.write(out)
    return out.getvalue()


def scaled(scenario: str, k: int, mode: str, seed: int):
    return with_overrides(parse_scenario_text(scaled_text(scenario, k)),
                          seed=seed, mode=mode)


def digest_and_audits(config):
    """The SHA-256 of the run's canonical log tables, and its audit
    violations."""
    runner = run_scenario(config)
    digest = hashlib.sha256(
        repr(sorted(runner.logs.items())).encode()).hexdigest()
    return digest, run_audits(runner.logs)


def pinned_runs(source: str):
    """(label, config builder, pinned digest) for every pin in the
    test_golden.py source."""
    tables = {}
    for node in ast.parse(source).body:
        if (isinstance(node, ast.Assign) and len(node.targets) == 1
                and isinstance(node.targets[0], ast.Name)
                and node.targets[0].id in PIN_TABLES):
            tables[node.targets[0].id] = ast.literal_eval(node.value)
    missing = [name for name in PIN_TABLES if name not in tables]
    if missing:
        raise ValueError(f"test_golden.py has no {', '.join(missing)}")
    for mode, table in (("community", tables["GOLDEN"]),
                        ("vendor", tables["VENDOR_GOLDEN"])):
        for (scenario, seed), digest in sorted(table.items()):
            yield (f"{scenario} {mode} seed {seed}",
                   partial(shipped, scenario, seed, mode), digest)
    for (scenario, k, mode, seed), digest in sorted(
            tables["SCALED_GOLDEN"].items()):
        yield (f"{scenario} x{k} {mode} seed {seed}",
               partial(scaled, scenario, k, mode, seed), digest)


def one_run(scenario: str, k: str, mode: str, seed: str) -> int:
    """Print the digest and audit violations of one scaled run."""
    digest, violations = digest_and_audits(scaled(scenario, int(k), mode,
                                                  int(seed)))
    print(f"{scenario} x{k} {mode} seed {seed}: {digest}")
    for violation in violations:
        print(f"     audit: {violation}")
    return 1 if violations else 0


def main(argv: list[str]) -> int:
    if argv:
        if len(argv) != 4:
            print("usage: check_digests.py [SCENARIO K MODE SEED]",
                  file=sys.stderr)
            return 2
        return one_run(*argv)
    runs = list(pinned_runs((TESTS / "test_golden.py").read_text()))
    bad = 0
    for label, build, pinned in runs:
        digest, violations = digest_and_audits(build())
        faults = ([] if digest == pinned else [f"digest {digest}"]) + [
            f"audit: {v}" for v in violations]
        bad += bool(faults)
        print(("FAIL " if faults else "ok   ") + label)
        for fault in faults:
            print("     " + fault)
    print(f"Python {sys.version.split()[0]}: {len(runs) - bad} of "
          f"{len(runs)} pinned runs match and pass every audit")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
