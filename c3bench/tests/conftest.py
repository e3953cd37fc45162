"""Benchmark tests: ``python3 -m pytest c3bench/tests`` from the repo root.

A short community run and a short vendor run of wiki_small are made once
per session; tests plant faults in copies of their outputs.
"""
from __future__ import annotations

import sys
from dataclasses import replace
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from c3sim.harness import (parse_scenario_text, run_scenario,  # noqa: E402
                           write_outputs)

HORIZON = 20_000


def _finished(tmp_path_factory, mode):
    text = (ROOT / "scenarios" / "wiki_small.ini").read_text()
    config = replace(parse_scenario_text(text), horizon=HORIZON, mode=mode)
    runner = run_scenario(config)
    out = tmp_path_factory.mktemp(mode)
    write_outputs(runner.logs, runner.report, out)
    return runner, out


@pytest.fixture(scope="session")
def community_run(tmp_path_factory):
    return _finished(tmp_path_factory, "community")


@pytest.fixture(scope="session")
def vendor_run(tmp_path_factory):
    return _finished(tmp_path_factory, "vendor")
