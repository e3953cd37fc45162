"""Benchmark workloads and the scale generator that builds their scenarios.

Every workload is a shipped ``scenarios/*.ini`` scaled by an integer k:
each population class ``count`` and the workload's ``rate`` and
``session_rate`` are multiplied by k, everything else stays as shipped.
A workload may also switch the mode (the vendor baseline). The program
only ever sees the generated scenario text and a seed.
"""
from __future__ import annotations

import configparser
import io
from dataclasses import dataclass
from pathlib import Path

SCALED_RATES = ("rate", "session_rate")


@dataclass(frozen=True)
class Workload:
    name: str
    scenario: str        # shipped file under scenarios/
    scale: int
    mode: str | None     # None keeps the shipped mode


# wiki-x4 runs every layer and reuses routes between topology changes;
# video-x20 churns hard, so routes are rarely reused and the repository
# sweep is large; vendor-wiki-x4 is the same demand on the paper's vendor
# baseline, which bypasses every layer except the overlay and the engine.
WORKLOADS = {w.name: w for w in (
    Workload("wiki-x4", "wiki_small.ini", 4, None),
    Workload("video-x20", "video_small.ini", 20, None),
    Workload("vendor-wiki-x4", "wiki_small.ini", 4, "vendor"),
)}


def scaled_text(shipped: str, k: int, mode: str | None = None) -> str:
    """Scenario text of ``shipped`` with populations and rates scaled by k."""
    parser = configparser.ConfigParser(interpolation=None)
    parser.read_string(shipped)
    population = parser["population"]
    for name in (c.strip() for c in population["classes"].split(",")):
        if name:
            key = f"{name}.count"
            population[key] = str(int(population[key]) * k)
    workload = parser["workload"]
    for key in SCALED_RATES:
        if key in workload:
            workload[key] = repr(float(workload[key]) * k)
    if mode is not None:
        parser["simulation"]["mode"] = mode
    out = io.StringIO()
    parser.write(out)
    return out.getvalue()


def generate(workload: Workload, scenarios_dir: Path) -> tuple[str, int]:
    """(scaled scenario text, shipped seed) for one workload."""
    shipped = (Path(scenarios_dir) / workload.scenario).read_text()
    parser = configparser.ConfigParser(interpolation=None)
    parser.read_string(shipped)
    return (scaled_text(shipped, workload.scale, workload.mode),
            int(parser["simulation"]["seed"]))
