"""The scale generator changes only population counts and arrival rates."""
from __future__ import annotations

from dataclasses import fields, replace
from pathlib import Path

import pytest

from c3sim.harness import parse_scenario_text

from c3bench.scenario import WORKLOADS, generate, scaled_text

ROOT = Path(__file__).resolve().parents[2]
SCENARIOS = ROOT / "scenarios"


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_only_counts_rates_and_mode_change(name):
    w = WORKLOADS[name]
    base = parse_scenario_text((SCENARIOS / w.scenario).read_text())
    text, seed = generate(w, SCENARIOS)
    scaled = parse_scenario_text(text)
    assert seed == base.seed

    rate = "rate" if base.workload.kind == "wiki" else "session_rate"
    assert getattr(scaled.workload, rate) == getattr(base.workload, rate) * w.scale
    assert [c.count for c in scaled.population] == \
        [c.count * w.scale for c in base.population]
    assert scaled.mode == (w.mode or base.mode)

    unscaled = replace(
        scaled, mode=base.mode,
        population=tuple(replace(c, count=b.count)
                         for c, b in zip(scaled.population, base.population)),
        workload=replace(scaled.workload,
                         **{rate: getattr(base.workload, rate)}))
    for f in fields(base):
        assert getattr(unscaled, f.name) == getattr(base, f.name), f.name


@pytest.mark.parametrize("scenario", ["wiki_small.ini", "video_small.ini",
                                      "mixed_churn.ini"])
def test_scale_one_parses_to_the_shipped_config(scenario):
    text = (SCENARIOS / scenario).read_text()
    assert parse_scenario_text(scaled_text(text, 1)) == parse_scenario_text(text)


def test_workload_sizes():
    sizes = {}
    for name, w in WORKLOADS.items():
        config = parse_scenario_text(generate(w, SCENARIOS)[0])
        sizes[name] = (sum(c.count for c in config.population), config.mode)
    assert sizes == {"wiki-x4": (200, "community"),
                     "video-x20": (600, "community"),
                     "vendor-wiki-x4": (200, "vendor")}
