"""Behaviour oracle: pinned log digests of the shipped scenarios.

Each shipped scenario runs at seeds 1-5, once as shipped (community mode)
and once on the vendor baseline; wiki_small also runs scaled x4. The
SHA-256 of its canonical log tables must match the pinned value, and the
run must pass every audit. A change that alters any log row changes a
digest; such a change must say why, and re-pin only the runs it moves.
"""
from __future__ import annotations

import configparser
import hashlib
import io
from pathlib import Path

import pytest

from c3sim.harness.audits import run_audits
from c3sim.harness.config import (parse_scenario, parse_scenario_text,
                                  with_overrides)
from c3sim.harness.runner import run_scenario

SCENARIO_DIR = Path(__file__).resolve().parent.parent / "scenarios"

GOLDEN = {
    ("mixed_churn", 1): "5600d7e5cb3934b8ba818cf7b5e842c02502b764993e0044351d79f1acabee95",
    ("mixed_churn", 2): "1b086aec562eca58c208dd4250df413c11c94c593aa561f1bb55e945c256ab8e",
    ("mixed_churn", 3): "7c78856309a8c737acf6e6b346198ffc23637613fed706332fa6fced79c3df72",
    ("mixed_churn", 4): "55bc49e333afa86b89baa583bd14cc7489929994406999eca957e50f7f6bcced",
    ("mixed_churn", 5): "3a0ee9fde665c10552dd57c7446106befdf6232b64e43647d31a66f9074e90f7",
    ("video_small", 1): "2d69e275d96600873c13f3f3a3db3e4cde21dc86c1f6f515960126351d7e6ff8",
    ("video_small", 2): "f2bd696bd1c5752b3b5893def55f4d29328f0a68b04fdd59133ebd9f8b16fcf9",
    ("video_small", 3): "deee3004cea6adb03b11f19bb22799fdbff679e6fd80a23afd5f339f9890e6f8",
    ("video_small", 4): "208c8e0c1e1b23a0350fe160a63859676fd921eaa1fae42b7681d60e27cad7f3",
    ("video_small", 5): "f51bade1ae9a38280b3f22c3fe27218a8e49467ec029221992341ef94ad3407a",
    ("wiki_small", 1): "a179127683566cfe3910a6ebfa6f7020da09cfb593314d512d299dcaa87ae760",
    ("wiki_small", 2): "524b91e8321e89ca2b9fb01e6b5cd901fb4b7b55ca3d7955472e099b7dbda46d",
    ("wiki_small", 3): "4f180cf4caec2e122defb3a08e53f3726d3cd3b8dabb3e6ec869b45c23c852ad",
    ("wiki_small", 4): "904cc65f2740973247bcce720537f059fc8c7d6d81a37b58e81bc2b731a8c8cf",
    ("wiki_small", 5): "04368f2e55d20fe36abd4bcefaa601821f9f6b198c4c4e38a7a5b54a5ce8749d",
}

VENDOR_GOLDEN = {
    ("mixed_churn", 1): "5d73925ab6ad5a58ea4c0151f8d1bcd1b2afb806f7f7d9eccc3d3877fcd8c9b9",
    ("mixed_churn", 2): "5ed6d84519cc4ea3694019660a8e8194b245469a77a7c8774e699d82879702d9",
    ("mixed_churn", 3): "a15d868e3e0c9609a6dd573f1f705371c4791e5fa1aa692e551f25fd03fca702",
    ("mixed_churn", 4): "427c3a31ce6b989020558fc91f464b31b4b1838475cf0f55f8c94f5691f5611b",
    ("mixed_churn", 5): "3212f5b0c1d3c4095a5c2d32a7256b162dc26cda39eeea3bb2264ff076a4ba20",
    ("video_small", 1): "96a2da54b9105758cd54abbaf7ccf9b876bf73e989e0d31dbfa4aef974962284",
    ("video_small", 2): "337f0922c8d7fb3bc58fbdba94acfc00ec00ab254ee392569aecb6a106050f46",
    ("video_small", 3): "3711930f1930487ce8d26b06c389fd564f7ad1df0e6bbdf09de8bfe6f89a56ef",
    ("video_small", 4): "623906e077867c4f0100e2cfb4ad30950146167962a470f30657118cffe3bb3d",
    ("video_small", 5): "ae3b8c1c2c569bf8ee4487c9a9c3c7573035605d6f302b929e08df80009506c8",
    ("wiki_small", 1): "a68dc50edec1e503c430049ffe4cfc426fdb52f0487b5347620b1b1cb2475dfe",
    ("wiki_small", 2): "8f668269d85c4453a27c227faba5056173a727fef0eb1b5f0942d2e2913944ac",
    ("wiki_small", 3): "3dae2a0a2156759f0de3658cb0fd1f55b1d5fb7aa34cb4347ba27ba82b4d015c",
    ("wiki_small", 4): "4059a5d47f176b8a5ec3e98ea1b83f8820c55fa1d12a86a2cc64491214735c64",
    ("wiki_small", 5): "469d672229a0357fd057f76d0278d971e5a69ca57b8ae709b7b6d66fdcf4e8d5",
}


SCALED_GOLDEN = {
    ("wiki_small", 4, 42): "a1f3478e8e807f332966f80d67e6b1a74c298db2fa4608efac939786e8884372",
}


def _shipped(scenario: str, seed: int, mode: str):
    return with_overrides(parse_scenario(SCENARIO_DIR / f"{scenario}.ini"),
                          seed=seed, mode=mode)


def _scaled(scenario: str, k: int) -> str:
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


def _digest_and_audits(config):
    runner = run_scenario(config)
    digest = hashlib.sha256(
        repr(sorted(runner.logs.items())).encode()).hexdigest()
    return digest, run_audits(runner.logs)


@pytest.mark.parametrize("scenario,seed", sorted(GOLDEN))
def test_shipped_run_matches_its_digest_and_passes_audits(scenario, seed):
    digest, violations = _digest_and_audits(_shipped(scenario, seed, "community"))
    assert digest == GOLDEN[scenario, seed]
    assert violations == []


@pytest.mark.parametrize("scenario,seed", sorted(VENDOR_GOLDEN))
def test_vendor_run_matches_its_digest_and_passes_audits(scenario, seed):
    digest, violations = _digest_and_audits(_shipped(scenario, seed, "vendor"))
    assert digest == VENDOR_GOLDEN[scenario, seed]
    assert violations == []


@pytest.mark.parametrize("scenario,k,seed", sorted(SCALED_GOLDEN))
def test_scaled_run_matches_its_digest_and_passes_audits(scenario, k, seed):
    config = with_overrides(parse_scenario_text(_scaled(scenario, k)), seed=seed)
    digest, violations = _digest_and_audits(config)
    assert digest == SCALED_GOLDEN[scenario, k, seed]
    assert violations == []
