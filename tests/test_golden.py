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
    ("video_small", 1): "a414e5390991865e22f16942f9f8e50f1f0ca1e6fd05d9c8b0fffdab2c87eb88",
    ("video_small", 2): "cb31c7e41b44563f7033b5d400f134aa213b3faee2b2ac5ef9a5f562154adb41",
    ("video_small", 3): "0e35bb810ec0af4e4e8daa190cccb17641bd539624309e24c18d8a636b63adec",
    ("video_small", 4): "09e17a894cc25485fed6c579a1fbb4a259c3fd8bea84f9e3dec41f677d854571",
    ("video_small", 5): "6c892a3d4cc2f7c4c1ff36c8fd95adcf15facd7446a92ba92828e8ea60947bdb",
    ("wiki_small", 1): "a179127683566cfe3910a6ebfa6f7020da09cfb593314d512d299dcaa87ae760",
    ("wiki_small", 2): "524b91e8321e89ca2b9fb01e6b5cd901fb4b7b55ca3d7955472e099b7dbda46d",
    ("wiki_small", 3): "4f180cf4caec2e122defb3a08e53f3726d3cd3b8dabb3e6ec869b45c23c852ad",
    ("wiki_small", 4): "904cc65f2740973247bcce720537f059fc8c7d6d81a37b58e81bc2b731a8c8cf",
    ("wiki_small", 5): "04368f2e55d20fe36abd4bcefaa601821f9f6b198c4c4e38a7a5b54a5ce8749d",
}

VENDOR_GOLDEN = {
    ("mixed_churn", 1): "1fdbf7b433bc0ded2d9483968088c25696b4fa50f50b3bdcb574d319b83ee948",
    ("mixed_churn", 2): "1099494f625da617c507edfde537068b4f509b7f35777780d36466923a71bfda",
    ("mixed_churn", 3): "08ae3ce2eaeea1c7f593e6146ddb690658d1c05bd8e50e961a63cfa648b6e19c",
    ("mixed_churn", 4): "b4616f771a5e9445cb5c26c29a186ac94ad094d9b1d84ae72cc3c1572bc61c83",
    ("mixed_churn", 5): "c3de539417bb181de8e86eb9c1491116d17a484c3f03c6123161f9471c3d12bc",
    ("video_small", 1): "96a2da54b9105758cd54abbaf7ccf9b876bf73e989e0d31dbfa4aef974962284",
    ("video_small", 2): "337f0922c8d7fb3bc58fbdba94acfc00ec00ab254ee392569aecb6a106050f46",
    ("video_small", 3): "3711930f1930487ce8d26b06c389fd564f7ad1df0e6bbdf09de8bfe6f89a56ef",
    ("video_small", 4): "623906e077867c4f0100e2cfb4ad30950146167962a470f30657118cffe3bb3d",
    ("video_small", 5): "ae3b8c1c2c569bf8ee4487c9a9c3c7573035605d6f302b929e08df80009506c8",
    ("wiki_small", 1): "35868a954ba5e10e0542def6ee0ca2f056cd5c7005820e3a6b136dab98343e86",
    ("wiki_small", 2): "dfb240b99ae4074e4cf7e65b8b64f58502d649dfa8defbd6861e6502e8e81a94",
    ("wiki_small", 3): "d561e0dece06afdec761635f521b131f3cb2563f19465c2a6bb6144791968f76",
    ("wiki_small", 4): "68abdbb7756ff19b1914e3e03e23e943b9a9ed261484d92b55185ba3d8b04109",
    ("wiki_small", 5): "534a53c08f524c928c119fe0df94c03d9f4fcaa0eb91412c60e4916bd2723104",
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
