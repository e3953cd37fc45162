"""Behaviour oracle: pinned log digests of the shipped scenarios.

Each shipped scenario runs at seeds 1-5, once as shipped (community mode)
and once on the vendor baseline. The SHA-256 of its canonical log tables
must match the pinned value, and the run must pass every audit. A change
that alters any log row changes a digest; such a change must say why, and
re-pin only the runs it moves.
"""
from __future__ import annotations

import hashlib
from pathlib import Path

import pytest

from c3sim.harness.audits import run_audits
from c3sim.harness.config import parse_scenario, with_overrides
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
    ("mixed_churn", 1): "c7a1219743f0e3a95fccdc262ee68f5886a70d13adfbfab0f3ab29afedc74a5c",
    ("mixed_churn", 2): "c8b95e0d33a33636618415356f2b124f0cf981d22ec2f5dbfbdce54f9f96e0a6",
    ("mixed_churn", 3): "ee302ba473615e8304ec2c0bd4685c2bf5f30c7c0444c40f023e01187c75efba",
    ("mixed_churn", 4): "781b81865ca8ccc9e009c766505220e09e7253a13d4574c02b4060c9eccce794",
    ("mixed_churn", 5): "d3c9d287ebf6d7d22137103879ed0c8e9719a8e4682205e5bdb65e92e2192418",
    ("video_small", 1): "af05b6a11b7271168f2e8375fd47a4f60d8ddbc0e5ad9c7f731f89053de5c3f7",
    ("video_small", 2): "5652409697ef8d66f8cd2b4a4e8db0fd61b6ed938bcff328bfbe4c58e7397793",
    ("video_small", 3): "62d8e1b2e65dbdc49101403ac28997ca5e90e229828bca5160cd0920457e3319",
    ("video_small", 4): "c2ff3c4c31a2ae4d17c0ac1441e5b105555694814253c80439e62ff4e84bbeba",
    ("video_small", 5): "43b9a47aa9aac608f58ddd3dda69b62370184b45c0ff211939f647916fb0d230",
    ("wiki_small", 1): "77692da2f03119e5003892401e1ef00867d4cc8ea913ccdbc1e9f8d1dc987652",
    ("wiki_small", 2): "21dbd638a79b02b4321558fcb16f6a7c0ad05e72e2ae20e6e3c3fb6006c781f9",
    ("wiki_small", 3): "18af89e8e8528726ae4dfb09ea4efa1460a64605427e2cfcc847afa6fc72bfe6",
    ("wiki_small", 4): "6cf0d2e9b310d03bebe30296fc017e17bcb5dad1815f6b5923c4097e83d84310",
    ("wiki_small", 5): "35b5a61e81c361d9bfc113181dfb38c650ee1cf77c213e21dc0963cca066b20f",
}


def _digest_and_audits(scenario: str, seed: int, mode: str):
    config = with_overrides(parse_scenario(SCENARIO_DIR / f"{scenario}.ini"),
                            seed=seed, mode=mode)
    runner = run_scenario(config)
    digest = hashlib.sha256(
        repr(sorted(runner.logs.items())).encode()).hexdigest()
    return digest, run_audits(runner.logs)


@pytest.mark.parametrize("scenario,seed", sorted(GOLDEN))
def test_shipped_run_matches_its_digest_and_passes_audits(scenario, seed):
    digest, violations = _digest_and_audits(scenario, seed, "community")
    assert digest == GOLDEN[scenario, seed]
    assert violations == []


@pytest.mark.parametrize("scenario,seed", sorted(VENDOR_GOLDEN))
def test_vendor_run_matches_its_digest_and_passes_audits(scenario, seed):
    digest, violations = _digest_and_audits(scenario, seed, "vendor")
    assert digest == VENDOR_GOLDEN[scenario, seed]
    assert violations == []
