"""Behaviour oracle: pinned log digests of the shipped scenarios.

Each shipped scenario runs at seeds 1-5. The SHA-256 of its canonical log
tables must match the pinned value, and the run must pass every audit. A
change that alters any log row changes a digest; such a change must say
why, and re-pin only the runs it moves.
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


@pytest.mark.parametrize("scenario,seed", sorted(GOLDEN))
def test_shipped_run_matches_its_digest_and_passes_audits(scenario, seed):
    config = with_overrides(parse_scenario(SCENARIO_DIR / f"{scenario}.ini"),
                            seed=seed)
    runner = run_scenario(config)
    digest = hashlib.sha256(
        repr(sorted(runner.logs.items())).encode()).hexdigest()
    assert digest == GOLDEN[scenario, seed]
    assert run_audits(runner.logs) == []
