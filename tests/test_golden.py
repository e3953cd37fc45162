"""Behaviour oracle: pinned log digests of the shipped scenarios.

Each shipped scenario runs at seeds 1-5, once as shipped (community mode)
and once on the vendor baseline. The three benchmark workloads (wiki_small
x4 in both modes, video_small x20) also run, scaled as the benchmark
scales them, at both of its program seeds; video_small x80 at seed 7
pins the high-load session regime and wiki_small x10 at seed 42 the
500-node wiki run. The SHA-256 of its canonical log tables
must match the pinned value, and the run must pass every audit. A change
that alters any log row changes a digest; such a change must say why, and
re-pin only the runs it moves.
"""
from __future__ import annotations

import pytest

import check_digests
from check_digests import digest_and_audits, scaled, shipped

GOLDEN = {
    ("mixed_churn", 1): "2295c1e9dc44d2b693aea1f2de8efb7e0b42818698c156962ab480406e920748",
    ("mixed_churn", 2): "e083b9f27ff570d15a3e940f75378361a78db489ef7bdb947e85b29ed49a90af",
    ("mixed_churn", 3): "4c2a86a6bd56f34498bd6e85ba56909801b3ed0921fadc3d16d0187779dfb513",
    ("mixed_churn", 4): "2671e13c62cccfdf16160dfa66496c141ed156f0a46f237e27ad9896dc0a218f",
    ("mixed_churn", 5): "0e84cbe31d71ea6ba81cd2d19b208ff9f33ed5fc5e4aec26523a5bdf7e98b33f",
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
    ("mixed_churn", 1): "9a5aefe49ba63586b89981d46ada653bb35fceac897396c66e6f9ade342ae70a",
    ("mixed_churn", 2): "eb2e511a9cb96a8d949182393c8b1f1ce15f6fc064b8901ec9e760496058595e",
    ("mixed_churn", 3): "daafd6f6968be876a6a8fb728d78269f7827cbc21e25aafcc9dd84f19ae4a271",
    ("mixed_churn", 4): "b8086d9d97ae388007c9edbf6a177995d71dca42b0c88c849625b46904cfe18a",
    ("mixed_churn", 5): "f2fb1247ca65f4f1928e4bdf1c30a7948ee599e68336aabc8d694e9c89271ba5",
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
    ("video_small", 20, "community", 4): "f1653835bea24c2f74340db1572e60c9302a8f76b05e66d6850a029c1b52cbef",
    ("video_small", 20, "community", 7): "b81a6364a86f3b859839b2a27deb8824b0605aa65c72fab3510927ad8cabaf74",
    # high load: each session metering sees about 56 sessions on its host
    ("video_small", 80, "community", 7): "340c3890d2b79b9172d74c2f98a92365211a7453afbbb568e4caef4e347f5a6b",
    ("wiki_small", 4, "community", 4): "fcfedc87407a24e3e025e0daaf57d4e3490340166257431bda06da2e9938178d",
    ("wiki_small", 4, "community", 42): "a1f3478e8e807f332966f80d67e6b1a74c298db2fa4608efac939786e8884372",
    ("wiki_small", 4, "vendor", 4): "9cd97d331f230d3809aa91f567d598d16a693d00dfa5f86d36965f49f004ee59",
    ("wiki_small", 4, "vendor", 42): "63ddf4c356cdd7d581f92ec364f7d7d5dfae80500a5a3b60cc9bc26a22a67e6f",
    # 500 nodes: sized routes, adoption ticks and draws at a larger scale
    ("wiki_small", 10, "community", 42): "fb379b7a66685554484066909ae502c4e852ba6e25ebd4bad7e21b853216740c",
}


@pytest.mark.parametrize("scenario,seed", sorted(GOLDEN))
def test_shipped_run_matches_its_digest_and_passes_audits(scenario, seed):
    digest, violations = digest_and_audits(shipped(scenario, seed, "community"))
    assert digest == GOLDEN[scenario, seed]
    assert violations == []


@pytest.mark.parametrize("scenario,seed", sorted(VENDOR_GOLDEN))
def test_vendor_run_matches_its_digest_and_passes_audits(scenario, seed):
    digest, violations = digest_and_audits(shipped(scenario, seed, "vendor"))
    assert digest == VENDOR_GOLDEN[scenario, seed]
    assert violations == []


@pytest.mark.parametrize("scenario,k,mode,seed", sorted(SCALED_GOLDEN))
def test_scaled_run_matches_its_digest_and_passes_audits(scenario, k, mode, seed):
    digest, violations = digest_and_audits(scaled(scenario, k, mode, seed))
    assert digest == SCALED_GOLDEN[scenario, k, mode, seed]
    assert violations == []


class TestOneRun:
    """`check_digests.py SCENARIO K MODE SEED` prints one scaled run's
    digest and audit violations, for comparing two trees where no pin is."""

    def test_it_prints_the_pinned_digest(self, capsys):
        assert check_digests.main(["wiki_small", "4", "community", "42"]) == 0
        assert capsys.readouterr().out.split() == [
            "wiki_small", "x4", "community", "seed", "42:",
            SCALED_GOLDEN["wiki_small", 4, "community", 42]]

    def test_an_audit_violation_exits_1(self, monkeypatch, capsys):
        monkeypatch.setattr(check_digests, "digest_and_audits",
                            lambda config: ("0" * 64, ["planted"]))
        assert check_digests.main(["wiki_small", "4", "community", "42"]) == 1
        assert "audit: planted" in capsys.readouterr().out

    def test_a_partial_argument_list_is_a_usage_error(self, capsys):
        assert check_digests.main(["wiki_small", "4"]) == 2
        assert "usage" in capsys.readouterr().err
