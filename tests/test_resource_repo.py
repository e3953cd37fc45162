"""Repository: EWMA freshness tracking and score-proportional selection."""
from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from c3sim.engine import RngStream
from c3sim.resource_repo import (
    DEFAULT_WEIGHTS,
    NodeResourceRecord,
    Repository,
    ResourceQuery,
    UnknownNode,
)
from c3sim.resources import ResourceVector

from conftest import nid


def make_repo(n, beta=0.1, interval=500, region="main", region_gate=None,
              capacity=ResourceVector(8, 100, 20)):
    repo = Repository(beta=beta, heartbeat_interval=interval,
                      region_gate=region_gate)
    ids = [nid(i + 1) for i in range(n)]
    for node in ids:
        repo.register(NodeResourceRecord(node, region, capacity))
        repo.heartbeat(node, capacity, at=0)
    return repo, ids


class TestHeartbeats:
    def test_first_heartbeat_initializes_availability_to_one(self):
        repo = Repository()
        repo.register(NodeResourceRecord(nid(1), "main",
                                         ResourceVector(1, 1, 1)))
        assert repo.records[nid(1)].availability is None
        repo.heartbeat(nid(1), ResourceVector(1, 1, 1), at=0)
        assert repo.records[nid(1)].availability == 1.0

    def test_unregistered_heartbeat_raises(self):
        repo = Repository()
        with pytest.raises(UnknownNode):
            repo.heartbeat(nid(9), ResourceVector(), at=0)

    def test_miss_decays_geometrically(self):
        repo, ids = make_repo(1, beta=0.1)
        expected = 1.0
        for k in range(5):
            repo.sweep(k, (), {}, 1.0)  # the node is not online: a miss
            expected *= 0.9
            assert repo.records[ids[0]].availability == pytest.approx(expected)

    def test_half_online_alternation_centers_on_one_half(self):
        """Beat/miss alternation settles onto two fixed points.

        Oracle: iterating a' = (1-b)a + b then a'' = (1-b)a' has the
        closed-form fixed points x* = 1/(2-b) (post-beat) and
        y* = (1-b)/(2-b) (post-miss). Their mean is exactly 1/2 for any b,
        and both tend to 1/2 as b -> 0.
        """
        for beta in (0.1, 0.5, 0.001):
            x = 1.0
            for _ in range(20_000):  # independent recurrence iteration
                x = (1 - beta) * ((1 - beta) * x + beta)
            post_miss, post_beat = x, (1 - beta) * x + beta
            assert post_beat == pytest.approx(1 / (2 - beta), abs=1e-9)
            assert post_miss == pytest.approx((1 - beta) / (2 - beta), abs=1e-9)
            assert (post_beat + post_miss) / 2 == pytest.approx(0.5, abs=1e-9)

            repo, ids = make_repo(1, beta=beta)
            for k in range(20_000):
                repo.heartbeat(ids[0], ResourceVector(1, 1, 1), at=k)
                repo.sweep(k, (), {}, 1.0)  # a miss
            assert repo.records[ids[0]].availability == pytest.approx(
                post_miss, abs=1e-9)
        # the beta -> 0 limit pins both points to 1/2
        assert abs(1 / (2 - 0.001) - 0.5) < 0.001

    def test_perf_history_tracks_task_outcomes(self):
        repo, ids = make_repo(1, beta=0.1)
        repo.record_task(ids[0], completed=False)
        assert repo.records[ids[0]].perf_history == pytest.approx(0.9)
        repo.record_task(ids[0], completed=True)
        assert repo.records[ids[0]].perf_history == pytest.approx(0.91)

    def test_sweep_beats_online_and_decays_offline(self):
        repo, ids = make_repo(3)
        repo.records[ids[0]].cost_factor = 1.5
        online = {ids[0], ids[1]}
        repo.sweep(500, online, {ids[0]: 30, ids[2]: 7}, 4.0)
        first, second, offline = (repo.records[n] for n in ids)
        # the offer is the contributed capacity less the held storage
        assert first.free_capacity == ResourceVector(8, 70, 20)
        assert second.free_capacity == ResourceVector(8, 100, 20)
        # projected cost is the record's cost factor times the basket
        assert first.projected_cost == 1.5 * 4.0
        assert second.projected_cost == 4.0
        assert first.last_heartbeat == second.last_heartbeat == 500
        assert offline.last_heartbeat == 0
        assert offline.availability == pytest.approx(0.9)

    def test_held_storage_beyond_capacity_offers_none(self):
        repo, ids = make_repo(1)
        repo.sweep(10, ids, {ids[0]: 150}, basket=2.0)
        assert repo.records[ids[0]].free_capacity == ResourceVector(8, 0, 20)
        assert repo.records[ids[0]].last_heartbeat == 10

    def test_offer_is_the_whole_capacity_at_the_basket_cost(self):
        repo, ids = make_repo(1)
        repo.records[ids[0]].cost_factor = 1.5
        repo.offer(ids[0], 10, basket=2.0)
        rec = repo.records[ids[0]]
        assert rec.free_capacity == ResourceVector(8, 100, 20)
        assert (rec.projected_cost, rec.last_heartbeat) == (3.0, 10)


class TestEligibility:
    def test_one_eligible_count_one_returns_it(self):
        repo, ids = make_repo(1)
        result = repo.query(ResourceQuery(ResourceVector(1, 1, 1)),
                            RngStream(1, "repo"), at=10)
        assert result.nodes == (ids[0],)
        assert not result.insufficient

    def test_zero_eligible_flags_insufficient_with_empty_set(self):
        repo, ids = make_repo(1)
        result = repo.query(ResourceQuery(ResourceVector(10**6, 0, 0)),
                            RngStream(1, "repo"), at=10)
        assert result.nodes == ()
        assert result.insufficient

    def test_candidates_come_in_node_id_order_whatever_the_registration(self):
        repo = Repository()
        capacity = ResourceVector(8, 100, 20)
        ids = [nid(i) for i in (5, 2, 9, 1, 7)]  # 2, 1 and 7 arrive out of order
        for node in ids:
            repo.register(NodeResourceRecord(node, "main", capacity))
            repo.heartbeat(node, capacity, at=0)
        q =ResourceQuery(ResourceVector(1, 1, 1))
        assert [r.node_id for r in repo.eligible(q, at=10)] == sorted(ids)

    def test_stale_records_drop_out_after_three_intervals(self):
        repo, ids = make_repo(1, interval=500)
        q = ResourceQuery(ResourceVector(1, 1, 1))
        assert repo.eligible(q, at=1500)  # exactly at the horizon: still in
        assert not repo.eligible(q, at=1501)

    def test_region_gate_excludes_partitioned_records(self):
        asked = []

        def gate(region):
            asked.append(region)
            return region != "south"

        repo = Repository(region_gate=gate)
        for i, region in enumerate(("north", "south") * 2):
            repo.register(NodeResourceRecord(nid(i + 1), region,
                                             ResourceVector(4, 4, 4)))
            repo.heartbeat(nid(i + 1), ResourceVector(4, 4, 4), at=0)
        got = repo.eligible(ResourceQuery(ResourceVector(1, 1, 1)), at=10)
        assert [r.node_id for r in got] == [nid(1), nid(3)]
        assert asked == ["north", "south"]   # once per region per query

    @given(st.lists(st.tuples(st.integers(0, 10), st.integers(0, 10),
                              st.integers(0, 10), st.integers(0, 2000)),
                    min_size=1, max_size=12),
           st.tuples(st.integers(0, 6), st.integers(0, 6), st.integers(0, 6)))
    @settings(max_examples=120, deadline=None)
    def test_returned_nodes_always_satisfy_filter(self, rows, req):
        repo = Repository(heartbeat_interval=500)
        for i, (c, s, b, beat_at) in enumerate(rows):
            node = nid(i + 1)
            repo.register(NodeResourceRecord(node, "main",
                                             ResourceVector(c, s, b)))
            repo.heartbeat(node, ResourceVector(c, s, b), at=beat_at)
        need = ResourceVector(*req)
        result = repo.query(ResourceQuery(need, count=2),
                            RngStream(3, "repo"), at=2000)
        for node in result.nodes:
            rec = repo.records[node]
            assert rec.free_capacity.covers(need)
            assert 2000 - rec.last_heartbeat <= repo.staleness


class TestProportionalSelection:
    def test_availability_half_gives_two_to_one_pick_ratio(self):
        # P(a) = .9/(.9+.45) = 2/3; at 10^4 draws the ratio sits near 2.
        repo, ids = make_repo(2)
        repo.records[ids[0]].availability = 0.9
        repo.records[ids[1]].availability = 0.45
        rng = RngStream(1, "repo")
        q = ResourceQuery(ResourceVector(1, 1, 1), count=1,
                          weights=(0.0, 1.0, 0.0, 0.0))
        counts = {ids[0]: 0, ids[1]: 0}
        for _ in range(10_000):
            counts[repo.query(q, rng, at=10).nodes[0]] += 1
        ratio = counts[ids[0]] / counts[ids[1]]
        assert 1.9 <= ratio <= 2.1

    def test_pick_frequencies_pass_chi_square_against_scores(self):
        repo, ids = make_repo(3)
        for node, avail in zip(ids, (0.95, 0.6, 0.3)):
            repo.records[node].availability = avail
        q = ResourceQuery(ResourceVector(1, 1, 1), count=1,
                          weights=(0.0, 1.0, 0.0, 0.0))
        scores = repo.scores(repo.eligible(q, at=10), q)
        total = sum(scores)
        rng = RngStream(6, "repo")
        counts = {n: 0 for n in ids}
        draws = 10_000
        for _ in range(draws):
            counts[repo.query(q, rng, at=10).nodes[0]] += 1
        expected = [draws * s / total for s in scores]
        observed = [counts[n] for n in ids]
        assert stats.chisquare(observed, expected).pvalue > 0.05

    def test_score_is_monotone_in_each_component(self):
        repo, ids = make_repo(2)
        q = ResourceQuery(ResourceVector(1, 1, 1), weights=DEFAULT_WEIGHTS,
                          preferred_region="main")
        base = repo.scores(repo.eligible(q, at=10), q)
        repo.records[ids[0]].availability = 0.5
        repo.records[ids[0]].perf_history = 0.5
        lowered = repo.scores(repo.eligible(q, at=10), q)
        assert lowered[0] < base[0]
        assert lowered[1] == base[1]

    def test_geo_weight_prefers_the_region(self):
        repo = Repository()
        for i, region in enumerate(("near", "far")):
            repo.register(NodeResourceRecord(nid(i + 1), region,
                                             ResourceVector(4, 4, 4)))
            repo.heartbeat(nid(i + 1), ResourceVector(4, 4, 4), at=0)
        q = ResourceQuery(ResourceVector(1, 1, 1), preferred_region="near",
                          weights=(0.0, 0.0, 0.0, 1.0))
        scores = repo.scores(repo.eligible(q, at=10), q)
        assert scores == [1.0, 0.0]

    def test_cost_term_normalizes_against_most_expensive(self):
        repo, ids = make_repo(2)
        repo.records[ids[0]].projected_cost = 1.0
        repo.records[ids[1]].projected_cost = 4.0
        q = ResourceQuery(ResourceVector(1, 1, 1),
                          weights=(0.0, 0.0, 1.0, 0.0))
        scores = repo.scores(repo.eligible(q, at=10), q)
        assert scores == [0.75, 0.0]

    def test_query_sequence_is_deterministic_per_stream_seed(self):
        def run(seed):
            repo, ids = make_repo(5)
            rng = RngStream(seed, "repo")
            q = ResourceQuery(ResourceVector(1, 1, 1), count=2)
            return [repo.query(q, rng, at=10).nodes for _ in range(50)]

        assert run(8) == run(8)
        assert run(8) != run(9)

    def test_count_larger_than_pool_returns_all_flagged(self):
        repo, ids = make_repo(3)
        result = repo.query(ResourceQuery(ResourceVector(1, 1, 1), count=5),
                            RngStream(1, "repo"), at=10)
        assert set(result.nodes) == set(ids)
        assert result.insufficient
