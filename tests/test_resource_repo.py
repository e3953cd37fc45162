"""Repository: EWMA freshness tracking and score-proportional selection."""
from __future__ import annotations

import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import stats

from c3sim.engine import RngStream
from c3sim.resource_repo import (
    DEFAULT_WEIGHTS,
    NodeResourceRecord,
    QueryResult,
    Repository,
    ResourceQuery,
    UnknownNode,
)
from c3sim.resources import ResourceVector

from helpers import nid


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
        repo.silent(ids[0])  # the node has left: every sweep is a miss
        expected = 1.0
        for k in range(5):
            repo.sweep(k, {}, 1.0)
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
                repo.silent(ids[0])
                repo.sweep(k, {}, 1.0)  # a miss
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
        repo.silent(ids[2])
        repo.sweep(500, {ids[0]: 30, ids[2]: 7}, 4.0)
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
        repo.sweep(10, {ids[0]: 150}, basket=2.0)
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

    def test_zero_eligible_returns_the_empty_set(self):
        repo, ids = make_repo(1)
        result = repo.query(ResourceQuery(ResourceVector(10**6, 0, 0)),
                            RngStream(1, "repo"), at=10)
        assert result.nodes == ()

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

    def test_count_larger_than_pool_returns_all_short_of_count(self):
        repo, ids = make_repo(3)
        result = repo.query(ResourceQuery(ResourceVector(1, 1, 1), count=5),
                            RngStream(1, "repo"), at=10)
        assert set(result.nodes) == set(ids)
        assert len(result.nodes) < 5


def scanned_query(repo, query, rng, at):
    """The reference for Repository.query: its code before the kept order
    and the bisected draw. It sorts the records, scores them one by one and
    walks the running sum to the drawn point."""
    candidates, gate = [], {}
    for node_id in sorted(repo.records):
        rec = repo.records[node_id]
        if rec.last_heartbeat is None or at - rec.last_heartbeat > repo.staleness:
            continue
        if rec.availability is None:
            continue
        if not rec.free_capacity.covers(query.required):
            continue
        if rec.region not in gate:
            gate[rec.region] = repo.region_gate(rec.region)
        if not gate[rec.region]:
            continue
        candidates.append(rec)
    if len(candidates) <= query.count:
        return QueryResult(tuple(r.node_id for r in candidates))
    w_perf, w_avail, w_cost, w_geo = query.weights
    max_cost = max((r.projected_cost for r in candidates), default=0.0)
    scores = []
    for rec in candidates:
        norm_cost = rec.projected_cost / max_cost if max_cost > 0 else 0.0
        geo = 1.0 if rec.region == query.preferred_region else 0.0
        scores.append(w_perf * rec.perf_history
                      + w_avail * (rec.availability or 0.0)
                      + w_cost * (1.0 - norm_cost)
                      + w_geo * geo)
    remaining = list(zip(candidates, scores))
    picked = []
    for _ in range(query.count):
        total = sum(s for _, s in remaining)
        if total <= 0.0:
            idx = rng.randrange(len(remaining))
        else:
            point = rng.random() * total
            acc = 0.0
            idx = len(remaining) - 1
            for i, (_, s) in enumerate(remaining):
                acc += s
                if point < acc:
                    idx = i
                    break
        picked.append(remaining.pop(idx)[0])
    return QueryResult(tuple(r.node_id for r in picked))


class Scripted:
    """A stand-in random stream that plays back fixed draws in a loop and
    counts them in `at`."""

    def __init__(self, values):
        self.values, self.at = values, 0

    def random(self):
        self.at += 1
        return self.values[(self.at - 1) % len(self.values)]

    def randrange(self, n):
        return int(self.random() * n)


# fractions that sums hit exactly, and any others
FRACTIONS = (0.0, 0.1, 0.2, 0.25, 0.3, 0.5, 0.75, 1.0)
unit = st.sampled_from(FRACTIONS) | st.floats(0, 1)
# (availability, perf_history, projected_cost, heartbeat age, region,
# compute); a record with no availability or an age past 1500 is stale
repo_records = st.lists(st.tuples(
    st.sampled_from((None,) + FRACTIONS) | st.floats(0, 1), unit,
    st.sampled_from((0.0, 0.5, 1.0, 2.0, 3.0)),
    st.sampled_from((0, 0, 700, 1500, 1501, None)), st.sampled_from("abc"),
    st.integers(0, 3)), min_size=1, max_size=10)
# (count, compute needed, preferred region, weights)
repo_queries = st.lists(st.tuples(
    st.sampled_from((1, 1, 2, 3, 6)), st.sampled_from((0, 0, 1, 3)),
    st.none() | st.sampled_from("ab"),
    st.just(DEFAULT_WEIGHTS) | st.tuples(unit, unit, unit, unit)),
    min_size=1, max_size=3)
draw_values = st.lists(st.sampled_from((0.0, 0.25, 0.5, 0.75, 0.999))
                       | st.floats(0, 1, exclude_max=True), min_size=1, max_size=6)


def record_rows(perfs):
    """Fresh, available records in region a with these perf_history values."""
    return [(1.0, perf, 0.0, 0, "a", 0) for perf in perfs]


class TestDraws:
    @given(records=repo_records, order=st.randoms(use_true_random=False),
           closed=st.sets(st.sampled_from("abc"), max_size=1),
           queries=repo_queries, draws=draw_values)
    @settings(max_examples=150, deadline=None)
    # the point falls exactly on the first of two equal prefix sums
    @example(records=record_rows((0.5, 0.5)), order=random.Random(0),
             closed=set(), queries=[(1, 0, None, (1.0, 0.0, 0.0, 0.0))],
             draws=[0.5])
    # a running sum that an exact sum rounds below: 0.1 + 0.2 + 0.3 (ids
    # fall as the records are numbered)
    @example(records=record_rows((0.3, 0.2, 0.1)), order=random.Random(0),
             closed=set(), queries=[(1, 0, None, (1.0, 0.0, 0.0, 0.0))],
             draws=[0.5])
    # all weights 0: every pick is a randrange
    @example(records=record_rows((0.5, 0.5, 0.5)), order=random.Random(0),
             closed=set(), queries=[(2, 0, None, (0.0, 0.0, 0.0, 0.0))],
             draws=[0.3, 0.9])
    def test_every_pick_equals_the_running_sum_walk(self, records, order,
                                                     closed, queries, draws):
        asked = [], []

        def gate(log):
            return lambda region: log.append(region) or region not in closed

        repos = [Repository(heartbeat_interval=500, region_gate=gate(log))
                 for log in asked]
        ids = [nid(7919 * (i + 1) % 1009) for i in range(len(records))]
        rows = list(zip(ids, records))
        order.shuffle(rows)   # registered out of NodeId order
        for repo in repos:
            for node, (avail, perf, cost, age, region, compute) in rows:
                repo.register(NodeResourceRecord(
                    node, region, ResourceVector(4, 4, 4), perf_history=perf,
                    free_capacity=ResourceVector(compute, 4, 4),
                    projected_cost=cost, availability=avail,
                    last_heartbeat=None if age is None else 2000 - age))
        rngs = Scripted(draws), Scripted(draws)
        for count, need, region, weights in queries:
            query = ResourceQuery(ResourceVector(need, 1, 1), count=count,
                                  preferred_region=region, weights=weights)
            assert (repos[0].query(query, rngs[0], at=2000)
                    == scanned_query(repos[1], query, rngs[1], at=2000))
        assert asked[0] == asked[1]
        assert rngs[0].at == rngs[1].at   # as many draws

    def test_a_negative_weight_is_refused(self):
        with pytest.raises(ValueError):
            ResourceQuery(ResourceVector(1, 1, 1), weights=(0.5, -0.1, 0.3, 0.3))


def swept_every_record(repo, at, online, held, basket):
    """The reference for Repository.sweep: its code before it stepped only
    the records whose state moves. The records in `online` offer as `offer`
    does, less their held storage; the rest miss this interval's beat."""
    beta, keep = repo.beta, 1 - repo.beta
    for node_id, rec in repo.records.items():
        if node_id not in online:
            if rec.availability is not None:
                rec.availability = keep * rec.availability
            continue
        free, stored = rec.capacity, held.get(node_id, 0)
        rec.free_capacity = free if stored == 0 else ResourceVector(
            free.compute, max(0, free.storage - stored), free.bandwidth)
        rec.last_heartbeat = at
        rec.projected_cost = rec.cost_factor * basket
        rec.availability = (1.0 if rec.availability is None else
                            keep * rec.availability + beta)


NODES = 4
node_index = st.integers(0, NODES - 1)
# A record's storage, availability, cost factor and region; region c is
# gated out.
node_records = st.tuples(st.sampled_from((0, 4, 10)),
                         st.sampled_from((None, 0.5)),
                         st.sampled_from((1.0, 1.5)), st.sampled_from("abc"))
# Each node is registered at tick 0 and offers then, is registered at 0
# and does not offer, or is not registered until a later step.
populations = st.lists(st.sampled_from(("offers", "silent", None)),
                       min_size=NODES, max_size=NODES)
# One step of a repository's life. A sweep comes 500 ticks after the one
# before; a query may come up to 1,000 ticks after the last sweep, past a
# record's staleness horizon.
repo_steps = st.lists(st.one_of(
    st.tuples(st.just("register"), node_index, node_records),
    st.tuples(st.just("offer"), node_index),
    st.tuples(st.just("silent"), node_index),
    st.tuples(st.just("held"), node_index, st.sampled_from((0, 3, 4, 20))),
    st.tuples(st.just("basket"), st.sampled_from((0.5, 2.5)) | st.floats(0, 10)),
    st.just(("sweep",)),
    st.tuples(st.just("query"), st.sampled_from((1, 2, 6)),
              st.sampled_from((0, 1, 5)), st.sampled_from((0, 400, 1000))),
    st.tuples(st.just("task"), node_index, st.booleans())), max_size=40)

OFFERS = ("offers",) * NODES
QUERY = ("query", 2, 5, 0)
SWEEP = ("sweep",)


class TestLazySweeps:
    @given(beta=st.sampled_from((0.1, 0.5, 0.9)), population=populations,
           record=node_records, steps=repo_steps, draws=draw_values)
    @settings(max_examples=300, deadline=None)
    # a leave and rejoin between two sweeps, and a lazy record that leaves
    @example(beta=0.1, population=OFFERS, record=(10, None, 1.5, "a"),
             steps=[SWEEP, SWEEP, ("silent", 0), ("silent", 1), ("offer", 0),
                    SWEEP, QUERY], draws=[0.5])
    # a lazy record that becomes held
    @example(beta=0.1, population=OFFERS, record=(10, None, 1.5, "a"),
             steps=[SWEEP, SWEEP, ("held", 0, 20), ("basket", 2.5), SWEEP,
                    QUERY], draws=[0.5])
    # held storage that is released
    @example(beta=0.1, population=OFFERS, record=(10, None, 1.5, "a"),
             steps=[("held", 0, 4), SWEEP, ("held", 0, 0), SWEEP, SWEEP,
                    QUERY], draws=[0.5])
    # availability rising from 0.5 to its fixed point
    @example(beta=0.5, population=OFFERS, record=(10, 0.5, 1.5, "a"),
             steps=[SWEEP] * 60 + [QUERY], draws=[0.5])
    # a record that never offers
    @example(beta=0.1, population=("silent", "offers", None, None),
             record=(10, 0.5, 1.0, "b"), steps=[SWEEP] * 4 + [QUERY],
             draws=[0.5])
    # silent on a node with no record
    @example(beta=0.1, population=("offers", None, None, None),
             record=(10, None, 1.5, "a"),
             steps=[("silent", 3), SWEEP, QUERY], draws=[0.5])
    def test_every_query_sees_what_a_full_sweep_writes(
            self, beta, population, record, steps, draws):
        lazy, ref = (Repository(beta=beta, heartbeat_interval=500,
                                region_gate=lambda region: region != "c")
                     for _ in range(2))
        ids = [nid(7919 * (i + 1) % 1009) for i in range(NODES)]
        online, held, basket, now = set(), {}, 1.0, 0

        def register(node, storage, avail, cost, region):
            for repo in (lazy, ref):
                repo.register(NodeResourceRecord(
                    node, region, ResourceVector(2, storage, 4),
                    cost_factor=cost, availability=avail))

        def offer(node):
            lazy.offer(node, now, basket)
            ref.offer(node, now, basket)
            online.add(node)

        for node, start in zip(ids, population):
            if start is not None:
                register(node, *record)
            if start == "offers":
                offer(node)
        rngs = Scripted(draws), Scripted(draws)
        for op, *args in steps:
            node = ids[args[0]] if op in ("register", "offer", "silent",
                                          "held", "task") else None
            if op == "register" and node not in ref.records:
                register(node, *args[1])
            elif op == "offer" and node in ref.records:
                offer(node)
            elif op == "silent":
                lazy.silent(node)
                online.discard(node)
            elif op == "held":
                held[node] = args[1]
            elif op == "basket":
                basket = args[0]
            elif op == "sweep":
                now += 500
                lazy.sweep(now, held, basket)
                swept_every_record(ref, now, online, held, basket)
            elif op == "task" and node in ref.records:
                lazy.record_task(node, args[1])
                ref.record_task(node, args[1])
            elif op == "query":
                count, need, late = args
                query = ResourceQuery(ResourceVector(1, need, 1), count=count)
                assert (lazy.query(query, rngs[0], now + late)
                        == scanned_query(ref, query, rngs[1], now + late))
                assert lazy.records == ref.records
        assert rngs[0].at == rngs[1].at
