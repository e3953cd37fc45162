"""Overlay and its routing graph: identities, routes, nearest-source
labellings, super-peers, coordinated transactions."""
from __future__ import annotations

import copy
import heapq
import pickle
import random
from hashlib import sha256
from pathlib import Path

import networkx as nx
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from c3sim.engine import RngStream
from c3sim.harness.config import parse_scenario, with_overrides
from c3sim.harness.runner import run_scenario
from c3sim.ledger import Transfer
from c3sim.overlay import (
    DuplicateJoin,
    EmptyRegion,
    NodeId,
    NodeRecord,
    Overlay,
    OverlayConfig,
    TransactionResult,
    Unreachable,
    UnknownNode,
    _connected,
    _pair_stubs,
    generate_identity,
    random_regular_edges,
)
from c3sim.resources import ResourceVector
from c3sim.routing import ID_BITS, _UNBOUNDED, Graph, NearestLabels

from helpers import (assert_kept_facts, chain_overlay, clique_overlay, nid,
                     small_ledger)

SCENARIO_DIR = Path(__file__).resolve().parent.parent / "scenarios"


class TestIdentity:
    def test_same_stream_state_same_id(self):
        a = generate_identity(RngStream(5, "identity"))
        b = generate_identity(RngStream(5, "identity"))
        assert isinstance(a, NodeId) and a == b

    def test_id_fits_in_256_bits(self):
        assert ID_BITS == 256
        assert 0 <= generate_identity(RngStream(5, "identity")) < 1 << 256

    def test_hundred_thousand_draws_all_distinct(self):
        rng = RngStream(5, "identity")
        seen = {generate_identity(rng) for _ in range(100_000)}
        assert len(seen) == 100_000

    def test_id_is_the_hash_of_the_public_key_of_one_draw(self):
        rng, draws = RngStream(5, "identity"), RngStream(5, "identity")
        for _ in range(3):
            private = draws.getrandbits(ID_BITS).to_bytes(32, "big")
            public = sha256(b"pub:" + private).digest()
            expected = int.from_bytes(sha256(public).digest(), "big")
            assert generate_identity(rng) == NodeId(expected)

    def test_short_is_the_first_16_of_64_hex_digits(self):
        rng = random.Random(5)
        values = [0, 1, 2**192 - 1, 2**192, 2**256 - 1]
        values += [rng.getrandbits(ID_BITS) for _ in range(1000)]
        for value in values:
            assert NodeId(value).short == f"{value:064x}"[:16]

    def test_a_node_id_is_its_int_and_copies_keep_its_short(self):
        rng = random.Random(6)
        values = [0, 2**192, 2**256 - 1]
        values += [rng.getrandbits(ID_BITS) for _ in range(200)]
        for value in values:
            node = NodeId(value)
            assert node == value and hash(node) == hash(value)
            assert {value: 1}[node] == 1 and node < value + 1 and not node < value
            copies = [copy.copy(node), copy.deepcopy(node)]
            copies += [pickle.loads(pickle.dumps(node, protocol))
                       for protocol in range(pickle.HIGHEST_PROTOCOL + 1)]
            for twin in copies:
                assert type(twin) is NodeId and twin == node
                assert twin.short == node.short


class TestMembership:
    def test_join_then_leave_restores_edges(self):
        overlay, ids = clique_overlay(5)
        before = overlay.adj
        extra = nid(99)
        overlay.add_record(NodeRecord(extra, "main", ResourceVector(1, 1, 1)))
        overlay.join(extra, 3)
        assert overlay.adj[extra]
        overlay.leave(extra)
        after = overlay.adj
        assert after.pop(extra) == {}
        assert not overlay.is_online(extra)
        assert after == before

    def test_duplicate_join_and_unknown_leave(self):
        overlay, ids = clique_overlay(3)
        with pytest.raises(DuplicateJoin):
            overlay.join(ids[0], 1)
        overlay.leave(ids[0])
        with pytest.raises(UnknownNode):
            overlay.leave(ids[0])
        with pytest.raises(UnknownNode):
            overlay.join(nid(12345), 1)

    def test_leave_outside_dvsp_touches_only_its_neighbors(self):
        overlay, ids = clique_overlay(6, m_target=3,
                                      joined_at=[0, 1, 2, 3, 4, 5])
        vsp = overlay.form_dvsp("main")
        assert set(vsp.members) == set(ids[:3])
        outsider = ids[5]
        before = overlay.adj
        overlay.leave(outsider)
        assert overlay.dvsps["main"] is vsp
        assert overlay.maintenance() == []  # quorum intact, size still met
        assert overlay.dvsps["main"].epoch == vsp.epoch
        assert set(before[outsider]) == set(ids[:5])  # a clique
        after = overlay.adj
        assert after.pop(outsider) == {}
        assert after == {n: {p: lat for p, lat in links.items() if p != outsider}
                         for n, links in before.items() if n != outsider}

    def test_adj_is_a_copy_the_overlay_does_not_share(self):
        overlay, ids = clique_overlay(4)
        snapshot = overlay.adj
        snapshot[ids[0]].clear()
        snapshot.pop(ids[1])
        assert set(overlay.adj) == set(ids)
        assert set(overlay.adj[ids[0]]) == set(ids[1:])
        assert set(overlay.adj[ids[1]]) == {ids[0], ids[2], ids[3]}

    def test_dvsp_member_leave_increments_epoch_next_round(self):
        overlay, ids = clique_overlay(6, m_target=3,
                                      joined_at=[0, 1, 2, 3, 4, 5])
        vsp = overlay.form_dvsp("main")
        overlay.leave(vsp.members[0])
        reformed = overlay.maintenance()
        assert len(reformed) == 1
        assert reformed[0].epoch == vsp.epoch + 1
        assert len(reformed[0].members) == 3


class TestRouting:
    def test_two_hop_latencies_5_and_7_deliver_plus_12(self):
        overlay, ids = chain_overlay([5, 7])
        graph = nx.Graph()
        for a, peers in overlay.adj.items():
            for b, w in peers.items():
                graph.add_edge(a, b, weight=w)
        oracle = nx.dijkstra_path_length(graph, ids[0], ids[2])
        assert oracle == 12
        assert overlay.route(ids[0], ids[2]) == 12

    def test_route_to_self_is_zero(self):
        overlay, ids = chain_overlay([5, 7])
        assert overlay.route(ids[1], ids[1]) == 0
        assert overlay.route(ids[1], ids[1], size=10_000) == 0

    def test_route_to_offline_node_unreachable(self):
        overlay, ids = chain_overlay([5, 7])
        overlay.leave(ids[2])
        with pytest.raises(Unreachable):
            overlay.route(ids[0], ids[2])

    def test_partition_unreachable(self):
        # Middle node down severs the only path.
        overlay, ids = chain_overlay([5, 7])
        overlay.leave(ids[1])
        with pytest.raises(Unreachable):
            overlay.route(ids[0], ids[2])
        assert not overlay.reachable(ids[0], ids[2])

    def test_transfer_term_uses_bottleneck_bandwidth(self):
        # Links carry min(10,40)=10 and min(40,40)=40; bottleneck 10.
        overlay, ids = chain_overlay([5, 7], bandwidths=[10, 40, 40])
        assert overlay.route(ids[0], ids[2]) == 12
        assert overlay.route(ids[0], ids[2], size=25) == 12 + 3  # ceil(25/10)
        assert overlay.route(ids[0], ids[2], size=1) == 12 + 1

    def test_route_agrees_with_networkx_on_built_topology(self):
        cfg = OverlayConfig(degree=4, min_degree=3, inter_region_links=2,
                            intra_latency=5, inter_latency=50, m_target=3)
        overlay = Overlay(cfg, RngStream(17, "overlay"))
        ids = [nid(i + 1) for i in range(36)]
        for i, node in enumerate(ids):
            region = ("a", "b", "c")[i % 3]
            overlay.add_record(NodeRecord(node, region,
                                          ResourceVector(4, 100, 20)),
                               online=True)
        overlay.build()
        graph = nx.Graph()
        for a, peers in overlay.adj.items():
            for b, w in peers.items():
                graph.add_edge(a, b, weight=w)
        for src in ids[::5]:
            oracle = nx.single_source_dijkstra_path_length(graph, src)
            for dst in ids[::7]:
                assert overlay.route(src, dst) == oracle[dst]

    def test_a_relink_or_self_link_is_refused_and_moves_nothing(self):
        # a link is made once: a re-link is refused whether it would
        # lengthen the link, keep its latency or shorten it
        overlay, ids = chain_overlay([5, 7])
        labels = overlay.graph.labelling()
        assert labels.nearest(ids[2], [ids[0]]) == (ids[0], 12)
        before = linked_facts(overlay, labels)
        for a, b, latency in ((ids[0], ids[1], 20), (ids[2], ids[1], 8),
                              (ids[1], ids[0], 5), (ids[1], ids[2], 3),
                              (ids[1], ids[1], 5)):
            with pytest.raises(ValueError):
                overlay.add_link(a, b, latency)
            assert linked_facts(overlay, labels) == before
        assert overlay.route(ids[0], ids[2]) == 12
        assert labels.read(ids[2]) == (ids[0], 12)
        assert_kept_facts(overlay)

    def test_joining_a_linked_node_opens_routes_through_it(self):
        overlay, ids = chain_overlay([5, 7])
        labels = overlay.graph.labelling()
        assert labels.nearest(ids[2], [ids[0]]) == (ids[0], 12)
        overlay.leave(ids[1])
        for a, b in ((ids[0], ids[1]), (ids[1], ids[2])):
            with pytest.raises(UnknownNode):  # an offline node links nothing
                overlay.add_link(a, b, 5)
        assert overlay.adj[ids[1]] == {}
        assert not overlay.reachable(ids[0], ids[2])
        assert labels.read(ids[2]) == (None, None)
        overlay.join(ids[1], 2)  # alone in its region: the join adds no edge
        assert not overlay.reachable(ids[0], ids[2])
        overlay.add_link(ids[0], ids[1], 5)
        overlay.add_link(ids[1], ids[2], 7)
        assert overlay.route(ids[0], ids[2]) == 12
        assert labels.read(ids[2]) == (ids[0], 12)

    def test_nearest_breaks_latency_ties_by_smaller_id(self):
        overlay, ids = chain_overlay([5, 5, 5, 5])
        # ids[1] and ids[3] are both 5 from ids[2]
        assert overlay.graph.nearest(ids[2], [ids[3], ids[1], ids[0]]) == (ids[1], 5)
        assert overlay.graph.nearest(ids[2], [ids[4], ids[0]]) == (ids[0], 10)
        assert overlay.graph.nearest(ids[2], [ids[2], ids[1]]) == (ids[2], 0)

    def test_nearest_skips_offline_and_unreachable_candidates(self):
        overlay, ids = chain_overlay([5, 7, 9])
        overlay.leave(ids[1])  # cuts ids[0] off, and ids[1] is offline
        assert overlay.graph.nearest(ids[2], [ids[0], ids[1], ids[3]]) == (ids[3], 9)
        assert overlay.graph.nearest(ids[2], [ids[0], ids[1]]) == (None, None)
        assert overlay.graph.nearest(ids[2], [ids[0]]) == (None, None)
        assert overlay.graph.nearest(ids[2], []) == (None, None)

    def test_nearest_from_an_offline_node_is_none(self):
        overlay, ids = chain_overlay([5, 7])
        overlay.leave(ids[0])
        assert overlay.graph.nearest(ids[0], ids) == (None, None)
        assert overlay.graph.nearest(ids[0], ids[1:2]) == (None, None)

    def test_a_kept_source_that_rejoins_unasked_is_no_source(self):
        overlay, ids = chain_overlay([5, 5, 5])
        labels = overlay.graph.labelling()
        assert labels.nearest(ids[3], [ids[0]]) == (ids[0], 15)
        overlay.leave(ids[0])
        overlay.join(ids[0], 1)  # alone in its region: the join adds no link
        overlay.add_link(ids[0], ids[1], 5)
        assert labels.read(ids[3]) == (None, None)
        assert labels.nearest(ids[3], [ids[0]]) == (ids[0], 15)

    def test_nearest_tie_reached_larger_id_first_gives_the_smaller_id(self):
        # 1 -10- 4 and 1 -9- 3 -1- 2: 4 is pushed at 10 by the first pop,
        # 2 only after 3 (at 9, one below the answer) is expanded, and both
        # are 10 from 1
        overlay, ids = linked_overlay(4, [(1, 4, 10), (1, 3, 9), (3, 2, 1)])
        assert overlay.graph.nearest(ids[0], [ids[3], ids[1]]) == (ids[1], 10)

    def test_a_target_reached_at_the_final_latency_needs_no_pop(self):
        # a star: hub 1 and leaves 2..9, every link 5; leaves share no
        # link, so a route between two of them searches through the hub
        graph, ids = linked_graph(9, [(1, leaf, 5) for leaf in range(2, 10)])
        first, leaves = ids[1], ids[2:]
        index = [graph.index[leaf] for leaf in leaves]
        search = graph._search(graph.index[first])
        assert graph._settle(search, (index[0],)) == 10
        _, buckets, keys = search
        # only first and the hub were expanded: the leaves wait in one bucket
        left = {10: index}
        assert buckets == left and keys == [10]
        assert graph._settle(search, (index[-1],)) == 10
        assert buckets == left and keys == [10]

    def test_one_routes_call_shares_one_search(self, monkeypatch):
        # the star again: each leaf is searched for through the hub, and a
        # later call starts a search of its own
        graph, ids = linked_graph(9, [(1, leaf, 5) for leaf in range(2, 10)])
        first, leaves = ids[1], ids[2:]
        started = count_searches(graph, monkeypatch)
        assert graph.routes(first, leaves, 1) == [10 + 1] * len(leaves)
        assert started == [graph.index[first]]
        assert graph.routes(first, [first, ids[0]] + leaves[:1]) == [0, 5, 10]
        assert len(started) == 2

    @pytest.mark.parametrize("ac,cb", [(5, 5), (12, 1)])
    def test_a_direct_link_a_detour_beats_is_not_taken(self, ac, cb):
        # a -20- b, and a -ac- c -cb- b is shorter; with (12, 1) the link
        # is within twice a's least latency, but not within a's and b's
        overlay, ids = linked_overlay(3, [(1, 2, 20), (1, 3, ac), (3, 2, cb)])
        a, b = ids[:2]
        assert overlay.route(a, b) == overlay.route(b, a) == ac + cb
        assert overlay.route(a, b, 25) == overlay.route(b, a, 25) == ac + cb + 1
        check_routes_from(overlay, a, ids, 25)

    @pytest.mark.parametrize("bandwidths", [(40, 40, 1000), (40, 40, 3),
                                            (3, 40, 1000), (0, 40, 1000)])
    def test_a_direct_link_at_the_bound_gives_the_search_answer(
            self, bandwidths, monkeypatch):
        # a -10- b ties a -5- c -5- b at exactly a's and b's least latencies
        overlay, ids = linked_overlay(3, [(1, 2, 10), (1, 3, 5), (3, 2, 5)],
                                      bandwidths)
        graph = overlay.graph
        a, b = (graph.index[n] for n in ids[:2])
        search = graph._search(a)
        latency = graph._settle(search, (b,))
        want = latency + -(-99 // graph._widest(search[0], b))
        started = count_searches(graph, monkeypatch)
        assert overlay.route(ids[0], ids[1], 99) == want
        assert started == []  # the answer came from the bound
        check_routes_from(overlay, ids[0], ids, 99)

    @pytest.mark.parametrize("first", [0, 1])
    def test_sized_route_is_the_same_both_ways(self, first):
        # a -3- x -7- b and a -7- y -3- b tie at 10. The path through x is
        # 1 wide and the one through y 1000 wide, so a sized route takes
        # y's whichever end it searches from.
        cfg = OverlayConfig(degree=2, min_degree=1, inter_region_links=0)
        overlay = Overlay(cfg, RngStream(7, "overlay"))
        a, x, y, b = (nid(i) for i in (1, 2, 3, 4))
        for node, region, bandwidth in ((a, "ra", 1000), (x, "rx", 1),
                                        (y, "ry", 1000), (b, "rb", 1000)):
            # one region each, so joins add no links of their own
            overlay.add_record(NodeRecord(node, region,
                                          ResourceVector(10, 1000, bandwidth)))
            overlay.join(node, 0)
        for u, v, latency in ((a, x, 3), (x, b, 7), (a, y, 7), (y, b, 3)):
            overlay.add_link(u, v, latency)
        src, dst = (a, b) if first == 0 else (b, a)
        assert overlay.route(src, dst, 100) == 10 + 1
        assert reference_distances(overlay, a)[b] == (10, 1000)
        assert overlay.route(a, b, 100) == overlay.route(b, a, 100) == 10 + 1
        assert overlay.route(a, b) == overlay.route(b, a) == 10

    def test_answers_do_not_depend_on_the_order_records_are_added(self):
        # a 4 x 4 grid, every link 5: each pair has many shortest paths,
        # and the bandwidths make them differ in width
        cells = [(r, c) for r in range(4) for c in range(4)]
        ids = {cell: nid(1 + 4 * cell[0] + cell[1]) for cell in cells}
        links = [(ids[r, c], ids[r + dr, c + dc])
                 for r, c in cells for dr, dc in ((0, 1), (1, 0))
                 if (r + dr, c + dc) in ids]

        def answers(order):
            cfg = OverlayConfig(degree=2, min_degree=1, inter_region_links=0)
            overlay = Overlay(cfg, RngStream(7, "overlay"))
            labels = overlay.graph.labelling()
            for cell in order:
                bandwidth = (3, 40, 10, 25)[(cell[0] * 3 + cell[1]) % 4]
                # one region each, so joins add no links of their own
                overlay.add_record(NodeRecord(ids[cell], f"r{cell}",
                                              ResourceVector(10, 1000, bandwidth)))
                overlay.join(ids[cell], 0)
            for u, v in links:
                overlay.add_link(u, v, 5)
            nodes = sorted(ids.values())
            out = [overlay.route(u, v, size)
                   for size in (0, 100) for u in nodes for v in nodes]
            near = [overlay.graph.nearest(u, nodes[k::5])
                    for u in nodes for k in range(5)]
            # the kept labelling swaps its sources at every call
            assert [labels.nearest(u, nodes[k::5])
                    for u in nodes for k in range(5)] == near
            return out + near

        assert answers(cells) == answers(cells[::-1])

    def test_single_node_removal_never_partitions_after_repair(self):
        cfg = OverlayConfig(degree=6, min_degree=3, inter_region_links=3,
                            m_target=3)
        overlay = Overlay(cfg, RngStream(23, "overlay"))
        ids = [nid(i + 1) for i in range(24)]
        for i, node in enumerate(ids):
            overlay.add_record(NodeRecord(node, ("a", "b")[i % 2],
                                          ResourceVector(4, 100, 20)),
                               online=True)
        overlay.build()
        for victim in ids[:8]:
            overlay.leave(victim)
            overlay.maintenance()
            alive = sorted(overlay.online_ids)
            root = alive[0]
            assert all(overlay.reachable(root, n) for n in alive)
            overlay.join(victim, 2)
            overlay.maintenance()


def linked_overlay(n, links, bandwidths=()):
    """Nodes 1..n, one region each, joined only by (a, b, latency) links.
    Node i + 1 has bandwidth bandwidths[i], or 1000 past their end."""
    cfg = OverlayConfig(degree=2, min_degree=1, inter_region_links=0)
    overlay = Overlay(cfg, RngStream(7, "overlay"))
    ids = [nid(i + 1) for i in range(n)]
    for i, node in enumerate(ids):
        bandwidth = bandwidths[i] if i < len(bandwidths) else 1000
        overlay.add_record(NodeRecord(node, f"r{i}",
                                      ResourceVector(10, 1000, bandwidth)))
        overlay.join(node, 0)
    for a, b, latency in links:
        overlay.add_link(nid(a), nid(b), latency)
    return overlay, ids


def linked_graph(n, links, bandwidths=()):
    """A bare Graph over nodes 1..n, all online, joined only by
    (a, b, latency) links. Node i + 1 has bandwidth bandwidths[i], or 1000
    past their end."""
    ids = [nid(i + 1) for i in range(n)]
    graph = Graph(set(ids))
    for i, node in enumerate(ids):
        graph.add(node, bandwidths[i] if i < len(bandwidths) else 1000)
    for a, b, latency in links:
        graph.link(nid(a), nid(b), latency)
    return graph, ids


def linked_facts(overlay, labels):
    """What a link write may move: the links, the facts kept for
    maintenance, the graph's least link latency and labels' labels."""
    return (overlay.adj, set(overlay._under), dict(overlay._inter),
            overlay.graph.least, list(labels._label))


def link_or_refuse(overlay, a, b, latency):
    """add_link(a, b, latency) between online nodes, or the ValueError it
    raises for a self-link or a link that exists."""
    if a == b or b in overlay.adj[a]:
        with pytest.raises(ValueError):  # a link is made once
            overlay.add_link(a, b, latency)
    else:
        overlay.add_link(a, b, latency)


def reference_distances(overlay, src):
    """(latency, bottleneck) of every node src reaches, by Dijkstra over
    one ``adj`` copy and ``records``. A path's width is the least max(1, min(bw_a,
    bw_b)) over its links, and the bottleneck is the widest over all the
    shortest paths."""
    def link(a, b):
        return max(1, min(overlay.records[a].capacity.bandwidth,
                          overlay.records[b].capacity.bandwidth))

    adj = overlay.adj
    dist = {src: 0}
    heap = [(0, src)]
    order = []
    while heap:
        d, node = heapq.heappop(heap)
        if d > dist[node]:
            continue
        order.append(node)
        for peer, latency in adj[node].items():
            if not overlay.is_online(peer):
                continue
            if peer not in dist or d + latency < dist[peer]:
                dist[peer] = d + latency
                heapq.heappush(heap, (d + latency, peer))
    # every node before another on a shortest path comes earlier in order
    width = {src: 1 << 62}
    for node in order[1:]:
        width[node] = max(min(width[peer], link(peer, node))
                          for peer, latency in adj[node].items()
                          if peer in dist and dist[peer] + latency == dist[node])
    return {node: (dist[node], width[node]) for node in order}


def count_searches(graph, monkeypatch):
    """The source index of every search the graph starts from now on."""
    started = []
    fresh = graph._search

    def search(src):
        started.append(src)
        return fresh(src)

    monkeypatch.setattr(graph, "_search", search)
    return started


def check_routes_from(overlay, a, nodes, size):
    """``route(a, b, size)``, ``route(b, a, size)`` and ``reachable(a, b)``
    for every b, and ``routes(a, nodes, size)``, equal the reference, with
    None from routes and Unreachable from route exactly when it finds no
    path. ``nearest`` from a over every other node of nodes gives the
    reference node and latency."""
    dist = reference_distances(overlay, a)
    wants = []
    for b in nodes:
        if not (overlay.is_online(a) and overlay.is_online(b)):
            want = None
        elif a == b:
            want = 0
        elif b in dist:
            latency, bottleneck = dist[b]
            want = latency + (-(-size // bottleneck) if size > 0 else 0)
        else:
            want = None
        assert overlay.reachable(a, b) == (want is not None)
        for frm, to in ((a, b), (b, a)):
            if want is None:
                with pytest.raises(Unreachable):
                    overlay.route(frm, to, size)
            else:
                assert overlay.route(frm, to, size) == want
        wants.append(want)
    assert overlay.graph.routes(a, nodes, size) == wants
    for cands in (nodes[::2], nodes[1::2]):
        assert overlay.graph.nearest(a, cands) == nearest_reference(
            overlay, a, cands, dist)


def nearest_reference(overlay, frm, candidates, dist=None):
    """(id, latency) of the smallest (latency, id) over the online
    candidates frm reaches, or (None, None); dist is frm's
    reference_distances, computed if not given."""
    if not overlay.is_online(frm):
        return None, None
    dist = dist or reference_distances(overlay, frm)
    reached = [(dist[c][0], c) for c in candidates
               if overlay.is_online(c) and c in dist]
    return min(reached)[::-1] if reached else (None, None)


CHURN_NODES = 8
CHURN_REGIONS = ("a", "b")
# (op, node, node, value): nodes are taken modulo the current count; value
# is the latency of add_link, the bandwidth of add_record, and the transfer
# size of the routes checked after the op.
churn_ops = st.lists(st.tuples(
    st.sampled_from(("join", "leave", "maintenance", "add_link", "add_record")),
    st.integers(0, 2 * CHURN_NODES), st.integers(0, 2 * CHURN_NODES),
    st.sampled_from((0, 1, 3, 5, 7, 10, 25, 40, 50, 999)),
), min_size=5, max_size=20)
# (query, node, node, size, candidates) asked between ops, before the full
# check, so that they meet searches that earlier queries advanced part way;
# a route query also asks reachable
churn_queries = st.lists(st.tuples(
    st.sampled_from(("route", "nearest")),
    st.integers(0, 2 * CHURN_NODES), st.integers(0, 2 * CHURN_NODES),
    st.sampled_from((0, 0, 1, 25, 999)),
    st.lists(st.integers(0, 2 * CHURN_NODES), max_size=4),
), max_size=6)


# the candidates of the kept labelling
churn_candidates = st.lists(st.integers(0, 2 * CHURN_NODES), max_size=4)


def check_labels(overlay, labels, sources):
    """Every node's label is its nearest source by a fresh search: the
    least (latency, NodeId) over sources, or (None, None)."""
    for node in overlay.records:
        assert labels.read(node) == nearest_reference(overlay, node, sources)


class NoQueries:
    """Stands in for ``st.data()`` in an explicit example: asks nothing."""

    def draw(self, strategy):
        return []


class TestRegularGraph:
    def test_port_draws_the_networkx_graph(self):
        """networkx is the reference: the port makes the same draws, so it
        returns the same edges at every (d, n, seed), and its connectivity
        check agrees with networkx's."""
        retried = disconnected = 0
        for d in range(2, 9):
            for n in range(d + 1, 25):
                if n * d % 2:
                    continue
                for seed in range(5):
                    graph = nx.random_regular_graph(d, n, seed=seed)
                    edges = random_regular_edges(d, n, random.Random(seed))
                    assert edges == set(graph.edges()), (d, n, seed)
                    assert _connected(n, edges) == nx.is_connected(graph)
                    disconnected += not nx.is_connected(graph)
                    retried += _pair_stubs(d, n, random.Random(seed)) is None
        # the grid reaches failed pairings and graphs in pieces
        assert retried > 0 and disconnected > 0

    @pytest.mark.parametrize("d,n", [(3, 5), (4, 4), (5, 3)])
    def test_no_regular_graph_is_an_error_not_an_endless_pairing(self, d, n):
        with pytest.raises(ValueError):
            random_regular_edges(d, n, random.Random(0))


class TestRoutingUnderChurn:
    @given(seed=st.integers(0, 2**16),
           online=st.lists(st.sampled_from([True, True, False]),
                           min_size=CHURN_NODES, max_size=CHURN_NODES),
           bandwidths=st.lists(st.sampled_from([1, 3, 10, 40]),
                               min_size=CHURN_NODES, max_size=CHURN_NODES),
           ops=churn_ops, sources=churn_candidates, data=st.data())
    @settings(max_examples=100, deadline=None)
    # a link from an online node to a new record, which is offline, is
    # refused
    @example(seed=0, online=[True] * CHURN_NODES, bandwidths=[1] * CHURN_NODES,
             ops=[("join", 0, 0, 0), ("join", 0, 0, 0), ("add_link", 0, 1, 1),
                  ("add_record", 0, 0, 0), ("add_link", 0, 8, 7)],
             sources=[0], data=NoQueries())
    def test_every_answer_matches_a_fresh_dijkstra(self, seed, online,
                                                   bandwidths, ops, sources,
                                                   data):
        cfg = OverlayConfig(degree=3, min_degree=2, inter_region_links=1,
                            intra_latency=5, inter_latency=50, m_target=3)
        overlay = Overlay(cfg, RngStream(seed, "overlay"))
        ids = []
        # kept from the first record on, over candidates: the drawn
        # sources at first, drawn anew between some ops
        labels, candidates = overlay.graph.labelling(), []

        def add(bandwidth, online=False):
            # ids are spread so that a late record sorts among the others
            ids.append(nid((7919 * len(ids)) % 1009 + 1))
            overlay.add_record(NodeRecord(
                ids[-1], CHURN_REGIONS[len(ids) % len(CHURN_REGIONS)],
                ResourceVector(4, 100, bandwidth)), online=online)

        def ask(queries):
            for query, i, j, size, cands in queries:
                a, b = ids[i % len(ids)], ids[j % len(ids)]
                if query == "route":
                    check_routes_from(overlay, a, [b], size)
                else:
                    cands = [ids[k % len(ids)] for k in cands]
                    assert overlay.graph.nearest(a, cands) == nearest_reference(
                        overlay, a, cands)

        def keep(a):
            """Ask the labelling from a, over a fresh candidate set now and
            then; return the sources it keeps from then on."""
            drawn = data.draw(st.none() | churn_candidates)
            if drawn is not None:
                candidates[:] = [ids[k % len(ids)] for k in drawn]
            assert (labels.nearest(a, candidates)
                    == overlay.graph.nearest(a, candidates))
            kept = {c for c in candidates if overlay.is_online(c)}
            check_labels(overlay, labels, kept)
            return kept

        for i in range(CHURN_NODES):
            add(bandwidths[i], online[i])
        overlay.build()
        assert_kept_facts(overlay)
        candidates[:] = [ids[k % len(ids)] for k in sources]
        kept = keep(ids[0])
        ask(data.draw(churn_queries))
        for src in ids:
            check_routes_from(overlay, src, ids, 0)
        for op, i, j, value in ops:
            a, b = ids[i % len(ids)], ids[j % len(ids)]
            # a search from a that the op may make stale, asked from a
            # again first thing after the op
            overlay.graph.routes(a, ids, value)
            if op == "join" and not overlay.is_online(a):
                overlay.join(a, 1)
            elif op == "leave" and overlay.is_online(a):
                overlay.leave(a)
                kept.discard(a)  # a rejoin does not make it a source again
            elif op == "maintenance":
                overlay.maintenance()
            elif op == "add_link" and value < 1:
                with pytest.raises(ValueError):  # every link takes a tick
                    overlay.add_link(a, b, value)
            elif op == "add_link" and not (overlay.is_online(a)
                                           and overlay.is_online(b)):
                with pytest.raises(UnknownNode):  # only online nodes link
                    overlay.add_link(a, b, value)
            elif op == "add_link":
                link_or_refuse(overlay, a, b, value)
            elif op == "add_record":
                add(value)
            check_routes_from(overlay, a, ids, value)
            assert_kept_facts(overlay)
            check_labels(overlay, labels, kept)  # repaired by the hooks
            kept = keep(a)
            for region in CHURN_REGIONS:
                assert overlay.online_in_region(region) == sorted(
                    n for n in overlay.regions[region] if overlay.is_online(n))
            ask(data.draw(churn_queries))
            # every source, so that an answer from a stale search shows
            for src in ids:
                check_routes_from(overlay, src, ids, value)


def searched_routes(graph, frm, tos, size):
    """The reference for Graph.routes: its code before the transfer term
    was bracketed, which runs _widest for every sized target it searches."""
    online = graph.online
    if frm not in online:
        return [None for _ in tos]
    src = graph.index[frm]
    links, least, bw = graph.links[src], graph.least, graph.bw
    search = None
    out = []
    for to in tos:
        if to not in online:
            out.append(None)
            continue
        if to == frm:
            out.append(0)
            continue
        dst = graph.index[to]
        latency = links.get(dst)
        if latency is None or latency > 2 * least:
            if search is None:
                search = graph._search(src)
            latency = graph._settle(search, (dst,))
            if latency == _UNBOUNDED:
                out.append(None)
                continue
            if size > 0:
                latency += -(-size // graph._widest(search[0], dst))
        elif size > 0:
            latency += -(-size // min(bw[src], bw[dst]))
        out.append(latency)
    return out


class TestTransferBracket:
    @given(nodes=st.lists(st.tuples(st.sampled_from((0, 1, 2, 3, 5, 10, 40)),
                                     st.sampled_from((True, True, False))),
                          min_size=2, max_size=8),
           chain=st.lists(st.integers(1, 12), min_size=7, max_size=7),
           links=st.lists(st.tuples(st.integers(0, 7), st.integers(0, 7),
                                    st.integers(1, 12)), max_size=8),
           sizes=st.lists(st.sampled_from((1, 5, 20, 30)) | st.integers(0, 100),
                          min_size=1, max_size=3))
    @settings(max_examples=200, deadline=None)
    # the ends are 40 wide and the one path between them 1 wide
    @example(nodes=[(40, True), (1, True), (40, True)], chain=[5] * 7,
             links=[], sizes=[100])
    def test_every_answer_equals_the_widest_path_search(self, nodes, chain,
                                                        links, sizes):
        # nodes are (bandwidth, online), linked in a chain and by a few
        # more links where both ends are online (a self-link or a re-link
        # is refused); an offline record is no path's node, but its
        # bandwidth can put _floor below every path
        cfg = OverlayConfig(degree=2, min_degree=1, inter_region_links=0)
        overlay = Overlay(cfg, RngStream(7, "overlay"))
        ids = [nid(i + 1) for i in range(len(nodes))]
        for i, (bandwidth, online) in enumerate(nodes):
            overlay.add_record(NodeRecord(ids[i], f"r{i}",
                                          ResourceVector(10, 1000, bandwidth)))
            if online:
                overlay.join(ids[i], 0)
        ends = [(a, a + 1, latency)
                for a, latency in enumerate(chain[:len(ids) - 1])] + links
        for a, b, latency in ends:
            a, b = ids[a % len(ids)], ids[b % len(ids)]
            if overlay.is_online(a) and overlay.is_online(b):
                link_or_refuse(overlay, a, b, latency)
        for size in sizes:
            for frm in ids:
                assert (overlay.graph.routes(frm, ids, size)
                        == searched_routes(overlay.graph, frm, ids, size))


class TestKeptFacts:
    def test_a_link_with_an_offline_end_is_refused_and_moves_no_fact(self):
        cfg = OverlayConfig(degree=2, min_degree=1, inter_region_links=0)
        overlay = Overlay(cfg, RngStream(7, "overlay"))
        a, b = nid(1), nid(2)
        overlay.add_record(NodeRecord(a, "ra", ResourceVector(1, 1, 1)))
        overlay.add_record(NodeRecord(b, "rb", ResourceVector(1, 1, 1)))
        overlay.join(b, 0)  # no online peer to link to
        assert overlay._under == {b}
        labels = overlay.graph.labelling()
        assert labels.nearest(b, [b]) == (b, 0)
        before = linked_facts(overlay, labels)
        # a is offline, and nid(3) has no record
        for ends in ((a, b), (b, a), (a, a), (b, nid(3))):
            with pytest.raises(UnknownNode):
                overlay.add_link(*ends, 5)
            assert linked_facts(overlay, labels) == before
        assert_kept_facts(overlay)
        overlay.join(a, 1)
        overlay.add_link(a, b, 5)
        assert overlay._inter[("ra", "rb")] == 1
        assert overlay._under == set()
        assert_kept_facts(overlay)
        overlay.leave(b)
        assert overlay._inter[("ra", "rb")] == 0
        assert overlay._under == {a}
        assert_kept_facts(overlay)

    @pytest.mark.parametrize("mode,seed", [("community", 1), ("vendor", 3)])
    def test_every_maintenance_pass_of_a_run_starts_from_true_facts(
            self, monkeypatch, mode, seed):
        passes = []
        maintenance = Overlay.maintenance

        def checked(overlay):
            assert_kept_facts(overlay)
            passes.append(overlay)
            return maintenance(overlay)

        monkeypatch.setattr(Overlay, "maintenance", checked)
        run_scenario(with_overrides(
            parse_scenario(SCENARIO_DIR / "mixed_churn.ini"),
            seed=seed, mode=mode))
        assert passes

    @pytest.mark.parametrize("seed", [1, 2])
    def test_every_kept_answer_of_a_run_equals_a_fresh_search(
            self, monkeypatch, seed):
        answers = []
        kept = NearestLabels.nearest

        def checked(labels, frm, candidates):
            answer = kept(labels, frm, candidates)
            assert answer == labels._graph.nearest(frm, candidates)
            answers.append(answer)
            return answer

        monkeypatch.setattr(NearestLabels, "nearest", checked)
        run_scenario(with_overrides(
            parse_scenario(SCENARIO_DIR / "mixed_churn.ini"), seed=seed))
        assert answers


class TestVendorRoutes:
    def test_a_vendor_run_routes_over_direct_links_without_a_search(
            self, monkeypatch):
        calls = {"route": 0, "_search": 0}
        for owner, name in ((Overlay, "route"), (Graph, "_search")):
            method = getattr(owner, name)

            def counted(self, *args, _name=name, _method=method, **kw):
                calls[_name] += 1
                return _method(self, *args, **kw)

            monkeypatch.setattr(owner, name, counted)
        run_scenario(with_overrides(
            parse_scenario(SCENARIO_DIR / "wiki_small.ini"), mode="vendor"))
        assert calls["route"] > 0 and calls["_search"] == 0


class TestSuperPeers:
    def test_single_node_region_clamps_to_size_one(self):
        overlay, ids = clique_overlay(1, m_target=5)
        vsp = overlay.form_dvsp("main")
        assert vsp.members == (ids[0],)
        assert vsp.quorum == 1

    def test_empty_region_raises(self):
        overlay, ids = clique_overlay(2)
        with pytest.raises(EmptyRegion):
            overlay.form_dvsp("nowhere")
        overlay.leave(ids[0])
        overlay.leave(ids[1])
        with pytest.raises(EmptyRegion):
            overlay.form_dvsp("main")

    def test_members_are_longest_uptime_ties_by_id(self):
        overlay, ids = clique_overlay(5, m_target=3,
                                      joined_at=[0, 10, 5, 3, 5])
        vsp = overlay.form_dvsp("main")
        # online_since 0 < 3 < 5, tie at 5 broken by ascending id (node 3).
        assert vsp.members == (ids[0], ids[3], ids[2])

    def test_kill_floor_half_members_reforms_full_within_two_rounds(self):
        overlay, ids = clique_overlay(9, m_target=5,
                                      joined_at=list(range(9)))
        vsp = overlay.form_dvsp("main")
        for member in vsp.members[: len(vsp.members) // 2]:
            overlay.leave(member)
        rounds = 0
        for _ in range(2):
            rounds += 1
            overlay.maintenance()
            current = overlay.dvsps["main"]
            if current.epoch > vsp.epoch and len(current.members) == 5:
                break
        assert rounds <= 2
        current = overlay.dvsps["main"]
        assert current.epoch == vsp.epoch + 1
        assert len(current.members) == 5
        assert all(overlay.is_online(m) for m in current.members)


class TestTransactions:
    @staticmethod
    def _fixture():
        overlay, ids = clique_overlay(4, m_target=3, joined_at=[0, 1, 2, 3])
        overlay.form_dvsp("main")
        ledger = small_ledger([(ids[0], 10), (ids[1], 0), (ids[2], 0)])
        return overlay, ids, ledger

    @staticmethod
    def _balances(ledger):
        return {k: a.balance for k, a in ledger.accounts.items()}

    def test_empty_op_list_commits_without_state_change(self):
        overlay, ids, ledger = self._fixture()
        snapshot = self._balances(ledger)
        result = overlay.execute_transaction("main", [], ledger)
        assert result.committed
        assert self._balances(ledger) == snapshot
        assert ledger.log == []

    def test_offline_receiver_aborts_with_balances_unchanged(self):
        overlay, ids, ledger = self._fixture()
        overlay.leave(ids[1])
        snapshot = self._balances(ledger)
        ops = [Transfer(0, ids[0], ids[1], 4, "pay")]
        result = overlay.execute_transaction("main", ops, ledger)
        assert not result.committed
        assert result.reason.startswith("participant-offline")
        assert self._balances(ledger) == snapshot
        assert ledger.log == []

    def test_credit_violation_in_op_3_rolls_back_ops_1_and_2(self):
        overlay, ids, ledger = self._fixture()
        snapshot = self._balances(ledger)
        ops = [
            Transfer(0, ids[0], ids[1], 4, "one"),
            Transfer(0, ids[1], ids[2], 2, "two"),
            Transfer(0, ids[2], ids[0], 50, "three"),  # c would go to -48
        ]
        result = overlay.execute_transaction("main", ops, ledger)
        assert not result.committed
        assert result.reason == "CreditLimitExceeded"
        assert self._balances(ledger) == snapshot
        assert ledger.log == []

    def test_full_batch_applies_atomically(self):
        overlay, ids, ledger = self._fixture()
        ops = [
            Transfer(7, ids[0], ids[1], 4, "one"),
            Transfer(7, ids[1], ids[2], 2, "two"),
        ]
        result = overlay.execute_transaction("main", ops, ledger)
        assert result.committed
        assert ledger.accounts[ids[0]].balance == 6
        assert ledger.accounts[ids[1]].balance == 2
        assert ledger.accounts[ids[2]].balance == 2
        assert ledger.log == ops  # at the tick each row carries

    def test_lost_quorum_is_a_refused_result(self):
        """A region whose super-peer lost its quorum, and a region with no
        super-peer at all, refuse the batch with a result, as a churning
        community does in ordinary traffic."""
        overlay, ids, ledger = self._fixture()
        vsp = overlay.dvsps["main"]
        for member in vsp.members[: vsp.quorum]:
            overlay.leave(member)
        snapshot = self._balances(ledger)
        for region in ("main", "unknown-region"):
            result = overlay.execute_transaction(region, [], ledger)
            assert result == TransactionResult(False, "no-quorum")
        assert self._balances(ledger) == snapshot
        assert ledger.log == []

    @pytest.mark.parametrize("amount, fault", [(None, TypeError),
                                               (-1, ValueError)])
    def test_a_fault_in_a_batch_propagates(self, amount, fault):
        """Only the ledger's refusals (a LedgerError) come back as results.
        A row no caller may build is a fault in the program, so it is
        raised, not logged as an ordinary refused payment."""
        overlay, ids, ledger = self._fixture()
        snapshot = self._balances(ledger)
        ops = [Transfer(0, ids[0], ids[1], 4, "one"),
               Transfer(0, ids[1], ids[2], amount, "two")]
        with pytest.raises(fault):
            overlay.execute_transaction("main", ops, ledger)
        assert self._balances(ledger) == snapshot
        assert ledger.log == []
