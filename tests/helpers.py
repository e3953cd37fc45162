"""Shared builders: scripted overlays, flat-priced markets, tiny ledgers.

These builders favour exact control over realism. Chains put every node in
its own region so no automatic wiring happens and tests own every edge;
cliques give a fully connected single region for placement and DVSP work.
"""
from __future__ import annotations

from c3sim.engine import RngStream
from c3sim.ledger import BURN, MINT, Ledger, MarketConfig, MarketPrice
from c3sim.overlay import NodeId, NodeRecord, Overlay, OverlayConfig
from c3sim.resources import ResourceVector
from c3sim.routing import _UNBOUNDED


def nid(i: int) -> NodeId:
    return NodeId(i)


def flat_market(price: int = 1, minting: bool = False,
                p_max: int = 1000) -> MarketPrice:
    return MarketPrice(MarketConfig(
        initial={"compute": price, "storage": price, "bandwidth": price},
        p_min=1, p_max=p_max, minting=minting))


def chain_overlay(latencies, bandwidths=None, m_target=3):
    """Path graph over nodes 1..n, one region each, explicit link latencies."""
    n = len(latencies) + 1
    bw = bandwidths or [1000] * n
    cfg = OverlayConfig(degree=2, min_degree=1, inter_region_links=0,
                        m_target=m_target)
    overlay = Overlay(cfg, RngStream(7, "overlay"))
    ids = [nid(i + 1) for i in range(n)]
    for i, node in enumerate(ids):
        overlay.add_record(NodeRecord(node, f"r{i}",
                                      ResourceVector(10, 1000, bw[i])))
        overlay.join(node, 0)
    for i, latency in enumerate(latencies):
        overlay.add_link(ids[i], ids[i + 1], latency)
    return overlay, ids


def clique_overlay(n, region="main", m_target=3, joined_at=None,
                   compute=10, storage=10**6, bandwidth=1000):
    """n nodes in one region, every pair wired at the intra latency by the
    build, as a run wires the nodes online at its start."""
    cfg = OverlayConfig(degree=max(3, n - 1), min_degree=1,
                        inter_region_links=0, m_target=m_target)
    overlay = Overlay(cfg, RngStream(7, "overlay"))
    ids = [nid(i + 1) for i in range(n)]
    for i, node in enumerate(ids):
        overlay.add_record(NodeRecord(
            node, region, ResourceVector(compute, storage, bandwidth),
            online_since=joined_at[i] if joined_at else 0), online=True)
    overlay.build()
    return overlay, ids


def assert_kept_facts(overlay: Overlay) -> None:
    """The facts Overlay keeps for maintenance equal a fresh rescan, and
    its graph's one link table is symmetric, links only online nodes, is
    bounded below by least, has floor at its least bandwidth and is read
    out whole by adj."""
    records, graph = overlay.records, overlay.graph
    links, ids, online = graph.links, graph.ids, overlay.online_ids
    assert graph.online is online
    assert online == {n for region in overlay.regions
                      for n in overlay.online_in_region(region)}
    assert sorted(ids) == sorted(records)
    assert graph.index == {n: i for i, n in enumerate(ids)}
    assert graph.bw == [max(1, records[n].capacity.bandwidth) for n in ids]
    assert graph.floor == min(graph.bw, default=_UNBOUNDED)
    for i, peers in enumerate(links):
        for j, latency in peers.items():
            assert links[j].get(i) == latency, (i, j)
        if peers:
            assert ids[i] in online, i
            assert graph.least <= min(peers.values()), i
    adj = overlay.adj
    assert adj == {n: {ids[j]: latency
                       for j, latency in links[graph.index[n]].items()}
                   for n in records}
    min_degree = overlay.config.min_degree
    assert overlay._under == {n for n in online if len(adj[n]) < min_degree}
    regions = sorted(overlay.regions)
    for i, ra in enumerate(regions):
        for rb in regions[i + 1:]:
            count = sum(1 for a in overlay.regions[ra]
                        for b in adj[a] if records[b].region == rb)
            assert overlay._inter.get((ra, rb), 0) == count, (ra, rb)
    for region, vsp in overlay.dvsps.items():
        assert overlay._live[region] == sum(
            1 for m in vsp.members if overlay.is_online(m)), region


def small_ledger(accounts, market=None) -> Ledger:
    ledger = Ledger(market or flat_market())
    for owner, balance, *rest in accounts:
        ledger.open_account(owner, balance, rest[0] if rest else 0)
    return ledger


def mint_and_burn(ledger: Ledger) -> tuple[int, int]:
    """The units the ledger's log has minted and burned."""
    return (sum(r.amount for r in ledger.log if r.src == MINT),
            sum(r.amount for r in ledger.log if r.dst == BURN))


def assert_conserved(ledger: Ledger) -> None:
    """The balances sum to the opening total plus what the log minted, less
    what it burned."""
    minted, burned = mint_and_burn(ledger)
    assert (sum(a.balance for a in ledger.accounts.values())
            == sum(ledger.opening_balances.values()) + minted - burned)
