"""Peer-to-peer substrate: identities, regional topology, upkeep, super-peers.

Node identity is self-issued: a keypair is generated from the overlay's
random stream and the node id is the SHA-256 fingerprint of the public half,
so ids are 256-bit values no registry hands out.

Each region keeps a random regular graph of configurable degree among its
online members plus a configurable number of links to every other region.
The initial graph is drawn by Steger & Wormald's stub pairing ("Generating
random regular graphs quickly", 1999), ported step for step from
networkx 3.6.1's random_regular_graph and redrawn until connected. Its
draw order is part of the log-digest contract: another pairing order, or
another seeding of its random.Random, changes every run's topology.
Both ends of every link are online: add_link refuses an offline end, and
a departure tears down every link of the leaving node. So an offline node
has no links, and no search or labelling ever reaches one. A maintenance
pass (run at gossip rounds) restores minimum degree and inter-region
connectivity, and re-forms any super-peer whose membership decayed. The
pass reads three facts that the membership and edge hooks keep up to date
as they change: the online nodes below minimum degree, the link count of
each region pair, and the online members of each super-peer. So it walks
what needs repair, not every node and link. Links are stored once, in
routing.Graph, which only add_link and leave write: add_link makes a new
link, and a leave drops them. Routes are read from the graph; adj is a
copy of its links keyed by NodeId.
"""
from __future__ import annotations

import bisect
import random
from dataclasses import dataclass

from .engine import RngStream, SimTime, sha256
from .ledger import LedgerError
from .resources import ResourceVector
from .routing import ID_BITS, Graph


class OverlayError(Exception):
    pass


class DuplicateJoin(OverlayError):
    pass


class UnknownNode(OverlayError):
    pass


class Unreachable(OverlayError):
    pass


class EmptyRegion(OverlayError):
    pass


class NodeId(int):
    """A 256-bit node id; an int, so equality, hashing and ordering are an
    int's and run in C. `short`, the first 16 of the id's 64 hex digits,
    is formatted once, here: every request's log rows read it."""

    def __new__(cls, value: int):
        if not 0 <= value < 1 << ID_BITS:
            raise ValueError("node id out of range")
        self = super().__new__(cls, value)
        self.short = f"{value >> (ID_BITS - 64):016x}"
        return self

    def __repr__(self) -> str:
        return f"NodeId({self.short})"


def generate_identity(rng: RngStream) -> NodeId:
    """Self-issued id: key material from the stream, id = H(public)."""
    private = rng.getrandbits(ID_BITS).to_bytes(32, "big")
    public = sha256(b"pub:" + private).digest()
    return NodeId(int.from_bytes(sha256(public).digest(), "big"))


@dataclass(slots=True)
class NodeRecord:
    """A node as the overlay knows it: its region, capacity, churn means
    and the tick it last came online."""
    node_id: NodeId
    region: str
    capacity: ResourceVector
    mean_online: int = 0
    mean_offline: int = 0
    online_since: SimTime = 0


@dataclass(frozen=True, slots=True)
class VirtualSuperPeer:
    """A region's super-peer: its members and the epoch it was formed in."""
    members: tuple[NodeId, ...]
    epoch: int

    @property
    def quorum(self) -> int:
        return len(self.members) // 2 + 1


@dataclass(frozen=True, slots=True)
class TransactionResult:
    """Whether a region's quorum committed a ledger batch, and why not."""
    committed: bool
    reason: str | None = None


# Every commit returns this one result: it carries no per-batch state.
COMMITTED = TransactionResult(True)


@dataclass(frozen=True, slots=True)
class OverlayConfig:
    """How the overlay wires its nodes: degree bounds, cross-region links,
    latencies and the super-peer size."""
    degree: int = 6
    min_degree: int = 3
    inter_region_links: int = 3
    intra_latency: int = 5
    inter_latency: int = 50
    m_target: int = 5


class Overlay:
    def __init__(self, config: OverlayConfig, rng: RngStream):
        self.config = config
        self.rng = rng
        self.records: dict[NodeId, NodeRecord] = {}
        self.regions: dict[str, list[NodeId]] = {}
        # The online nodes, the one store of who is online; callers and
        # the graph only read it.
        self.online_ids: set[NodeId] = set()
        self.graph = Graph(self.online_ids)
        self.dvsps: dict[str, VirtualSuperPeer] = {}
        self._reform: set[str] = set()
        # Each region's online members, in NodeId order.
        self._online: dict[str, list[NodeId]] = {}
        # The online nodes with fewer than min_degree links.
        self._under: set[NodeId] = set()
        # Per region pair (ra, rb), ra < rb, the links between them.
        self._inter: dict[tuple[str, str], int] = {}
        # Per region with a super-peer, its online members.
        self._live: dict[str, int] = {}

    # -- membership ---------------------------------------------------------

    def add_record(self, record: NodeRecord, online: bool = False) -> None:
        """Register record; online puts it online at once, with no links."""
        if record.node_id in self.records:
            raise DuplicateJoin(f"{record.node_id!r} already registered")
        self.records[record.node_id] = record
        bisect.insort(self.regions.setdefault(record.region, []), record.node_id)
        self.graph.add(record.node_id, record.capacity.bandwidth)
        self._online.setdefault(record.region, [])
        if online:
            self._set_online(record, True)

    def is_online(self, node_id: NodeId) -> bool:
        return node_id in self.online_ids

    def online_in_region(self, region: str) -> list[NodeId]:
        """A copy of the region's online members, in NodeId order."""
        return list(self._online.get(region, ()))

    @property
    def adj(self) -> dict[NodeId, dict[NodeId, int]]:
        """A fresh copy of the links keyed by NodeId, for readers outside."""
        ids = self.graph.ids
        return {ids[i]: {ids[j]: latency for j, latency in links.items()}
                for i, links in enumerate(self.graph.links)}

    def join(self, node_id: NodeId, now: SimTime) -> None:
        rec = self.records.get(node_id)
        if rec is None:
            raise UnknownNode(repr(node_id))
        if node_id in self.online_ids:
            raise DuplicateJoin(repr(node_id))
        # The region's online members are the node's peers until
        # _set_online adds the node itself.
        peers = self._online[rec.region]
        take = min(self.config.degree, len(peers))
        picked = self.rng.sample(peers, take) if take else ()
        self._set_online(rec, True)
        rec.online_since = now
        for peer in picked:
            self.add_link(node_id, peer, self.config.intra_latency)

    def leave(self, node_id: NodeId) -> None:
        if node_id not in self.online_ids:
            raise UnknownNode(repr(node_id))
        rec, graph = self.records[node_id], self.graph
        self._set_online(rec, False)
        # Drop every link. The node is offline now, so only its peers'
        # degrees change; every peer is online, since its link was.
        for peer in graph.drop(node_id):
            if len(graph.links[graph.index[peer]]) < self.config.min_degree:
                self._under.add(peer)
            if self.records[peer].region != rec.region:
                self._count_inter(rec.region, self.records[peer].region, -1)

    def _set_online(self, rec: NodeRecord, online: bool) -> None:
        """Mark rec online or offline. A node comes online with no links,
        since an offline node holds none; leave drops a leaving node's
        links after this call."""
        node_id, region = rec.node_id, rec.region
        members = self._online[region]
        if online:
            self.online_ids.add(node_id)
            bisect.insort(members, node_id)
            if self.config.min_degree > 0:  # it has no links yet
                self._under.add(node_id)
        else:
            self.online_ids.discard(node_id)
            del members[bisect.bisect_left(members, node_id)]
            self._under.discard(node_id)
        vsp = self.dvsps.get(region)
        if vsp is not None and node_id in vsp.members:
            self._live[region] += 1 if online else -1
            if not online:
                self._reform.add(region)

    # -- topology -----------------------------------------------------------

    def build(self) -> None:
        """Wire the initial graph among currently-online nodes."""
        for region in sorted(self.regions):
            self._build_region(region)
        self._repair_inter_links()

    def _build_region(self, region: str) -> None:
        nodes = self.online_in_region(region)
        n, d = len(nodes), self.config.degree
        if n <= 1:
            return
        if n <= d + 1:
            for i, a in enumerate(nodes):
                for b in nodes[i + 1:]:
                    self.add_link(a, b, self.config.intra_latency)
            return
        odd_one = None
        if (n * d) % 2:
            odd_one = nodes[-1]
            nodes = nodes[:-1]
        for i, j in sorted(self._regular_graph(d, len(nodes))):
            self.add_link(nodes[i], nodes[j], self.config.intra_latency)
        if odd_one is not None:
            for peer in self.rng.sample(nodes, d):
                self.add_link(odd_one, peer, self.config.intra_latency)

    def _regular_graph(self, d: int, n: int) -> set[tuple[int, int]]:
        for attempt in range(64):
            rng = random.Random(self.rng.randrange(1 << 32))
            edges = random_regular_edges(d, n, rng)
            if _connected(n, edges):
                return edges
        raise OverlayError(f"no connected {d}-regular graph on {n} nodes")

    def add_link(self, a: NodeId, b: NodeId, latency: int) -> None:
        """Make the new link a -- b by graph.link. Both must be online, so
        that no offline node holds a link."""
        if latency < 1:  # routing's early stop relies on it
            raise ValueError(f"link latency {latency} is below 1")
        online = self.online_ids
        if a not in online or b not in online:
            raise UnknownNode(f"{a!r} -- {b!r}: only online nodes link")
        graph = self.graph
        graph.link(a, b, latency)
        least, under = self.config.min_degree, self._under
        if a in under and len(graph.links[graph.index[a]]) >= least:
            under.discard(a)
        if b in under and len(graph.links[graph.index[b]]) >= least:
            under.discard(b)
        ra, rb = self.records[a].region, self.records[b].region
        if ra != rb:
            self._count_inter(ra, rb, 1)

    def _count_inter(self, ra: str, rb: str, step: int) -> None:
        """Count a link between regions ra and rb in _inter: just added
        (step 1) or dropped (step -1)."""
        key = (ra, rb) if ra < rb else (rb, ra)
        self._inter[key] = self._inter.get(key, 0) + step

    def _repair_degrees(self) -> None:
        # Repairs only add links, so no node joins _under during the pass;
        # a node a repair lifted to min_degree is skipped.
        index, links = self.graph.index, self.graph.links
        for node_id in sorted(self._under):
            linked = links[index[node_id]]
            have = len(linked)
            if have >= self.config.min_degree:
                continue
            pool = [n for n in self._online[self.records[node_id].region]
                    if n != node_id and index[n] not in linked]
            want = min(self.config.degree - have, len(pool))
            for peer in self.rng.sample(pool, want) if want > 0 else ():
                self.add_link(node_id, peer, self.config.intra_latency)

    def _repair_inter_links(self) -> None:
        index, links = self.graph.index, self.graph.links
        regions = sorted(self.regions)
        for i, ra in enumerate(regions):
            for rb in regions[i + 1:]:
                a_online = self._online[ra]
                b_online = self._online[rb]
                if not a_online or not b_online:
                    continue
                live = self._inter.get((ra, rb), 0)
                for _ in range(self.config.inter_region_links - live):
                    a = self.rng.choice(a_online)
                    b = self.rng.choice(b_online)
                    if index[b] not in links[index[a]]:
                        self.add_link(a, b, self.config.inter_latency)

    def route(self, frm: NodeId, to: NodeId, size: int = 0) -> int:
        """graph.routes' answer; raises Unreachable where it gives None."""
        (latency,) = self.graph.routes(frm, (to,), size)
        if latency is None:
            raise Unreachable(f"{frm!r} -> {to!r}")
        return latency

    def reachable(self, frm: NodeId, to: NodeId) -> bool:
        return self.graph.routes(frm, (to,))[0] is not None

    # -- super-peers ---------------------------------------------------------

    def form_dvsp(self, region: str) -> VirtualSuperPeer:
        online = self._online.get(region)
        if not online:
            raise EmptyRegion(region)
        ranked = sorted(online, key=lambda n: (self.records[n].online_since, n))
        members = tuple(ranked[: self.config.m_target])
        last = self.dvsps.get(region)
        vsp = VirtualSuperPeer(members, last.epoch + 1 if last else 1)
        self.dvsps[region] = vsp
        self._live[region] = len(members)
        self._reform.discard(region)
        return vsp

    def dvsp_has_quorum(self, region: str) -> bool:
        vsp = self.dvsps.get(region)
        return vsp is not None and self._live[region] >= vsp.quorum

    def maintenance(self) -> list[VirtualSuperPeer]:
        """Gossip-round upkeep: degree repair, inter links, super-peer reform."""
        self._repair_degrees()
        self._repair_inter_links()
        reformed = []
        for region in sorted(self.regions):
            vsp = self.dvsps.get(region)
            online = self._online[region]
            if vsp is None and not online:
                continue
            want = min(self.config.m_target, len(online))
            # A member that went offline put its region in _reform.
            stale = (
                region in self._reform
                or vsp is None
                or len(vsp.members) < want
            )
            if stale and online:
                reformed.append(self.form_dvsp(region))
        return reformed

    # -- coordinated transactions --------------------------------------------

    def execute_transaction(self, region: str, ops, ledger) -> TransactionResult:
        """Atomic batch of ledger operations under the region's super-peer.

        Prepare requires a quorum of super-peer members online and every
        participant (each NodeId appearing in an op) online; commit applies
        the whole batch or nothing, each row at the tick it carries. A
        refusal is a result: "no-quorum" (also for a region with no
        super-peer), "participant-offline:<id>", or the name of the
        LedgerError the ledger refused the batch with. Any other exception
        is a fault and propagates.
        """
        if not self.dvsp_has_quorum(region):
            return TransactionResult(False, "no-quorum")
        online = self.online_ids
        for op in ops:
            for party in (op.src, op.dst):
                if isinstance(party, NodeId) and party not in online:
                    return TransactionResult(False, f"participant-offline:{party.short}")
        try:
            ledger.apply_batch(ops)
        except LedgerError as exc:  # a refusal changes nothing
            return TransactionResult(False, type(exc).__name__)
        return COMMITTED


# -- random regular graphs ----------------------------------------------------

def random_regular_edges(d: int, n: int, rng: random.Random) -> set[tuple[int, int]]:
    """Edges (i, j), i < j, of a random d-regular simple graph on nodes
    0..n-1 (n * d even, d < n), by Steger & Wormald's stub pairing.

    The same draws as networkx 3.6.1's random_regular_graph(d, n, seed)
    on this rng, in the same order, so it returns the same edge set."""
    if (n * d) % 2 or not 0 <= d < n:  # no such graph: pairing never ends
        raise ValueError(f"no {d}-regular graph on {n} nodes")
    while True:
        edges = _pair_stubs(d, n, rng)
        if edges is not None:
            return edges


def _pair_stubs(d: int, n: int, rng: random.Random) -> set[tuple[int, int]] | None:
    """One pairing attempt: pair shuffled stubs, keep every new non-loop
    edge and re-pair the stubs of the rest; None once no rest can pair."""
    edges: set[tuple[int, int]] = set()
    stubs = list(range(n)) * d
    while stubs:
        leftover: dict[int, int] = {}
        rng.shuffle(stubs)
        pairs = iter(stubs)
        for s1, s2 in zip(pairs, pairs):
            if s1 > s2:
                s1, s2 = s2, s1
            if s1 != s2 and (s1, s2) not in edges:
                edges.add((s1, s2))
            else:
                leftover[s1] = leftover.get(s1, 0) + 1
                leftover[s2] = leftover.get(s2, 0) + 1
        if not _suitable(edges, leftover):
            return None
        stubs = [node for node, k in leftover.items() for _ in range(k)]
    return edges


def _suitable(edges: set[tuple[int, int]], leftover: dict[int, int]) -> bool:
    """Whether some pair of leftover nodes may still be joined.

    The swap rebinds s1 for the rest of the inner loop. networkx does the
    same, and which pairs are tried decides which attempts are retried."""
    if not leftover:
        return True
    for s1 in leftover:
        for s2 in leftover:
            if s1 == s2:
                break
            if s1 > s2:
                s1, s2 = s2, s1
            if (s1, s2) not in edges:
                return True
    return False


def _connected(n: int, edges: set[tuple[int, int]]) -> bool:
    """Whether the graph on nodes 0..n-1 (n >= 1) with these edges is
    connected."""
    adj: list[list[int]] = [[] for _ in range(n)]
    for a, b in edges:
        adj[a].append(b)
        adj[b].append(a)
    seen = {0}
    stack = [0]
    while stack:
        for peer in adj[stack.pop()]:
            if peer not in seen:
                seen.add(peer)
                stack.append(peer)
    return len(seen) == n
