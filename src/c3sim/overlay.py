"""Peer-to-peer substrate: identities, regional topology, routing, super-peers.

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
what needs repair, not every node and link. Links are stored once, by node
index, and only add_link writes them: each write is a new link or a shorter
one, and it refuses a self-link or a longer one, so only a leave makes a
route longer. adj is a copy keyed by NodeId for readers outside.

Routing keeps one kind of state between calls: the nearest-source
labellings that `labelling()` hands out (one per published service, for
request placement). Each holds, for every node, its least (route latency,
source NodeId) over a set of sources, and the membership and link hooks
repair it in place at every topology change. A route over a direct link
needs no search when the link is no longer than its two ends' least link
latencies together: any other path leaves and enters by other links, so it
is no shorter, and it is no wider, since a link is as wide as its narrower
end. Any other query runs a Dial bucket search (Dial, CACM 1969) from its
source, answers every target it was asked for from that one search, and
drops it on return. A sized route's transfer term needs the widest path
only when the two ends' bandwidths and the least bandwidth of any node
bracket it loosely: bandwidths never change, so every path's width lies
between them, and a term that both bounds give is the term.
"""
from __future__ import annotations

import bisect
import heapq
import random
from dataclasses import dataclass

from .engine import RngStream, SimTime, sha256
from .resources import ResourceVector

ID_BITS = 256
# Farther than any path and wider than any link.
_UNBOUNDED = 1 << 62


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


class NoQuorum(OverlayError):
    pass


class NodeId(int):
    """A 256-bit node id; an int, so hashing and ordering run in C."""
    __slots__ = ()

    def __new__(cls, value: int):
        if not 0 <= value < 1 << ID_BITS:
            raise ValueError("node id out of range")
        return super().__new__(cls, value)

    @property
    def short(self) -> str:
        """The first 16 of the id's 64 hex digits."""
        return f"{self >> (ID_BITS - 64):016x}"

    def __repr__(self) -> str:
        return f"NodeId({self.short})"


def generate_identity(rng: RngStream) -> NodeId:
    """Self-issued id: key material from the stream, id = H(public)."""
    private = rng.getrandbits(ID_BITS).to_bytes(32, "big")
    public = sha256(b"pub:" + private).digest()
    return NodeId(int.from_bytes(sha256(public).digest(), "big"))


@dataclass(slots=True)
class NodeRecord:
    node_id: NodeId
    region: str
    capacity: ResourceVector
    mean_online: int = 0
    mean_offline: int = 0
    online_since: SimTime = 0


@dataclass(frozen=True, slots=True)
class VirtualSuperPeer:
    members: tuple[NodeId, ...]
    epoch: int

    @property
    def quorum(self) -> int:
        return len(self.members) // 2 + 1


@dataclass(frozen=True, slots=True)
class TransactionResult:
    committed: bool
    reason: str | None = None


@dataclass(frozen=True, slots=True)
class OverlayConfig:
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
        # The online nodes, the one store of who is online; callers only
        # read it.
        self.online_ids: set[NodeId] = set()
        self.dvsps: dict[str, VirtualSuperPeer] = {}
        self._reform: set[str] = set()
        # Dense indices, given out as records are added; _recs maps back.
        # _links[i][j], kept at both ends, is the one store of links; _bw
        # bandwidths (at least 1), _least a lower bound on each node's link
        # latencies. No answer depends on order.
        self._index: dict[NodeId, int] = {}
        self._recs: list[NodeRecord] = []
        self._links: list[dict[int, int]] = []
        self._bw: list[int] = []
        self._least: list[int] = []
        # The least _bw ever added: no path is narrower, since bandwidths
        # never change.
        self._floor = _UNBOUNDED
        # Each region's online members, in NodeId order.
        self._online: dict[str, list[NodeId]] = {}
        # The online nodes with fewer than min_degree links.
        self._under: set[NodeId] = set()
        # Per region pair (ra, rb), ra < rb, the links between them.
        self._inter: dict[tuple[str, str], int] = {}
        # Per region with a super-peer, its online members.
        self._live: dict[str, int] = {}
        # The labellings that the topology hooks repair.
        self._labellings: list[NearestLabels] = []

    # -- membership ---------------------------------------------------------

    def add_record(self, record: NodeRecord, online: bool = False) -> None:
        """Register record; online puts it online at once, with no links."""
        if record.node_id in self.records:
            raise DuplicateJoin(f"{record.node_id!r} already registered")
        self.records[record.node_id] = record
        bisect.insort(self.regions.setdefault(record.region, []), record.node_id)
        self._index[record.node_id] = len(self._links)
        self._recs.append(record)
        self._links.append({})
        bw = max(1, record.capacity.bandwidth)
        self._bw.append(bw)
        self._floor = min(self._floor, bw)
        self._least.append(_UNBOUNDED)
        self._online.setdefault(record.region, [])
        for labels in self._labellings:
            labels._label.append(_UNLABELLED)
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
        recs = self._recs
        return {rec.node_id: {recs[j].node_id: latency for j, latency in links.items()}
                for rec, links in zip(recs, self._links)}

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
        rec = self.records[node_id]
        i, least = self._index[node_id], self.config.min_degree
        # Each labelling's tight children of the node, read while its
        # links stand.
        cuts = [(labels, labels._children(i)) for labels in self._labellings]
        self._set_online(rec, False)
        # Drop every link. The node is offline now, so only its peers'
        # degrees change; every peer is online, since its link was.
        for j in self._links[i]:
            peer_rec, peer_links = self._recs[j], self._links[j]
            del peer_links[i]
            if len(peer_links) < least:
                self._under.add(peer_rec.node_id)
            if peer_rec.region != rec.region:
                self._count_inter(rec.region, peer_rec.region, -1)
        self._links[i].clear()
        for labels, children in cuts:
            labels._left(i, children)

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
        """Link a and b, or shorten their link: the one writer of links.
        Both must be online, so that no offline node holds a link, and a
        link never lengthens; a re-link at its latency changes nothing."""
        if latency < 1:  # routing's early stop relies on it
            raise ValueError(f"link latency {latency} is below 1")
        online = self.online_ids
        if a not in online or b not in online:
            raise UnknownNode(f"{a!r} -- {b!r}: only online nodes link")
        if a == b:
            raise ValueError(f"{a!r}: a node does not link to itself")
        ia, ib = self._index[a], self._index[b]
        links_a, links_b = self._links[ia], self._links[ib]
        old = links_a.get(ib)
        if old is not None and latency >= old:
            if latency == old:
                return
            raise ValueError(f"{a!r} -- {b!r}: link latency {old} "
                             f"would lengthen to {latency}")
        links_a[ib] = links_b[ia] = latency
        least = self._least
        least[ia], least[ib] = min(least[ia], latency), min(least[ib], latency)
        for labels in self._labellings:
            labels._linked(ia, ib, latency)
        if old is None:
            least = self.config.min_degree
            if len(links_a) >= least:
                self._under.discard(a)
            if len(links_b) >= least:
                self._under.discard(b)
            ra, rb = self._recs[ia].region, self._recs[ib].region
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
        for node_id in sorted(self._under):
            rec = self.records[node_id]
            linked = self._links[self._index[node_id]]
            have = len(linked)
            if have >= self.config.min_degree:
                continue
            pool = [n for n in self._online[rec.region]
                    if n != node_id and self._index[n] not in linked]
            want = min(self.config.degree - have, len(pool))
            for peer in self.rng.sample(pool, want) if want > 0 else ():
                self.add_link(node_id, peer, self.config.intra_latency)

    def _repair_inter_links(self) -> None:
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
                    if self._index[b] not in self._links[self._index[a]]:
                        self.add_link(a, b, self.config.inter_latency)

    # -- routing ------------------------------------------------------------

    def _search(self, src: int) -> list:
        """A fresh Dial search from index src: [dist, buckets, keys], each
        index's least latency so far (_UNBOUNDED if unreached), the indices
        not yet expanded by latency, and a heap of those latencies. It
        tracks latency only; a sized query derives its bottleneck from dist
        (see _widest)."""
        dist = [_UNBOUNDED] * len(self._links)
        dist[src] = 0
        return [dist, {0: [src]}, [0]]

    def _settle(self, search: list, targets) -> int:
        """Advance search until the least latency to a target index is
        final, and return it (_UNBOUNDED if the search reaches none).
        It expands whole buckets in latency order and skips an index whose
        latency fell after it was filed. Every link latency is at least 1,
        so expanding a bucket adds nothing to it, and once no bucket below
        best is left, every node closer is expanded and each target at best
        is final. The search never reaches an offline node: an offline
        node has no links."""
        dist, buckets, keys = search
        best = min(dist[t] for t in targets)
        links = self._links
        while keys and keys[0] < best:
            d = heapq.heappop(keys)
            for node in buckets.pop(d):
                if dist[node] < d:
                    continue
                for peer, latency in links[node].items():
                    nd = d + latency
                    if nd < dist[peer]:
                        dist[peer] = nd
                        bucket = buckets.get(nd)
                        if bucket is None:
                            buckets[nd] = [peer]
                            heapq.heappush(keys, nd)
                        else:
                            bucket.append(peer)
                        if nd < best and peer in targets:
                            best = nd
        return best

    def _widest(self, dist: list[int], dst: int) -> int:
        """The widest bottleneck bandwidth among the least-latency paths
        from dist's source to dst, whose latency must be final. Those paths
        run over the links (u, v) with dist[u] + latency == dist[v]; every
        such u is expanded, so its latency is final too. The widths are
        taken in dist order, each the max over its predecessors."""
        links, bw = self._links, self._bw
        nodes, stack = {dst}, [dst]
        while stack:
            v = stack.pop()
            dv = dist[v]
            for u, latency in links[v].items():
                if dist[u] + latency == dv and u not in nodes:
                    nodes.add(u)
                    stack.append(u)
        width: dict[int, int] = {}
        for v in sorted(nodes, key=dist.__getitem__):
            dv = dist[v]
            width[v] = max((min(width[u], bw[u], bw[v])
                            for u, latency in links[v].items()
                            if dist[u] + latency == dv), default=_UNBOUNDED)
        return width[dst]

    def routes(self, frm: NodeId, tos, size: int = 0) -> list[int | None]:
        """route(frm, to, size) for each target in tos, in order, with None
        where route would raise Unreachable. An offline end gives None and
        frm itself 0. A direct link no longer than _least[frm] + _least[to]
        is the answer: a detour leaves and enters by other links, so it is
        no shorter, and no wider than the narrower end. Every other target
        reads one search from frm, which starts when the first of them needs
        it, resumes for the later ones and is dropped on return: no search
        outlives the call.

        A sized answer's transfer term ceil(size / W) is bracketed without
        _widest: every path's first and last links make W at most
        min(_bw[frm], _bw[to]), and no link is narrower than _floor, so W is
        at least _floor. The term falls as W grows, so when both bounds give
        the same term, that is the term."""
        online = self.online_ids
        if frm not in online:
            return [None for _ in tos]
        src = self._index[frm]
        links, least, bw = self._links[src], self._least, self._bw
        slowest = -(-size // self._floor)
        search = None
        out: list[int | None] = []
        for to in tos:
            if to not in online:
                out.append(None)
                continue
            if to == frm:
                out.append(0)
                continue
            dst = self._index[to]
            latency = links.get(dst)
            direct = latency is not None and latency <= least[src] + least[dst]
            if not direct:
                if search is None:
                    search = self._search(src)
                latency = self._settle(search, (dst,))
                if latency == _UNBOUNDED:
                    out.append(None)
                    continue
            if size > 0:
                term = -(-size // min(bw[src], bw[dst]))
                if not direct and term != slowest:
                    term = -(-size // self._widest(search[0], dst))
                latency += term
            out.append(latency)
        return out

    def route(self, frm: NodeId, to: NodeId, size: int = 0) -> int:
        """Latency of the cheapest path plus the transfer term for size:
        ceil(size / the widest bottleneck bandwidth among the cheapest
        paths). Symmetric in frm and to. Answered by routes, so it keeps
        no search. Raises Unreachable if either end is offline or cut off."""
        (latency,) = self.routes(frm, (to,), size)
        if latency is None:
            raise Unreachable(f"{frm!r} -> {to!r}")
        return latency

    def nearest(self, frm: NodeId, candidates) -> tuple[NodeId | None, int | None]:
        """(node, latency): the least NodeId among the candidates frm
        reaches at the least route latency, and that latency, which equals
        route(frm, node); (None, None) if frm reaches none. One candidate
        is answered by routes. More share one search from frm, which runs
        until the least latency is final and is dropped on return."""
        targets = {self._index[c]: c for c in candidates}
        if len(targets) == 1:
            (cand,) = targets.values()
            (latency,) = self.routes(frm, (cand,))
            return (cand, latency) if latency is not None else (None, None)
        if not targets or frm not in self.online_ids:
            return None, None
        search = self._search(self._index[frm])
        best = self._settle(search, targets)
        if best == _UNBOUNDED:
            return None, None
        dist = search[0]
        return min(c for i, c in targets.items() if dist[i] == best), best

    def reachable(self, frm: NodeId, to: NodeId) -> bool:
        return self.routes(frm, (to,))[0] is not None

    def labelling(self) -> NearestLabels:
        """A new, empty NearestLabels, which the topology hooks keep exact
        from now on."""
        labels = NearestLabels(self)
        self._labellings.append(labels)
        return labels

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
        the whole batch or nothing, each row at the tick it carries.
        """
        if not self.dvsp_has_quorum(region):
            raise NoQuorum(region)
        online = self.online_ids
        for op in ops:
            for party in (op.src, op.dst):
                if isinstance(party, NodeId) and party not in online:
                    return TransactionResult(False, f"participant-offline:{party.short}")
        try:
            ledger.apply_batch(ops)
        except Exception as exc:  # precondition failures abort, never partially apply
            return TransactionResult(False, f"{type(exc).__name__}")
        return TransactionResult(True)


# -- nearest-source labellings ------------------------------------------------

# A label packs (latency, owner) as latency << ID_BITS | owner, so labels
# order as nearest ranks its answers: least latency, then least NodeId.
_UNLABELLED = _UNBOUNDED << ID_BITS
_OWNER = (1 << ID_BITS) - 1


class NearestLabels:
    """For each node index, its label: the least (route latency, source
    NodeId) over a set of source nodes, or _UNLABELLED if no source reaches
    it or it is offline. A graph Voronoi labelling (Erwig, Networks 2000).
    Made by Overlay.labelling(), which registers it with the hooks.

    nearest() sets the sources to its online candidates before it reads a
    label. Overlay's membership and link hooks repair the labels in place
    after every topology change (Ramalingam & Reps, J. Algorithms 1996): a
    new or shorter link spreads its far end's lower label, and only a lost
    source or node is cut, since no link lengthens. A node's tight parents
    are the neighbours p with label[p] + latency == label[v]: the same
    owner, one link nearer. Every link takes at least a tick, so they lead
    back to the owner, and a label stays exact while one tight parent keeps
    its own."""

    def __init__(self, overlay: Overlay):
        self._overlay = overlay
        self._label = [_UNLABELLED] * len(overlay._links)
        self._sources: set[int] = set()

    def nearest(self, frm: NodeId, candidates) -> tuple[NodeId | None, int | None]:
        """Overlay.nearest(frm, candidates), read from frm's label once the
        sources are the online candidates: a source no longer among them is
        cut, and a new one spreads its label."""
        overlay = self._overlay
        index, online = overlay._index, overlay.online_ids
        want = {index[c] for c in candidates if c in online}
        sources = self._sources
        if want != sources:
            gone = sources - want
            sources -= gone
            heap = self._cut(gone) if gone else []
            label, recs = self._label, overlay._recs
            for s in want - sources:
                label[s] = recs[s].node_id
                heap.append((label[s], s))
            sources |= want
            self._spread(heap)
        return self.read(frm)

    def read(self, node: NodeId) -> tuple[NodeId | None, int | None]:
        """(owner, latency) of node's label as it stands, or (None, None)."""
        label = self._label[self._overlay._index[node]]
        if label >= _UNLABELLED:
            return None, None
        return self._overlay.records[label & _OWNER].node_id, label >> ID_BITS

    def _children(self, v: int) -> list[int]:
        """The nodes v is a tight parent of."""
        label = self._label
        lv = label[v]
        return [c for c, latency in self._overlay._links[v].items()
                if label[c] == lv + (latency << ID_BITS)]

    def _linked(self, a: int, b: int, latency: int) -> None:
        """add_link set the link (a, b), new or shorter, to latency: it
        relaxes its far end. No route got longer, so no label is cut."""
        label = self._label
        step = latency << ID_BITS
        if label[a] + step < label[b]:
            label[b] = label[a] + step
            self._spread([(label[b], b)])
        elif label[b] + step < label[a]:
            label[a] = label[b] + step
            self._spread([(label[a], a)])

    def _left(self, i: int, children: list[int]) -> None:
        """Node i went offline and lost its links; children were the nodes
        it was a tight parent of. It stops being a source at once, so that
        a rejoin does not bring it back as one."""
        self._sources.discard(i)
        self._label[i] = _UNLABELLED
        self._spread(self._cut(children))

    def _seed(self, v: int, heap: list) -> None:
        """Lower v's label to the least its neighbours offer, and
        file it in heap if it fell."""
        label = self._label
        best = label[v]
        for p, latency in self._overlay._links[v].items():
            offer = label[p] + (latency << ID_BITS)
            if offer < best:
                best = offer
        if best < label[v]:
            label[v] = best
            heap.append((best, v))

    def _cut(self, suspects) -> list:
        """Unlabel the nodes that lost every tight path to their owner and
        reseed them from their neighbours; return those reseeded as
        (label, index) pairs for _spread.

        Suspects go in label order. A node is lost if it is no source and
        has no tight parent outside the lost set; a lost node's children are
        suspects in turn. A tight parent's label is lower, so by a node's
        turn every lost node that could be its parent is known, and the lost
        set is exact. Every other label stays exact: it keeps a tight path,
        and no route got shorter."""
        label, links, sources = self._label, self._overlay._links, self._sources
        heap = [(label[v], v) for v in suspects]
        heapq.heapify(heap)
        lost: set[int] = set()
        while heap:
            lv, v = heapq.heappop(heap)
            if v in lost or v in sources:
                continue
            # One pass: a tight parent that is not lost keeps v; else v is
            # lost, and the children met on the way are suspects.
            children = []
            for p, latency in links[v].items():
                step = latency << ID_BITS
                if label[p] + step == lv:
                    if p not in lost:
                        break
                elif label[p] == lv + step:
                    children.append((label[p], p))
            else:
                lost.add(v)
                for child in children:
                    heapq.heappush(heap, child)
        for v in lost:
            label[v] = _UNLABELLED
        heap = []
        for v in lost:
            self._seed(v, heap)
        return heap

    def _spread(self, heap: list) -> None:
        """Dijkstra from the filed (label, index) pairs: lower every label
        that a filed node's label reaches below its own. Only online nodes
        have links, so only their labels fall."""
        label, links = self._label, self._overlay._links
        heapq.heapify(heap)
        while heap:
            lu, u = heapq.heappop(heap)
            if lu > label[u]:
                continue
            for v, latency in links[u].items():
                lv = lu + (latency << ID_BITS)
                if lv < label[v]:
                    label[v] = lv
                    heapq.heappush(heap, (lv, v))


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
