"""The overlay's link table, and the routes and labellings read from it.

Routing keeps one kind of state between calls: the nearest-source
labellings that `labelling()` hands out (one per published service, for
request placement). Each holds, for every node, its least (route latency,
source node id) over a set of sources, and the graph's write methods
repair it in place at every topology change. A route over a direct link
needs no search when the link is no longer than twice the least latency of
any link ever made: any other path leaves and enters by two other links, so
it is no shorter, and it is no wider, since a link is as wide as its
narrower end. Any other query runs a Dial bucket search (Dial, CACM 1969)
from its source, answers every target it was asked for from that one
search, and drops it on return. A sized route's transfer term needs the
widest path only when the two ends' bandwidths and the least bandwidth of
any node bracket it loosely: bandwidths never change, so every path's width
lies between them, and a term that both bounds give is the term.
"""
from __future__ import annotations

import heapq

ID_BITS = 256
# Farther than any path and wider than any link.
_UNBOUNDED = 1 << 62


class Graph:
    """The one store of links. index maps a node id to its dense index,
    given out as nodes are added, and ids maps back. links[i][j], kept at
    both ends, is a link's latency; bw[i] is i's bandwidth (at least 1).
    Two scalars bound every path: no link is shorter than least, the least
    latency of any link ever made, and no path is narrower than floor, the
    least bw, since bandwidths never change. No answer depends on order.
    Only add, link and drop write these, each telling every repairer:
    added(i), linked(a, b, latency) or left(i, former_links). A link is
    made once, and only drop removes it. online, the overlay's set of
    online node ids, is only read here."""

    def __init__(self, online: set[int]):
        self.online = online
        self.index: dict[int, int] = {}
        self.ids: list[int] = []
        self.links: list[dict[int, int]] = []
        self.bw: list[int] = []
        self.least = _UNBOUNDED
        self.floor = _UNBOUNDED
        self.repairers: list[NearestLabels] = []

    def add(self, node: int, bandwidth: int) -> None:
        """Give node the next index, with no links."""
        i = len(self.ids)
        self.index[node] = i
        self.ids.append(node)
        self.links.append({})
        bw = max(1, bandwidth)
        self.bw.append(bw)
        self.floor = min(self.floor, bw)
        for repairer in self.repairers:
            repairer.added(i)

    def link(self, a: int, b: int, latency: int) -> None:
        """Link a and b at latency; a self-link or a link that exists
        raises ValueError."""
        if a == b:
            raise ValueError(f"{a!r}: a node does not link to itself")
        ia, ib = self.index[a], self.index[b]
        links_a, links_b = self.links[ia], self.links[ib]
        if ib in links_a:
            raise ValueError(f"{a!r} -- {b!r}: already linked")
        links_a[ib] = links_b[ia] = latency
        self.least = min(self.least, latency)
        for repairer in self.repairers:
            repairer.linked(ia, ib, latency)

    def drop(self, node: int) -> list[int]:
        """Drop the links of node, gone offline; its former peers."""
        i, links = self.index[node], self.links
        former, links[i] = links[i], {}
        for j in former:
            del links[j][i]
        for repairer in self.repairers:
            repairer.left(i, former)
        return [self.ids[j] for j in former]

    def _search(self, src: int) -> list:
        """A fresh Dial search from index src: [dist, buckets, keys], each
        index's least latency so far (_UNBOUNDED if unreached), the indices
        not yet expanded by latency, and a heap of those latencies. It
        tracks latency only; a sized query derives its bottleneck from dist
        (see _widest)."""
        dist = [_UNBOUNDED] * len(self.links)
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
        links = self.links
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
        links, bw = self.links, self.bw
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

    def routes(self, frm: int, tos, size: int = 0) -> list[int | None]:
        """For each target in tos, in order, the latency of the cheapest
        path from frm plus ceil(size / the widest bottleneck bandwidth among
        those paths), or None if there is none; an offline end gives None
        and frm itself 0. Symmetric in frm and to. A direct link no longer
        than 2 * least is the answer: a detour leaves frm and enters to by
        two other links, neither shorter than least, so it is no shorter,
        and it is no wider than the narrower end. Every other target reads
        one search from frm, which starts when the first of them needs it,
        resumes for the later ones and is dropped on return: no search
        outlives the call.

        A sized answer's transfer term ceil(size / W) is bracketed without
        _widest: every path's first and last links make W at most
        min(bw[frm], bw[to]), and no link is narrower than floor, so W is
        at least floor. The term falls as W grows, so when both bounds give
        the same term, that is the term."""
        online = self.online
        if frm not in online:
            return [None for _ in tos]
        src = self.index[frm]
        links, bw = self.links[src], self.bw
        slowest = -(-size // self.floor)
        search = None
        out: list[int | None] = []
        for to in tos:
            if to not in online:
                out.append(None)
                continue
            if to == frm:
                out.append(0)
                continue
            dst = self.index[to]
            latency = links.get(dst)
            direct = latency is not None and latency <= 2 * self.least
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

    def nearest(self, frm: int, candidates) -> tuple[int | None, int | None]:
        """(node, latency): the least node id among the candidates frm
        reaches at the least route latency, and that latency, which equals
        its routes answer; (None, None) if frm reaches none. One candidate
        is answered by routes. More share one search from frm, which runs
        until the least latency is final and is dropped on return."""
        targets = {self.index[c]: c for c in candidates}
        if len(targets) == 1:
            (cand,) = targets.values()
            (latency,) = self.routes(frm, (cand,))
            return (cand, latency) if latency is not None else (None, None)
        if not targets or frm not in self.online:
            return None, None
        search = self._search(self.index[frm])
        best = self._settle(search, targets)
        if best == _UNBOUNDED:
            return None, None
        dist = search[0]
        return min(c for i, c in targets.items() if dist[i] == best), best

    def labelling(self) -> NearestLabels:
        """A new, empty NearestLabels, kept exact from now on."""
        labels = NearestLabels(self)
        self.repairers.append(labels)
        return labels


# A label packs (latency, owner) as latency << ID_BITS | owner, so labels
# order as nearest ranks its answers: least latency, then least node id.
_UNLABELLED = _UNBOUNDED << ID_BITS
_OWNER = (1 << ID_BITS) - 1


class NearestLabels:
    """For each node index, its label: the least (route latency, source
    node id) over a set of source nodes, or _UNLABELLED if no source reaches
    it or it is offline. A graph Voronoi labelling (Erwig, Networks 2000).
    Made by Graph.labelling(), which makes it a repairer.

    nearest() sets the sources to its online candidates before it reads a
    label. The graph's write methods repair the labels in place after every
    topology change (Ramalingam & Reps, J. Algorithms 1996): a new link
    spreads its far end's lower label, and only a lost source or node is
    cut, since a link keeps its latency until a leave drops it. A node's
    tight parents are the neighbours p with label[p] + latency == label[v]:
    the same owner, one link nearer. Every link takes at least a tick, so
    they lead back to the owner, and a label stays exact while one tight
    parent keeps its own. A lost source is cut like any lost node: its
    label sits at latency 0, so it has no tight parent, and the walk from
    it finds its cell, the nodes whose label it owns."""

    def __init__(self, graph: Graph):
        self._graph = graph
        self._label = [_UNLABELLED] * len(graph.links)
        self._sources: set[int] = set()

    def nearest(self, frm: int, candidates) -> tuple[int | None, int | None]:
        """Graph.nearest(frm, candidates), read from frm's label once the
        sources are the online candidates: a source no longer among them is
        cut, and a new one spreads its label."""
        index, online = self._graph.index, self._graph.online
        want = {index[c] for c in candidates if c in online}
        sources = self._sources
        if want != sources:
            gone = sources - want
            sources -= gone
            heap = self._cut(gone) if gone else []
            label, ids = self._label, self._graph.ids
            for s in want - sources:
                label[s] = ids[s]
                heap.append((label[s], s))
            sources |= want
            self._spread(heap)
        return self.read(frm)

    def read(self, node: int) -> tuple[int | None, int | None]:
        """(owner, latency) of node's label as it stands, or (None, None)."""
        graph = self._graph
        label = self._label[graph.index[node]]
        if label >= _UNLABELLED:
            return None, None
        return graph.ids[graph.index[label & _OWNER]], label >> ID_BITS

    def added(self, i: int) -> None:
        """The graph gave out index i, to a node with no links."""
        self._label.append(_UNLABELLED)

    def linked(self, a: int, b: int, latency: int) -> None:
        """The graph made the new link (a, b) at latency: it relaxes its
        far end. No route got longer, so no label is cut."""
        label = self._label
        step = latency << ID_BITS
        if label[a] + step < label[b]:
            label[b] = label[a] + step
            self._spread([(label[b], b)])
        elif label[b] + step < label[a]:
            label[a] = label[b] + step
            self._spread([(label[a], a)])

    def left(self, i: int, former_links: dict[int, int]) -> None:
        """Node i went offline and lost former_links. A source stops being
        one at once, so that a rejoin does not bring it back as one. Its
        tight children are found from its label, still intact, and cut."""
        self._sources.discard(i)
        label = self._label
        li = label[i]
        children = [c for c, latency in former_links.items()
                    if label[c] == li + (latency << ID_BITS)]
        label[i] = _UNLABELLED
        if children:
            self._spread(self._cut(children))

    def _cut(self, suspects) -> list:
        """Unlabel the nodes that lost every tight path to their owner and
        reseed them from the least label their neighbours offer; return
        those reseeded as (label, index) pairs for _spread.

        Suspects go in label order. A node is lost if it has no tight
        parent outside the lost set; a lost node's children are suspects in
        turn. A tight parent's label is lower, so by a node's turn every
        lost node that could be its parent is known, and the lost set is
        exact. No suspect is a current source: a source's label is at
        latency 0, so it is no node's tight child. A gone source's label is
        still at latency 0, so it has no tight parent: it is lost, and its
        cell follows. Every other label stays exact: it keeps a tight path,
        and no route got shorter. A lost neighbour offers nothing."""
        label, links = self._label, self._graph.links
        heap = [(label[v], v) for v in suspects]
        heapq.heapify(heap)
        lost: set[int] = set()
        while heap:
            lv, v = heapq.heappop(heap)
            if v in lost:
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
            best = _UNLABELLED
            for p, latency in links[v].items():
                offer = label[p] + (latency << ID_BITS)
                if offer < best:
                    best = offer
            if best < _UNLABELLED:
                label[v] = best
                heap.append((best, v))
        return heap

    def _spread(self, heap: list) -> None:
        """Dijkstra from the filed (label, index) pairs: lower every label
        that a filed node's label reaches below its own. Only online nodes
        have links, so only their labels fall."""
        label, links = self._label, self._graph.links
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
