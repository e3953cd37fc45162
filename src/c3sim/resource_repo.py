"""Registry of contributed capacity and score-weighted node selection.

A record keeps the capacity its node contributes. The repository computes
each heartbeat's offer from it, at a projected cost of the record's cost
factor times the basket of unit prices: `offer` offers the whole capacity
of a node that has just joined, which holds none, and `sweep` that of
each beating record less the storage its node's instances hold. A record
beats from its node's offer until `silent` says that the node has left.

Records age out: a record whose last heartbeat is older than the staleness
horizon (STALENESS_INTERVALS heartbeat intervals) is invisible to queries,
so a node that has left drops out of them once its last beat is that old.
Availability and task success are exponentially smoothed per heartbeat
interval. Selection is randomized but proportional: candidates are drawn
without replacement with probability proportional to a weighted score over
smoothed performance, smoothed availability, projected cost and region match.

A sweep steps only the records whose state moves. A beating record that
holds no storage after its step is lazy: its offer is its capacity, and
its beat and cost are the last sweep's tick and cost factor times basket,
written with that float product at the next query or when the record
stops being lazy. So every query reads what stepping every record at
every sweep would have written. A sweep steps a lazy record's
availability only until a step leaves it unchanged: a float fixed point
of the step stays fixed.

The repository keeps its records in NodeId order as they register, so a
query filters them in that order without sorting. A draw takes the score
total with the builtin sum and finds the picked candidate by bisection in
the running prefix sums: the first prefix above the drawn point, or the
last candidate if none is. Those are the same sums and the same pick as a
walk that adds the scores one by one, provided no score is negative, so
ResourceQuery refuses a negative weight.
"""
from __future__ import annotations

import bisect
from dataclasses import dataclass
from itertools import accumulate
from operator import attrgetter

from .engine import RngStream, SimTime
from .overlay import NodeId
from .resources import ResourceVector

DEFAULT_WEIGHTS = (0.4, 0.3, 0.2, 0.1)
# Heartbeat intervals after which a silent record is invisible to queries.
STALENESS_INTERVALS = 3


class RepoError(Exception):
    pass


class UnknownNode(RepoError):
    pass


@dataclass(slots=True)
class NodeResourceRecord:
    """A host's entry in the repository: its capacity and cost, and what
    its heartbeats and sweeps keep of its free capacity, price,
    availability and performance."""
    node_id: NodeId
    region: str
    capacity: ResourceVector
    cost_factor: float = 1.0
    free_capacity: ResourceVector = ResourceVector()
    projected_cost: float = 0.0
    availability: float | None = None
    perf_history: float = 1.0
    last_heartbeat: SimTime | None = None


@dataclass(frozen=True, slots=True)
class ResourceQuery:
    """A request for `count` hosts that cover `required`, scored by
    `weights` and preferring `preferred_region`."""
    required: ResourceVector
    count: int = 1
    preferred_region: str | None = None
    weights: tuple[float, float, float, float] = DEFAULT_WEIGHTS

    def __post_init__(self):
        if any(w < 0 for w in self.weights):
            raise ValueError(f"negative score weight in {self.weights}")


@dataclass(frozen=True, slots=True)
class QueryResult:
    """The picked nodes; every eligible one, fewer than asked for, when
    too few are eligible."""
    nodes: tuple[NodeId, ...]


class Repository:
    def __init__(self, beta: float = 0.1, heartbeat_interval: int = 500,
                 region_gate=None):
        if not 0.0 < beta <= 1.0:
            raise ValueError("beta must be in (0, 1]")
        self.beta = beta
        self.staleness = STALENESS_INTERVALS * heartbeat_interval
        self.region_gate = region_gate or (lambda region: True)
        self.records: dict[NodeId, NodeResourceRecord] = {}
        # The same records, in NodeId order.
        self._ordered: list[NodeResourceRecord] = []
        # The same records by how a sweep steps them (see the module doc).
        self._silent: dict[NodeId, NodeResourceRecord] = {}
        self._full: dict[NodeId, NodeResourceRecord] = {}
        self._lazy: dict[NodeId, NodeResourceRecord] = {}
        self._rising: dict[NodeId, NodeResourceRecord] = {}
        # The last sweep's tick and basket; are the lazy records written?
        self._swept: tuple[SimTime, float] = (0, 0.0)
        self._filled = True

    def register(self, record: NodeResourceRecord) -> None:
        """Add a silent record; it beats from its node's first offer."""
        if record.node_id in self.records:
            raise RepoError(f"already registered: {record.node_id!r}")
        self.records[record.node_id] = record
        self._silent[record.node_id] = record
        bisect.insort(self._ordered, record, key=attrgetter("node_id"))

    def silent(self, node_id: NodeId) -> None:
        """The node has left: its record misses every sweep's beat until
        the node offers again. A node with no record is ignored."""
        if node_id in self.records:
            self._move(node_id, self._silent)

    def _move(self, node_id: NodeId, to: dict) -> None:
        """Move the record into `to` from whichever set holds it. A lazy
        record's beat and cost are written as it leaves that set."""
        rec = self.records[node_id]
        if self._lazy.pop(node_id, None) is not None:
            self._rising.pop(node_id, None)
            at, basket = self._swept
            rec.last_heartbeat, rec.projected_cost = at, rec.cost_factor * basket
        self._silent.pop(node_id, None)
        self._full.pop(node_id, None)
        to[node_id] = rec

    def heartbeat(self, node_id: NodeId, free_capacity: ResourceVector,
                  at: SimTime, projected_cost: float | None = None) -> None:
        """One heartbeat from the node at `at`, offering free_capacity (and
        projected_cost, if given). The record beats; availability steps up."""
        rec = self._record(node_id)
        self._move(node_id, self._full)
        rec.free_capacity = free_capacity
        rec.last_heartbeat = at
        if projected_cost is not None:
            rec.projected_cost = projected_cost
        rec.availability = (1.0 if rec.availability is None else
                            (1 - self.beta) * rec.availability + self.beta)

    def offer(self, node_id: NodeId, at: SimTime, basket: float) -> None:
        """Heartbeat with the offer computed from the node's own record:
        its whole capacity, at cost_factor x basket. A node that just
        joined holds no instance's storage yet."""
        rec = self._record(node_id)
        self.heartbeat(node_id, rec.capacity, at, rec.cost_factor * basket)

    def sweep(self, at: SimTime, held: dict[NodeId, int],
              basket: float) -> None:
        """Batch heartbeat pass: every beating record offers as `offer`
        does, less its `held` storage; every silent one misses this beat and
        its availability decays by 1 - beta. Silent records decay, held lazy
        ones wake, rising ones step their availability, the rest step in
        full, and then the unheld ones turn lazy."""
        beta, keep = self.beta, 1 - self.beta
        for rec in self._silent.values():
            if rec.availability is not None:
                rec.availability = keep * rec.availability
        full, lazy, rising = self._full, self._lazy, self._rising
        for node_id, stored in held.items():
            if stored and node_id in lazy:
                self._move(node_id, full)
        for node_id, rec in list(rising.items()):
            old = rec.availability
            rec.availability = new = keep * old + beta
            if new == old:
                del rising[node_id]
        for node_id, rec in full.items():
            free, stored = rec.capacity, held.get(node_id, 0)
            rec.free_capacity = free if stored == 0 else ResourceVector(
                free.compute, max(0, free.storage - stored), free.bandwidth)
            rec.last_heartbeat = at
            rec.projected_cost = rec.cost_factor * basket
            rec.availability = (1.0 if rec.availability is None else
                                keep * rec.availability + beta)
        for node_id in [n for n in full if not held.get(n)]:
            lazy[node_id] = rising[node_id] = full.pop(node_id)
        self._swept, self._filled = (at, basket), False

    def record_task(self, node_id: NodeId, completed: bool) -> None:
        rec = self._record(node_id)
        rec.perf_history = ((1 - self.beta) * rec.perf_history
                            + self.beta * (1.0 if completed else 0.0))

    def _record(self, node_id: NodeId) -> NodeResourceRecord:
        try:
            return self.records[node_id]
        except KeyError:
            raise UnknownNode(repr(node_id)) from None

    # -- selection -------------------------------------------------------------

    def eligible(self, query: ResourceQuery, at: SimTime) -> list[NodeResourceRecord]:
        """The fresh, available records that cover the requirement and whose
        region passes the gate, in NodeId order. The gate is asked once per
        region, at that region's first record that passes the other tests."""
        if not self._filled:
            at_sweep, basket = self._swept
            for rec in self._lazy.values():
                rec.last_heartbeat = at_sweep
                rec.projected_cost = rec.cost_factor * basket
            self._filled = True
        staleness, need = self.staleness, query.required
        gate: dict[str, bool] = {}
        ask = self.region_gate
        return [rec for rec in self._ordered
                if rec.last_heartbeat is not None
                and at - rec.last_heartbeat <= staleness
                and rec.availability is not None
                and rec.free_capacity.covers(need)
                and (gate[rec.region] if rec.region in gate
                     else gate.setdefault(rec.region, ask(rec.region)))]

    def scores(self, candidates: list[NodeResourceRecord],
               query: ResourceQuery) -> list[float]:
        w_perf, w_avail, w_cost, w_geo = query.weights
        max_cost = max((r.projected_cost for r in candidates), default=0.0)
        region = query.preferred_region
        return [w_perf * rec.perf_history
                + w_avail * (rec.availability or 0.0)
                + w_cost * (1.0 - (rec.projected_cost / max_cost
                                   if max_cost > 0 else 0.0))
                + w_geo * (1.0 if rec.region == region else 0.0)
                for rec in candidates]

    def query(self, query: ResourceQuery, rng: RngStream,
              at: SimTime) -> QueryResult:
        candidates = self.eligible(query, at)
        if len(candidates) <= query.count:
            return QueryResult(tuple(r.node_id for r in candidates))
        scores = self.scores(candidates, query)
        picked = _weighted_sample(candidates, scores, query.count, rng)
        return QueryResult(tuple(r.node_id for r in picked))


def _weighted_sample(candidates: list[NodeResourceRecord], scores: list[float],
                     k: int, rng: RngStream) -> list[NodeResourceRecord]:
    """Draw k without replacement, probability proportional to score. The
    scores must not be negative, so that their prefix sums never fall."""
    candidates, scores = list(candidates), list(scores)
    picked = []
    for _ in range(k):
        total = sum(scores)
        if total <= 0.0:
            idx = rng.randrange(len(scores))
        else:
            point = rng.random() * total
            idx = min(bisect.bisect_right(list(accumulate(scores)), point),
                      len(scores) - 1)
        del scores[idx]
        picked.append(candidates.pop(idx))
    return picked
