"""Replicated objects with anti-entropy repair.

Every stored object carries a version vector and a last-writer stamp of
(wall tick, writer id). Merge joins the version vectors pointwise and keeps
the value with the largest stamp, which makes merge a join: commutative,
associative, idempotent. Any sequence of exchanges that touches every
replica therefore converges to the same state regardless of order.

A write applies at the nearest replica and is broadcast to the rest of the
set; gossip rounds and re-replication mop up whatever the broadcast missed
(offline hosts, replaced hosts).

`Replicator` owns page writes and replica repair. The repository picks a
new key's hosts and a lost host's replacement; a write returns each of its
broadcasts with the tick the overlay delivers it, for the caller to schedule.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import partial

from .engine import RngStream, SimTime
from .overlay import NodeId, Overlay
from .resource_repo import Repository, ResourceQuery
from .resources import ResourceVector


class ReplicationError(Exception):
    pass


class UnknownKey(ReplicationError):
    pass


class NoReplica(ReplicationError):
    pass


@dataclass(slots=True)
class ReplicatedObject:
    """One replica state. Nothing assigns to it after construction, so
    gossip may share one state between two hosts. It is not frozen because
    one is built per write and merge, and a frozen dataclass sets each field
    through object.__setattr__."""
    key: str
    value: object
    vv: dict[NodeId, int]
    wall: tuple[SimTime, NodeId]

    def stamp(self) -> tuple:
        return (self.wall[0], self.wall[1], repr(self.value))

    def same_state(self, other: "ReplicatedObject") -> bool:
        return (self.value == other.value and self.vv == other.vv
                and self.wall == other.wall)


def merge(a: ReplicatedObject, b: ReplicatedObject) -> ReplicatedObject:
    """Join of two replica states; total, deterministic, order-free.

    The version vector joins pointwise and the value follows the largest
    write stamp. A state that has absorbed a writer's later put always
    carries a later stamp, so the newer-history side wins; keying the
    winner on the stamp alone (rather than vv dominance) is what makes
    the merge associative and therefore independent of gossip order.
    """
    if a.same_state(b):
        return a
    winner = a if a.stamp() >= b.stamp() else b
    joined = dict(a.vv)
    for k, v in b.vv.items():
        if v > joined.get(k, 0):
            joined[k] = v
    return ReplicatedObject(winner.key, winner.value, joined, winner.wall)


@dataclass(slots=True)
class Delivery:
    """A broadcast of a write to one replica host. Nothing assigns to it
    after construction; it is not frozen because one is built per replica
    of each write, and a frozen dataclass sets each field through
    object.__setattr__."""
    host: NodeId
    obj: ReplicatedObject


class ReplicaStore:
    def __init__(self, log=None):
        self.hosts: dict[str, list[NodeId]] = {}
        self.states: dict[str, dict[NodeId, ReplicatedObject]] = {}
        self.sizes: dict[str, int] = {}
        self.dirty: set[str] = set()
        self.log = log or (lambda at, key, action, node: None)

    def ensure(self, key: str, hosts: list[NodeId], size: int = 1) -> None:
        if key in self.hosts:
            return
        if not hosts:
            raise NoReplica(key)
        self.hosts[key] = sorted(hosts)
        self.states[key] = {}
        self.sizes[key] = size

    def replica_hosts(self, key: str) -> list[NodeId]:
        try:
            return self.hosts[key]
        except KeyError:
            raise UnknownKey(key) from None

    def put(self, key: str, value: object, writer: NodeId, at: SimTime,
            apply_at: NodeId) -> list[Delivery]:
        """Apply at one replica, return the broadcasts the caller delivers."""
        hosts = self.replica_hosts(key)
        if apply_at not in hosts:
            raise NoReplica(f"{key} not replicated on {apply_at!r}")
        base = self.states[key].get(apply_at)
        vv = dict(base.vv) if base else {}
        vv[writer] = vv.get(writer, 0) + 1
        obj = ReplicatedObject(key, value, vv, (at, writer))
        self.log(at, key, "put", apply_at.short)
        self.dirty.add(key)  # so a lone replica logs converged at once
        self._absorb(key, apply_at, obj, at)
        return [Delivery(h, obj) for h in hosts if h != apply_at]

    def deliver(self, key: str, host: NodeId, obj: ReplicatedObject,
                at: SimTime) -> None:
        if host in self.replica_hosts(key):
            self._absorb(key, host, obj, at)

    def _absorb(self, key: str, host: NodeId, obj: ReplicatedObject,
                at: SimTime) -> None:
        current = self.states[key].get(host)
        self.states[key][host] = merge(current, obj) if current else obj
        self._track(key, at)

    def _track(self, key: str, at: SimTime) -> None:
        if not self.states[key]:
            self.dirty.discard(key)
            return
        if self.converged(key):
            if key in self.dirty:
                self.dirty.discard(key)
                self.log(at, key, "converged", "")
        else:
            self.dirty.add(key)

    def converged(self, key: str) -> bool:
        hosts = self.hosts[key]
        states = self.states[key]
        if len(states) < len(hosts):
            return False
        first = states[hosts[0]]
        return all(states[h].same_state(first) for h in hosts[1:])

    # -- maintenance -----------------------------------------------------------

    def gossip_round(self, at: SimTime, rng: RngStream, online) -> int:
        """Each online replica of each unsettled key syncs with one peer."""
        exchanges = 0
        for key in sorted(self.dirty):
            hosts = [h for h in self.hosts[key] if online(h)]
            if len(hosts) < 2:
                continue
            for host in hosts:
                peers = [h for h in hosts if h != host]
                partner = rng.choice(peers)
                a = self.states[key].get(host)
                b = self.states[key].get(partner)
                if a is None and b is None:
                    continue
                joined = merge(a, b) if (a and b) else (a or b)
                self.states[key][host] = joined
                self.states[key][partner] = joined
                exchanges += 1
            self._track(key, at)
        return exchanges

    def rereplicate(self, at: SimTime, online, pick_host) -> int:
        """Replace offline replica hosts, copying the best surviving state.

        pick_host(key, exclude) -> NodeId | None chooses the replacement
        (a repository query, in `Replicator`).
        """
        replaced = 0
        for key in sorted(self.hosts):
            hosts = self.hosts[key]
            alive = [h for h in hosts if online(h)]
            if not alive or len(alive) == len(hosts):
                continue
            states = self.states[key]
            source = next((states[h] for h in alive if h in states), None)
            for dead in [h for h in hosts if not online(h)]:
                new_host = pick_host(key, exclude=set(hosts))
                if new_host is None:
                    continue
                hosts.remove(dead)
                self.states[key].pop(dead, None)
                hosts.append(new_host)
                hosts.sort()
                if source is not None:
                    self._absorb(key, new_host, source, at)
                self.log(at, key, "rereplicate", new_host.short)
                replaced += 1
            self._track(key, at)
        return replaced


class Replicator:
    """Writes and repairs a store's keys on hosts the repository offers."""

    def __init__(self, store: ReplicaStore, repo: Repository,
                 overlay: Overlay, rng: RngStream, replicas: int):
        self.store, self.repo, self.overlay = store, repo, overlay
        self.rng, self.replicas = rng, replicas

    def write(self, key: str, value: object, writer: NodeId, at: SimTime,
              size: int) -> list[tuple[SimTime, Delivery]]:
        """Put at the writer's nearest replica; the broadcasts it sends,
        each with its delivery tick. One `routes` call times them all from
        a single search that ends with the call; a cut-off host misses its
        broadcast."""
        if key not in self.store.hosts:
            hosts = self._offered(size, self.replicas, at)
            if not hosts:
                return []
            self.store.ensure(key, hosts, size)
        graph = self.overlay.graph
        apply_at, _ = graph.nearest(writer, self.store.replica_hosts(key))
        if apply_at is None:
            self.store.log(at, key, "put-dropped", writer.short)
            return []
        sent = self.store.put(key, value, writer, at, apply_at)
        hops = graph.routes(apply_at, [d.host for d in sent], size)
        return [(at + hop, d) for hop, d in zip(hops, sent) if hop is not None]

    def upkeep(self, at: SimTime) -> None:
        """One gossip round, then replace the replicas on offline hosts."""
        online = self.overlay.online_ids.__contains__
        self.store.gossip_round(at, self.rng, online)
        self.store.rereplicate(at, online, partial(self._replacement, at))

    def _replacement(self, at: SimTime, key: str,
                     exclude: set[NodeId]) -> NodeId | None:
        offered = self._offered(self.store.sizes[key], len(exclude) + 1, at)
        return next((node for node in offered if node not in exclude
                     and node in self.overlay.online_ids), None)

    def _offered(self, size: int, count: int, at: SimTime) -> list[NodeId]:
        query = ResourceQuery(required=ResourceVector(storage=size), count=count)
        return list(self.repo.query(query, self.rng, at).nodes)
