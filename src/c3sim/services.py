"""Service lifecycle: publication, invocation, budget metering, placement.

A published service is a descriptor plus code blob replicated across a small
host set, resolvable from anywhere while at least one of those hosts is up.
Every request takes one path. `admit` resolves the service, quotes a price
from the declared budget at current unit prices, turns away requesters who
cannot cover it and places the request on the nearest warm instance
(smallest route latency, then smallest id), deploying one on demand when
none exists. Each service keeps one `NearestLabels` from `overlay.graph`,
whose link writes repair it; placement hands it the warm hosts and
reads the requester's label, so it needs no search. Admission takes the
request's hop, its route latency to the host, once: from that label, or by
one route to a fresh or vendor host. `run_on_host` then queues it on that
host and meters the actual draw against the plan's budget: within budget
completes, strict excess terminates the request at the exhaustion point
with a pro-rata charge; `plan_invoke` is both for one call. A terminated
request's draws, run time and charge x become ceil(x·p/q) in integers, with
p/q the tightest overrun (`budget_fraction`). Video sessions are metered
here too: `plan_session` admits one, and live sessions share their host's
bandwidth until `end_session`, or `cut_off` when the host leaves. `settle`
counts a finished plan's draw as demand and commits its charge as one
transaction under the requester's regional quorum. Demand is two integer
counters, the compute and the bandwidth settled since the last
`take_demand`; that call builds the one `ResourceVector` from them and the
storage live instances hold, then resets them. Admission counts every
request it places, call or session, as its region's demand. `VendorRuntime`
is the vendor baseline as a placement policy: its plans name one fixed host
and carry no price. Every plan carries its budget from admission, so
`plan_invoke` serves both runtimes: `admit` sets the declared draw, and the
vendor's `admit` the request's own draw.

Sessions are metered per host. A host shares its bandwidth equally among
its live sessions (processor sharing), and every session of a run streams at
the one `stream_rate`, so in each metered interval every session on a host
streams the same `delivered * span` and is below the floor or not together.
One `StreamAccount` per host, kept while it has live sessions, holds them,
the current below-floor stretch and the latest begin tick whose sessions
have failed. Metering adds the interval's term to each live session's
running total and checks the floor once for the whole host.

Placement is demand-following when push mode is on: each window the traffic
share per region sets a replica target (one replica per KAPPA_SHARE of
share, a global floor of min_replicas), deficits deploy near the demand and
surpluses retire youngest-first after a cool-down. Pull-only mode keeps just
the floor. A deployment (`_deploy`) copies the code point to point from
one host that holds it. `distribute` is the repeater-tree primitive that
acceptance test 10 measures: receivers relay onward in a bounded-degree
tree, so an origin's egress stays at tree-degree transfers however many
nodes want the blob. No run calls it.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

from .engine import RngStream, SimTime
from .ledger import Ledger
from .overlay import NodeId, Overlay, Unreachable
from .replication import ReplicaStore
from .resource_repo import NodeResourceRecord, Repository, ResourceQuery
from .resources import RESOURCE_KINDS, ResourceVector
from .routing import NearestLabels

ADMITTED = "admitted"
COMPLETED = "completed"
TERMINATED = "terminated"
# A region wants one replica per this share of a service's traffic.
KAPPA_SHARE = 0.25
# Hosts asked for when a request pulls a fresh deployment.
PULL_CANDIDATES = 3


class ServiceError(Exception):
    pass


@dataclass(frozen=True, slots=True)
class ServiceDescriptor:
    """A published service: its developer, declared draw, code size,
    replica floor, subsidy and the service its calls chain to."""
    service_id: str
    developer: str
    declared: ResourceVector
    code_size: int
    min_replicas: int = 3
    subsidy: int = 0
    chain_next: str | None = None


@dataclass(slots=True, eq=False)
class Instance:
    """A deployed copy of a service's code. It exists only while it runs:
    `ServiceRuntime` drops it when its host leaves or it is retired."""
    service_id: str
    host: NodeId
    warm_at: SimTime
    region: str
    size: int


@dataclass(slots=True)
class Request:
    """One request, as its arrival made it. Nothing assigns to it after
    construction; it is not frozen because one is built per request, and a
    frozen dataclass sets each field through object.__setattr__."""
    req_id: int
    service_id: str
    requester: NodeId
    issued_at: SimTime
    actual: ResourceVector
    kind: str = "request"


@dataclass(slots=True, eq=False)
class InvokePlan:
    """One request's way through admission, execution and settlement:
    the outcome so far and what each step set."""
    request: Request
    outcome: str
    descriptor: ServiceDescriptor | None = None
    host: NodeId | None = None
    gross: int = 0
    charged: int = 0
    subsidy_part: int = 0
    consumed: ResourceVector = ResourceVector()
    start: SimTime = 0
    done_at: SimTime = 0
    latency: int = 0
    hop: int = 0  # the requester's route latency to host, each way
    budget: ResourceVector = ResourceVector()  # the draw run_on_host allows

    @property
    def served(self) -> bool:
        return self.outcome in (COMPLETED, TERMINATED)

    def bill(self, charged: int) -> None:
        """Set the charge and the part of it the developer's subsidy covers."""
        self.charged = charged
        self.subsidy_part = (min(self.descriptor.subsidy, charged)
                             if self.descriptor else 0)


@dataclass(slots=True, eq=False)
class Session:
    """A stream at the runtime's `stream_rate` for `duration` ticks; it
    fails once its share of the host's bandwidth stays under the floor for
    the sustain window. Beginning sets `begun`, its first metered tick;
    `streamed` is its running total, to which each metering of its host adds
    that interval's term. Its host's account answers whether it failed."""
    plan: InvokePlan
    duration: int
    begun: SimTime = 0
    streamed: float = 0.0


@dataclass(slots=True, eq=False)
class StreamAccount:
    """One host's stream meter, kept while it has live sessions.

    `live` holds those sessions in begin order. Every one of them gets the
    same share in each interval, so the floor is checked once per host, not
    once per session. `below_since` starts the current below-floor stretch:
    after an interval at or above the floor it is that interval's end. A
    session begun at or before `failed_upto` has stayed under the floor for
    the whole sustain window since it began."""
    metered_at: SimTime
    below_since: SimTime
    failed_upto: SimTime
    live: list[Session] = field(default_factory=list)


@dataclass(frozen=True, slots=True)
class PlacementAction:
    """One deploy or retire of a service instance, for the placements log."""
    at: SimTime
    service_id: str
    action: str
    host: NodeId | None
    region: str


@dataclass(frozen=True, slots=True)
class ServicesConfig:
    """The service runtime's regions, placement terms and stream terms."""
    regions: tuple[str, ...]
    dsr_r: int = 3
    cool_down: int = 3
    # Every session streams at stream_rate; it fails once its share stays
    # under floor * stream_rate for sustain_window ticks.
    stream_rate: int = 2
    floor: float = 0.8
    sustain_window: int = 2000


def budget_fraction(actual: ResourceVector,
                    declared: ResourceVector) -> tuple[int, int]:
    """(1, 1) when within budget, else the completed fraction at exhaustion
    as an int pair (p, q): the tightest overrun, the least declared/actual."""
    p, q = 1, 1
    for kind in RESOURCE_KINDS:
        a, d = actual.get(kind), declared.get(kind)
        if a > d and d * q < p * a:
            p, q = d, a
    return p, q


class ServiceRuntime:
    """Publishes, places and meters services. `instances[s]` holds the live
    instances of `s` in deployment order: `_deploy` appends one, `host_lost`
    and `_apply_targets` remove them. So every host in it is online, and
    nothing that reads it checks."""

    def __init__(self, config: ServicesConfig, overlay: Overlay,
                 repo: Repository, ledger: Ledger, store: ReplicaStore,
                 rng: RngStream):
        self.config = config
        self.overlay = overlay
        self.repo = repo
        self.ledger = ledger
        self.store = store
        self.rng = rng
        self.instances: dict[str, list[Instance]] = {}
        self.busy_until: dict[NodeId, SimTime] = {}
        # Per host with live sessions, its stream account.
        self._accounts: dict[NodeId, StreamAccount] = {}
        self._rate = float(config.stream_rate)
        self._floor = config.floor * config.stream_rate
        self._sustain = config.sustain_window
        # Compute and bandwidth settled since the last take_demand.
        self._used_compute = 0
        self._used_bandwidth = 0
        self.egress: dict[NodeId, int] = {}
        self.traffic: dict[str, dict[str, int]] = {}
        self._targets: dict[str, dict[str, list[int]]] = {}
        # Per published service, its warm hosts' labelling for placement.
        self._nearest: dict[str, NearestLabels] = {}

    # -- publication -----------------------------------------------------------

    @staticmethod
    def dsr_key(service_id: str) -> str:
        return f"dsr/{service_id}"

    def publish(self, desc: ServiceDescriptor, publisher: NodeId,
                at: SimTime) -> list[NodeId]:
        """Replicate descriptor + code, then warm the initial instances. A
        service is published once: a second publish raises ServiceError."""
        if desc.service_id in self.instances:
            raise ServiceError(f"{desc.service_id} is already published")
        key = self.dsr_key(desc.service_id)
        need = ResourceVector(compute=1, storage=desc.code_size, bandwidth=1)
        result = self.repo.query(
            ResourceQuery(required=need, count=self.config.dsr_r), self.rng, at)
        if not result.nodes:
            raise ServiceError(f"no hosts for {desc.service_id}")
        self.store.ensure(key, list(result.nodes), desc.code_size)
        hosts = list(self.store.replica_hosts(key))
        apply_at = self.overlay.graph.nearest(publisher, hosts)[0] or hosts[0]
        for delivery in self.store.put(key, desc, publisher, at, apply_at):
            self.store.deliver(key, delivery.host, delivery.obj, at)
        self.instances[desc.service_id] = []
        self.traffic[desc.service_id] = {}
        self._nearest[desc.service_id] = self.overlay.graph.labelling()
        for host in self._pick_hosts(desc, count=desc.min_replicas,
                                     region=None, at=at):
            self._deploy(desc, host, publisher, at)
        return hosts

    def resolve(self, service_id: str, at: SimTime) -> ServiceDescriptor | None:
        """Descriptor if any replica of it is reachable right now."""
        key = self.dsr_key(service_id)
        states = self.store.states.get(key, {})
        online = self.overlay.online_ids
        for host in self.store.hosts.get(key, ()):
            if host in online and host in states:
                return states[host].value
        return None

    def _code_sources(self, service_id: str) -> list[NodeId]:
        key = self.dsr_key(service_id)
        alive = [h for h in self.store.hosts.get(key, ())
                 if h in self.overlay.online_ids
                 and self.store.states[key].get(h) is not None]
        alive.extend(i.host for i in self.instances.get(service_id, ()))
        return sorted(set(alive))

    # -- invocation --------------------------------------------------------------

    def held_storage(self) -> dict[NodeId, int]:
        """Storage each host holds for its live instances' code."""
        held: dict[NodeId, int] = {}
        for insts in self.instances.values():
            for inst in insts:
                held[inst.host] = held.get(inst.host, 0) + inst.size
        return held

    def warm_instances(self, service_id: str, at: SimTime) -> list[Instance]:
        return [i for i in self.instances.get(service_id, ()) if i.warm_at <= at]

    def plan_invoke(self, request: Request, at: SimTime) -> InvokePlan:
        """Admit one request and run it within the budget admission set."""
        plan = self.admit(request, at)
        if plan.outcome == ADMITTED:
            self.run_on_host(plan)
        return plan

    def admit(self, request: Request, at: SimTime) -> InvokePlan:
        """Resolve, quote, check funds, place and count the request toward
        its region's traffic.

        An admitted plan has its host, in `start` the tick that host is
        ready, in `hop` the route latency to it and in `budget` the declared
        draw; any other outcome names the reason it was turned away.
        """
        desc = self.resolve(request.service_id, at)
        if desc is None:
            return InvokePlan(request, "unresolvable")
        gross = self.ledger.market.value_of(desc.declared)
        if not self.ledger.can_cover(request.requester,
                                     gross - min(desc.subsidy, gross)):
            return InvokePlan(request, "rejected-funds", desc, gross=gross,
                              budget=desc.declared)
        host, ready_at, hop = self._place_request(request, desc, at)
        if host is None:  # ready_at is the failure label from placement
            return InvokePlan(request, ready_at, desc, gross=gross,
                              budget=desc.declared)
        counts = self.traffic.setdefault(request.service_id, {})
        region = self.overlay.records[request.requester].region
        counts[region] = counts.get(region, 0) + 1
        return InvokePlan(request, ADMITTED, desc, host, gross,
                          start=max(at, ready_at), hop=hop,
                          budget=desc.declared)

    def _place_request(self, request: Request, desc: ServiceDescriptor,
                       at: SimTime):
        """Nearest warm instance, else a pull deployment near the requester:
        (host, ready tick, hop latency), or (None, failure label, 0). A
        pulled host is reachable: the requester reaches the code source,
        and the deployment routed from there to the host."""
        warm = [i.host for i in self.warm_instances(desc.service_id, at)]
        host, hop = self._nearest[desc.service_id].nearest(
            request.requester, warm)
        if host is not None:
            return host, at, hop
        source = next((s for s in self._code_sources(desc.service_id)
                       if self.overlay.reachable(request.requester, s)), None)
        if source is None:
            return None, "unresolvable", 0
        region = self.overlay.records[request.requester].region
        for host in self._pick_hosts(desc, PULL_CANDIDATES, region, at):
            inst = self._deploy(desc, host, source, at)
            if inst is not None:
                return (host, inst.warm_at,
                        self.overlay.route(request.requester, host))
        return None, "no-capacity", 0

    def run_on_host(self, plan: InvokePlan) -> None:
        """Queue an admitted plan on its host and meter its draw against
        `plan.budget`.

        The request takes the hop admission routed to reach the host, waits
        for it to be ready and free, and its reply takes the hop back, since
        shortest-path latency is symmetric. A terminated plan's draws (capped
        at its budget), run time and gross charge x become `-(-p * x // q)`,
        that is ceil(x·p/q) with p/q the tightest overrun.
        """
        host, hop, budget = plan.host, plan.hop, plan.budget
        actual = plan.request.actual
        rate = max(1, self.overlay.records[host].capacity.compute)
        full = math.ceil(actual.compute / rate) if actual.compute else 0
        plan.start = max(plan.start + hop, self.busy_until.get(host, 0))
        if budget.covers(actual):
            plan.outcome = COMPLETED
            plan.consumed = actual
            plan.done_at = plan.start + full
            plan.bill(plan.gross)
        else:
            p, q = budget_fraction(actual, budget)
            plan.outcome = TERMINATED
            plan.consumed = ResourceVector(*(
                min(budget.get(k), -(-p * actual.get(k) // q))
                for k in RESOURCE_KINDS))
            plan.done_at = plan.start + -(-p * full // q)
            plan.bill(-(-p * plan.gross // q))
        self.busy_until[host] = plan.done_at
        plan.latency = plan.done_at + hop - plan.request.issued_at

    def settlement_rows(self, plan: InvokePlan, at: SimTime):
        return self.ledger.settlement_rows(
            plan.request.requester, plan.host, plan.descriptor.developer,
            plan.charged, plan.subsidy_part, at, tag=str(plan.request.req_id))

    def settle(self, plan: InvokePlan, at: SimTime) -> None:
        """Count the plan's draw as demand and commit its charge, if any; a
        refused transaction leaves it payment-failed. A positive charge
        always makes a payment or a subsidy row, and no charge makes none,
        so a plan without one stops before the rows."""
        consumed = plan.consumed
        self._used_compute += consumed.compute
        self._used_bandwidth += consumed.bandwidth
        if plan.charged <= 0:
            return
        rows = self.settlement_rows(plan, at)
        region = self.overlay.records[plan.request.requester].region
        if not self.overlay.execute_transaction(region, rows,
                                                self.ledger).committed:
            plan.outcome = "payment-failed"
            plan.bill(0)

    def take_demand(self) -> ResourceVector:
        """The draw settled since the last call, and the storage the live
        instances hold."""
        demand = ResourceVector(self._used_compute,
                                sum(self.held_storage().values()),
                                self._used_bandwidth)
        self._used_compute = self._used_bandwidth = 0
        return demand

    # -- sessions -------------------------------------------------------------------

    def plan_session(self, request: Request, at: SimTime,
                     duration: int) -> Session:
        """Admit a stream; an admitted one begins at `start`, one hop after
        its host is ready."""
        plan = self.admit(request, at)
        if plan.outcome == ADMITTED:
            plan.start += plan.hop
            plan.latency = plan.start - at
        return Session(plan, duration)

    def begin_session(self, session: Session, at: SimTime) -> bool:
        """Meter the session from `at`; False, and ended, if its host left."""
        host = session.plan.host
        if not self.overlay.is_online(host):
            self._close(session, "host-offline", at)
            return False
        account = self._meter(host, at)
        if account is None:
            account = self._accounts[host] = StreamAccount(at, at, at - 1)
        session.begun = at
        account.live.append(session)
        return True

    def end_session(self, session: Session, at: SimTime) -> None:
        host = session.plan.host
        account = self._meter(host, at)
        account.live.remove(session)
        failed = session.begun <= account.failed_upto
        if not account.live:
            del self._accounts[host]
        self._close(session, "failed-throughput" if failed else COMPLETED, at)

    def cut_off(self, host: NodeId, calls: list[InvokePlan],
                at: SimTime) -> list[InvokePlan]:
        """End a departed host's queued calls, which drew and pay nothing,
        then its sessions, which pay nothing for what they streamed."""
        for plan in calls:
            plan.outcome, plan.latency = "host-offline", 0
            plan.consumed = ResourceVector()
            plan.bill(0)
        self._meter(host, at)
        account = self._accounts.pop(host, None)
        lost = account.live if account else []
        for session in lost:
            self._close(session, "host-offline", at)
        return calls + [s.plan for s in lost]

    def _meter(self, host: NodeId, now: SimTime) -> StreamAccount | None:
        """Step the host's account, if it has live sessions, over the ticks
        since it was last metered: each session gets an equal share of the
        host's bandwidth, capped at the stream rate, and adds it to its
        running total. One floor check serves every session on the host."""
        account = self._accounts.get(host)
        if account is None:
            return None
        span = now - account.metered_at
        if span > 0:
            account.metered_at = now
            delivered = min(self._rate, self.overlay.records[host]
                            .capacity.bandwidth / len(account.live))
            term = delivered * span
            for session in account.live:
                session.streamed += term
            if delivered >= self._floor:
                account.below_since = now
            elif now - account.below_since >= self._sustain:
                account.failed_upto = now - self._sustain
        return account

    def _close(self, session: Session, outcome: str, at: SimTime) -> None:
        plan = session.plan
        plan.outcome, plan.consumed = outcome, ResourceVector(bandwidth=int(session.streamed))
        plan.bill(plan.gross if outcome == COMPLETED else 0)
        self.settle(plan, at)

    # -- deployment and placement -------------------------------------------------

    def _pick_hosts(self, desc: ServiceDescriptor, count: int,
                    region: str | None, at: SimTime) -> list[NodeId]:
        need = ResourceVector(compute=1, storage=desc.code_size, bandwidth=1)
        result = self.repo.query(
            ResourceQuery(required=need, count=count, preferred_region=region),
            self.rng, at)
        hosting = {i.host for i in self.instances.get(desc.service_id, ())}
        return [n for n in result.nodes
                if n not in hosting and self.overlay.is_online(n)]

    def _deploy(self, desc: ServiceDescriptor, host: NodeId, source: NodeId,
                at: SimTime) -> Instance | None:
        try:
            delay = (0 if source == host
                     else self.overlay.route(source, host, desc.code_size))
        except Unreachable:
            return None
        inst = Instance(desc.service_id, host, at + delay,
                        self.overlay.records[host].region, desc.code_size)
        self.instances[desc.service_id].append(inst)
        return inst

    def host_lost(self, host: NodeId, at: SimTime) -> list[PlacementAction]:
        """Drop every instance on a departed host; its record falls silent."""
        lost = []
        for insts in self.instances.values():
            for inst in insts:
                if inst.host == host:
                    lost.append(PlacementAction(at, inst.service_id,
                                                "host-lost", host, inst.region))
            insts[:] = [i for i in insts if i.host != host]
        self.busy_until.pop(host, None)
        self.repo.silent(host)
        return lost

    def host_joined(self, host: NodeId, at: SimTime) -> list[PlacementAction]:
        """A host came back: it offers its capacity at once."""
        self.repo.offer(host, at, self.ledger.market.basket())
        return []

    def placement_tick(self, at: SimTime, push_enabled: bool) -> list[PlacementAction]:
        actions: list[PlacementAction] = []
        for service_id in sorted(self.instances):
            desc = self.resolve(service_id, at)
            if desc is None:
                continue
            if push_enabled:
                actions.extend(self._rebalance(desc, at))
            else:
                actions.extend(self._keep_floor(desc, at))
            self.traffic[service_id] = {}
        return actions

    def _rebalance(self, desc: ServiceDescriptor, at: SimTime) -> list[PlacementAction]:
        counts = self.traffic.get(desc.service_id, {})
        total = sum(counts.values())
        history = self._targets.setdefault(desc.service_id, {})
        effective: dict[str, int] = {}
        for region in self.config.regions:
            raw = 0
            if total > 0:
                share = counts.get(region, 0) / total
                raw = math.ceil(share / KAPPA_SHARE) if share > 0 else 0
            past = history.setdefault(region, [])
            past.append(raw)
            del past[:-self.config.cool_down]
            effective[region] = max(past)
        floor_order = sorted(self.config.regions,
                             key=lambda r: (-counts.get(r, 0), r))
        i = 0
        while sum(effective.values()) < desc.min_replicas:
            effective[floor_order[i % len(floor_order)]] += 1
            i += 1
        return self._apply_targets(desc, effective, at)

    def _keep_floor(self, desc: ServiceDescriptor, at: SimTime) -> list[PlacementAction]:
        live = len(self.instances[desc.service_id])
        if live >= desc.min_replicas:
            return []
        return self._deploy_n(desc, desc.min_replicas - live, None, at)

    def _apply_targets(self, desc: ServiceDescriptor, targets: dict[str, int],
                       at: SimTime) -> list[PlacementAction]:
        actions = []
        live: dict[str, list[Instance]] = {}
        for inst in self.instances[desc.service_id]:
            live.setdefault(inst.region, []).append(inst)
        for region in self.config.regions:
            have, want = len(live.get(region, ())), targets.get(region, 0)
            if have < want:
                actions.extend(self._deploy_n(desc, want - have, region, at))
            elif have > want:
                for inst in reversed(live[region][want:]):  # newest first
                    self.instances[desc.service_id].remove(inst)
                    actions.append(PlacementAction(at, desc.service_id,
                                                   "retired", inst.host, region))
        return actions

    def _deploy_n(self, desc: ServiceDescriptor, n: int, region: str | None,
                  at: SimTime) -> list[PlacementAction]:
        actions = []
        sources = self._code_sources(desc.service_id)
        if not sources:
            return [PlacementAction(at, desc.service_id, "shortfall", None,
                                    region or "")] * n
        hosts = self._pick_hosts(desc, n, region, at)
        for host in hosts[:n]:
            source = self.overlay.graph.nearest(host, sources)[0] or sources[0]
            inst = self._deploy(desc, host, source, at)
            if inst is not None:
                actions.append(PlacementAction(at, desc.service_id, "deployed",
                                               host, inst.region))
        for _ in range(n - len(actions)):
            actions.append(PlacementAction(at, desc.service_id, "shortfall",
                                           None, region or ""))
        return actions

    # -- content distribution ------------------------------------------------------

    def distribute(self, origin: NodeId, consumers: list[NodeId], size: int,
                   at: SimTime, repeaters: bool = True,
                   fanout: int = 2) -> dict[NodeId, SimTime]:
        """Deliver a blob to every consumer; meter each sender's egress.

        With repeaters, receivers relay onward in a degree-`fanout` tree, so
        the origin uploads at most `fanout` copies. Without, the origin
        uploads one copy per consumer.
        """
        delivered: dict[NodeId, SimTime] = {}
        pending = sorted(c for c in consumers if c != origin)
        if not repeaters:
            for consumer in pending:
                self.egress[origin] = self.egress.get(origin, 0) + size
                delivered[consumer] = at + self.overlay.route(origin, consumer, size)
            return delivered
        senders: list[tuple[SimTime, NodeId]] = [(at, origin)]
        i = 0
        while i < len(pending):
            ready_at, sender = senders.pop(0)
            for consumer in pending[i:i + fanout]:
                self.egress[sender] = self.egress.get(sender, 0) + size
                arrive = ready_at + self.overlay.route(sender, consumer, size)
                delivered[consumer] = arrive
                senders.append((arrive, consumer))
                i += 1
        return delivered


class VendorRuntime(ServiceRuntime):
    """The vendor baseline: every service runs on one fixed host, linked to
    every online node at `latency`. Those links, each made once and only
    here, are the run's only links. Plans carry no price and a request's
    own draw is its budget, so none is terminated. The host is the one
    record in the repository, so every write lands on it too."""

    def __init__(self, config: ServicesConfig, overlay: Overlay,
                 repo: Repository, ledger: Ledger, store: ReplicaStore,
                 rng: RngStream, host: NodeId, latency: int):
        super().__init__(config, overlay, repo, ledger, store, rng)
        self.host, self.latency = host, latency
        self.descriptors: dict[str, ServiceDescriptor] = {}
        rec = overlay.records[host]
        repo.register(NodeResourceRecord(host, rec.region, rec.capacity))
        self.host_joined(host, 0)

    def publish(self, desc: ServiceDescriptor, publisher: NodeId,
                at: SimTime) -> list[NodeId]:
        if desc.service_id in self.instances:
            raise ServiceError(f"{desc.service_id} is already published")
        self.descriptors[desc.service_id] = desc
        self.instances[desc.service_id] = []
        self._deploy(desc, self.host, self.host, at)
        return [self.host]

    def admit(self, request: Request, at: SimTime) -> InvokePlan:
        """The fixed host and the hop to it, with the request's own draw as
        the budget; unreachable if there is no hop."""
        desc = self.descriptors[request.service_id]
        try:
            hop = self.overlay.route(request.requester, self.host)
        except Unreachable:
            return InvokePlan(request, "unreachable", desc, start=at,
                              budget=request.actual)
        return InvokePlan(request, ADMITTED, desc, self.host, start=at,
                          hop=hop, budget=request.actual)

    def host_joined(self, host: NodeId, at: SimTime) -> list[PlacementAction]:
        """Link a joining node to the host; a returning host relinks every
        online node and runs every service again."""
        if host != self.host:
            if self.overlay.is_online(self.host):
                self.overlay.add_link(self.host, host, self.latency)
            return []
        super().host_joined(host, at)
        for node in self.overlay.online_ids:
            if node != host:
                self.overlay.add_link(host, node, self.latency)
        return [PlacementAction(at, s, "deployed", host, inst.region)
                for s, desc in self.descriptors.items()
                for inst in [self._deploy(desc, host, host, at)]]
