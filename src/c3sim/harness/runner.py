"""Scenario assembly and execution.

One Runner owns one run: it builds the substrate from a ScenarioConfig,
subscribes handlers, pre-generates the workload, runs the clock out and
leaves behind the report plus the log tables every metric derives from.

Reads, chained calls and video sessions share one request path: admission
and placement (`ServiceRuntime.admit`), execution (`run_on_host` for calls;
for sessions, a share of the host's bandwidth over the stream's duration),
settlement (`_settle`, the one ledger transaction) and one `requests` row
(`_request_row`). The two architectures differ only in what `_build`
puts behind that path. Community mode runs the full stack. The vendor
baseline (`VendorRuntime`) serves the same pre-generated workload from one
fixed, high-capacity host at no price, with no currency, no placement and
no evolution, so the two can be compared under identical demand.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import partial

from ..engine import Event, RunSummary, SimTime, Simulator
from ..evolution import UpdateDiffusion
from ..ledger import Ledger, MarketPrice, account_label
from ..overlay import (NodeId, NodeRecord, NoQuorum, Overlay, OverlayConfig,
                       OverlayError, Unreachable, generate_identity)
from ..replication import ReplicaStore
from ..resource_repo import NodeResourceRecord, Repository, ResourceQuery
from ..resources import ResourceVector
from ..services import (ADMITTED, COMPLETED, InvokePlan, Request,
                        ServiceDescriptor, ServiceRuntime, ServicesConfig,
                        VendorRuntime)
from .config import ConfigError, FailureEntry, ScenarioConfig
from .metrics import COLUMNS, compute_report
from .workloads import WorkloadItem, draw_actual, generate

VENDOR_REGION = "core"
VENDOR_CLASS = "vendor-core"


@dataclass(slots=True)
class _Session:
    plan: InvokePlan
    duration: int
    rate: int
    acc: float = 0.0
    below_run: int = 0
    failed: bool = False
    end_event: Event | None = None


class Runner:
    def __init__(self, config: ScenarioConfig):
        for entry in config.failures:  # --mode may have changed since parsing
            if entry.kind == "vendor" and config.mode != "vendor":
                raise ConfigError(f"[failures] {entry.name}.target",
                                  "vendor target in community mode")
        self.config = config
        self.sim = Simulator(config.seed, config.horizon)
        self.logs: dict[str, list[tuple]] = {name: [] for name in COLUMNS}
        self.report: dict | None = None
        self.summary: RunSummary | None = None
        self._req_seq = 0
        # Per host, its in-flight calls in scheduling order, so a leave
        # writes their rows in a fixed order.
        self._pending: dict[NodeId, dict[Event, None]] = {}
        self._churn_event: dict[NodeId, Event] = {}
        self._sessions: dict[NodeId, list[_Session]] = {}
        self._session_clock: dict[NodeId, SimTime] = {}
        self._demand = ResourceVector()
        self._active_diffusions: dict[str, str] = {}
        self._key_size: dict[str, int] = {}
        self.services_by_id = {s.service_id: s for s in config.services}
        self._build()

    # -- construction ---------------------------------------------------------

    def _build(self) -> None:
        cfg = self.config
        topo = cfg.topology
        self.overlay = Overlay(OverlayConfig(
            degree=topo.degree, inter_region_links=topo.inter_region_links,
            intra_latency=topo.intra_latency, inter_latency=topo.inter_latency,
            m_target=topo.m_target), self.sim.stream("overlay"))

        ids = self.sim.stream("identity")
        self.node_list: list[NodeId] = []
        self.by_class: dict[str, list[NodeId]] = {}
        for klass in cfg.population:
            for i in range(klass.count):
                node_id = generate_identity(ids).node_id
                region = klass.regions[i % len(klass.regions)]
                self.overlay.add_record(NodeRecord(
                    node_id, region, klass.capacity, klass.name,
                    klass.cost_factor, klass.mean_online, klass.mean_offline,
                    online=True, online_since=0))
                self.node_list.append(node_id)
                self.by_class.setdefault(klass.name, []).append(node_id)
                self._log("nodes", node_id.short, region, klass.name,
                          klass.compute, klass.storage, klass.bandwidth,
                          klass.cost_factor, klass.credit_limit,
                          klass.initial_balance, 1)

        self.vendor_node: NodeId | None = None
        if cfg.mode == "vendor":
            self.vendor_node = generate_identity(ids).node_id
            cap = ResourceVector(10 ** 6, 10 ** 9, 10 ** 6)
            self.overlay.add_record(NodeRecord(
                self.vendor_node, VENDOR_REGION, cap, VENDOR_CLASS,
                online=True, online_since=0))
            self._log("nodes", self.vendor_node.short, VENDOR_REGION,
                      VENDOR_CLASS, cap.compute, cap.storage, cap.bandwidth,
                      1.0, 0, 0, 1)

        try:
            self.overlay.build(0)
        except OverlayError as exc:  # no connected graph of this degree
            raise ConfigError("[topology] degree", str(exc)) from None
        for region in self.overlay.regions:
            if self.overlay.online_in_region(region):
                self.overlay.form_dvsp(region, 0)

        self.ledger = Ledger(MarketPrice(cfg.market))
        self.repo = Repository(
            heartbeat_interval=cfg.heartbeat_interval,
            region_gate=self.overlay.dvsp_has_quorum)
        self.store = ReplicaStore(log=partial(self._log, "replication"))
        runtime = (ServicesConfig(regions=topo.regions, dsr_r=cfg.dsr_r,
                                  cool_down=cfg.cool_down_windows),
                   self.overlay, self.repo, self.ledger, self.store,
                   self.sim.stream("services"))
        self.services = (
            ServiceRuntime(*runtime) if self.vendor_node is None
            else VendorRuntime(*runtime, self.vendor_node, topo.vendor_latency))

        trust_rng = self.sim.stream("evolution")
        trust = {}
        pool = sorted(self.node_list)
        for i, node in enumerate(pool):
            others = pool[:i] + pool[i + 1:]
            k = min(cfg.evolution.trust_out_degree, len(others))
            trust[node] = tuple(trust_rng.sample(others, k))
        self.evolution = UpdateDiffusion(trust, cfg.evolution.theta)

        if cfg.mode == "community":
            for klass in cfg.population:
                for node in self.by_class[klass.name]:
                    self.ledger.open_account(node, klass.initial_balance,
                                             klass.credit_limit)
                    self.repo.register(NodeResourceRecord(
                        node, self.overlay.records[node].region,
                        klass.capacity, cost_factor=klass.cost_factor))
            # Nothing is deployed yet, so no node holds any storage.
            self.repo.sweep(0, self.overlay.is_online, {},
                            self.ledger.market.basket())
            for svc in cfg.services:
                self.ledger.open_account(f"dev:{svc.service_id}",
                                         svc.developer_balance)
                self.evolution.register_root(svc.service_id, "1.0", svc.fitness, 0)
                if svc.update_at is not None:
                    self.sim.at(svc.update_at, "release", service_id=svc.service_id)
        publisher = min(self.node_list)
        for svc in cfg.services:
            desc = ServiceDescriptor(
                svc.service_id, f"dev:{svc.service_id}", svc.declared,
                svc.code_size, svc.min_replicas, svc.subsidy,
                chain_next=svc.chain_next)
            self.services.publish(desc, publisher, 0)
            self._key_size[ServiceRuntime.dsr_key(svc.service_id)] = svc.code_size
            for inst in self.services.instances[svc.service_id]:
                self._log("placements", 0, svc.service_id, "deployed",
                          inst.host.short, inst.region)

        self._meta()
        self._schedule_workload()
        self._schedule_churn()
        self._schedule_periodic()
        self._schedule_failures()
        self._subscribe()

    def _meta(self) -> None:
        cfg = self.config
        rows = [
            ("seed", cfg.seed), ("horizon", cfg.horizon), ("mode", cfg.mode),
            ("gossip_period", cfg.gossip_period),
            ("heartbeat_interval", cfg.heartbeat_interval),
            ("price_window", cfg.price_window),
            ("placement_window", cfg.placement_window),
            ("p_min", cfg.market.p_min), ("p_max", cfg.market.p_max),
            ("minting", int(cfg.market.minting)),
            ("replication_r", cfg.replication_r),
        ]
        for svc in cfg.services:
            rows.append((f"code_size.{svc.service_id}", svc.code_size))
        for key, value in rows:
            self._log("meta", key, str(value))

    def _schedule_workload(self) -> None:
        rng = self.sim.stream("workload")
        for item in generate(self.config, rng, len(self.node_list)):
            self.sim.at(item.at, "request-arrival", item=item)

    def _schedule_churn(self) -> None:
        for node in self.node_list:
            self._next_churn(node, "node-leave")

    def _next_churn(self, node: NodeId, kind: str) -> None:
        """Draw the node's next churn leave or join, if it churns at all."""
        rec = self.overlay.records[node]
        mult = self.config.churn_multiplier
        if rec.mean_offline <= 0 or mult <= 0:
            return
        mean = rec.mean_online if kind == "node-leave" else rec.mean_offline
        rate = mult / mean
        if rate <= 0:  # a subnormal multiplier underflows: the node never churns
            return
        gap = self.sim.stream("churn").expovariate(rate)
        if gap >= self.config.horizon - self.sim.now + 1:  # may be inf
            return
        delay = max(1, int(gap))
        if self.sim.now + delay <= self.config.horizon:
            self._churn_event[node] = self.sim.at(self.sim.now + delay, kind,
                                                  node=node)

    def _schedule_periodic(self) -> None:
        cfg = self.config
        for period, kind in ((cfg.heartbeat_interval, "heartbeat-sweep"),
                             (cfg.gossip_period, "gossip-round"),
                             (cfg.price_window, "price-tick"),
                             (cfg.placement_window, "placement-tick")):
            for t in range(period, cfg.horizon + 1, period):
                self.sim.at(t, kind)

    def _schedule_failures(self) -> None:
        for entry in self.config.failures:
            self.sim.at(entry.at, "failure-injection", entry=entry)

    def _subscribe(self) -> None:
        sub = self.sim.subscribe
        sub("request-arrival", self._on_arrival)
        sub("request-complete", self._on_complete)
        sub("session-begin", self._on_session_begin)
        sub("session-end", self._on_session_end)
        sub("replica-deliver", self._on_deliver)
        sub("gossip-round", self._on_gossip)
        sub("heartbeat-sweep", self._on_sweep)
        if self.config.mode == "community":  # the vendor has no market
            sub("price-tick", self._on_price)
        sub("placement-tick", self._on_placement)
        sub("node-leave", self._on_leave)
        sub("node-join", self._on_join)
        sub("failure-injection", self._on_failure)
        sub("release", self._on_release)

    # -- logging helpers ---------------------------------------------------------

    def _log(self, name: str, *row) -> None:
        self.logs[name].append(row)

    # -- arrival handling ------------------------------------------------------------

    def _on_arrival(self, event: Event) -> None:
        item: WorkloadItem = event.payload["item"]
        requester = self.node_list[item.requester_index]
        if not self.overlay.is_online(requester):
            return
        at = self.sim.now
        if item.kind == "read":
            self._invoke(requester, item.service_id, item.actual, at, "request")
        elif item.kind == "write":
            self._wiki_write(requester, item.page, at)
        else:
            self._session_start(requester, item, at)

    def _next_req(self) -> int:
        self._req_seq += 1
        return self._req_seq

    def _invoke(self, requester: NodeId, service_id: str,
                actual: ResourceVector, at: SimTime, kind: str) -> None:
        req = Request(self._next_req(), service_id, requester, at, actual, kind)
        plan = self.services.plan_invoke(req, at)
        if plan.served:
            ev = self.sim.at(plan.done_at, "request-complete", plan=plan)
            self._pending.setdefault(plan.host, {})[ev] = None
        else:
            self._request_row(plan)

    # -- completion ---------------------------------------------------------------

    def _on_complete(self, event: Event) -> None:
        plan: InvokePlan = event.payload["plan"]
        at = self.sim.now
        self._pending.get(plan.host, {}).pop(event, None)
        self._settle(plan, at)
        self.repo.record_task(plan.host, plan.outcome == COMPLETED)
        self._request_row(plan)
        if plan.outcome == COMPLETED and plan.descriptor.chain_next:
            nxt = self.services_by_id[plan.descriptor.chain_next]
            actual = draw_actual(nxt, self.sim.stream("chain"))
            self._invoke(plan.request.requester, nxt.service_id, actual, at,
                         "chained")

    def _settle(self, plan: InvokePlan, at: SimTime) -> None:
        """Count the plan's draw as demand and commit its charge, if any."""
        self._demand = self._demand + plan.consumed
        rows = self.services.settlement_rows(plan, at)
        if not rows:
            return
        region = self.overlay.records[plan.request.requester].region
        try:
            result = self.overlay.execute_transaction(region, rows,
                                                      self.ledger, at)
            committed = result.committed
        except NoQuorum:
            committed = False
        if not committed:
            plan.outcome = "payment-failed"
            plan.bill(0)

    def _request_row(self, plan: InvokePlan) -> None:
        req = plan.request
        declared = self.services_by_id[req.service_id].declared
        self._log("requests", req.issued_at, req.req_id, req.kind,
                  req.service_id, req.requester.short,
                  plan.host.short if plan.host else "", plan.outcome,
                  plan.latency, plan.gross, plan.charged, plan.subsidy_part,
                  declared.compute, declared.storage, declared.bandwidth,
                  req.actual.compute, req.actual.storage,
                  req.actual.bandwidth, plan.consumed.compute,
                  plan.consumed.bandwidth)

    # -- wiki writes ------------------------------------------------------------------

    def _wiki_write(self, requester: NodeId, page: int, at: SimTime) -> None:
        key = f"page/{page}"
        size = self.config.workload.write_size
        if key not in self.store.hosts:
            result = self.repo.query(ResourceQuery(
                required=ResourceVector(storage=size),
                count=self.config.replication_r),
                self.sim.stream("replication"), at)
            if not result.nodes:
                return
            self.store.ensure(key, list(result.nodes))
            self._key_size[key] = size
        apply_at = self.overlay.nearest(requester, self.store.replica_hosts(key))
        if apply_at is None:
            self._log("replication", at, key, "put-dropped", requester.short)
            return
        value = f"{at}:{requester.short}"
        for d in self.store.put(key, value, requester, at, apply_at):
            try:
                delay = self.overlay.route(apply_at, d.host, size)
            except Unreachable:  # a cut-off host misses the broadcast
                continue
            self.sim.at(at + delay, "replica-deliver", key=key, host=d.host,
                        obj=d.obj)

    def _on_deliver(self, event: Event) -> None:
        p = event.payload
        if self.overlay.is_online(p["host"]):
            self.store.deliver(p["key"], p["host"], p["obj"], self.sim.now)

    # -- video sessions ------------------------------------------------------------------

    def _session_start(self, requester: NodeId, item: WorkloadItem,
                       at: SimTime) -> None:
        streamed = ResourceVector(bandwidth=item.stream_rate * item.duration)
        plan = self.services.admit(Request(
            self._next_req(), item.service_id, requester, at, streamed,
            "session"), at)
        if plan.outcome == ADMITTED:
            try:
                plan.start += self.overlay.route(requester, plan.host)
            except Unreachable:
                plan.outcome, plan.host = "unreachable", None
        if plan.outcome != ADMITTED:
            self._request_row(plan)
            return
        plan.latency = plan.start - at
        session = _Session(plan, item.duration, item.stream_rate)
        self.sim.at(plan.start, "session-begin", session=session)

    def _on_session_begin(self, event: Event) -> None:
        session: _Session = event.payload["session"]
        host = session.plan.host
        if not self.overlay.is_online(host):
            self._finish_session(session, "host-offline", self.sim.now)
            return
        self._accrue(host, self.sim.now)
        self._sessions.setdefault(host, []).append(session)
        session.end_event = self.sim.at(self.sim.now + session.duration,
                                        "session-end", session=session)

    def _accrue(self, host: NodeId, now: SimTime) -> None:
        active = self._sessions.get(host, ())
        if not active:
            self._session_clock[host] = now
            return
        last = self._session_clock.get(host, now)
        span = now - last
        if span <= 0:
            return
        bw = self.overlay.records[host].capacity.bandwidth
        share = bw / len(active)
        floor = self.config.workload.floor
        for s in active:
            delivered = min(float(s.rate), share)
            s.acc += delivered * span
            if delivered < floor * s.rate:
                s.below_run += span
                if s.below_run >= self.config.workload.sustain_window:
                    s.failed = True
            else:
                s.below_run = 0
        self._session_clock[host] = now

    def _on_session_end(self, event: Event) -> None:
        session: _Session = event.payload["session"]
        at = self.sim.now
        self._accrue(session.plan.host, at)
        self._sessions[session.plan.host].remove(session)
        outcome = "failed-throughput" if session.failed else COMPLETED
        self._finish_session(session, outcome, at)

    def _finish_session(self, session: _Session, outcome: str,
                        at: SimTime) -> None:
        plan = session.plan
        plan.outcome = outcome
        plan.consumed = ResourceVector(bandwidth=int(session.acc))
        plan.bill(plan.gross if outcome == COMPLETED else 0)
        self._settle(plan, at)
        self._request_row(plan)

    # -- periodic upkeep -------------------------------------------------------------------

    def _on_gossip(self, event: Event) -> None:
        at = self.sim.now
        self.overlay.maintenance(at)
        rng = self.sim.stream("replication")
        self.store.gossip_round(at, rng, self.overlay.is_online)
        self.store.rereplicate(at, self.overlay.is_online, self._pick_replica)
        if self._active_diffusions:
            for adopt in self.evolution.adoption_tick(at, self.overlay.is_online):
                self._log("adoptions", at, adopt.node.short, adopt.service_id,
                          adopt.from_version, adopt.to_version, adopt.cause)
            done = [s for s, v in self._active_diffusions.items()
                    if self.evolution.adoption_fraction(s, v) >= 1.0]
            for s in done:
                del self._active_diffusions[s]

    def _pick_replica(self, key: str, exclude: set[NodeId]) -> NodeId | None:
        size = self._key_size.get(key, 1)
        result = self.repo.query(ResourceQuery(
            required=ResourceVector(storage=size),
            count=len(exclude) + 1), self.sim.stream("replication"),
            self.sim.now)
        for node in result.nodes:
            if node not in exclude and self.overlay.is_online(node):
                return node
        return None

    def _on_sweep(self, event: Event) -> None:
        self.repo.sweep(self.sim.now, self.overlay.is_online,
                        self.services.held_storage(),
                        self.ledger.market.basket())

    def _on_price(self, event: Event) -> None:
        at = self.sim.now
        window = self.config.price_window
        online = [self.overlay.records[n] for n in self.node_list
                  if self.overlay.is_online(n)]
        supply = ResourceVector(
            sum(r.capacity.compute for r in online) * window,
            sum(r.capacity.storage for r in online),
            sum(r.capacity.bandwidth for r in online) * window)
        held = self.services.held_storage()
        demand = ResourceVector(self._demand.compute,
                                sum(held.get(r.node_id, 0) for r in online),
                                self._demand.bandwidth)
        self.ledger.market.update(demand, supply)
        price = self.ledger.market.price
        self._log("prices", at, price("compute"), price("storage"),
                  price("bandwidth"))
        self._demand = ResourceVector()

    def _on_placement(self, event: Event) -> None:
        self._log_placements(self.services.placement_tick(
            self.sim.now, self.config.push_placement))

    def _log_placements(self, actions) -> None:
        for act in actions:
            self._log("placements", act.at, act.service_id, act.action,
                      act.host.short if act.host else "", act.region)

    # -- membership ------------------------------------------------------------------------

    def _do_leave(self, node: NodeId, at: SimTime, cause: str) -> None:
        if not self.overlay.is_online(node):
            return
        self.overlay.leave(node, at)
        self._log("membership", at, node.short, "leave", cause)
        for inst in self.services.host_lost(node, at):
            self._log("placements", at, inst.service_id, "host-lost",
                      node.short, inst.region)
        for ev in self._pending.pop(node, {}):
            if self.sim.cancel(ev):
                # Nothing was delivered or settled: no charge, no usage.
                plan: InvokePlan = ev.payload["plan"]
                plan.outcome = "host-offline"
                plan.latency = 0
                plan.bill(0)
                plan.consumed = ResourceVector()
                self._request_row(plan)
        self._accrue(node, at)
        for session in self._sessions.pop(node, []):
            if session.end_event is not None:
                self.sim.cancel(session.end_event)
            self._finish_session(session, "host-offline", at)

    def _do_join(self, node: NodeId, at: SimTime, cause: str) -> None:
        if self.overlay.is_online(node):
            return
        self.overlay.join(node, at)
        self._log("membership", at, node.short, "join", cause)
        self._log_placements(self.services.host_joined(node, at))

    def _on_leave(self, event: Event) -> None:
        node = event.payload["node"]
        self._churn_event.pop(node, None)
        self._do_leave(node, self.sim.now, "churn")
        self._next_churn(node, "node-join")

    def _on_join(self, event: Event) -> None:
        node = event.payload["node"]
        self._churn_event.pop(node, None)
        self._do_join(node, self.sim.now, "churn")
        self._next_churn(node, "node-leave")

    def _targets(self, entry: FailureEntry) -> list[NodeId]:
        """The entry's nodes as of now: kills take online ones, restores
        offline ones; class and vendor targets name one node either way."""
        if entry.kind == "vendor":
            return [self.vendor_node]
        if entry.kind == "class":
            return [self.by_class[entry.scope][entry.k]]
        overlay = self.overlay
        if entry.kind == "region":
            pool = overlay.regions.get(entry.scope, [])
        elif entry.kind == "dvsp":
            vsp = overlay.dvsp(entry.scope)
            pool = vsp.members if vsp else []
        else:  # nodes:random
            pool = [n for n in sorted(overlay.records) if n != self.vendor_node]
        want_online = entry.action == "kill"
        pool = [n for n in pool if overlay.is_online(n) == want_online]
        if entry.kind == "dvsp":
            return pool[:entry.k]
        if entry.kind == "nodes":  # a fraction in (0, 1] never overdraws
            return self.sim.stream("failures").sample(
                pool, round(len(pool) * entry.fraction))
        return pool

    def _on_failure(self, event: Event) -> None:
        """A killed node's churn is cancelled, so it stays down until a
        restore names it; a region kill holds the region's offline nodes
        down too. A restored node draws its next churn leave."""
        entry = event.payload["entry"]
        at = self.sim.now
        kill = entry.action == "kill"
        targets = self._targets(entry)
        held = (self.overlay.regions.get(entry.scope, [])
                if kill and entry.kind == "region" else targets)
        for node in held:
            pending = self._churn_event.pop(node, None)
            if pending is not None:
                self.sim.cancel(pending)
        for node in targets:
            if kill:
                self._do_leave(node, at, "scripted")
            else:
                self._do_join(node, at, "scripted")
                self._next_churn(node, "node-leave")

    def _on_release(self, event: Event) -> None:
        service_id = event.payload["service_id"]
        svc = self.services_by_id[service_id]
        at = self.sim.now
        origins = [i.host for i in self.services.warm_instances(service_id, at)]
        if not origins:
            online = self.overlay.online_nodes()
            if not online:
                return
            origins = [min(online)]
        fitness = (svc.update_fitness if svc.update_fitness is not None
                   else svc.fitness + 1.0)
        for adopt in self.evolution.release(service_id, "2.0", "1.0", fitness,
                                            sorted(set(origins)), at):
            self._log("adoptions", at, adopt.node.short, adopt.service_id,
                      adopt.from_version, adopt.to_version, adopt.cause)
        self._active_diffusions[service_id] = "2.0"

    # -- execution ------------------------------------------------------------------------

    def run(self) -> dict:
        self.summary = self.sim.run()
        for row in self.ledger.log:
            src = row.src if isinstance(row.src, str) else row.src.short
            dst = row.dst if isinstance(row.dst, str) else row.dst.short
            self._log("transfers", row.at, src, dst, row.amount, row.reason)
        for owner in sorted(self.ledger.accounts, key=account_label):
            acct = self.ledger.accounts[owner]
            self._log("balances", account_label(owner),
                      self.ledger.opening_balances[owner], acct.balance,
                      acct.credit_limit)
        self.report = compute_report(self.logs)
        return self.report


def run_scenario(config: ScenarioConfig) -> Runner:
    runner = Runner(config)
    runner.run()
    return runner
