"""Scenario assembly and execution.

One Runner owns one run: it builds the substrate from a ScenarioConfig,
schedules its handlers, pre-generates the workload, runs the clock out and
leaves behind the report plus the log tables every metric derives from.
It only dispatches: each handler calls a layer, schedules the events the
layer returns and writes the log rows.

Reads, chained calls and video sessions share one request path in
`ServiceRuntime`, which meters calls on their host and sessions as a share
of its bandwidth, and settles each in one ledger transaction; the runner
writes one `requests` row per request. `Replicator` owns page writes and
replica repair. The two architectures differ only in what `_build` puts
behind that path, and one branch there states the difference. Community
mode runs the full stack. The vendor baseline (`VendorRuntime`) serves the
same pre-generated workload from one fixed, high-capacity host at no price,
with no currency, no placement, no evolution and no community links, so the
two can be compared under identical demand; `_schedule` queues it no price
or placement tick.
"""
from __future__ import annotations

from dataclasses import replace
from functools import partial
from itertools import count

from ..engine import Entry, RunSummary, SimTime, Simulator
from ..evolution import UpdateDiffusion
from ..ledger import Ledger, MarketPrice, account_label
from ..overlay import (NodeId, NodeRecord, Overlay, OverlayConfig,
                       OverlayError, generate_identity)
from ..replication import Delivery, ReplicaStore, Replicator
from ..resource_repo import NodeResourceRecord, Repository
from ..resources import ResourceVector
from ..services import (ADMITTED, COMPLETED, InvokePlan, Request,
                        ServiceDescriptor, ServiceError, ServiceRuntime,
                        ServicesConfig, Session, VendorRuntime)
from .config import ConfigError, FailureEntry, ScenarioConfig
from .metrics import COLUMNS, compute_report
from .workloads import WorkloadItem, draw_actual, generate

VENDOR_REGION = "core"
VENDOR_CLASS = "vendor-core"


class Runner:
    def __init__(self, config: ScenarioConfig):
        self.config = config
        self.sim = Simulator(config.seed, config.horizon)
        self.logs: dict[str, list[tuple]] = {name: [] for name in COLUMNS}
        self.report: dict | None = None
        self.summary: RunSummary | None = None
        self._req_ids = count(1)
        # Per host, its queued calls and live sessions, each with its
        # completion or end event, in scheduling order: a leave cancels
        # them in a fixed order.
        self._pending: dict[NodeId, dict[InvokePlan | Session, Entry]] = {}
        self._churn_event: dict[NodeId, Entry] = {}
        self.services_by_id = {s.service_id: s for s in config.services}
        self._build()

    # -- construction ---------------------------------------------------------

    def _build(self) -> None:
        cfg = self.config
        topo = cfg.topology
        wiring = OverlayConfig(
            degree=topo.degree, inter_region_links=topo.inter_region_links,
            intra_latency=topo.intra_latency, inter_latency=topo.inter_latency,
            m_target=topo.m_target)
        if cfg.mode == "vendor":  # VendorRuntime's star is the only topology
            wiring = replace(wiring, degree=0, min_degree=0, inter_region_links=0)
        self.overlay = Overlay(wiring, self.sim.stream("overlay"))

        ids = self.sim.stream("identity")
        self.node_list: list[NodeId] = []
        self.by_class: dict[str, list[NodeId]] = {}
        for klass in cfg.population:
            capacity = klass.capacity
            for i in range(klass.count):
                node_id = generate_identity(ids)
                region = klass.regions[i % len(klass.regions)]
                self.overlay.add_record(NodeRecord(
                    node_id, region, capacity, klass.mean_online,
                    klass.mean_offline), online=True)
                self.node_list.append(node_id)
                self.by_class.setdefault(klass.name, []).append(node_id)
                self._log("nodes", node_id.short, region, klass.name,
                          klass.compute, klass.storage, klass.bandwidth,
                          klass.cost_factor, klass.credit_limit,
                          klass.initial_balance, 1)

        self.ledger = Ledger(MarketPrice(cfg.market))
        self.repo = Repository(
            heartbeat_interval=cfg.heartbeat_interval,
            region_gate=self.overlay.dvsp_has_quorum)
        self.store = ReplicaStore(log=partial(self._log, "replication"))
        self.replicator = Replicator(self.store, self.repo, self.overlay,
                                     self.sim.stream("replication"),
                                     cfg.replication_r)
        wl = cfg.workload
        runtime = (ServicesConfig(regions=topo.regions, dsr_r=cfg.dsr_r,
                                  cool_down=cfg.cool_down_windows,
                                  stream_rate=wl.stream_rate, floor=wl.floor,
                                  sustain_window=wl.sustain_window),
                   self.overlay, self.repo, self.ledger, self.store,
                   self.sim.stream("services"))

        self.vendor_node: NodeId | None = None
        if cfg.mode == "community":
            for entry in cfg.failures:  # --mode may have changed since parsing
                if entry.kind == "vendor":
                    raise ConfigError(f"[failures] {entry.name}.target",
                                      "vendor target in community mode")
            try:
                self.overlay.build()
            except OverlayError as exc:  # no connected graph of this degree
                raise ConfigError("[topology] degree", str(exc)) from None
            self.services = ServiceRuntime(*runtime)
            basket = self.ledger.market.basket()
            for klass in cfg.population:
                for node in self.by_class[klass.name]:
                    self.ledger.open_account(node, klass.initial_balance,
                                             klass.credit_limit)
                    rec = self.overlay.records[node]
                    self.repo.register(NodeResourceRecord(
                        node, rec.region, rec.capacity,
                        cost_factor=klass.cost_factor))
                    # Nothing is deployed yet, so no node holds any storage.
                    self.repo.offer(node, 0, basket)
            # Each node's peers are drawn as indices into the pool without
            # it, which draws what sampling that list would.
            rng, pool = self.sim.stream("evolution"), sorted(self.node_list)
            others = range(len(pool) - 1)
            k = min(cfg.evolution.trust_out_degree, len(others))
            self.evolution = UpdateDiffusion(
                {node: tuple(pool[j + (j >= i)] for j in rng.sample(others, k))
                 for i, node in enumerate(pool)}, cfg.evolution.theta)
            for svc in cfg.services:
                self.ledger.open_account(f"dev:{svc.service_id}",
                                         svc.developer_balance)
                self.evolution.register_root(svc.service_id, "1.0", svc.fitness)
                if svc.update_at is not None:
                    self.sim.at(svc.update_at, self._on_release, svc.service_id)
        else:  # VendorRuntime makes every link; a super-peer gates the vendor
            # Community nodes in core would share the vendor's super-peer: its
            # repository gate would follow their churn and core targets hit them.
            if VENDOR_REGION in topo.regions:
                raise ConfigError("[topology] regions",
                                  f"{VENDOR_REGION!r} is the vendor's region")
            self.vendor_node = generate_identity(ids)
            cap = ResourceVector(10 ** 6, 10 ** 9, 10 ** 6)
            self.overlay.add_record(
                NodeRecord(self.vendor_node, VENDOR_REGION, cap), online=True)
            self._log("nodes", self.vendor_node.short, VENDOR_REGION,
                      VENDOR_CLASS, cap.compute, cap.storage, cap.bandwidth,
                      1.0, 0, 0, 1)
            self.services = VendorRuntime(*runtime, self.vendor_node,
                                          topo.vendor_latency)
            # With no root registered, no trust graph is read.
            self.evolution = UpdateDiffusion({}, cfg.evolution.theta)
        # Every node starts online; publish's repository gate reads these.
        for region in self.overlay.regions:
            self.overlay.form_dvsp(region)
        publisher = min(self.node_list)
        for svc in cfg.services:
            desc = ServiceDescriptor(
                svc.service_id, f"dev:{svc.service_id}", svc.declared,
                svc.code_size, svc.min_replicas, svc.subsidy,
                chain_next=svc.chain_next)
            try:
                self.services.publish(desc, publisher, 0)
            except ServiceError:  # no node has the storage for its code
                raise ConfigError(f"[services] {svc.service_id}.code_size",
                                  f"no node can store {svc.code_size}") from None
            for inst in self.services.instances[svc.service_id]:
                self._log("placements", 0, svc.service_id, "deployed",
                          inst.host.short, inst.region)

        self._meta()
        self._schedule()

    def _meta(self) -> None:
        cfg = self.config
        rows = [(key, getattr(cfg, key)) for key in (
            "seed", "horizon", "mode", "gossip_period", "heartbeat_interval",
            "price_window", "placement_window")]
        rows += [("p_min", cfg.market.p_min), ("p_max", cfg.market.p_max),
                 ("minting", int(cfg.market.minting)),
                 ("replication_r", cfg.replication_r)]
        rows += [(f"code_size.{s.service_id}", s.code_size) for s in cfg.services]
        for key, value in rows:
            self._log("meta", key, str(value))

    def _schedule(self) -> None:
        """Queue the workload, each node's first churn, the periodic ticks
        and the scripted failures, in that order."""
        cfg = self.config
        for item in generate(cfg, self.sim.stream("workload"), len(self.node_list)):
            self.sim.at(item.at, self._on_arrival, item)
        for node in self.node_list:
            self._next_churn(node, self._on_leave)
        periodic = [(cfg.heartbeat_interval, self._on_sweep),
                    (cfg.gossip_period, self._on_gossip)]
        if cfg.mode == "community":  # the vendor has no market, no placement
            periodic += [(cfg.price_window, self._on_price),
                         (cfg.placement_window, self._on_placement)]
        for period, handler in periodic:
            for t in range(period, cfg.horizon + 1, period):
                self.sim.at(t, handler)
        for entry in cfg.failures:
            self.sim.at(entry.at, self._on_failure, entry)

    def _next_churn(self, node: NodeId, handler) -> None:
        """Schedule the node's next churn leave or join, whichever `handler`
        is, if it churns at all."""
        rec = self.overlay.records[node]
        mult = self.config.churn_multiplier
        if rec.mean_offline <= 0 or mult <= 0:
            return
        mean = rec.mean_online if handler == self._on_leave else rec.mean_offline
        rate = mult / mean
        if rate <= 0:  # a subnormal multiplier underflows: the node never churns
            return
        gap = self.sim.stream("churn").expovariate(rate)
        if gap >= self.config.horizon - self.sim.now + 1:  # may be inf
            return
        delay = max(1, int(gap))
        if self.sim.now + delay <= self.config.horizon:
            self._churn_event[node] = self.sim.at(self.sim.now + delay,
                                                  handler, node)

    # -- logging helpers ---------------------------------------------------------

    def _log(self, name: str, *row) -> None:
        self.logs[name].append(row)

    # -- requests, sessions and writes ---------------------------------------------

    def _on_arrival(self, item: WorkloadItem) -> None:
        requester = self.node_list[item.requester_index]
        if not self.overlay.is_online(requester):
            return
        at = self.sim.now
        if item.kind == "read":
            self._invoke(requester, item.service_id, item.actual, at, "request")
        elif item.kind == "write":
            for arrive, d in self.replicator.write(
                    f"page/{item.page}", f"{at}:{requester.short}", requester,
                    at, self.config.workload.write_size):
                self.sim.at(arrive, self._on_deliver, d)
        else:
            streamed = ResourceVector(
                bandwidth=self.config.workload.stream_rate * item.duration)
            session = self.services.plan_session(Request(
                next(self._req_ids), item.service_id, requester, at, streamed,
                "session"), at, item.duration)
            if session.plan.outcome == ADMITTED:
                self.sim.at(session.plan.start, self._on_session_begin, session)
            else:
                self._request_row(session.plan)

    def _invoke(self, requester: NodeId, service_id: str,
                actual: ResourceVector, at: SimTime, kind: str) -> None:
        req = Request(next(self._req_ids), service_id, requester, at, actual, kind)
        plan = self.services.plan_invoke(req, at)
        if plan.served:
            self._pending.setdefault(plan.host, {})[plan] = self.sim.at(
                plan.done_at, self._on_complete, plan)
        else:
            self._request_row(plan)

    def _on_complete(self, plan: InvokePlan) -> None:
        at = self.sim.now
        self._pending.get(plan.host, {}).pop(plan, None)
        self.services.settle(plan, at)
        self.repo.record_task(plan.host, plan.outcome == COMPLETED)
        self._request_row(plan)
        if plan.outcome == COMPLETED and plan.descriptor.chain_next:
            nxt = self.services_by_id[plan.descriptor.chain_next]
            actual = draw_actual(nxt, self.sim.stream("chain"))
            self._invoke(plan.request.requester, nxt.service_id, actual, at,
                         "chained")

    def _on_session_begin(self, session: Session) -> None:
        now, host = self.sim.now, session.plan.host
        if self.services.begin_session(session, now):
            self._pending.setdefault(host, {})[session] = self.sim.at(
                now + session.duration, self._on_session_end, session)
        else:
            self._request_row(session.plan)

    def _on_session_end(self, session: Session) -> None:
        self._pending.get(session.plan.host, {}).pop(session, None)
        self.services.end_session(session, self.sim.now)
        self._request_row(session.plan)

    def _on_deliver(self, d: Delivery) -> None:
        if self.overlay.is_online(d.host):
            self.store.deliver(d.obj.key, d.host, d.obj, self.sim.now)

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

    # -- periodic upkeep -------------------------------------------------------------------

    def _on_gossip(self) -> None:
        at = self.sim.now
        self.overlay.maintenance()
        self.replicator.upkeep(at)
        self._log_adoptions(at, self.evolution.adoption_tick(
            self.overlay.is_online))

    def _on_sweep(self) -> None:
        self.repo.sweep(self.sim.now, self.services.held_storage(),
                        self.ledger.market.basket())

    def _on_price(self) -> None:
        at = self.sim.now
        window = self.config.price_window
        online = [self.overlay.records[n] for n in self.node_list
                  if self.overlay.is_online(n)]
        supply = ResourceVector(
            sum(r.capacity.compute for r in online) * window,
            sum(r.capacity.storage for r in online),
            sum(r.capacity.bandwidth for r in online) * window)
        demand = self.services.take_demand()
        self.ledger.market.update(demand, supply)
        price = self.ledger.market.price
        self._log("prices", at, price("compute"), price("storage"),
                  price("bandwidth"))

    def _on_placement(self) -> None:
        self._log_placements(self.services.placement_tick(
            self.sim.now, self.config.push_placement))

    def _log_placements(self, actions) -> None:
        for act in actions:
            self._log("placements", act.at, act.service_id, act.action,
                      act.host.short if act.host else "", act.region)

    def _log_adoptions(self, at: SimTime, adoptions) -> None:
        for adopt in adoptions:
            self._log("adoptions", at, adopt.node.short, adopt.service_id,
                      adopt.from_version, adopt.to_version, adopt.cause)

    # -- membership ------------------------------------------------------------------------

    def _do_leave(self, node: NodeId, at: SimTime, cause: str) -> None:
        if not self.overlay.is_online(node):
            return
        self.overlay.leave(node)
        self._log("membership", at, node.short, "leave", cause)
        self._log_placements(self.services.host_lost(node, at))
        calls = [work for work, ev in self._pending.pop(node, {}).items()
                 if self.sim.cancel(ev) and isinstance(work, InvokePlan)]
        for plan in self.services.cut_off(node, calls, at):
            self._request_row(plan)

    def _do_join(self, node: NodeId, at: SimTime, cause: str) -> None:
        if self.overlay.is_online(node):
            return
        self.overlay.join(node, at)
        self._log("membership", at, node.short, "join", cause)
        self._log_placements(self.services.host_joined(node, at))

    def _on_leave(self, node: NodeId) -> None:
        self._churn_event.pop(node, None)
        self._do_leave(node, self.sim.now, "churn")
        self._next_churn(node, self._on_join)

    def _on_join(self, node: NodeId) -> None:
        self._churn_event.pop(node, None)
        self._do_join(node, self.sim.now, "churn")
        self._next_churn(node, self._on_leave)

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
            vsp = overlay.dvsps.get(entry.scope)
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

    def _on_failure(self, entry: FailureEntry) -> None:
        """A killed node's churn is cancelled, so it stays down until a
        restore names it; a region kill holds the region's offline nodes
        down too. A restored node draws its next churn leave."""
        at = self.sim.now
        kill = entry.action == "kill"
        targets = self._targets(entry)
        held = (self.overlay.regions.get(entry.scope, [])
                if kill and entry.kind == "region" else targets)
        for node in held:
            if node in self._churn_event:
                self.sim.cancel(self._churn_event.pop(node))
        for node in targets:
            if kill:
                self._do_leave(node, at, "scripted")
            else:
                self._do_join(node, at, "scripted")
                self._next_churn(node, self._on_leave)

    def _on_release(self, service_id: str) -> None:
        svc = self.services_by_id[service_id]
        at = self.sim.now
        origins = [i.host for i in self.services.warm_instances(service_id, at)]
        if not origins:
            if not self.overlay.online_ids:
                return
            origins = [min(self.overlay.online_ids)]
        self._log_adoptions(at, self.evolution.release(
            service_id, "2.0", "1.0", svc.update_fitness, sorted(set(origins))))

    # -- execution ------------------------------------------------------------------------

    def run(self) -> dict:
        self.summary = self.sim.run()
        for row in self.ledger.log:
            self._log("transfers", row.at, account_label(row.src),
                      account_label(row.dst), row.amount, row.reason)
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
