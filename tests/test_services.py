"""Service lifecycle: publish, resolve, metered invocation, placement, distribution."""
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from c3sim.engine import RngStream
from c3sim.overlay import NodeRecord, TransactionResult
from c3sim.replication import ReplicaStore
from c3sim.resource_repo import NodeResourceRecord, Repository
from c3sim.resources import RESOURCE_KINDS, ResourceVector
from c3sim.services import (
    ADMITTED,
    COMPLETED,
    TERMINATED,
    InvokePlan,
    Request,
    ServiceDescriptor,
    ServiceError,
    ServiceRuntime,
    ServicesConfig,
    Session,
    VendorRuntime,
    budget_fraction,
)

from helpers import (assert_conserved, chain_overlay, clique_overlay,
                     flat_market, nid, small_ledger)

_req_ids = itertools.count(1)


def make_runtime(n=6, region="main", regions=None, compute=10, storage=10**6,
                 bandwidth=1000, balance=100, price=1, minting=False,
                 dsr_r=3, **cfg_kw):
    overlay, ids = clique_overlay(n, region=region, compute=compute,
                                  storage=storage, bandwidth=bandwidth)
    repo = Repository()
    for node in ids:
        cap = ResourceVector(compute, storage, bandwidth)
        repo.register(NodeResourceRecord(node, region, cap))
        repo.heartbeat(node, cap, 0)
    ledger = small_ledger([(node, balance) for node in ids] + [("dev", 10**6)],
                          market=flat_market(price, minting=minting))
    cfg = ServicesConfig(regions=regions or (region,), dsr_r=dsr_r, **cfg_kw)
    runtime = ServiceRuntime(cfg, overlay, repo, ledger,
                             ReplicaStore(), RngStream(11, "services"))
    return runtime, ids


def descriptor(sid="svc", declared=(5, 0, 0), code_size=8, min_replicas=1,
               subsidy=0):
    return ServiceDescriptor(sid, "dev", ResourceVector(*declared), code_size,
                             min_replicas=min_replicas, subsidy=subsidy)


def request(service_id, requester, at, actual):
    return Request(next(_req_ids), service_id, requester, at,
                   ResourceVector(*actual))


class TestPublication:
    def test_publish_replicates_the_descriptor_and_warms_instances(self):
        rt, ids = make_runtime()
        d = descriptor(min_replicas=2)
        hosts = rt.publish(d, ids[0], 0)
        assert len(hosts) == 3
        assert rt.store.converged(rt.dsr_key("svc"))
        assert rt.resolve("svc", 5) == d
        assert len(rt.warm_instances("svc", 100)) == 2

    def test_a_second_publish_raises_and_moves_nothing(self):
        rt, ids = make_runtime()
        d = descriptor(min_replicas=2)
        rt.publish(d, ids[0], 0)
        key = rt.dsr_key("svc")

        def state():
            store = rt.store
            return (list(store.hosts[key]), dict(store.states[key]),
                    set(store.dirty), list(rt.instances["svc"]),
                    rt._nearest["svc"], list(rt.overlay.graph.repairers))

        before = state()
        for again in (d, descriptor(declared=(9, 0, 0), min_replicas=3)):
            with pytest.raises(ServiceError, match="already published"):
                rt.publish(again, ids[1], 10)
            assert state() == before
        assert rt.resolve("svc", 20) == d

    def test_held_storage_counts_live_instances_only(self):
        rt, ids = make_runtime()
        rt.publish(descriptor("a", code_size=8, min_replicas=2), ids[0], 0)
        rt.publish(descriptor("b", code_size=5, min_replicas=2), ids[0], 0)
        expected = {}
        for inst in rt.instances["a"] + rt.instances["b"]:
            expected[inst.host] = expected.get(inst.host, 0) + inst.size
        assert rt.held_storage() == expected
        assert sum(expected.values()) == 2 * 8 + 2 * 5
        assert rt.take_demand().storage == 2 * 8 + 2 * 5
        lost = rt.instances["a"][0].host
        rt.host_lost(lost, 10)
        assert lost not in rt.held_storage()
        assert rt.take_demand().storage == sum(rt.held_storage().values())

    def test_publish_fails_when_no_host_qualifies(self):
        rt, ids = make_runtime()
        # every repository record is stale by now
        with pytest.raises(ServiceError):
            rt.publish(descriptor(), ids[0], 2000)

    def test_resolution_needs_a_live_replica(self):
        rt, ids = make_runtime()
        assert rt.resolve("ghost", 0) is None
        hosts = rt.publish(descriptor(), ids[0], 0)
        for host in hosts:
            rt.overlay.leave(host)
        assert rt.resolve("svc", 6) is None
        plan = rt.plan_invoke(request("svc", ids[5], 6, (1, 0, 0)), 6)
        assert plan.outcome == "unresolvable" and plan.charged == 0


class TestBudgetMetering:
    def test_fraction_is_one_inside_the_declaration(self):
        for actual, declared in [((5, 5, 5), (5, 5, 5)), ((0, 0, 0), (1, 0, 0))]:
            f = Fraction(*budget_fraction(ResourceVector(*actual),
                                          ResourceVector(*declared)))
            assert f == 1

    def test_fraction_takes_the_tightest_overrun(self):
        f = Fraction(*budget_fraction(ResourceVector(8, 30, 0),
                                      ResourceVector(4, 10, 0)))
        assert f == Fraction(1, 3)

    vectors = st.builds(ResourceVector, st.integers(0, 20), st.integers(0, 20),
                        st.integers(0, 20))

    @given(actual=vectors, declared=vectors)
    def test_fraction_bounds(self, actual, declared):
        f = Fraction(*budget_fraction(actual, declared))
        assert 0 <= f <= 1
        assert (f == 1) == declared.covers(actual)
        for kind in ("compute", "storage", "bandwidth"):
            if actual.get(kind) > declared.get(kind):
                assert f * actual.get(kind) <= declared.get(kind)

    @given(actual=vectors, declared=vectors, gross=st.integers(0, 1000),
           rate=st.integers(1, 12), busy=st.integers(0, 60),
           issued=st.integers(0, 40), hop=st.integers(0, 9))
    @example(actual=ResourceVector(8, 4, 0), declared=ResourceVector(4, 2, 0),
             gross=7, rate=3, busy=0, issued=5, hop=1)  # one ratio, two kinds
    @example(actual=ResourceVector(8, 30, 0), declared=ResourceVector(4, 10, 0),
             gross=10, rate=3, busy=0, issued=0, hop=0)  # storage is tighter
    @example(actual=ResourceVector(0, 7, 3), declared=ResourceVector(0, 0, 5),
             gross=9, rate=2, busy=4, issued=0, hop=2)  # declared 0, drawn 7
    @example(actual=ResourceVector(0, 9, 2), declared=ResourceVector(5, 4, 2),
             gross=11, rate=1, busy=30, issued=3, hop=0)  # no compute drawn
    def test_termination_meters_exactly_as_fractions(
            self, actual, declared, gross, rate, busy, issued, hop):
        """run_on_host's integer metering equals ceil(f * x) over Fraction f,
        the least declared/actual over the overrun kinds."""
        rt, ids = make_runtime(n=2, compute=rate)
        host = ids[1]
        rt.busy_until[host] = busy
        plan = InvokePlan(Request(next(_req_ids), "svc", ids[0], issued, actual),
                          ADMITTED, host=host, gross=gross, start=issued,
                          hop=hop, budget=declared)
        rt.run_on_host(plan)
        start = max(issued + hop, busy)
        full = math.ceil(actual.compute / rate) if actual.compute else 0
        assert plan.start == start
        if declared.covers(actual):
            f = Fraction(1)
            assert plan.outcome == COMPLETED
        else:
            f = min(Fraction(declared.get(k), actual.get(k))
                    for k in RESOURCE_KINDS if actual.get(k) > declared.get(k))
            assert plan.outcome == TERMINATED
        assert plan.consumed == ResourceVector(*(
            min(declared.get(k), math.ceil(f * actual.get(k)))
            for k in RESOURCE_KINDS))
        assert plan.done_at == start + math.ceil(f * full)
        assert plan.charged == math.ceil(f * gross)
        assert rt.busy_until[host] == plan.done_at

    def test_terminated_exactly_when_the_declaration_is_exceeded(self):
        rt, ids = make_runtime()
        rt.publish(descriptor(declared=(5, 0, 0)), ids[0], 0)
        gross = 5
        for a in range(11):
            plan = rt.plan_invoke(request("svc", ids[4], 50, (a, 0, 0)), 50)
            if a <= 5:
                assert plan.outcome == COMPLETED
                assert plan.charged == gross
                assert plan.consumed.compute == a
            else:
                assert plan.outcome == TERMINATED
                f = Fraction(5, a)
                assert plan.charged == -(-gross * f.numerator // f.denominator)
                assert plan.consumed.compute == 5
            assert plan.subsidy_part == 0

    def test_double_overrun_charges_half(self):
        rt, ids = make_runtime()
        rt.publish(descriptor(declared=(10, 0, 0)), ids[0], 0)
        plan = rt.plan_invoke(request("svc", ids[4], 50, (20, 0, 0)), 50)
        assert plan.outcome == TERMINATED
        assert plan.gross == 10 and plan.charged == 5
        assert plan.consumed.compute == 10
        assert plan.done_at - plan.start == 1  # half of the two-tick full run

    def test_subsidy_admits_a_broke_requester_and_caps_at_the_charge(self):
        rt, ids = make_runtime(balance=0)
        rt.publish(descriptor(declared=(5, 0, 0), subsidy=9), ids[0], 0)
        plan = rt.plan_invoke(request("svc", ids[4], 50, (5, 0, 0)), 50)
        assert plan.outcome == COMPLETED
        assert plan.subsidy_part == 5
        rows = rt.settlement_rows(plan, 60)
        rt.ledger.apply_batch(rows)
        assert rt.ledger.accounts[ids[4]].balance == 0
        assert rt.ledger.accounts["dev"].balance == 10**6 - 5
        assert rt.ledger.accounts[plan.host].balance == 5
        assert_conserved(rt.ledger)

    def test_rejected_without_funds(self):
        rt, ids = make_runtime(balance=0)
        rt.publish(descriptor(declared=(5, 0, 0)), ids[0], 0)
        plan = rt.plan_invoke(request("svc", ids[4], 50, (1, 0, 0)), 50)
        assert plan.outcome == "rejected-funds"
        assert plan.host is None and plan.charged == 0
        # the quote it could not cover stays on the plan, for its log row
        assert (plan.gross, plan.budget) == (5, ResourceVector(5, 0, 0))
        assert rt.traffic["svc"] == {}


class TestScheduling:
    def test_one_instance_serves_fifo(self):
        rt, ids = make_runtime()
        rt.publish(descriptor(declared=(5, 0, 0)), ids[0], 0)
        host = rt.warm_instances("svc", 100)[0].host
        requester = next(i for i in ids if i != host)
        p1 = rt.plan_invoke(request("svc", requester, 100, (5, 0, 0)), 100)
        p2 = rt.plan_invoke(request("svc", requester, 100, (5, 0, 0)), 100)
        assert p1.host == p2.host == host
        assert p1.start == 105 and p1.done_at == 106
        assert p2.start == p1.done_at and p2.done_at == 107
        assert p1.latency == 11 and p2.latency == 12

    def test_traffic_counts_admitted_requests_by_region(self):
        rt, ids = make_runtime()
        rt.publish(descriptor(declared=(5, 0, 0)), ids[0], 0)
        for _ in range(3):
            rt.plan_invoke(request("svc", ids[4], 50, (1, 0, 0)), 50)
        assert rt.traffic["svc"] == {"main": 3}

    def test_admission_places_and_counts_without_queueing(self):
        rt, ids = make_runtime()
        rt.publish(descriptor(declared=(5, 0, 0)), ids[0], 0)
        host = rt.warm_instances("svc", 100)[0].host
        requester = next(i for i in ids if i != host)
        plan = rt.admit(request("svc", requester, 100, (5, 0, 0)), 100)
        assert plan.outcome == ADMITTED
        assert (plan.host, plan.start, plan.gross) == (host, 100, 5)
        assert plan.charged == 0 and rt.busy_until == {}
        assert rt.traffic["svc"] == {"main": 1}

    def test_own_draw_as_budget_never_terminates(self):
        rt, ids = make_runtime()
        rt.publish(descriptor(declared=(5, 0, 0)), ids[0], 0)
        actual = ResourceVector(50, 0, 0)
        plan = rt.admit(request("svc", ids[4], 100, (50, 0, 0)), 100)
        plan.budget = actual
        rt.run_on_host(plan)
        assert plan.outcome == COMPLETED
        assert plan.consumed == actual and plan.charged == plan.gross



class TestSettlement:
    """`settle` counts each plan's draw toward the next `take_demand` and
    writes ledger rows only for a positive charge it commits."""

    settle_step = st.tuples(st.just("settle"),
                            st.sampled_from(("paid", "unpaid", "free")),
                            st.integers(0, 10), st.integers(0, 6),
                            st.integers(1, 9))
    steps = st.lists(st.one_of(settle_step,
                               st.tuples(st.just("place"), st.integers(0, 4)),
                               st.tuples(st.just("take"))), max_size=30)

    @given(steps=steps)
    @settings(max_examples=80, deadline=None)
    def test_demand_is_the_draw_settled_since_the_last_take(self, steps):
        """Completed (draw within (5, 0, 3)), terminated (beyond it),
        payment-failed (the host left before settling) and zero-charge
        plans, with deploys and retires between them. Charges up to the
        subsidy of 2 pay by a subsidy row alone."""
        rt, ids = make_runtime(balance=10**4)
        rt.overlay.form_dvsp("main")
        desc = descriptor(declared=(5, 0, 3), min_replicas=1, subsidy=2)
        rt.publish(desc, ids[0], 0)
        log = rt.ledger.log
        compute = bandwidth = 0
        for at, (op, *args) in enumerate(steps, start=1):
            if op == "place":
                rt._apply_targets(desc, {"main": args[0]}, at)
            elif op == "take":
                held = sum(i.size for insts in rt.instances.values()
                           for i in insts)
                assert rt.take_demand() == ResourceVector(compute, held,
                                                          bandwidth)
                compute = bandwidth = 0
            else:
                kind, c, b, gross = args
                plan = InvokePlan(
                    Request(next(_req_ids), "svc", ids[4], at,
                            ResourceVector(c, 0, b)),
                    ADMITTED, descriptor=desc, host=ids[1 + at % 3],
                    gross=0 if kind == "free" else gross, start=at,
                    budget=desc.declared)
                rt.run_on_host(plan)
                assert plan.outcome == (COMPLETED if c <= 5 and b <= 3
                                        else TERMINATED)
                rows = len(log)
                if kind == "unpaid":
                    rt.overlay.leave(plan.host)
                rt.settle(plan, at)
                if kind == "unpaid":
                    rt.overlay.join(plan.host, at)
                    assert plan.outcome == "payment-failed"
                compute += plan.consumed.compute
                bandwidth += plan.consumed.bandwidth
                assert (len(log) > rows) == (kind == "paid")

    def test_a_region_without_quorum_refuses_the_payment(self):
        """The super-peer's quorum is lost while requester and host stay
        online: the settlement is refused, the plan is left payment-failed
        and uncharged, and no row or balance moves."""
        rt, ids = make_runtime()
        rt.publish(descriptor(declared=(5, 0, 0)), ids[0], 0)
        host = rt.warm_instances("svc", 50)[0].host
        for member in rt.overlay.form_dvsp("main").members:
            if member != host:
                rt.overlay.leave(member)
        assert not rt.overlay.dvsp_has_quorum("main")
        requester = next(i for i in ids
                         if i != host and rt.overlay.is_online(i))
        plan = rt.plan_invoke(request("svc", requester, 50, (5, 0, 0)), 50)
        assert (plan.outcome, plan.host, plan.charged) == (COMPLETED, host, 5)
        assert rt.overlay.execute_transaction(
            "main", rt.settlement_rows(plan, 60), rt.ledger
        ) == TransactionResult(False, "no-quorum")
        balances = {k: a.balance for k, a in rt.ledger.accounts.items()}
        rt.settle(plan, 60)
        assert (plan.outcome, plan.charged) == ("payment-failed", 0)
        assert rt.ledger.log == []
        assert {k: a.balance for k, a in rt.ledger.accounts.items()} == balances


class TestPullPlacement:
    def test_cold_service_is_pulled_on_demand(self):
        rt, ids = make_runtime()
        rt.publish(descriptor(declared=(5, 0, 0)), ids[0], 0)
        lost = rt.warm_instances("svc", 10)[0].host
        rt.host_lost(lost, 10)
        plan = rt.plan_invoke(request("svc", ids[4], 50, (5, 0, 0)), 50)
        assert plan.outcome == COMPLETED
        live = rt.instances["svc"]
        assert len(live) == 1 and live[0].warm_at >= 50  # pulled at 50

    def test_no_capacity_when_nothing_fresh_can_host(self):
        rt, ids = make_runtime()
        rt.publish(descriptor(declared=(5, 0, 0)), ids[0], 0)
        rt.host_lost(rt.warm_instances("svc", 10)[0].host, 10)
        plan = rt.plan_invoke(request("svc", ids[4], 2000, (1, 0, 0)), 2000)
        assert plan.outcome == "no-capacity"
        assert (plan.host, plan.gross, plan.charged) == (None, 5, 0)

    def test_offline_requester_resolves_nothing(self):
        rt, ids = make_runtime()
        rt.publish(descriptor(declared=(5, 0, 0)), ids[0], 0)
        requester = next(i for i in ids
                         if i not in {inst.host for inst in rt.instances["svc"]})
        rt.overlay.leave(requester)
        plan = rt.plan_invoke(request("svc", requester, 30, (1, 0, 0)), 30)
        assert plan.outcome == "unresolvable"


class TestPushPlacement:
    def burst_runtime(self):
        rt, ids = make_runtime(regions=("main", "other"))
        rt.publish(descriptor(declared=(5, 0, 0)), ids[0], 0)
        return rt, ids

    def test_demand_burst_scales_out_to_the_share_target(self):
        rt, ids = self.burst_runtime()
        rt.traffic["svc"] = {"main": 8}
        actions = rt.placement_tick(10, push_enabled=True)
        deployed = [a for a in actions if a.action == "deployed"]
        assert len(deployed) == 3  # full share of demand wants ceil(1/0.25) = 4
        assert all(a.region == "main" for a in deployed)
        assert len(rt.warm_instances("svc", 100)) == 4
        assert rt.traffic["svc"] == {}

    def test_scale_in_waits_out_the_cool_down_then_retires_newest_first(self):
        rt, ids = self.burst_runtime()
        (first,) = rt.instances["svc"]
        rt.traffic["svc"] = {"main": 8}
        rt.placement_tick(10, push_enabled=True)
        added = [i.host for i in rt.instances["svc"][1:]]
        assert len(added) == 3
        assert rt.placement_tick(20, push_enabled=True) == []
        assert rt.placement_tick(30, push_enabled=True) == []
        actions = rt.placement_tick(40, push_enabled=True)
        assert [a.action for a in actions] == ["retired"] * 3
        assert [a.host for a in actions] == added[::-1]
        assert rt.instances["svc"] == [first]

    def test_session_admissions_alone_scale_out_above_the_floor(self):
        rt, ids = self.burst_runtime()
        for _ in range(8):
            plan = rt.admit(Request(next(_req_ids), "svc", ids[4], 10,
                                    ResourceVector(bandwidth=40), "session"), 10)
            assert plan.outcome == ADMITTED
        actions = rt.placement_tick(10, push_enabled=True)
        assert [a.action for a in actions] == ["deployed"] * 3
        assert len(rt.warm_instances("svc", 100)) == 4

    def test_pull_mode_only_repairs_the_floor(self):
        rt, ids = make_runtime()
        rt.publish(descriptor(declared=(5, 0, 0), min_replicas=2), ids[0], 0)
        rt.traffic["svc"] = {"main": 50}
        assert rt.placement_tick(10, push_enabled=False) == []
        rt.host_lost(rt.warm_instances("svc", 20)[0].host, 20)
        actions = rt.placement_tick(30, push_enabled=False)
        assert [a.action for a in actions] == ["deployed"]

    def test_shortfall_is_recorded_when_no_host_qualifies(self):
        rt, ids = make_runtime()
        rt.publish(descriptor(declared=(5, 0, 0)), ids[0], 0)
        rt.host_lost(rt.warm_instances("svc", 10)[0].host, 10)
        actions = rt.placement_tick(2000, push_enabled=False)
        assert len(actions) == 1
        assert actions[0].action == "shortfall" and actions[0].host is None


class TestSessionMetering:
    """A session streams at its rate while its fair share of the host's
    bandwidth allows; its plan settles when it ends."""

    def start(self, rt, requester, at, n=1, duration=100):
        sessions = []
        for _ in range(n):
            req = Request(next(_req_ids), "svc", requester, at,
                          ResourceVector(bandwidth=2 * duration), "session")
            sessions.append(rt.plan_session(req, at, duration))
        begin = sessions[0].plan.start
        for s in sessions:
            assert s.plan.outcome == ADMITTED and s.plan.start == begin
            assert rt.begin_session(s, begin)
        return sessions, begin

    def runtime(self, bandwidth):
        rt, ids = make_runtime(bandwidth=bandwidth, stream_rate=2, floor=0.8,
                               sustain_window=50)
        rt.overlay.form_dvsp("main")
        rt.publish(descriptor(declared=(0, 0, 2)), ids[0], 0)
        return rt, ids

    def test_a_lone_session_streams_in_full_and_pays(self):
        rt, ids = self.runtime(bandwidth=3)
        (session,), begin = self.start(rt, ids[4], 50)
        rt.end_session(session, begin + 100)
        plan = session.plan
        assert plan.outcome == COMPLETED
        assert plan.consumed == ResourceVector(bandwidth=200)
        assert plan.charged == plan.gross > 0

    def test_a_share_under_the_floor_for_the_sustain_window_fails(self):
        # Two streams at rate 2 split bandwidth 3: 1.5 each, under 0.8 * 2.
        rt, ids = self.runtime(bandwidth=3)
        sessions, begin = self.start(rt, ids[4], 50, n=2)
        for s in sessions:
            rt.end_session(s, begin + 100)
        for s in sessions:
            assert s.plan.outcome == "failed-throughput"
            assert s.plan.consumed == ResourceVector(bandwidth=150)
            assert s.plan.charged == 0
        assert sessions[0].plan.host not in rt._accounts

    def test_a_host_loss_ends_calls_then_sessions_uncharged(self):
        rt, ids = self.runtime(bandwidth=1000)
        (session,), begin = self.start(rt, ids[4], 50)
        host = session.plan.host
        call = rt.plan_invoke(request("svc", ids[5], begin, (0, 0, 1)), begin)
        assert call.served and call.host == host
        rt.take_demand()
        rt.overlay.leave(host)
        rt.host_lost(host, begin + 40)
        assert rt.cut_off(host, [call], begin + 40) == [call, session.plan]
        assert (call.outcome, call.latency, call.charged) == ("host-offline", 0, 0)
        assert call.consumed == ResourceVector()
        plan = session.plan
        assert (plan.outcome, plan.charged) == ("host-offline", 0)
        assert plan.consumed == ResourceVector(bandwidth=80)  # 40 ticks at 2
        assert rt.take_demand() == ResourceVector(bandwidth=80)
        assert host not in rt._accounts


@dataclass(eq=False)
class ReferenceStream:
    streamed: float = 0.0
    below_run: int = 0
    failed: bool = False


class ReferenceMeter:
    """Per-session metering, with no per-host floor state: at each metering
    every session on the host adds its own term to its own total and steps
    its own below-floor run."""

    def __init__(self, bandwidths, rate, floor, sustain):
        self.bandwidths, self.rate = bandwidths, rate
        self.floor, self.sustain = floor * rate, sustain
        self.sessions: dict[int, list[ReferenceStream]] = {}
        self.metered_at: dict[int, int] = {}

    def meter(self, host, now):
        active = self.sessions.get(host, ())
        span = now - self.metered_at.get(host, now)
        self.metered_at[host] = now
        if not active or span <= 0:
            return
        share = self.bandwidths[host] / len(active)
        for s in active:
            delivered = min(float(self.rate), share)
            s.streamed += delivered * span
            if delivered < self.floor:
                s.below_run += span
                if s.below_run >= self.sustain:
                    s.failed = True
            else:
                s.below_run = 0

    def begin(self, host, now):
        self.meter(host, now)
        stream = ReferenceStream()
        self.sessions.setdefault(host, []).append(stream)
        return stream

    def end(self, host, stream, now):
        self.meter(host, now)
        self.sessions[host].remove(stream)
        return "failed-throughput" if stream.failed else COMPLETED

    def cut_off(self, host, now):
        self.meter(host, now)
        return self.sessions.pop(host, [])


class TestStreamAccounts:
    """The per-host accounts, one floor check per host and a running total
    per session, close every session exactly as metering each session on its
    own would: same outcome, same consumed, same float. No account outlives
    its host's last live session."""

    # Short steps against short sustain windows, and more begins and ends
    # than cut-offs, so that below-floor stretches start, break and resume
    # under sessions that outlive them.
    @given(bandwidths=st.lists(st.integers(1, 8), min_size=1, max_size=2),
           rate=st.integers(1, 3),
           floor=st.sampled_from([0.5, 0.75, 0.8, 1.0]),
           sustain=st.integers(1, 12),
           ops=st.lists(st.tuples(st.sampled_from(["begin", "begin", "end",
                                                   "end", "cut"]),
                                  st.integers(0, 50), st.integers(0, 4)),
                        max_size=120))
    @settings(max_examples=300)
    # an interval at or above the floor ends the below-floor stretch
    @example(bandwidths=[4], rate=2, floor=1.0, sustain=10,
             ops=[("begin", 0, 0)] * 3 + [("end", 2, 6), ("begin", 0, 2),
                                          ("end", 0, 6)])
    # a session begun inside a stretch counts its run from its own begin
    @example(bandwidths=[4], rate=2, floor=1.0, sustain=10,
             ops=[("begin", 0, 0)] * 3 + [("begin", 0, 8), ("end", 3, 6)])
    # a host cut off and used again starts a fresh account
    @example(bandwidths=[3], rate=2, floor=0.8, sustain=5,
             ops=[("begin", 0, 0), ("cut", 0, 1), ("begin", 0, 1),
                  ("end", 0, 2)])
    # a late session's total adds only its own terms of 7/4, so it is not a
    # difference of running sums
    @example(bandwidths=[7], rate=3, floor=0.5, sustain=25,
             ops=[("begin", 0, 0)] * 3 + [("begin", 0, 1), ("end", 3, 1)])
    def test_closed_sessions_match_per_session_metering(
            self, bandwidths, rate, floor, sustain, ops):
        n = len(bandwidths)
        overlay, ids = chain_overlay([1] * n, bandwidths + [1])
        hosts, requester = ids[:n], ids[n]
        rt = ServiceRuntime(
            ServicesConfig(regions=("r0",), stream_rate=rate, floor=floor,
                           sustain_window=sustain),
            overlay, Repository(), small_ledger([("dev", 0)]), ReplicaStore(),
            RngStream(11, "services"))
        ref = ReferenceMeter(bandwidths, rate, floor, sustain)
        desc = descriptor(declared=(0, 0, rate))
        live = []  # (session, reference stream, host index) in begin order

        def check(session, stream, outcome):
            assert session.plan.outcome == outcome
            assert session.plan.consumed == ResourceVector(
                bandwidth=int(stream.streamed))
            assert session.streamed == stream.streamed

        now = 0
        for kind, pick, step in ops:
            now += step
            if kind == "begin":
                h = pick % n
                plan = InvokePlan(Request(next(_req_ids), "svc", requester,
                                          now, ResourceVector(), "session"),
                                  ADMITTED, desc, hosts[h])
                session = Session(plan, 0)
                assert rt.begin_session(session, now)
                live.append((session, ref.begin(h, now), h))
            elif kind == "end" and live:
                session, stream, h = live.pop(pick % len(live))
                rt.end_session(session, now)
                check(session, stream, ref.end(h, stream, now))
            elif kind == "cut":
                h = pick % n
                lost = [(s, r) for s, r, i in live if i == h]
                assert rt.cut_off(hosts[h], [], now) == [s.plan for s, _ in lost]
                assert [r for _, r in lost] == ref.cut_off(h, now)
                for session, stream in lost:
                    check(session, stream, "host-offline")
                live[:] = [x for x in live if x[2] != h]
        for session, stream, h in live:
            rt.end_session(session, now + 1)
            check(session, stream, ref.end(h, stream, now + 1))
        assert not rt._accounts


class TestVendorRuntime:
    def vendor_runtime(self):
        overlay, ids = clique_overlay(4)
        vendor = nid(100)
        overlay.add_record(NodeRecord(vendor, "core", ResourceVector(
            10**6, 10**9, 10**6)), online=True)
        rt = VendorRuntime(ServicesConfig(regions=("main",)), overlay,
                           Repository(), small_ledger([]), ReplicaStore(),
                           RngStream(11, "services"), vendor, latency=30)
        rt.publish(descriptor(declared=(5, 0, 0)), ids[0], 0)
        return rt, ids, vendor

    def test_a_plan_names_the_vendor_at_no_price(self):
        rt, ids, vendor = self.vendor_runtime()
        plan = rt.admit(request("svc", ids[1], 50, (1, 0, 0)), 50)
        assert (plan.outcome, plan.host, plan.gross) == (ADMITTED, vendor, 0)
        assert plan.descriptor.service_id == "svc"
        assert plan.budget == ResourceVector(1, 0, 0)  # its own draw

    def test_a_draw_over_the_declared_budget_completes_uncharged(self):
        rt, ids, vendor = self.vendor_runtime()
        plan = rt.plan_invoke(request("svc", ids[1], 50, (50, 0, 0)), 50)
        assert plan.outcome == COMPLETED
        assert plan.consumed == ResourceVector(50, 0, 0)
        assert plan.charged == 0 and rt.settlement_rows(plan, 50) == []
        assert plan.latency == 30 + 1 + 30  # direct link there and back

    def test_an_offline_host_turns_the_request_away_at_admission(
            self, monkeypatch):
        rt, ids, vendor = self.vendor_runtime()
        rt.overlay.leave(vendor)
        ran = []
        monkeypatch.setattr(rt, "run_on_host", lambda *args: ran.append(args))
        plan = rt.plan_invoke(request("svc", ids[1], 50, (1, 0, 0)), 50)
        assert plan.outcome == "unreachable"
        assert plan.host is None and plan.charged == 0
        assert ran == []

    def test_a_second_publish_raises(self):
        rt, ids, vendor = self.vendor_runtime()
        with pytest.raises(ServiceError, match="already published"):
            rt.publish(descriptor(declared=(5, 0, 0)), ids[0], 10)
        assert [i.host for i in rt.instances["svc"]] == [vendor]

    def test_placement_never_acts(self):
        rt, ids, vendor = self.vendor_runtime()
        rt.traffic["svc"] = {"main": 50}
        assert rt.placement_tick(10, push_enabled=True) == []
        assert [i.host for i in rt.instances["svc"]] == [vendor]


class TestDistribution:
    def test_repeater_tree_caps_every_senders_egress(self):
        rt, ids = make_runtime(n=17)
        origin, consumers = ids[0], ids[1:]
        delivered = rt.distribute(origin, consumers, size=8, at=0,
                                  repeaters=True, fanout=2)
        assert set(delivered) == set(consumers)
        assert rt.egress[origin] == 2 * 8
        assert all(v <= 2 * 8 for v in rt.egress.values())
        assert sum(rt.egress.values()) == 16 * 8
        assert sorted(delivered.values()) == [6] * 2 + [12] * 4 + [18] * 8 + [24] * 2

    def test_direct_fanout_charges_the_origin_per_consumer(self):
        rt, ids = make_runtime(n=17)
        origin, consumers = ids[0], ids[1:]
        delivered = rt.distribute(origin, consumers, size=8, at=0,
                                  repeaters=False)
        assert set(delivered) == set(consumers)
        assert rt.egress == {origin: 16 * 8}
        assert sorted(set(delivered.values())) == [6]

    def test_origin_never_ships_to_itself(self):
        rt, ids = make_runtime(n=4)
        delivered = rt.distribute(ids[0], [ids[0], ids[1]], size=5, at=0)
        assert list(delivered) == [ids[1]]
