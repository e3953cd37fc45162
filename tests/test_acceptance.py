"""The ten acceptance gates, one test per criterion, in order.

Each test prints a single verdict line on the real terminal (past pytest's
capture), so a plain pytest run shows the tally:

    ACCEPTANCE 1: PASS (determinism)
    ...

A failing criterion still fails its test the normal way; the printed line
just flips to FAIL.
"""
from __future__ import annotations

import itertools
import math
from contextlib import contextmanager
from pathlib import Path

import pytest

from c3sim.engine import RngStream
from c3sim.evolution import UpdateDiffusion
from c3sim.harness.audits import audit_payment_identity, run_audits
from c3sim.harness.config import parse_scenario, parse_scenario_text
from c3sim.harness.io import report_json
from c3sim.harness.metrics import column_index
from c3sim.harness.runner import run_scenario
from c3sim.replication import ReplicaStore, merge
from c3sim.resource_repo import (
    NodeResourceRecord,
    Repository,
    ResourceQuery,
)
from c3sim.resources import ResourceVector
from c3sim.services import (
    COMPLETED,
    TERMINATED,
    Request,
    ServiceDescriptor,
    ServiceRuntime,
    ServicesConfig,
)

from helpers import (assert_conserved, clique_overlay, flat_market, nid,
                     small_ledger)

SCENARIO_DIR = Path(__file__).resolve().parent.parent / "scenarios"
SHIPPED = ("wiki_small.ini", "video_small.ini", "mixed_churn.ini")


@contextmanager
def criterion(number: int, title: str, capfd):
    def announce(ok: bool) -> None:
        with capfd.disabled():
            print(f"ACCEPTANCE {number}: {'PASS' if ok else 'FAIL'} ({title})",
                  flush=True)
    try:
        yield
    except BaseException:
        announce(False)
        raise
    announce(True)


@pytest.fixture(scope="module")
def shipped_runs():
    return {name: run_scenario(parse_scenario(SCENARIO_DIR / name))
            for name in SHIPPED}


# -- 1 ------------------------------------------------------------------


def test_01_determinism_across_repeated_runs(shipped_runs, capfd):
    with criterion(1, "determinism, 3 scenarios x 2 runs", capfd):
        for name, first in shipped_runs.items():
            again = run_scenario(parse_scenario(SCENARIO_DIR / name))
            assert report_json(again.report) == report_json(first.report), name
            assert again.logs == first.logs, name


# -- 2 ------------------------------------------------------------------

CONSERVATION_SCENARIO = """
[simulation]
seed = 11
horizon = 60000
mode = community
gossip_period = 10000
heartbeat_interval = 2000
price_window = 10000
placement_window = 10000

[topology]
regions = r0
degree = 6
inter_region_links = 1
m_target = 5

[population]
classes = box
box.count = 20
box.compute = 50
box.storage = 1000000
box.bandwidth = 100000
box.initial_balance = 1000000000

[services]
catalog = svc
svc.declared_compute = 4
svc.declared_bandwidth = 2
svc.code_size = 10
svc.min_replicas = 4

[workload]
kind = wiki
rate = 2.0
read_fraction = 1.0
"""


def test_02_currency_conservation_at_scale(capfd):
    with criterion(2, "conservation over 1e5 requests", capfd):
        runner = run_scenario(parse_scenario_text(CONSERVATION_SCENARIO))
        assert runner.report["requests_issued"] >= 100_000
        assert run_audits(runner.logs) == []
        opening = sum(row[1] for row in runner.logs["balances"])
        closing = sum(row[2] for row in runner.logs["balances"])
        assert closing == opening


# -- 3 ------------------------------------------------------------------


def degradation_scenario(seed: int, mode: str, target: str) -> str:
    return f"""
[simulation]
seed = {seed}
horizon = 24000
mode = {mode}
gossip_period = 2000
heartbeat_interval = 1000
price_window = 4000
placement_window = 4000

[topology]
regions = r0
degree = 6
m_target = 5

[population]
classes = box
box.count = 200
box.compute = 10
box.storage = 1000000
box.bandwidth = 10000
box.initial_balance = 1000000000

[services]
catalog = svc
svc.declared_compute = 4
svc.declared_bandwidth = 2
svc.code_size = 10
svc.min_replicas = 3

[workload]
kind = wiki
rate = 0.05
read_fraction = 1.0

[failures]
entries = hit
hit.at = 8000
hit.action = kill
hit.target = {target}
"""


def window_availability(runner, start: int) -> float:
    at = column_index("requests", "at")
    outcome = column_index("requests", "outcome")
    rows = [r for r in runner.logs["requests"] if r[at] >= start]
    assert rows, "no demand in the outage window"
    done = sum(1 for r in rows if r[outcome] == "completed")
    return done / len(rows)


def test_03_graceful_degradation_vs_monoculture(capfd):
    with criterion(3, "degradation floors, seeds 1-10", capfd):
        for seed in range(1, 11):
            vendor = run_scenario(parse_scenario_text(
                degradation_scenario(seed, "vendor", "vendor")))
            assert window_availability(vendor, 8000) == 0.0, seed
            light = run_scenario(parse_scenario_text(
                degradation_scenario(seed, "community", "nodes:random:0.1")))
            assert window_availability(light, 8000) >= 0.7, seed
            heavy = run_scenario(parse_scenario_text(
                degradation_scenario(seed, "community", "nodes:random:0.3")))
            assert window_availability(heavy, 8000) >= 0.4, seed


# -- 4 ------------------------------------------------------------------


def service_runtime(n=6, compute=10):
    overlay, ids = clique_overlay(n, region="main", compute=compute,
                                  storage=10 ** 6, bandwidth=1000)
    repo = Repository()
    cap = ResourceVector(compute, 10 ** 6, 1000)
    for node in ids:
        repo.register(NodeResourceRecord(node, "main", cap))
        repo.heartbeat(node, cap, 0)
    ledger = small_ledger([(node, 10 ** 6) for node in ids] + [("dev", 10 ** 6)],
                          market=flat_market(1))
    runtime = ServiceRuntime(ServicesConfig(regions=("main",)), overlay, repo,
                             ledger, ReplicaStore(),
                             RngStream(11, "services"))
    return runtime, ids


def test_04_budget_semantics(shipped_runs, capfd):
    with criterion(4, "budget sweep + payment identity", capfd):
        rt, ids = service_runtime()
        declared = 5
        rt.publish(ServiceDescriptor("svc", "dev", ResourceVector(declared, 0, 0),
                                     code_size=8, min_replicas=1, subsidy=2),
                   ids[0], 0)
        for req_id, actual in enumerate(range(0, 2 * declared + 1), start=1):
            plan = rt.plan_invoke(Request(req_id, "svc", ids[4], 50,
                                          ResourceVector(actual, 0, 0)), 50)
            if actual > declared:
                assert plan.outcome == TERMINATED, actual
            else:
                assert plan.outcome == COMPLETED, actual
            accounts = rt.ledger.accounts
            before = {k: accounts[k].balance for k in (ids[4], "dev", plan.host)}
            rt.ledger.apply_batch(rt.settlement_rows(plan, 60))
            requester_debit = before[ids[4]] - accounts[ids[4]].balance
            developer_debit = before["dev"] - accounts["dev"].balance
            host_credit = accounts[plan.host].balance - before[plan.host]
            assert requester_debit + developer_debit == plan.charged
            assert host_credit == plan.charged
            assert developer_debit == plan.subsidy_part
            assert_conserved(rt.ledger)
        for name, runner in shipped_runs.items():
            assert audit_payment_identity(runner.logs) == [], name


# -- 5 ------------------------------------------------------------------


def test_05_score_proportional_selection(capfd):
    with criterion(5, "chi-square of pick frequencies", capfd):
        draws = 10_000
        weights = (1.0, 0.0, 0.0, 0.0)  # score reduces to perf_history
        perf = {nid(1): 1.0, nid(2): 2.0, nid(3): 3.0}
        passing = 0
        for seed in range(1, 11):
            repo = Repository()
            cap = ResourceVector(10, 10, 10)
            for node, p in perf.items():
                repo.register(NodeResourceRecord(node, "r", cap, perf_history=p))
                repo.heartbeat(node, cap, 0)
            rng = RngStream(seed, "selection")
            query = ResourceQuery(ResourceVector(1, 1, 1), count=1,
                                  weights=weights)
            counts = {node: 0 for node in perf}
            for _ in range(draws):
                counts[repo.query(query, rng, 0).nodes[0]] += 1
            total_score = sum(perf.values())
            chi2 = sum((counts[n] - draws * p / total_score) ** 2
                       / (draws * p / total_score) for n, p in perf.items())
            p_value = math.exp(-chi2 / 2)  # chi-square survival, 2 dof
            passing += p_value > 0.05
        assert passing >= 9


# -- 6 ------------------------------------------------------------------


def test_06_eventual_consistency(shipped_runs, capfd):
    with criterion(6, "gossip orderings + wiki convergence", capfd):
        a, b, c = nid(1), nid(2), nid(3)
        store = ReplicaStore()
        store.ensure("k", [a, b, c])
        store.put("k", "w1", writer=a, at=5, apply_at=a)   # broadcasts lost:
        store.put("k", "w2", writer=b, at=5, apply_at=b)   # states diverge
        base = dict(store.states["k"])
        finals = set()
        for order in itertools.permutations(list(itertools.permutations((a, b, c), 2))):
            states = dict(base)
            for x, y in order:
                left, right = states.get(x), states.get(y)
                joined = merge(left, right) if (left and right) else (left or right)
                states[x] = states[y] = joined
            assert all(states[h].same_state(states[a]) for h in (b, c))
            winner = states[a]
            finals.add((winner.value, winner.wall,
                        tuple(sorted(winner.vv.items()))))
        assert len(finals) == 1

        wiki = shipped_runs["wiki_small.ini"]
        cfg = parse_scenario(SCENARIO_DIR / "wiki_small.ini")
        budget = 4 * math.ceil(math.log2(cfg.replication_r)) * cfg.gossip_period
        last_put: dict[str, int] = {}
        settled: dict[str, list[int]] = {}
        for at, key, action, _node in wiki.logs["replication"]:
            if action == "put":
                last_put[key] = at
            elif action == "converged":
                settled.setdefault(key, []).append(at)
        for key, put_at in last_put.items():
            if put_at + budget > cfg.horizon:
                continue  # quiescence too close to the end to observe
            assert any(put_at <= t <= put_at + budget
                       for t in settled.get(key, [])), key


# -- 7 ------------------------------------------------------------------


def placement_scenario(push: bool) -> str:
    return f"""
[simulation]
seed = 7
horizon = 20000
mode = community
gossip_period = 2000
heartbeat_interval = 1000
price_window = 5000
placement_window = 1000
push_placement = {"on" if push else "off"}

[topology]
regions = north, south
degree = 6
inter_region_links = 3
intra_latency = 5
inter_latency = 50
m_target = 5

[population]
classes = northdesk, southbox
northdesk.count = 90
northdesk.regions = north
northdesk.compute = 10
northdesk.storage = 1000000
northdesk.bandwidth = 10000
northdesk.initial_balance = 1000000000
southbox.count = 10
southbox.regions = south
southbox.compute = 10
southbox.storage = 1000000
southbox.bandwidth = 10000
southbox.initial_balance = 1000000000

[services]
catalog = svc
svc.declared_compute = 80
svc.declared_bandwidth = 2
svc.code_size = 10
svc.min_replicas = 2

[workload]
kind = wiki
rate = 0.3
read_fraction = 1.0
"""


def test_07_push_placement_beats_pull_on_p95(capfd):
    with criterion(7, "push p95 <= 0.7x pull p95", capfd):
        push = run_scenario(parse_scenario_text(placement_scenario(True)))
        pull = run_scenario(parse_scenario_text(placement_scenario(False)))
        assert push.report["latency_p95"] <= 0.7 * pull.report["latency_p95"], \
            (push.report["latency_p95"], pull.report["latency_p95"])


# -- 8 ------------------------------------------------------------------


def strongly_connected_trust(seed: int, n: int = 50):
    """Shuffled ring (strongly connected) plus at most one chord per node."""
    rng = RngStream(seed, "trust")
    ids = [nid(i) for i in range(1, n + 1)]
    ring = rng.sample(ids, n)
    trust = {}
    for i, node in enumerate(ring):
        edges = [ring[(i + 1) % n]]
        if rng.random() < 0.5:
            chord = rng.choice(ids)
            if chord not in (node, edges[0]):
                edges.append(chord)
        trust[node] = tuple(edges)
    return trust, ring


def test_08_update_dominance_and_rollback_exactness(capfd):
    with criterion(8, "full adoption + rollback inverse", capfd):
        for seed in range(1, 11):
            trust, ring = strongly_connected_trust(seed)
            diff = UpdateDiffusion(trust, theta=0.5)
            diff.register_root("svc", "1.0", 1.0)
            diff.release("svc", "2.0", "1.0", 2.0, [ring[0]])
            for _ in range(2 * len(trust)):
                diff.adoption_tick()
                if diff.adoption_fraction("svc", "2.0") == 1.0:
                    break
            assert diff.adoption_fraction("svc", "2.0") == 1.0, seed

        # rollback must invert adoption histories exactly, step for step
        rng = RngStream(99, "rollback")
        nodes = [nid(i) for i in range(1, 6)]
        trust = {node: (nodes[(i + 1) % 5],) for i, node in enumerate(nodes)}
        diff = UpdateDiffusion(trust, theta=0.5)
        diff.register_root("svc", "v0", 1.0)
        shadow = {node: ["v0"] for node in nodes}   # full state trail
        releases = 0
        ops = 0
        while ops < 1000:
            roll = rng.random()
            if roll < 0.35:
                releases += 1
                version = f"v{releases}"
                parent = rng.choice(sorted({v for t in shadow.values() for v in t}))
                origin = rng.choice(nodes)
                recorded = diff.release("svc", version, parent,
                                        1.0 + releases, [origin])
                for adoption in recorded:
                    shadow[adoption.node].append(adoption.to_version)
                    ops += 1
            elif roll < 0.6:
                for adoption in diff.adoption_tick():
                    shadow[adoption.node].append(adoption.to_version)
                    ops += 1
            else:
                candidates = [n for n in nodes if len(shadow[n]) > 1]
                if not candidates:
                    continue
                node = rng.choice(candidates)
                steps = rng.randint(1, len(shadow[node]) - 1)
                recorded = diff.rollback(node, "svc", steps)
                assert len(recorded) == steps
                for adoption in recorded:
                    expected = shadow[node].pop()
                    assert adoption.from_version == expected
                    assert adoption.to_version == shadow[node][-1]
                    ops += 1
            for node in nodes:
                assert diff.active[(node, "svc")] == shadow[node][-1]
        assert ops >= 1000


# -- 9 ------------------------------------------------------------------


def test_09_dvsp_survives_losing_half_its_members(capfd):
    with criterion(9, "super-peer reform within 2 rounds", capfd):
        for seed in range(1, 11):
            overlay, ids = clique_overlay(20, region="main", m_target=5)
            vsp = overlay.form_dvsp("main")
            assert len(vsp.members) == 5
            rng = RngStream(seed, "kills")
            for node in rng.sample(list(vsp.members), len(vsp.members) // 2):
                overlay.leave(node)
            reformed = None
            for _ in range(2):
                overlay.maintenance()
                reformed = overlay.dvsps["main"]
                if (reformed.epoch > vsp.epoch
                        and len(reformed.members) == 5
                        and all(overlay.is_online(m) for m in reformed.members)):
                    break
            assert reformed.epoch == vsp.epoch + 1, seed
            assert len(reformed.members) == 5, seed
            assert all(overlay.is_online(m) for m in reformed.members), seed


# -- 10 -----------------------------------------------------------------


def test_10_repeater_egress_stays_bounded(capfd):
    with criterion(10, "repeater egress <= 2x vs 16x", capfd):
        size = 8
        rt, ids = service_runtime(n=17)
        origin, consumers = ids[0], ids[1:]
        delivered = rt.distribute(origin, consumers, size=size, at=0,
                                  repeaters=True, fanout=2)
        assert set(delivered) == set(consumers)
        assert rt.egress[origin] <= 2 * size
        assert all(v <= 2 * size for v in rt.egress.values())

        rt2, ids2 = service_runtime(n=17)
        direct = rt2.distribute(ids2[0], ids2[1:], size=size, at=0,
                                repeaters=False)
        assert set(direct) == set(ids2[1:])
        assert rt2.egress == {ids2[0]: 16 * size}
